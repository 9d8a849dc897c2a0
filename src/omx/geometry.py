"""Optomechanical-crystal geometry: unit-cell parameters and adiabatic tapers.

The dagger-shaped defect parameters d and h transition smoothly from the
central cell (index 0) to the outermost cell (index N) of a mirror-symmetric
structure with 2N+1 cells:

    v_n = vN - (vN - v0) * 2**(-(n/delta_x)**m_exp)

Lengths are nanometers throughout, matching the on-disk formats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import table
from .core import _check, _label, _number, _resolve, _spec_file

__all__ = [
    "UnitCellParams",
    "DesignParams",
    "TaperSchedule",
    "DESIGN_PRESETS",
    "taper_value",
    "generate_schedule",
    "schedule_columns",
    "write_schedule_csv",
    "read_schedule_csv",
    "design_to_json",
    "design_from_json",
    "save_design",
    "load_design",
]


@dataclass(frozen=True)
class UnitCellParams:
    """One waveguide unit cell (lengths in nm)."""

    a: float  # lattice constant
    w: float  # tether width
    r: float  # rounding radius of the block
    u_y: float  # transverse block size
    fillet: float  # fillet radius
    d: float  # dagger defect length
    h: float  # dagger defect height

    def __post_init__(self):
        for name in ("a", "w", "r", "u_y", "fillet", "d", "h"):
            _check(name, getattr(self, name), positive=True)
        if not self.d < self.a:
            raise ValueError("d must be smaller than the lattice constant")
        if not self.h < self.a:
            raise ValueError("h must be smaller than the lattice constant")


# DesignParams field -> key in a design JSON file
_DESIGN_KEYS = {"a": "a_nm", "w": "w_nm", "r": "r_nm", "u_y": "u_y_nm", "fillet": "fillet_nm",
                "d0": "d0_nm", "h0": "h0_nm", "d17": "d17_nm", "h17": "h17_nm",
                "delta_x": "delta_x", "m_exp": "m_exp"}


@dataclass(frozen=True)
class DesignParams:
    """Full design-parameter set for one device (lengths in nm)."""

    label: str
    a: float
    w: float
    r: float
    u_y: float
    fillet: float
    d0: float
    h0: float
    d17: float  # dagger length at the outermost tabulated cell
    h17: float
    delta_x: float
    m_exp: float

    def __post_init__(self):
        for name in _DESIGN_KEYS:
            _check(name, getattr(self, name), positive=True)


DESIGN_PRESETS = {
    "A": DesignParams(label="A", a=448.0, w=92.0, r=167.0, u_y=356.0,
                      fillet=25.0, d0=70.0, h0=194.5, d17=122.0, h17=217.6,
                      delta_x=4.2, m_exp=2.55),
    "B": DesignParams(label="B", a=448.0, w=93.0, r=172.0, u_y=359.0,
                      fillet=25.0, d0=76.0, h0=196.9, d17=123.0, h17=231.0,
                      delta_x=3.68, m_exp=2.55),
}


def taper_value(n, v0: float, vN: float, delta_x: float, m_exp: float):
    """Tapered parameter value at cell index n (fractional n allowed).

    Exactly v0 at n = 0 and the midpoint (v0+vN)/2 at n = delta_x; tends to
    vN as n grows.
    """
    _check("v0", v0)
    _check("vN", vN)
    _check("delta_x", delta_x, positive=True)
    _check("m_exp", m_exp, positive=True)
    idx = _check("cell index", np.asarray(n, dtype=float), ge=0)
    v = vN - (vN - v0) * 2.0 ** (-((idx / delta_x) ** m_exp))
    v = np.where(idx == 0.0, v0, v)
    if np.isscalar(n) or idx.ndim == 0:
        return float(v)
    return v


@dataclass(frozen=True)
class TaperSchedule:
    """Tapered-parameter tables for cells 0..N of a 2N+1-cell structure."""

    n_cells: int  # N; the full mirror-symmetric device has 2N+1 cells
    delta_x: float
    m_exp: float
    endpoints: dict  # name -> (v0, vN) in nm
    values: dict  # name -> array of length N+1 in nm
    constants: dict  # untapered cell parameters in nm

    def __post_init__(self):
        _check("n_cells", self.n_cells, ge=1)
        for name, table in self.values.items():
            if len(table) != self.n_cells + 1:
                raise ValueError(f"{name} table must have n_cells+1 entries")
            v0, vN = self.endpoints[name]
            if table[0] != v0:
                raise ValueError(f"{name} table must start at its v0")
            lo, hi = min(v0, vN), max(v0, vN)
            arr = np.asarray(table)
            if np.any(arr < lo) or np.any(arr > hi):
                raise ValueError(f"{name} table leaves the (v0, vN) envelope")

    @property
    def total_cells(self) -> int:
        return 2 * self.n_cells + 1

    def cell(self, n: int) -> UnitCellParams:
        """Unit-cell parameters at integer index n."""
        if not 0 <= n <= self.n_cells:
            raise ValueError("cell index out of range")
        return UnitCellParams(d=float(self.values["d"][n]),
                              h=float(self.values["h"][n]),
                              **self.constants)


def generate_schedule(design, n_cells: int = 17) -> TaperSchedule:
    """Taper tables for d and h from DesignParams, a design preset label or the
    path of a design JSON file.

    The preset tables anchor v0 at index 0 and vN at index ``n_cells``
    (the tabulated designs use N = 17).
    """
    if isinstance(design, str):
        design = _resolve("design", design, DESIGN_PRESETS, design_from_json)
    idx = np.arange(n_cells + 1)
    d_table = taper_value(idx, design.d0, design.d17, design.delta_x, design.m_exp)
    h_table = taper_value(idx, design.h0, design.h17, design.delta_x, design.m_exp)
    return TaperSchedule(
        n_cells=n_cells,
        delta_x=design.delta_x,
        m_exp=design.m_exp,
        endpoints={"d": (design.d0, design.d17), "h": (design.h0, design.h17)},
        values={"d": d_table, "h": h_table},
        constants={"a": design.a, "w": design.w, "r": design.r,
                   "u_y": design.u_y, "fillet": design.fillet},
    )


def schedule_columns(schedule: TaperSchedule) -> dict:
    """Schedule table: cell_index, d_nm, h_nm (values round-trip losslessly)."""
    return {"cell_index": np.arange(schedule.n_cells + 1),
            "d_nm": np.asarray(schedule.values["d"], dtype=float),
            "h_nm": np.asarray(schedule.values["h"], dtype=float)}


def write_schedule_csv(path, schedule: TaperSchedule) -> None:
    table.write_table(schedule_columns(schedule), path)


def read_schedule_csv(path):
    """Read a schedule CSV back as (cell_index, d_nm, h_nm) arrays."""
    cols = table.read_table(path, ("cell_index", "d_nm", "h_nm"), {"cell_index": int})
    return cols["cell_index"], cols["d_nm"], cols["h_nm"]


def design_to_json(design: DesignParams) -> dict:
    return {"label": design.label,
            **{key: getattr(design, name) for name, key in _DESIGN_KEYS.items()}}


def design_from_json(data: dict) -> DesignParams:
    return DesignParams(label=_label(data),
                        **{name: _number(data, key) for name, key in _DESIGN_KEYS.items()})


def save_design(design: DesignParams, path) -> None:
    if not isinstance(design, DesignParams):  # e.g. the arguments swapped
        raise TypeError(f"save_design(design, path) takes a DesignParams first, "
                        f"got {type(design).__name__}")
    table.write_json(design_to_json(design), path)


def load_design(path) -> DesignParams:
    return _spec_file(path, design_from_json)
