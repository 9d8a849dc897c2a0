"""Closed-form linearized optomechanics.

Photon numbers, cooperativity, dynamical backaction, thermal occupancies
and the saturable-absorption bath heating model, for a single optical mode
parametrically coupled to a single GHz mechanical mode.

All stored frequencies and rates are angular (rad/s). Use the ``from_hz``
constructors at the boundary; see :mod:`omx.constants`.

The photon-number and occupancy arguments of the closed-form functions take
a scalar or an array; an array gives, element by element, the same bits as
the scalar call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import table
from .constants import HBAR, K_B, angular_to_hz, hz_to_angular

__all__ = [
    "OpticalMode",
    "MechanicalMode",
    "Device",
    "Drive",
    "HeatingParams",
    "BackactionResult",
    "CoolingTable",
    "DEVICE_PRESETS",
    "DEFAULT_HEATING",
    "ZERO_HEATING",
    "thermal_occupancy",
    "temperature_from_occupancy",
    "intracavity_photons",
    "cooperativity",
    "backaction",
    "resolved_sideband_damping",
    "heating_model_occupancy",
    "cooling_curve",
    "device_to_json",
    "device_from_json",
    "load_device",
    "save_device",
]

# Below this temperature exp(hbar*omega/kB*T) overflows double precision for
# GHz modes; physically indistinguishable from T = 0.
_T_CLAMP = 1e-6


def _check(name: str, value, *, positive: bool = False, ge=None, within=None):
    """``value`` (a scalar or a numpy array) if it is finite and within its bound.

    Every element must be finite; then at most one bound applies:
    ``positive`` (> 0), ``ge=k`` (>= k) or ``within=(lo, hi)`` (closed).
    Anything else raises ``ValueError`` naming ``name``.
    """
    if isinstance(value, np.ndarray) and value.ndim:
        finite = np.isfinite(value)
        if not finite.all():
            raise ValueError(f"{name} must be finite, got {value[~finite][0].item()!r}")
        some = np.any
    elif isinstance(value, (int, np.integer)) or math.isfinite(value):
        some = bool  # an int is finite, even one too large for math.isfinite
    else:
        raise ValueError(f"{name} must be finite, got {float(value)!r}")
    if positive and some(value <= 0):
        raise ValueError(f"{name} must be positive")
    if ge is not None and some(value < ge):
        raise ValueError(f"{name} must be >= {ge}")
    if within is not None and some((value < within[0]) | (value > within[1])):
        raise ValueError(f"{name} must lie in [{within[0]}, {within[1]}]")
    return value


def _angular(name: str, f_hz, **bound):
    """``f_hz``, checked by ``_check(name, f_hz, **bound)``, in rad/s, where it
    must stay finite too: a finite 1e308 Hz overflows the conversion."""
    _check(name, f_hz, **bound)
    with np.errstate(over="ignore"):
        return _check(f"{name} in rad/s", hz_to_angular(f_hz))


def _number(data: dict, key: str, default: float | None = None) -> float:
    """``data[key]`` of a JSON spec as a float, or ``default`` if the key is
    absent (required if None). Anything but a JSON number within the float
    range (``null``, a string, a bool, a list, ``10**400``) raises ValueError."""
    if key not in data:
        if default is None:
            raise ValueError(f"{key} is missing")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is beyond the float range") from None


def _label(data: dict) -> str:
    """``data["label"]`` of a JSON spec, or "" if absent; a non-string raises
    ValueError."""
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"label must be a string, got {json.dumps(label)}")
    return label


def _spec_file(path, build):
    """``build(data)`` for the JSON object in the file ``path``; a malformed
    file or field raises ValueError naming the path."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        return build(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _resolve(kind: str, spec: str, presets: dict, build, search_dir=None):
    """The ``kind`` named by ``spec``: the file ``<spec>.json`` under ``search_dir``
    (shadowing a preset), else ``presets[spec]``, else the JSON file at the path
    ``spec``. Files are read by ``_spec_file(path, build)``; no match is a KeyError."""
    if search_dir is not None and (shadow := Path(search_dir) / f"{spec}.json").is_file():
        return _spec_file(shadow, build)
    if spec in presets:
        return presets[spec]
    if Path(spec).is_file():
        return _spec_file(spec, build)
    raise KeyError(f"{spec}: unknown {kind} preset or file")


def _values(x):
    """A scalar as it is, anything else as a float array."""
    return x if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def _libm(func, x, *args):
    """``func(x, *args)`` on a scalar, or on each element of an array through a
    Python float. Python's ``**`` and ``math.log1p`` call libm, whose results
    differ in the last bit from numpy's on some inputs; this keeps the bits of
    the scalar path."""
    if np.ndim(x) == 0:
        return func(x, *args)
    cells = map(func, x.ravel().tolist(), *map(repeat, args))
    return np.fromiter(cells, float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class OpticalMode:
    """Optical cavity mode: resonance ``omega_c``, total/extrinsic decay rates."""

    omega_c: float  # rad/s
    kappa: float  # rad/s, total
    kappa_e: float  # rad/s, extrinsic (waveguide) part

    def __post_init__(self):
        _check("omega_c", self.omega_c, positive=True)
        _check("kappa", self.kappa)
        _check("kappa_e", self.kappa_e)
        if not 0 < self.kappa_e <= self.kappa:
            raise ValueError("require 0 < kappa_e <= kappa")

    @classmethod
    def from_hz(cls, omega_c_hz: float, kappa_hz: float, kappa_e_hz: float) -> OpticalMode:
        return cls(hz_to_angular(omega_c_hz), hz_to_angular(kappa_hz), hz_to_angular(kappa_e_hz))

    @property
    def q_opt(self) -> float:
        return self.omega_c / self.kappa


@dataclass(frozen=True)
class MechanicalMode:
    """Mechanical mode: resonance ``omega_m`` and intrinsic linewidth ``gamma_0``."""

    omega_m: float  # rad/s
    gamma_0: float  # rad/s

    def __post_init__(self):
        _check("omega_m", self.omega_m, positive=True)
        _check("gamma_0", self.gamma_0)
        if not 0 < self.gamma_0 < self.omega_m:
            raise ValueError("require 0 < gamma_0 < omega_m")

    @classmethod
    def from_hz(cls, omega_m_hz: float, gamma0_hz: float) -> MechanicalMode:
        return cls(hz_to_angular(omega_m_hz), hz_to_angular(gamma0_hz))

    @property
    def q_m(self) -> float:
        return self.omega_m / self.gamma_0


@dataclass(frozen=True)
class Device:
    """One optomechanical crystal: optical + mechanical mode and vacuum coupling g0.

    ``g0_alt`` optionally stores a second calibration of the vacuum coupling
    (e.g. from the opposite pump detuning) without changing any formula.
    """

    optical: OpticalMode
    mechanical: MechanicalMode
    g0: float  # rad/s
    label: str = ""
    g0_alt: float | None = None

    def __post_init__(self):
        _check("g0", self.g0, positive=True)
        if self.g0_alt is not None:
            _check("g0_alt", self.g0_alt, positive=True)

    @property
    def sideband_resolved(self) -> bool:
        return self.mechanical.omega_m > self.optical.kappa

    def with_kappa(self, kappa: float, kappa_e: float | None = None) -> Device:
        """Copy of this device with a different total (and optionally extrinsic) decay rate."""
        opt = replace(
            self.optical,
            kappa=kappa,
            kappa_e=self.optical.kappa_e if kappa_e is None else kappa_e,
        )
        return replace(self, optical=opt)


@dataclass(frozen=True)
class Drive:
    """Coherent laser drive: frequency, detuning from the cavity, and either an
    on-chip power or a direct intracavity photon number override."""

    omega_l: float  # rad/s
    detuning: float  # rad/s, omega_l - omega_c
    on_chip_power: float | None = None  # W
    n_c_override: float | None = None

    def __post_init__(self):
        _check("detuning", self.detuning)
        _check("omega_l", self.omega_l, positive=True)
        if (self.on_chip_power is None) == (self.n_c_override is None):
            raise ValueError("exactly one of on_chip_power / n_c_override must be set")
        for name in ("on_chip_power", "n_c_override"):
            if getattr(self, name) is not None:
                _check(name, getattr(self, name), ge=0)

    @classmethod
    def at_detuning(
        cls,
        optical: OpticalMode,
        detuning: float,
        on_chip_power: float | None = None,
        n_c: float | None = None,
    ) -> Drive:
        """Drive at a given detuning (rad/s) from the cavity resonance."""
        return cls(optical.omega_c + detuning, detuning, on_chip_power, n_c)


@dataclass(frozen=True)
class HeatingParams:
    """Bath model coefficients: base occupancy plus saturable and linear
    absorption-heating terms in the intracavity photon number."""

    n_th0: float
    alpha_sat: float = 0.0
    beta_sat: float = 0.0
    alpha_lin: float = 0.0

    def __post_init__(self):
        for name in ("n_th0", "alpha_sat", "beta_sat", "alpha_lin"):
            _check(name, getattr(self, name), ge=0)


@dataclass(frozen=True)
class BackactionResult:
    """Dynamical backaction at one operating point (array fields over an array of them)."""

    g: float  # field-enhanced coupling, rad/s
    cooperativity: float
    gamma_opt: float  # optical damping, rad/s, signed (+ cooling, - amplification)
    spring_shift: float  # mechanical frequency shift, rad/s, signed
    gamma_eff: float  # gamma_0 + gamma_opt, rad/s


def thermal_occupancy(frequency: float, temperature: float) -> float:
    """Bose occupancy 1/(exp(hbar*omega/kB*T) - 1) of a mode at ``frequency`` (rad/s).

    Returns 0 at T = 0 (and below the 1 uK double-precision clamp).
    """
    _check("frequency", frequency, positive=True)
    _check("temperature", temperature, ge=0)
    if temperature < _T_CLAMP:
        return 0.0
    x = HBAR * frequency / (K_B * temperature)
    if x > 700.0:  # expm1 would overflow; occupancy below ~1e-304
        return 0.0
    return 1.0 / math.expm1(x)


def temperature_from_occupancy(frequency, occupancy):
    """Exact inverse of :func:`thermal_occupancy` (kelvin)."""
    frequency = _check("frequency", _values(frequency), positive=True)
    occupancy = _check("occupancy", _values(occupancy), positive=True)
    return HBAR * frequency / (K_B * _libm(math.log1p, 1.0 / occupancy))


def intracavity_photons(optical: OpticalMode, drive: Drive) -> float:
    """Steady-state intracavity photon number for a coherent drive.

    n_c = P * kappa_e / (hbar * omega_l * ((kappa/2)^2 + Delta^2)); a photon
    number override on the drive passes through unchanged.
    """
    if drive.n_c_override is not None:
        return drive.n_c_override
    lorentz = (optical.kappa / 2.0) ** 2 + drive.detuning**2
    return drive.on_chip_power * optical.kappa_e / (HBAR * drive.omega_l * lorentz)


def cooperativity(device: Device, n_c):
    """C = 4 g0^2 n_c / (kappa * gamma_0)."""
    n_c = _check("n_c", _values(n_c), ge=0)
    return 4.0 * device.g0**2 * n_c / (device.optical.kappa * device.mechanical.gamma_0)


def resolved_sideband_damping(device: Device, n_c: float) -> float:
    """Optimal-detuning damping rate 4 g^2 / kappa = C * gamma_0 (rad/s).

    This is the deep-sideband-resolved limit of :func:`backaction` at
    ``detuning = -omega_m``; exposed separately for convergence checks.
    """
    _check("n_c", n_c, ge=0)
    return 4.0 * device.g0**2 * n_c / device.optical.kappa


def backaction(device: Device, n_c, detuning: float) -> BackactionResult:
    """Dynamical backaction from both motional sidebands (no rotating-wave
    approximation in the sideband weights).

    gamma_opt = g^2 kappa * [S(Delta + omega_m) - S(Delta - omega_m)] with
    S(x) = 1/((kappa/2)^2 + x^2); positive for red detuning (cooling).
    The spring shift is the corresponding dispersive combination. An array
    ``n_c`` gives array fields.
    """
    n_c = _check("n_c", _values(n_c), ge=0)
    _check("detuning", detuning)
    kappa = device.optical.kappa
    omega_m = device.mechanical.omega_m
    g = device.g0 * (math.sqrt(n_c) if np.ndim(n_c) == 0 else np.sqrt(n_c))
    g2 = _libm(pow, g, 2)
    lor_plus = (kappa / 2.0) ** 2 + (detuning + omega_m) ** 2
    lor_minus = (kappa / 2.0) ** 2 + (detuning - omega_m) ** 2
    gamma_opt = g2 * kappa * (1.0 / lor_plus - 1.0 / lor_minus)
    spring = g2 * ((detuning + omega_m) / lor_plus + (detuning - omega_m) / lor_minus)
    return BackactionResult(
        g=g,
        cooperativity=cooperativity(device, n_c),
        gamma_opt=gamma_opt,
        spring_shift=spring,
        gamma_eff=device.mechanical.gamma_0 + gamma_opt,
    )


def heating_model_occupancy(device: Device, heating: HeatingParams, n_c):
    """Mechanical occupancy under simultaneous backaction cooling and
    absorption heating of the thermal bath:

    n_m = (n_th0 + alpha_sat*n_c/(1 + beta_sat*n_c) + alpha_lin*n_c) / (1 + C)
    """
    n_c = _check("n_c", _values(n_c), ge=0)
    bath = (
        heating.n_th0
        + heating.alpha_sat * n_c / (1.0 + heating.beta_sat * n_c)
        + heating.alpha_lin * n_c
    )
    return bath / (1.0 + cooperativity(device, n_c))


@dataclass(frozen=True)
class CoolingTable:
    """Cooling curve sampled on a photon-number grid (arrays share the grid index)."""

    n_c: np.ndarray
    cooperativity: np.ndarray
    gamma_eff: np.ndarray  # rad/s, exact backaction at detuning = -omega_m
    n_m: np.ndarray


def cooling_curve(device: Device, heating: HeatingParams, n_c_grid) -> CoolingTable:
    """Evaluate occupancy, cooperativity and effective linewidth over a photon grid.

    The grid must be strictly positive and sorted ascending. A grid whose
    top makes g0^2 n_c, or a term it scales, overflow raises ``OverflowError``.
    """
    grid = np.asarray(n_c_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("n_c grid must be nonempty")
    _check("n_c grid", grid, positive=True)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("n_c grid must be strictly increasing")
    top = float(grid[-1])
    if not math.isfinite(device.g0**2 * top):
        raise OverflowError(f"n_c = {top!r} overflows the coupling g0^2 n_c")
    try:
        with np.errstate(over="raise"):
            ba = backaction(device, grid, -device.mechanical.omega_m)
            occ = heating_model_occupancy(device, heating, grid)
    except FloatingPointError as exc:
        raise OverflowError(f"n_c = {top!r} overflows the cooling curve ({exc})") from None
    return CoolingTable(n_c=grid, cooperativity=ba.cooperativity, gamma_eff=ba.gamma_eff,
                        n_m=occ)


# --- bundled device presets (measured parameters of the two reference chips) ---

DEVICE_PRESETS: dict[str, Device] = {
    "A": Device(
        optical=OpticalMode.from_hz(191.7e12, 0.8e9, 288e6),
        mechanical=MechanicalMode.from_hz(7.436e9, 206e3),
        g0=hz_to_angular(901e3),  # red-detuned linewidth fit
        g0_alt=hz_to_angular(860e3),  # blue-detuned fit
        label="A",
    ),
    "B": Device(
        optical=OpticalMode.from_hz(193.9e12, 1.1e9, 196e6),
        mechanical=MechanicalMode.from_hz(7.259e9, 715e3),
        g0=hz_to_angular(889e3),
        label="B",
    ),
}

# Bath-model coefficients fitted to the device A cooling run (3 K plate).
DEFAULT_HEATING = HeatingParams(n_th0=7.95, alpha_sat=0.324, beta_sat=0.019, alpha_lin=0.003)
# Backaction-only cooling from the same thermal anchor.
ZERO_HEATING = HeatingParams(n_th0=DEFAULT_HEATING.n_th0)


def device_to_json(device: Device) -> dict:
    """Serializable preset dict; numeric fields are cyclic Hz."""
    out = {
        "label": device.label,
        "omega_c_hz": angular_to_hz(device.optical.omega_c),
        "kappa_hz": angular_to_hz(device.optical.kappa),
        "kappa_e_hz": angular_to_hz(device.optical.kappa_e),
        "g0_hz": angular_to_hz(device.g0),
        "omega_m_hz": angular_to_hz(device.mechanical.omega_m),
        "gamma0_hz": angular_to_hz(device.mechanical.gamma_0),
    }
    if device.g0_alt is not None:
        out["g0_alt_hz"] = angular_to_hz(device.g0_alt)
    return out


def device_from_json(data: dict) -> Device:
    return Device(
        optical=OpticalMode.from_hz(*(_number(data, k)
                                      for k in ("omega_c_hz", "kappa_hz", "kappa_e_hz"))),
        mechanical=MechanicalMode.from_hz(_number(data, "omega_m_hz"),
                                          _number(data, "gamma0_hz")),
        g0=hz_to_angular(_number(data, "g0_hz")),
        g0_alt=hz_to_angular(_number(data, "g0_alt_hz")) if "g0_alt_hz" in data else None,
        label=_label(data),
    )


def save_device(device: Device, path: str | Path) -> None:
    table.write_json(device_to_json(device), path)


def load_device(spec: str, search_dir: str | Path | None = None) -> Device:
    """Resolve a device from a preset label, a JSON file path, or a label
    found as ``<label>.json`` under ``search_dir``.

    A ``search_dir`` file shadows a bundled preset with the same label.
    """
    return _resolve("device", spec, DEVICE_PRESETS, device_from_json, search_dir)
