"""Frequency-domain responses of the driven cavity-mechanics system.

Coherent reflection spectra (transparency window under a red-detuned pump,
gain under a blue-detuned pump), hybridized normal modes, thermomechanical
PSD models, and calibration-anchored occupancy extraction.

Frequencies in every trace are angular (rad/s) in memory and cyclic Hz on
disk; the CSV helpers convert.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import table
from .constants import angular_to_hz
from .core import Device, _angular, _check, _finite

__all__ = [
    "SpectrumTrace",
    "NormalModes",
    "LorentzianComponent",
    "omit_reflection",
    "omit_reflection_map",
    "normal_modes",
    "extract_splitting",
    "psd_model",
    "occupancy_from_areas",
    "trace_columns",
    "write_trace_csv",
    "read_trace_csv",
]

TRACE_KINDS = ("omit_reflection", "psd", "generic")


@dataclass(frozen=True)
class SpectrumTrace:
    """Sampled response on a strictly increasing angular frequency grid."""

    freq: np.ndarray  # rad/s
    values: np.ndarray  # complex or real, same length
    kind: str = "generic"

    def __post_init__(self):
        freq = np.asarray(self.freq, dtype=float)
        values = np.asarray(self.values)
        if freq.ndim != 1 or values.shape != freq.shape:
            raise ValueError("freq and values must be 1-d arrays of equal length")
        if not np.all(freq[1:] > freq[:-1]):  # no np.diff: a step may overflow
            raise ValueError("freq must be strictly increasing")
        _check("freq", freq)
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"kind must be one of {TRACE_KINDS}")
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "values", values)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass(frozen=True)
class NormalModes:
    """Eigenvalues of the linearized two-mode system.

    Convention: Im(lambda) is the mode frequency in the pump frame and
    Re(lambda) = -decay/2.
    """

    eigenvalues: tuple[complex, complex]
    splitting: float  # |Im l+ - Im l-|, rad/s
    above_threshold: bool


@dataclass(frozen=True)
class LorentzianComponent:
    """One area-normalized Lorentzian line in a power spectrum."""

    center: float  # rad/s
    fwhm: float  # rad/s
    area: float  # power units

    def __post_init__(self):
        _check("center", self.center)
        _check("fwhm", self.fwhm, positive=True)
        _check("area", self.area, ge=0)


def omit_reflection(device: Device, n_c: float, detuning: float, probe_freq) -> SpectrumTrace:
    """Coherent probe reflection r(omega) of the pumped cavity.

    The probe grid is the (positive) modulation frequency relative to the
    pump. For detuning <= 0 the upper modulation sideband interrogates the
    cavity and the mechanical interference opens a transparency window

        r = 1 - kappa_e*chi_o / (1 + g^2*chi_o*chi_m),
        chi_o = [kappa/2 - i(Delta + omega)]^-1,
        chi_m = [gamma_0/2 - i(omega - omega_m)]^-1.

    For detuning > 0 the lower sideband is the resonant one and the
    mechanical term enters with opposite sign (parametric gain, |r| may
    exceed 1 once the cooperativity passes 1):

        r = 1 - kappa_e*chib_o / (1 - g^2*chib_o*chib_m),
        chib_o = [kappa/2 + i(omega - Delta)]^-1,
        chib_m = [gamma_0/2 + i(omega - omega_m)]^-1.
    """
    omega = np.asarray(probe_freq, dtype=float)
    r = omit_reflection_map(device, n_c, [detuning], omega)[0]
    return SpectrumTrace(freq=omega, values=r, kind="omit_reflection")


def omit_reflection_map(device: Device, n_c: float, detunings, probe_freq) -> np.ndarray:
    """:func:`omit_reflection` values for each pump detuning (rad/s) at once.

    Row ``k`` of the complex result is r(omega) over ``probe_freq`` at
    ``detunings[k]``, evaluated as one broadcast per sideband branch.
    """
    _check("n_c", n_c, ge=0)
    g2 = _finite(device.g0**2 * n_c, f"n_c = {n_c!r} overflows the coupling g0^2 n_c")
    omega = _check("probe_freq", np.asarray(probe_freq, dtype=float))
    delta = _check("detunings", np.asarray(detunings, dtype=float)).reshape(-1, 1)
    red = delta[:, 0] <= 0
    if red.all() or not red.any():
        return _reflection(device, g2, delta, omega, bool(red.all()))
    r = np.empty((delta.size, omega.size), dtype=complex)
    r[red] = _reflection(device, g2, delta[red], omega, True)
    r[~red] = _reflection(device, g2, delta[~red], omega, False)
    return r


def _reflection(device: Device, g2: float, delta: np.ndarray, omega: np.ndarray,
                red: bool) -> np.ndarray:
    """r on one sideband branch for the detuning column ``delta`` x ``omega``.

    Each step is one operation of the formula in :func:`omit_reflection`, done
    in place so that only two arrays of the map's size are held at a time.
    """
    kappa = device.optical.kappa
    gamma0 = device.mechanical.gamma_0
    omega_m = device.mechanical.omega_m
    if red:  # chi_o = 1/(kappa/2 - i(Delta + omega)), den = 1 + g^2 chi_o chi_m
        chi_o = np.subtract(kappa / 2.0, 1j * (delta + omega))
        chi_m = 1.0 / (gamma0 / 2.0 - 1j * (omega - omega_m))
    else:  # chi_o = 1/(kappa/2 + i(omega - Delta)), den = 1 - g^2 chi_o chi_m
        chi_o = np.add(kappa / 2.0, 1j * (omega - delta))
        chi_m = 1.0 / (gamma0 / 2.0 + 1j * (omega - omega_m))
    np.divide(1.0, chi_o, out=chi_o)
    den = g2 * chi_o
    den *= chi_m
    (np.add if red else np.subtract)(1.0, den, out=den)
    r = np.multiply(device.optical.kappa_e, chi_o, out=chi_o)
    r /= den
    return np.subtract(1.0, r, out=r)


def normal_modes(device: Device, n_c: float, detuning: float) -> NormalModes:
    """Eigenvalues of the coupled-mode matrix for a red-detuned pump.

    [[i*Delta - kappa/2,        -i*g],
     [-i*g,          -i*omega_m - gamma_0/2]]

    ``above_threshold`` reports g > |kappa - gamma_0|/4, the resonant
    hybridization condition.
    """
    _check("n_c", n_c, ge=0)
    _check("detuning", detuning)
    kappa = device.optical.kappa
    gamma0 = device.mechanical.gamma_0
    omega_m = device.mechanical.omega_m
    g = device.g0 * math.sqrt(n_c)
    d1 = 1j * detuning - kappa / 2.0
    d2 = -1j * omega_m - gamma0 / 2.0
    mean = (d1 + d2) / 2.0
    root = cmath.sqrt(((d1 - d2) / 2.0) ** 2 - g**2)
    lam = (mean + root, mean - root)
    return NormalModes(
        eigenvalues=lam,
        splitting=abs(lam[0].imag - lam[1].imag),
        above_threshold=g > abs(kappa - gamma0) / 4.0,
    )


def _refine_minimum(freq: np.ndarray, mag: np.ndarray, i: int) -> float:
    """Sub-sample position of a local minimum via a parabola through three points."""
    if i == 0 or i == len(freq) - 1:
        return freq[i]
    x0, x1, x2 = freq[i - 1], freq[i], freq[i + 1]
    y0, y1, y2 = mag[i - 1], mag[i], mag[i + 1]
    # vertex of the parabola through the three samples (general, nonuniform grid)
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    if a <= 0:  # degenerate curvature, keep the grid point
        return x1
    return -b / (2.0 * a)


def extract_splitting(trace: SpectrumTrace) -> float | None:
    """Distance between the two most prominent reflection minima (rad/s).

    Returns None when the magnitude scan has fewer than two local minima
    (single-dip regime). Dip positions are refined by three-point quadratic
    interpolation.
    """
    from scipy.signal import find_peaks  # imported here so the CLI never loads scipy

    if trace.freq.size < 5:
        raise ValueError("need at least 5 samples to locate reflection minima")
    mag = trace.magnitude()
    idx, props = find_peaks(-mag, prominence=0.0)
    if idx.size < 2:
        return None
    order = np.argsort(props["prominences"])[::-1][:2]
    positions = sorted(_refine_minimum(trace.freq, mag, int(i)) for i in idx[order])
    return positions[1] - positions[0]


def psd_model(freq, components: list[LorentzianComponent], offset: float = 0.0) -> SpectrumTrace:
    """Sum of area-normalized Lorentzians plus a flat offset.

    Each component integrates to its ``area``; peak value is
    2*area/(pi*fwhm).
    """
    if not components:
        raise ValueError("components must be nonempty")
    omega = np.asarray(freq, dtype=float)
    total = np.full_like(omega, float(offset))
    for comp in components:
        hw = comp.fwhm / 2.0
        total += comp.area * (hw / math.pi) / ((omega - comp.center) ** 2 + hw**2)
    return SpectrumTrace(freq=omega, values=total, kind="psd")


def occupancy_from_areas(
    mech_area: float,
    cal_area: float,
    anchor: tuple[float, float, float],
) -> float:
    """Gain-ratio thermometry: occupancy from the mechanical/calibration PSD
    area ratio, anchored at a thermalized reference point.

    anchor = (mech_area_ref, cal_area_ref, n_ref).
    """
    mech_ref, cal_ref, n_ref = anchor
    for name, val in (
        ("mech_area", mech_area),
        ("cal_area", cal_area),
        ("mech_area_ref", mech_ref),
        ("cal_area_ref", cal_ref),
    ):
        _check(name, val, positive=True)
    _check("n_ref", n_ref, ge=0)
    return n_ref * (mech_area / cal_area) / (mech_ref / cal_ref)


def trace_columns(trace: SpectrumTrace) -> dict:
    """Trace table: freq_hz (cyclic Hz) with re, im if complex, else value."""
    freq_hz = angular_to_hz(trace.freq)
    if trace.is_complex:
        return {"freq_hz": freq_hz, "re": trace.values.real, "im": trace.values.imag}
    return {"freq_hz": freq_hz, "value": np.asarray(trace.values, dtype=float)}


def write_trace_csv(path: str | Path, trace: SpectrumTrace) -> None:
    table.write_table(trace_columns(trace), path)


def read_trace_csv(path: str | Path, kind: str = "generic") -> SpectrumTrace:
    cols = table.read_table(path)
    if list(cols) == ["freq_hz", "re", "im"]:
        values = np.empty(cols["re"].size, dtype=complex)
        values.real, values.imag = cols["re"], cols["im"]
    elif list(cols) == ["freq_hz", "value"]:
        values = cols["value"]
    else:
        raise ValueError(f"unrecognized trace header: {list(cols)}")
    return SpectrumTrace(freq=_angular("freq_hz", cols["freq_hz"]), values=values, kind=kind)
