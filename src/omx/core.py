"""Closed-form linearized optomechanics.

Photon numbers, cooperativity, dynamical backaction, thermal occupancies
and the saturable-absorption bath heating model, for a single optical mode
parametrically coupled to a single GHz mechanical mode.

All stored frequencies and rates are angular (rad/s). Use the ``from_hz``
constructors at the boundary; see :mod:`omx.constants`.

The photon-number and occupancy arguments of the closed-form functions take
a scalar or an array; an array gives, element by element, the same bits as
the scalar call.

The modes, heating parameters and device presets are :mod:`omx.spec`'s,
re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import table
from .constants import HBAR, K_B, hz_to_angular
from .spec import (DEFAULT_HEATING, DEVICE_PRESETS, ZERO_HEATING, Device, HeatingParams,
                   MechanicalMode, OpticalMode, _check, _finite, _label, _number, _resolve,
                   _spec_file, device_from_json, device_to_json, load_device)

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


def _angular(name: str, f_hz, **bound):
    """``f_hz``, checked by ``_check(name, f_hz, **bound)``, in rad/s, where it
    must stay finite too: a finite 1e308 Hz overflows the conversion."""
    _check(name, f_hz, **bound)
    with np.errstate(over="ignore"):
        return _check(f"{name} in rad/s", hz_to_angular(f_hz))


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
    top makes g0^2 n_c, or a term it scales, overflow raises ``ValueError``.
    """
    grid = _cooling_grid(device, heating, n_c_grid)
    ba = backaction(device, grid, -device.mechanical.omega_m)
    return CoolingTable(n_c=grid, cooperativity=ba.cooperativity, gamma_eff=ba.gamma_eff,
                        n_m=heating_model_occupancy(device, heating, grid))


def _cooling_grid(device: Device, heating: HeatingParams, n_c_grid) -> np.ndarray:
    """``n_c_grid`` as a float array, with :func:`cooling_curve`'s checks. Each term of
    the curve grows with n_c, so it stays in the float range if it does at the top."""
    grid = np.asarray(n_c_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("n_c grid must be nonempty")
    _check("n_c grid", grid, positive=True)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("n_c grid must be strictly increasing")
    top = float(grid[-1])
    _finite(device.g0**2 * top, f"n_c = {top!r} overflows the coupling g0^2 n_c")
    try:  # numpy's overflow, or libm's in the scalar pow of g^2
        with np.errstate(over="raise"):
            backaction(device, grid[-1:], -device.mechanical.omega_m)
            heating_model_occupancy(device, heating, grid[-1:])
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"n_c = {top!r} overflows the cooling curve ({exc.args[-1]})") from None
    return grid


def save_device(device: Device, path: str | Path) -> None:
    table.write_json(device_to_json(device), path)
