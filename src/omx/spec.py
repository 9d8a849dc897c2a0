"""Modes, devices, bath models, presets and their JSON specs: the scalar half of
:mod:`omx.core`, which re-exports it. It imports no numpy: ``omx device list`` needs none."""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .constants import angular_to_hz, hz_to_angular


def _check(name: str, value, *, positive: bool = False, ge=None, within=None):
    """``value`` (a scalar or a numpy array) if it is finite and within its bound.

    Every element must be finite; then at most one bound applies:
    ``positive`` (> 0), ``ge=k`` (>= k) or ``within=(lo, hi)`` (closed).
    Anything else raises ``ValueError`` naming ``name``.
    """
    np = sys.modules.get("numpy")  # an array exists only once numpy is loaded
    if np is not None and isinstance(value, np.ndarray) and value.ndim:
        finite = np.isfinite(value)
        if not finite.all():
            raise ValueError(f"{name} must be finite, got {value[~finite][0].item()!r}")
        some = np.any
    elif isinstance(value, numbers.Integral) or math.isfinite(value):
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


def _finite(value: float, message: str) -> float:
    """``value`` if it is finite, else ``ValueError(message)``: a number derived
    from an input that leaves the float range is an error naming that input."""
    if not math.isfinite(value):
        raise ValueError(message)
    return value


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
        _finite(self.g0 * self.g0, "g0^2 is beyond the float range")  # the rates scale as g0^2
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


def load_device(spec: str, search_dir: str | Path | None = None) -> Device:
    """Resolve a device from a preset label, a JSON file path, or a label
    found as ``<label>.json`` under ``search_dir``.

    A ``search_dir`` file shadows a bundled preset with the same label.
    """
    return _resolve("device", spec, DEVICE_PRESETS, device_from_json, search_dir)
