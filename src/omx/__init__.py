"""Simulation and analysis tools for sideband-resolved cavity optomechanics.

Subpackages:

- :mod:`omx.core` — modes, devices, drives, backaction and cooling curves
- :mod:`omx.spectra` — coherent reflection spectra, normal modes, PSD models
- :mod:`omx.pulsed` — pulsed sideband-asymmetry thermometry Monte Carlo
- :mod:`omx.fitkit` — resonance and model fitting
- :mod:`omx.geometry` — unit-cell presets and adiabatic taper schedules
- :mod:`omx.cli` — the ``omx`` command-line entry point

Convention: every frequency or rate held in memory is angular (rad/s);
every frequency or rate crossing an I/O boundary (files, CLI flags) is
cyclic (Hz). Constructors named ``from_hz`` and the CSV/JSON helpers do the
conversion.

``import omx`` loads no submodule: each public name below is imported from
its submodule on first use (PEP 562), so a command pays only for what it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("HBAR", "K_B", "TWO_PI", "angular_to_hz", "hz_to_angular"),
                    "constants"),
    **dict.fromkeys((
        "OpticalMode", "MechanicalMode", "Device", "Drive", "HeatingParams",
        "BackactionResult", "CoolingTable", "DEVICE_PRESETS", "DEFAULT_HEATING",
        "ZERO_HEATING", "thermal_occupancy", "temperature_from_occupancy",
        "intracavity_photons", "cooperativity", "resolved_sideband_damping", "backaction",
        "heating_model_occupancy", "cooling_curve", "load_device", "save_device",
    ), "core"),
    **dict.fromkeys((
        "SpectrumTrace", "NormalModes", "LorentzianComponent", "omit_reflection",
        "normal_modes", "extract_splitting", "psd_model", "occupancy_from_areas",
    ), "spectra"),
    **dict.fromkeys((
        "PulseTrain", "DetectionChain", "HeatingKernel", "ClickStream", "AsymmetryResult",
        "scattering_probability", "steady_state_prepulse_occupancy", "fit_heating_kernel",
        "simulate_clicks", "estimate_occupancy", "histogram",
    ), "pulsed"),
    **dict.fromkeys((
        "FitResult", "gauss_newton", "fit_lorentzian", "fit_fano", "fit_g0_from_linewidths",
        "fit_heating_params",
    ), "fitkit"),
    **dict.fromkeys((
        "UnitCellParams", "DesignParams", "TaperSchedule", "DESIGN_PRESETS", "taper_value",
        "generate_schedule",
    ), "geometry"),
}
# resolved too, so ``omx.pulsed`` works after a bare ``import omx`` as it did
# when the package imported every submodule
_SUBMODULES = frozenset({*_EXPORTS.values(), "table", "spec", "cli"})

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():  # lists the names not yet imported too
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
