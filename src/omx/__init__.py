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
"""

from .constants import HBAR, K_B, TWO_PI, angular_to_hz, hz_to_angular
from .core import (
    DEFAULT_HEATING,
    DEVICE_PRESETS,
    ZERO_HEATING,
    BackactionResult,
    CoolingTable,
    Device,
    Drive,
    HeatingParams,
    MechanicalMode,
    OpticalMode,
    backaction,
    cooling_curve,
    cooperativity,
    heating_model_occupancy,
    intracavity_photons,
    load_device,
    resolved_sideband_damping,
    save_device,
    temperature_from_occupancy,
    thermal_occupancy,
)
from .fitkit import (
    FitResult,
    fit_fano,
    fit_g0_from_linewidths,
    fit_heating_params,
    fit_lorentzian,
    gauss_newton,
)
from .geometry import (
    DESIGN_PRESETS,
    DesignParams,
    TaperSchedule,
    UnitCellParams,
    generate_schedule,
    taper_value,
)
from .pulsed import (
    AsymmetryResult,
    ClickStream,
    DetectionChain,
    HeatingKernel,
    PulseTrain,
    estimate_occupancy,
    fit_heating_kernel,
    histogram,
    scattering_probability,
    simulate_clicks,
    steady_state_prepulse_occupancy,
)
from .spectra import (
    LorentzianComponent,
    NormalModes,
    SpectrumTrace,
    extract_splitting,
    normal_modes,
    occupancy_from_areas,
    omit_reflection,
    psd_model,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR",
    "K_B",
    "TWO_PI",
    "angular_to_hz",
    "hz_to_angular",
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
    "resolved_sideband_damping",
    "backaction",
    "heating_model_occupancy",
    "cooling_curve",
    "load_device",
    "save_device",
    "SpectrumTrace",
    "NormalModes",
    "LorentzianComponent",
    "omit_reflection",
    "normal_modes",
    "extract_splitting",
    "psd_model",
    "occupancy_from_areas",
    "PulseTrain",
    "DetectionChain",
    "HeatingKernel",
    "ClickStream",
    "AsymmetryResult",
    "scattering_probability",
    "steady_state_prepulse_occupancy",
    "fit_heating_kernel",
    "simulate_clicks",
    "estimate_occupancy",
    "histogram",
    "FitResult",
    "gauss_newton",
    "fit_lorentzian",
    "fit_fano",
    "fit_g0_from_linewidths",
    "fit_heating_params",
    "UnitCellParams",
    "DesignParams",
    "TaperSchedule",
    "DESIGN_PRESETS",
    "taper_value",
    "generate_schedule",
    "__version__",
]
