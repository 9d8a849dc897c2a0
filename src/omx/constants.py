"""Physical constants and the one cyclic/angular conversion boundary.

All internal math in this package runs in angular frequency (rad/s).
Anything that crosses an I/O boundary (constructors, CLI flags, files)
is cyclic Hz and passes through the two helpers below exactly once.
"""

import math

TWO_PI = 2.0 * math.pi

# Exact SI-2019 defining constants; equal to scipy.constants.hbar and .k
HBAR = 6.62607015e-34 / TWO_PI  # J s
K_B = 1.380649e-23  # J/K


def hz_to_angular(f_hz: float) -> float:
    """Convert cyclic frequency (Hz) to angular frequency (rad/s)."""
    return TWO_PI * f_hz


def angular_to_hz(omega: float) -> float:
    """Convert angular frequency (rad/s) to cyclic frequency (Hz)."""
    return omega / TWO_PI
