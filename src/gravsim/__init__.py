"""gravsim: simulation and analysis of light-pulse atom-interferometer
gravimeters.

Subpackages by concern:

* :mod:`gravsim.core` -- shared state types, pulse/sequence records, constants;
* :mod:`gravsim.twolevel` -- exact two-level pulse dynamics and sequences;
* :mod:`gravsim.raman` -- two-photon transitions and adiabatic elimination;
* :mod:`gravsim.trajectory` -- free-fall paths, actions, interferometer phases;
* :mod:`gravsim.measurement` -- fringe scans, shot noise, gravity estimation;
* :mod:`gravsim.noise` -- sensitivity functions, spectra, Allan statistics;
* :mod:`gravsim.cli` -- command-line front end.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    DEFAULT_G,
    DEFAULT_K_EFF,
    HBAR,
    RB87_MASS,
    PulseParams,
    SequenceParams,
    ThreeLevelState,
    TwoLevelState,
    state_probability,
)
from .errors import GravsimError

__all__ = [
    "__version__",
    "HBAR",
    "DEFAULT_G",
    "RB87_MASS",
    "DEFAULT_K_EFF",
    "TwoLevelState",
    "ThreeLevelState",
    "PulseParams",
    "SequenceParams",
    "state_probability",
    "GravsimError",
]
