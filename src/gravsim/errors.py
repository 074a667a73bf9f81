"""Exception taxonomy for the gravsim package.

All library errors derive from :class:`GravsimError` so callers can catch a
single base class.  The CLI maps subfamilies onto distinct process exit codes:
configuration problems, malformed input data, fit/convergence failures, and
spectral coverage/resolution refusals.
"""

from __future__ import annotations

__all__ = [
    "GravsimError",
    "InvalidStateError",
    "DegenerateDriveError",
    "StepSizeError",
    "TimeOrderError",
    "InvalidSequenceError",
    "EliminationError",
    "FitFailureError",
    "AmbiguousFringeError",
    "InsufficientDataError",
    "CoverageError",
    "ResolutionError",
    "ConfigError",
    "DataFormatError",
]


class GravsimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStateError(GravsimError):
    """A state vector is not normalized or otherwise unusable."""


class DegenerateDriveError(GravsimError):
    """Drive and detuning both vanish, leaving the mixing angle undefined."""


class StepSizeError(GravsimError):
    """A numerical integrator was asked to run with an unresolvable step."""


class TimeOrderError(GravsimError):
    """Times passed to a propagation or action routine are not ordered."""


class InvalidSequenceError(GravsimError):
    """Pulse-sequence parameters are invalid (T <= tau_p, a non-finite
    value, an unknown timing, ...)."""


class EliminationError(GravsimError):
    """Adiabatic elimination is invalid (zero detuning, complex shifts...)."""


class FitFailureError(GravsimError):
    """A least-squares fit failed to converge or was singular."""


class AmbiguousFringeError(GravsimError):
    """A fringe scan cannot be fit unambiguously (span or sampling)."""


class InsufficientDataError(GravsimError):
    """Not enough samples to form the requested statistic."""


class CoverageError(GravsimError):
    """A tabulated spectrum does not cover the frequency band an integral
    needs."""


class ResolutionError(GravsimError):
    """A requested sampling grid cannot represent the requested spectrum."""


class ConfigError(GravsimError):
    """A configuration file or value is missing or malformed."""


class DataFormatError(GravsimError):
    """An input data file is missing or malformed."""
