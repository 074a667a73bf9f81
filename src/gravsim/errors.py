"""Exception taxonomy for the gravsim package.

All library errors derive from :class:`GravsimError` so callers can catch a
single base class.  Each class carries the process exit code and the stderr
label the CLI reports it with: 2 ``config error`` for configuration problems,
3 ``data error`` for malformed or insufficient input data, 4 ``convergence
error`` for fit, fringe and oracle-step failures, and 5 ``coverage error``
for spectral coverage/resolution refusals.  Any other error inherits the
base class's 3 ``error``.
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

    exit_code, label = 3, "error"


class InvalidStateError(GravsimError):
    """A state vector is not normalized or otherwise unusable."""


class DegenerateDriveError(GravsimError):
    """Drive and detuning both vanish, leaving the mixing angle undefined."""


class StepSizeError(GravsimError):
    """A numerical integrator was asked to run with an unresolvable step."""

    exit_code, label = 4, "convergence error"


class TimeOrderError(GravsimError):
    """Times passed to a propagation or action routine are not ordered."""


class InvalidSequenceError(GravsimError):
    """Pulse-sequence parameters are invalid (T <= tau_p, a non-finite
    value, an unknown timing, ...)."""


class EliminationError(GravsimError):
    """Adiabatic elimination is invalid (zero detuning, complex shifts...)."""


class FitFailureError(GravsimError):
    """A least-squares fit failed to converge or was singular."""

    exit_code, label = 4, "convergence error"


class AmbiguousFringeError(GravsimError):
    """A fringe scan cannot be fit unambiguously (span or sampling)."""

    exit_code, label = 4, "convergence error"


class InsufficientDataError(GravsimError):
    """Not enough samples to form the requested statistic."""

    exit_code, label = 3, "data error"


class CoverageError(GravsimError):
    """A tabulated spectrum does not cover the frequency band an integral
    needs."""

    exit_code, label = 5, "coverage error"


class ResolutionError(GravsimError):
    """A requested sampling grid cannot represent the requested spectrum."""

    exit_code, label = 5, "coverage error"


class ConfigError(GravsimError):
    """A configuration file or value is missing or malformed."""

    exit_code, label = 2, "config error"


class DataFormatError(GravsimError):
    """An input data file is missing or malformed."""

    exit_code, label = 3, "data error"
