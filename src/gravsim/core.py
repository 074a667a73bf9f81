"""Shared state types, pulse/sequence parameter records, and constants.

Conventions used throughout the package:

* all frequencies are angular (rad/s), all phases are radians, all other
  quantities are SI;
* the phase convention is ``exp(-i E t / hbar)`` for a level of energy ``E``;
* wherever two-level amplitudes appear as a vector or matrix, the ordering is
  ``(C_b, C_a)`` -- excited amplitude first, ground amplitude second.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import KW_ONLY, dataclass

from .errors import InvalidSequenceError, InvalidStateError

__all__ = [
    "HBAR",
    "DEFAULT_G",
    "RB87_MASS",
    "DEFAULT_K_EFF",
    "TwoLevelState",
    "ThreeLevelState",
    "PulseParams",
    "SequenceParams",
    "state_probability",
]

# Reduced Planck constant [J*s] (2018 CODATA exact-by-definition value).
HBAR = 1.054571817e-34
# Default local gravitational acceleration [m/s^2].
DEFAULT_G = 9.81
# Mass of a Rb-87 atom [kg].
RB87_MASS = 1.443e-25
# Default two-photon effective wavenumber for counter-propagating 780 nm
# beams [rad/m], |k_eff| ~= 2 * 2*pi/780nm.
DEFAULT_K_EFF = 1.610e7

#: Admission tolerance on |amplitudes|^2 sums when validating states.  Kept
#: loose enough to accept fixed-step integrator output at the coarsest
#: permitted step; physics tests assert much tighter norms where required.
_NORM_TOL = 1e-6

#: Machine epsilon of a double, ``np.finfo(float).eps``, without the cost of
#: building a finfo.
_EPS = math.ulp(1.0)


def _check_norm(norm: float, label: str) -> None:
    """The one state-norm rule: the squared amplitudes' sum ``norm`` must be
    finite and within ``_NORM_TOL`` of 1.  ``label`` names the sum."""
    if not math.isfinite(norm) or abs(norm - 1.0) > _NORM_TOL:
        raise InvalidStateError(f"{label} = {norm!r}, expected 1 within {_NORM_TOL}")


@dataclass(frozen=True)
class TwoLevelState:
    """Normalized amplitudes of a two-level atom.

    Attributes
    ----------
    c_a : complex
        Ground-state amplitude.
    c_b : complex
        Excited-state amplitude.

    Notes
    -----
    The record stores ground first for readability, but every matrix in the
    package acts on the column vector ``(c_b, c_a)`` -- excited first.
    """

    c_a: complex
    c_b: complex

    def __post_init__(self) -> None:
        _check_norm(abs(self.c_a) ** 2 + abs(self.c_b) ** 2, "|c_a|^2 + |c_b|^2")

    @classmethod
    def ground(cls) -> "TwoLevelState":
        """Atom entirely in the ground state."""
        return cls(c_a=1.0 + 0.0j, c_b=0.0j)

    @classmethod
    def excited(cls) -> "TwoLevelState":
        """Atom entirely in the excited state."""
        return cls(c_a=0.0j, c_b=1.0 + 0.0j)


@dataclass(frozen=True)
class ThreeLevelState:
    """Normalized amplitudes of a three-level (lambda) atom plus momentum.

    Attributes
    ----------
    c_g : complex
        Lower ground-state amplitude.
    c_i : complex
        Intermediate (optically excited) state amplitude.
    c_e : complex
        Upper ground-state amplitude.
    p : float
        Momentum label of the ``c_g`` component along the beam axis [kg*m/s];
        the other components are displaced by the photon recoils.
    """

    c_g: complex
    c_i: complex
    c_e: complex
    p: float = 0.0

    def __post_init__(self) -> None:
        _check_norm(
            abs(self.c_g) ** 2 + abs(self.c_i) ** 2 + abs(self.c_e) ** 2,
            "three-level norm",
        )

    @classmethod
    def ground(cls, p: float = 0.0) -> "ThreeLevelState":
        """Atom entirely in the lower ground state with momentum ``p``."""
        return cls(c_g=1.0 + 0.0j, c_i=0.0j, c_e=0.0j, p=p)


@dataclass(frozen=True)
class PulseParams:
    """Parameters of a single square drive pulse.

    The drive couples the two levels through ``(hbar/2) Omega exp(-i (delta
    t + phi))`` with a real Rabi rate ``Omega = rabi_mod``.  A complex
    coupling ``|Omega| e^{i alpha}`` is the same drive at the laser phase
    ``phi - alpha``, so the record keeps one phase: ``laser_phase``.

    Attributes
    ----------
    rabi_mod : float
        Rabi rate Omega [rad/s]; finite and >= 0.
    detuning : float
        Drive detuning delta from resonance [rad/s]; finite.
    duration : float
        Pulse length [s]; finite and > 0.
    laser_phase : float, keyword-only
        Phase phi of the drive field at t = 0 [rad]; finite.
    start_time : float, keyword-only
        Time at which the pulse switches on [s]; finite.
    """

    rabi_mod: float
    detuning: float
    duration: float
    _: KW_ONLY
    laser_phase: float = 0.0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        # Positive chains, so that NaN and inf fail them.
        if not 0.0 <= self.rabi_mod < math.inf:
            raise ValueError(f"rabi_mod must be finite and >= 0, got {self.rabi_mod}")
        if not 0.0 < self.duration < math.inf:
            raise ValueError(f"duration must be finite and > 0, got {self.duration}")
        for name in ("detuning", "laser_phase", "start_time"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SequenceParams:
    """Geometry of a pi/2 -- pi -- pi/2 interferometer sequence.

    Attributes
    ----------
    t_interrogation : float
        Dark interval T between pulses [s]; finite and longer than tau_p.
    tau_p : float
        Duration of the central pi pulse [s], > 0 and large enough that
        pi/tau_p is finite; the outer pi/2 pulses last tau_p/2 each.
    phases : tuple of float
        Laser phases (phi_1, phi_2, phi_3) of the three pulses [rad].
    k_eff : float
        Two-photon effective wavenumber [rad/m]; finite and nonzero.
    """

    t_interrogation: float
    tau_p: float
    phases: tuple[float, float, float] = (0.0, 0.0, 0.0)
    k_eff: float = DEFAULT_K_EFF

    def __post_init__(self) -> None:
        if not _timing_valid(self.t_interrogation, self.tau_p):
            raise InvalidSequenceError(
                "need finite t_interrogation > tau_p > 0, finite pi/tau_p and a "
                "finite Rabi phase 2 pi (t_interrogation + tau_p) / tau_p, got "
                f"t_interrogation={self.t_interrogation}, tau_p={self.tau_p}"
            )
        if len(self.phases) != 3:
            raise InvalidSequenceError(
                f"phases must hold exactly three entries, got {len(self.phases)}"
            )
        if not all(map(math.isfinite, self.phases)):
            raise InvalidSequenceError(f"phases must be finite, got {self.phases}")
        if not math.isfinite(self.k_eff) or self.k_eff == 0.0:
            raise InvalidSequenceError(
                f"k_eff must be finite and nonzero, got {self.k_eff}"
            )

    @property
    def dphi_laser(self) -> float:
        """Interferometric laser-phase combination phi_1 - 2 phi_2 + phi_3."""
        p1, p2, p3 = self.phases
        return p1 - 2.0 * p2 + p3

    @property
    def span(self) -> float:
        """Total sequence length 2*T + 2*tau_p (pulses plus dark intervals)."""
        return _pulse_edges(self.t_interrogation, self.tau_p)[-1]


def _pulse_edges(big_t: float, tau_p: float) -> tuple[float, ...]:
    """Pulse edges of the dark-interval pi/2 -- pi -- pi/2 sequence.

    With the first pulse switching on at 0 and ``a = tau_p/2``, the pulses
    occupy ``[0, a]``, ``[a + T, 3a + T]`` and ``[3a + 2T, 2T + 2 tau_p]``;
    the six edges come back in that order.  The pulse starts of
    ``twolevel.run_sequence``, the segments of ``noise.sensitivity_g`` and
    both ``span`` properties all read this one table.
    """
    a = 0.5 * tau_p
    return (0.0, a, a + big_t, 3.0 * a + big_t, 3.0 * a + 2.0 * big_t,
            2.0 * big_t + 2.0 * tau_p)


def _rabi_rate(tau_p: float) -> float:
    """Rabi rate ``pi / tau_p`` [rad/s] that makes the central pulse a pi pulse."""
    return math.pi / tau_p


def _timing_valid(big_t: float, tau_p: float) -> bool:
    """The one timing rule of the sequence: ``0 < tau_p < T < inf`` with a
    finite Rabi phase ``(pi / tau_p)(2 T + 2 tau_p)`` over the span.  A
    subnormal ``tau_p`` overflows the rate, a ``T`` near the largest double
    the span, and a vast ``T / tau_p`` their product, which the transfer
    function and the sensitivity function evaluate.

    ``SequenceParams`` and ``noise.SensitivityProfile`` both apply it.
    """
    # One positive chain, so that NaN and inf fail it.
    return (0.0 < tau_p < big_t < math.inf
            and _rabi_rate(tau_p) * _pulse_edges(big_t, tau_p)[-1] < math.inf)


def _dc_scale(big_t: float, tau_p: float) -> float:
    """Scale factor ``S = (T + tau_p)(T + 2 tau_p / pi)`` [s^2] of the sequence.

    A constant acceleration ``a`` gives the phase ``k_eff a S`` (Cheinet et
    al., IEEE Trans. Instrum. Meas. 57, 1141 (2008)): ``S = integral t g_s
    dt`` over the pulse edges of :func:`_pulse_edges`, which tends to
    ``T^2`` for thin pulses.
    """
    return (big_t + tau_p) * (big_t + 2.0 * tau_p / math.pi)


def state_probability(state: TwoLevelState | ThreeLevelState, which: str) -> float:
    """Occupation probability of one component of a state.

    Parameters
    ----------
    state : TwoLevelState or ThreeLevelState
        State whose component is queried.
    which : str
        The letter of the component's field: ``"a"`` (ground) or ``"b"``
        (excited) on a two-level state; ``"g"`` (lower ground), ``"i"``
        (intermediate) or ``"e"`` (upper ground) on a three-level state.

    Returns
    -------
    float
        ``|amplitude|^2`` of the requested component.

    Raises
    ------
    ValueError
        If ``which`` is not a label of ``state``'s record.
    TypeError
        If ``state`` is neither record.
    """
    if isinstance(state, TwoLevelState):
        labels = ("a", "b")
    elif isinstance(state, ThreeLevelState):
        labels = ("g", "i", "e")
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if which not in labels:
        raise ValueError(f"unknown {type(state).__name__} component {which!r} "
                         f"(known: {', '.join(labels)})")
    return abs(getattr(state, "c_" + which)) ** 2


#: Rows that :func:`_write_csv` converts to Python numbers at a time.
_CSV_BLOCK_ROWS = 4096


def _write_csv(
    path: str | os.PathLike,
    header: list[str],
    columns: list,
    comments: Sequence[str] = (),
) -> None:
    """Write CSV with LF endings, '.' decimals, 15-significant-digit floats
    and integer columns as plain integers; optional '#' comment lines first.

    ``columns`` are equal-length columns that slice and convert with
    ``.tolist()``: numpy arrays, or ``array.array`` columns, which the
    ``rabi`` table uses so that it loads no numpy.  This is the package's
    one CSV writer: the CLI's tables and ``noise.write_*_csv`` both use it.

    Each row is one ``%`` template, built once from the Python types of the
    first row's converted values (``%d`` for an int), applied to Python
    numbers.  The columns are converted ``_CSV_BLOCK_ROWS`` rows at a time,
    so a long table never holds more than one block of them.
    """
    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [column[start:start + _CSV_BLOCK_ROWS].tolist() for column in columns]
            if not start:
                template = ",".join(
                    "%d" if isinstance(values[0], int) else "%.15e" for values in block
                ) + "\n"
            fh.write("".join(map(template.__mod__, zip(*block))))
