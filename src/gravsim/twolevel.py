"""Two-level atom driven by a classical field: exact pulses and sequences.

The module works in the frame rotating at the drive frequency, where a square
pulse has a constant Hamiltonian and the propagator is available in closed
form.  All matrices act on the amplitude vector ``(C_b, C_a)`` -- excited
amplitude first (see :mod:`gravsim.core`).

For a drive of complex Rabi rate ``Omega = rabi_mod * exp(i rabi_arg)``,
detuning ``delta`` and laser phase ``phi``, the lab-frame coupling is
``(hbar/2) Omega exp(-i (delta t + phi))`` and everything below depends on the
phase only through ``phi_eff = phi - rabi_arg``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (HBAR, PulseParams, SequenceParams, TwoLevelState, _pulse_edges,
                   _rabi_rate, state_probability)
from .errors import (DegenerateDriveError, InvalidSequenceError, StepSizeError,
                     TimeOrderError)

__all__ = [
    "RotatingFrameHamiltonian",
    "MixingAngle",
    "Eigensystem",
    "interaction_hamiltonian",
    "rotating_frame_hamiltonian",
    "mixing_angle",
    "eigensystem",
    "spectral_projectors",
    "propagator_matrix",
    "pulse_propagator",
    "evolve_pulse",
    "run_sequence",
    "mach_zehnder_probability",
    "ode_oracle",
]

#: Minimum number of integrator steps per Rabi period required of the oracle.
_ORACLE_RESOLUTION = 100.0
#: Most RK4 steps one oracle call may take: about 10 s of stepping.
_MAX_ORACLE_STEPS = 10_000_000


@dataclass(frozen=True)
class RotatingFrameHamiltonian:
    """Constant Hamiltonian of a square pulse in the co-rotating frame.

    Attributes
    ----------
    delta : float
        Drive detuning [rad/s].
    rabi_mod, rabi_arg : float
        Modulus [rad/s] and argument [rad] of the complex Rabi rate.
    laser_phase : float
        Drive phase at t = 0 [rad].
    """

    delta: float
    rabi_mod: float
    rabi_arg: float
    laser_phase: float

    @property
    def effective_phase(self) -> float:
        """Phase entering the off-diagonal coupling: laser_phase - rabi_arg."""
        return self.laser_phase - self.rabi_arg

    def matrix(self, hbar: float = HBAR) -> np.ndarray:
        """2x2 matrix on (C_b, C_a): (hbar/2) [[-delta, W e^{-i phi}],
        [W e^{+i phi}, +delta]] with W = rabi_mod, phi = effective_phase."""
        off = self.rabi_mod * cmath.exp(-1j * self.effective_phase)
        return (hbar / 2.0) * np.array(
            [[-self.delta, off], [off.conjugate(), self.delta]], dtype=complex
        )


@dataclass(frozen=True)
class MixingAngle:
    """Polar decomposition of the rotating-frame Hamiltonian.

    Attributes
    ----------
    theta : float
        Mixing angle in [0, pi]; sin(theta) = rabi_mod/omega_r and
        cos(theta) = -delta/omega_r.
    omega_r : float
        Generalized Rabi rate sqrt(rabi_mod^2 + delta^2) [rad/s].
    """

    theta: float
    omega_r: float


@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues and eigenvectors of a rotating-frame pulse Hamiltonian.

    ``lambda_plus``/``lambda_minus`` are the dressed-state energies
    +/- hbar*omega_r/2 [J]; ``v_plus``/``v_minus`` are the corresponding
    normalized eigenvectors on (C_b, C_a).
    """

    lambda_plus: float
    lambda_minus: float
    v_plus: np.ndarray
    v_minus: np.ndarray


def interaction_hamiltonian(
    pulse: PulseParams, t: float, hbar: float = HBAR
) -> np.ndarray:
    """Lab-frame coupling Hamiltonian of a square pulse at time ``t``.

    Returns the 2x2 matrix on (C_b, C_a) whose off-diagonal element is
    ``(hbar/2) Omega exp(-i (delta t + laser_phase))`` (diagonal zero, the
    bare level energies being absorbed in the interaction picture).
    """
    drive = (
        pulse.rabi_mod
        * cmath.exp(-1j * (pulse.detuning * t + pulse.effective_phase))
    )
    return (hbar / 2.0) * np.array(
        [[0.0, drive], [drive.conjugate(), 0.0]], dtype=complex
    )


def rotating_frame_hamiltonian(pulse: PulseParams) -> RotatingFrameHamiltonian:
    """Hamiltonian of ``pulse`` in the frame rotating at the drive frequency.

    The frame transformation diag(e^{+i delta t/2}, e^{-i delta t/2}) removes
    the explicit time dependence; the returned record's :meth:`matrix` gives
    the constant 2x2 generator.
    """
    return RotatingFrameHamiltonian(
        delta=pulse.detuning,
        rabi_mod=pulse.rabi_mod,
        rabi_arg=pulse.rabi_arg,
        laser_phase=pulse.laser_phase,
    )


def mixing_angle(delta: float, rabi_mod: float) -> MixingAngle:
    """Mixing angle and generalized Rabi rate of a drive.

    Parameters
    ----------
    delta : float
        Detuning [rad/s].
    rabi_mod : float
        Rabi-rate modulus [rad/s], >= 0.

    Returns
    -------
    MixingAngle
        theta = atan2(rabi_mod, -delta) in [0, pi] and
        omega_r = hypot(rabi_mod, delta).

    Raises
    ------
    DegenerateDriveError
        If both ``delta`` and ``rabi_mod`` vanish (angle undefined).
    """
    if rabi_mod < 0.0:
        raise ValueError(f"rabi_mod must be >= 0, got {rabi_mod}")
    omega_r = math.hypot(rabi_mod, delta)
    if omega_r == 0.0:
        raise DegenerateDriveError("rabi_mod and delta are both zero")
    return MixingAngle(theta=math.atan2(rabi_mod, -delta), omega_r=omega_r)


def eigensystem(h: RotatingFrameHamiltonian, hbar: float = HBAR) -> Eigensystem:
    """Dressed states of a constant rotating-frame Hamiltonian.

    The eigenvalues are +/- hbar*omega_r/2.  With half-angle c = cos(theta/2),
    s = sin(theta/2) and phi the effective drive phase, the eigenvectors on
    (C_b, C_a) are::

        v_plus  = ( c e^{-i phi/2},  s e^{+i phi/2})
        v_minus = (-s e^{-i phi/2},  c e^{+i phi/2})
    """
    ang = mixing_angle(h.delta, h.rabi_mod)
    half = ang.theta / 2.0
    c, s = math.cos(half), math.sin(half)
    em = cmath.exp(-1j * h.effective_phase / 2.0)
    ep = em.conjugate()
    v_plus = np.array([c * em, s * ep], dtype=complex)
    v_minus = np.array([-s * em, c * ep], dtype=complex)
    lam = hbar * ang.omega_r / 2.0
    return Eigensystem(
        lambda_plus=lam, lambda_minus=-lam, v_plus=v_plus, v_minus=v_minus
    )


def spectral_projectors(eig: Eigensystem) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors |v+><v+| and |v-><v-| built from the eigenvectors.

    They are Hermitian, idempotent, mutually orthogonal, and sum to the
    identity.
    """
    p_plus = np.outer(eig.v_plus, eig.v_plus.conj())
    p_minus = np.outer(eig.v_minus, eig.v_minus.conj())
    return p_plus, p_minus


def propagator_matrix(
    rabi_mod: float,
    effective_phase: float,
    start_time: float,
    duration: float,
    frame_delta: float,
    rot_delta: float | None = None,
    mean_shift: float = 0.0,
) -> np.ndarray:
    """Exact propagator of a square pulse on (C_b, C_a) amplitudes.

    The unitary is assembled as D^dag(t0 + tau) * exp(-i H_R tau) * D(t0)
    with frame D(t) = diag(e^{+i frame_delta t/2}, e^{-i frame_delta t/2}).
    ``rot_delta`` is the detuning entering the rotation axis (it differs from
    ``frame_delta`` when constant diagonal shifts are present, e.g. light
    shifts); ``mean_shift`` adds a global phase e^{-i mean_shift tau} from the
    mean of those diagonal shifts.

    Parameters
    ----------
    rabi_mod : float
        Coupling modulus [rad/s].
    effective_phase : float
        Drive phase entering the coupling [rad].
    start_time, duration : float
        Pulse start t0 [s] and length tau [s].
    frame_delta : float
        Frequency of the rotating frame = drive detuning [rad/s].
    rot_delta : float, optional
        Detuning along the rotation axis; defaults to ``frame_delta``.
    mean_shift : float, optional
        Mean diagonal energy shift [rad/s] contributing a global phase.

    Returns
    -------
    numpy.ndarray
        2x2 complex unitary.
    """
    if rot_delta is None:
        rot_delta = frame_delta
    omega_r = math.hypot(rabi_mod, rot_delta)
    if omega_r > 0.0:
        sin_theta = rabi_mod / omega_r
        cos_theta = -rot_delta / omega_r
    else:
        sin_theta = 0.0
        cos_theta = 0.0
    half_angle = omega_r * duration / 2.0
    c = math.cos(half_angle)
    s = math.sin(half_angle)
    frame = cmath.exp(-1j * frame_delta * duration / 2.0)
    drive = cmath.exp(-1j * (frame_delta * start_time + effective_phase))
    overall = cmath.exp(-1j * mean_shift * duration)
    u = np.array(
        [
            [frame * (c - 1j * cos_theta * s), -1j * frame * drive * sin_theta * s],
            [
                -1j * frame.conjugate() * drive.conjugate() * sin_theta * s,
                frame.conjugate() * (c + 1j * cos_theta * s),
            ],
        ],
        dtype=complex,
    )
    return overall * u


def pulse_propagator(pulse: PulseParams) -> np.ndarray:
    """Exact propagator of ``pulse`` on (C_b, C_a) amplitudes."""
    return propagator_matrix(
        rabi_mod=pulse.rabi_mod,
        effective_phase=pulse.effective_phase,
        start_time=pulse.start_time,
        duration=pulse.duration,
        frame_delta=pulse.detuning,
    )


def evolve_pulse(state: TwoLevelState, pulse: PulseParams) -> TwoLevelState:
    """Apply one square pulse to a state via the closed-form propagator."""
    u = pulse_propagator(pulse)
    c_b, c_a = u @ np.array([state.c_b, state.c_a])
    return TwoLevelState(c_a=c_a, c_b=c_b)


def mach_zehnder_probability(delta: float, tau_p: float, dphi_laser: float) -> float:
    """Closed-form excited-state fraction of a pi/2 -- pi -- pi/2 sequence.

    For small detuning (delta much less than the Rabi rate pi/tau_p) and
    pulse starts spaced uniformly (``timing="start-to-start"`` in
    :func:`run_sequence`), the exit population is::

        P_b = (1/2) [1 - cos(dphi_laser - delta * tau_p / 2)]

    with ``tau_p`` the pi-pulse duration and ``dphi_laser`` the phase
    combination phi_1 - 2 phi_2 + phi_3.
    """
    return 0.5 * (1.0 - math.cos(dphi_laser - delta * tau_p / 2.0))


def _sequence_pulses(
    seq: SequenceParams,
    rabi_mod: float,
    detuning: float,
    t_start: float,
    timing: str,
) -> tuple[PulseParams, PulseParams, PulseParams]:
    """Build the three pulses of a pi/2 -- pi -- pi/2 sequence.

    The first pulse starts at ``t_start``.  Under ``"dark-intervals"`` the
    others start at ``t_start`` plus edges 2 and 4 of
    :func:`gravsim.core._pulse_edges`; under ``"start-to-start"`` at
    ``t_start + T`` and ``t_start + 2 T``.  The durations are tau_p/2, tau_p
    and tau_p/2 under both.  ``SequenceParams`` requires T > tau_p, so the
    pulses never overlap.
    """
    big_t = seq.t_interrogation
    if timing == "dark-intervals":
        _, _, t2, _, t3, _ = _pulse_edges(big_t, seq.tau_p)
    elif timing == "start-to-start":
        t2, t3 = big_t, 2.0 * big_t
    else:
        raise InvalidSequenceError(
            f"timing must be 'dark-intervals' or 'start-to-start', got {timing!r}"
        )
    tau, half = seq.tau_p, seq.tau_p / 2.0
    p1, p2, p3 = seq.phases
    return (
        PulseParams(rabi_mod, detuning, half, laser_phase=p1, start_time=t_start),
        PulseParams(rabi_mod, detuning, tau, laser_phase=p2, start_time=t_start + t2),
        PulseParams(rabi_mod, detuning, half, laser_phase=p3, start_time=t_start + t3),
    )


def run_sequence(
    seq: SequenceParams,
    detuning: float = 0.0,
    rabi_mod: float | None = None,
    state: TwoLevelState | None = None,
    t_start: float = 0.0,
    timing: str = "dark-intervals",
) -> float:
    """Excited-state fraction after a pi/2 -- pi -- pi/2 pulse sequence.

    The three pulses have durations tau_p/2, tau_p, tau_p/2 and phases
    ``seq.phases``.  Nothing is applied between pulses: in the interaction
    picture free flight leaves the amplitudes unchanged, and the drive phase
    accumulated over each dark time enters through the next pulse's
    ``start_time``.

    Parameters
    ----------
    seq : SequenceParams
        Sequence geometry (T, tau_p, phases); T > tau_p, so the pulses
        never overlap under either timing.
    detuning : float, optional
        Common drive detuning [rad/s].
    rabi_mod : float, optional
        Rabi rate [rad/s]; defaults to pi/tau_p (resonant pi-pulse condition).
    state : TwoLevelState, optional
        Input state; defaults to the ground state.
    t_start : float, optional
        Start time of the first pulse [s].
    timing : {"dark-intervals", "start-to-start"}
        Pulse placement convention.  "dark-intervals" (default) leaves a dark
        interval of T between a pulse's end and the next pulse's start: the
        pulse edges of ``noise.sensitivity_g``, both read from
        ``core._pulse_edges``.  The resulting fringe carries no detuning
        offset, P = (1/2)[1 - cos(dphi_laser)] to first order in delta.
        "start-to-start" spaces the pulse starts by exactly T and yields the
        offset fringe law of :func:`mach_zehnder_probability`.

    Returns
    -------
    float
        Probability of exiting in the excited state.

    Raises
    ------
    InvalidSequenceError
        If ``timing`` is neither of the two conventions.
    """
    if rabi_mod is None:
        rabi_mod = _rabi_rate(seq.tau_p)
    if state is None:
        state = TwoLevelState.ground()
    for pulse in _sequence_pulses(seq, rabi_mod, detuning, t_start, timing):
        state = evolve_pulse(state, pulse)
    return state_probability(state, "b")


def _check_oracle_step(dt: float, rate: float, duration: float) -> int:
    """Number of RK4 steps ``max(1, ceil(duration / dt))`` over ``duration``.

    Refuses a ``duration`` that is not finite and positive
    (:class:`TimeOrderError`), and a step that is not positive, that
    resolves the fastest ``rate`` [rad/s] by fewer than
    ``_ORACLE_RESOLUTION`` steps per period, or whose count exceeds
    ``_MAX_ORACLE_STEPS`` (an infinite or NaN ratio too).  The resolution
    limit carries a relative slack of 1e-9, so a ``dt`` computed as the
    limit itself passes despite rounding.
    """
    if not 0.0 < duration < math.inf:
        raise TimeOrderError(f"oracle duration must be finite and > 0, got {duration}")
    if dt <= 0.0:
        raise StepSizeError(f"dt must be > 0, got {dt}")
    if rate > 0.0:
        limit = 2.0 * math.pi / (_ORACLE_RESOLUTION * rate)
        if dt > limit * (1.0 + 1e-9):
            raise StepSizeError(
                f"dt={dt} too coarse: need <= {limit:.3e} to resolve "
                f"{rate:.3e} rad/s"
            )
    ratio = duration / dt
    if not ratio <= _MAX_ORACLE_STEPS:
        raise StepSizeError(
            f"dt={dt} over duration {duration} needs {ratio:.3e} RK4 steps; "
            f"at most {_MAX_ORACLE_STEPS} are allowed"
        )
    return max(1, math.ceil(ratio))


def _rk4_lab_frame(
    a0: np.ndarray,
    nu: np.ndarray,
    amplitudes: list[complex],
    t0: float,
    duration: float,
    dt: float,
    rate: float,
) -> list[complex]:
    """Classic RK4 for ``dc/dt = A(t) c``, ``A(t)_jk = a0_jk e^{i(nu_j - nu_k) t}``.

    ``dt`` is the requested step and ``rate`` [rad/s] the fastest rate it
    must resolve: :func:`_check_oracle_step` refuses the pair or gives the
    step count, and the step is shrunk so that the count lands exactly on
    ``t0 + duration``.

    With ``D(t) = diag(e^{i nu t})`` the generator obeys ``A(t + s) =
    D(t) A(s) D(t)^dag``, so every RK4 step is the first step's map ``P``
    (built from ``A(0)``, ``A(h/2)`` and ``A(h)``) conjugated by ``D(t)``.
    The loop advances ``b = D(t)^dag c`` by the constant ``D(h)^dag P`` and
    returns ``c`` at ``t0 + duration``.  Each step is one call of that map's
    bound ``dot`` (a single BLAS matrix-vector product) writing into one of
    two reused buffers, which then swap; ``step @ b`` would give the same
    bits at about twice the dispatch cost per step.
    """
    n_steps = _check_oracle_step(dt, rate, duration)
    h = duration / n_steps
    # Row r of d is the diagonal of D(s) at s = 0, h/2 and h, and
    # A(s) = a0 * outer(d_r, conj(d_r)) gives k1 = A(0), mid and end.
    d = np.exp(np.multiply.outer((0.0, 0.5 * h, h), 1j * nu))
    k1, mid, end = a0 * (d[:, :, None] * d.conj()[:, None, :])
    one = np.eye(nu.size)
    k2 = mid.dot(one + 0.5 * h * k1)
    k3 = mid.dot(one + 0.5 * h * k2)
    k4 = end.dot(one + h * k3)
    p = one + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    advance = (np.exp(-1j * nu * h)[:, None] * p).dot
    b = np.exp(-1j * nu * t0) * np.asarray(amplitudes, dtype=complex)
    spare = np.empty_like(b)
    for _ in range(n_steps):
        advance(b, out=spare)
        b, spare = spare, b
    return (np.exp(1j * nu * (t0 + duration)) * b).tolist()


def ode_oracle(state: TwoLevelState, pulse: PulseParams, dt: float) -> TwoLevelState:
    """Integrate one pulse with a fixed-step RK4 scheme (reference path).

    This deliberately avoids the rotating frame and the closed-form
    propagator: it steps the explicitly time-dependent lab-frame amplitude
    equations

        dC_b/dt = -(i/2) Omega e^{-i(delta t + phi)} C_a
        dC_a/dt = -(i/2) Omega* e^{+i(delta t + phi)} C_b

    with classic Runge-Kutta (:func:`_rk4_lab_frame`, with ``nu = (-delta/2,
    delta/2)``); no closed form, eigendecomposition or matrix exponential
    enters.  The step is shrunk so that an integer number of steps lands
    exactly on the pulse duration.

    Parameters
    ----------
    state : TwoLevelState
        State at the pulse start.
    pulse : PulseParams
        Pulse to integrate (integration runs over [start_time,
        start_time + duration]).
    dt : float
        Requested step [s]; must resolve the generalized Rabi period by at
        least a factor of 100.

    Raises
    ------
    StepSizeError
        If ``dt`` is not positive or too coarse for the pulse, or the pulse
        needs more than ``_MAX_ORACLE_STEPS`` (10,000,000) steps of it.
    """
    drive = -0.5j * pulse.rabi * cmath.exp(-1j * pulse.laser_phase)
    a0 = np.array([[0.0, drive], [-drive.conjugate(), 0.0]])
    c_b, c_a = _rk4_lab_frame(
        a0,
        np.array([-0.5, 0.5]) * pulse.detuning,
        [state.c_b, state.c_a],
        pulse.start_time,
        pulse.duration,
        dt,
        math.hypot(pulse.rabi_mod, pulse.detuning),
    )
    return TwoLevelState(c_a=c_a, c_b=c_b)
