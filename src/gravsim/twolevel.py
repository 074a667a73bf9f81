"""Two-level atom driven by a classical field: exact pulses and sequences.

The module works in the frame rotating at the drive frequency, where a square
pulse has a constant Hamiltonian and the propagator is available in closed
form.  All matrices act on the amplitude vector ``(C_b, C_a)`` -- excited
amplitude first (see :mod:`gravsim.core`).

For a drive of Rabi rate ``Omega = rabi_mod >= 0``, detuning ``delta`` and
laser phase ``phi``, the lab-frame coupling is ``(hbar/2) Omega exp(-i (delta
t + phi))``.  A complex coupling ``|Omega| e^{i alpha}`` is the drive of rate
``|Omega|`` at the phase ``phi - alpha``, which is how :mod:`gravsim.raman`
hands its effective two-photon drive to the propagator below.
"""

from __future__ import annotations

import cmath
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

from .core import (HBAR, PulseParams, SequenceParams, TwoLevelState, _pulse_edges,
                   _rabi_rate, state_probability)
from .errors import (DegenerateDriveError, InvalidSequenceError, StepSizeError,
                     TimeOrderError)

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that build arrays (the matrix API
# below and the 3x3 sweep), so the two-level sweep and the closed form, and
# the ``rabi`` command that runs them, load no numpy.

__all__ = [
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


def interaction_hamiltonian(pulse: PulseParams, t: float) -> np.ndarray:
    """Lab-frame coupling Hamiltonian of a square pulse at time ``t``.

    Returns the 2x2 matrix on (C_b, C_a) whose off-diagonal element is
    ``(hbar/2) Omega exp(-i (delta t + laser_phase))`` (diagonal zero, the
    bare level energies being absorbed in the interaction picture).
    """
    import numpy as np

    drive = (
        pulse.rabi_mod
        * cmath.exp(-1j * (pulse.detuning * t + pulse.laser_phase))
    )
    return (HBAR / 2.0) * np.array(
        [[0.0, drive], [drive.conjugate(), 0.0]], dtype=complex
    )


def rotating_frame_hamiltonian(pulse: PulseParams) -> np.ndarray:
    """Hamiltonian of ``pulse`` in the frame rotating at the drive frequency.

    The frame transformation diag(e^{+i delta t/2}, e^{-i delta t/2}) removes
    the explicit time dependence and leaves the constant 2x2 matrix on
    (C_b, C_a) ``(hbar/2) [[-delta, W e^{-i phi}], [W e^{+i phi}, +delta]]``
    with W = rabi_mod and phi = ``pulse.laser_phase``.
    """
    import numpy as np

    off = pulse.rabi_mod * cmath.exp(-1j * pulse.laser_phase)
    return (HBAR / 2.0) * np.array(
        [[-pulse.detuning, off], [off.conjugate(), pulse.detuning]], dtype=complex
    )


def mixing_angle(delta: float, rabi_mod: float) -> MixingAngle:
    """Mixing angle and generalized Rabi rate of a drive.

    Parameters
    ----------
    delta : float
        Detuning [rad/s]; finite.
    rabi_mod : float
        Rabi rate [rad/s]; finite and >= 0.

    Returns
    -------
    MixingAngle
        theta = atan2(rabi_mod, -delta) in [0, pi] and
        omega_r = hypot(rabi_mod, delta).

    Raises
    ------
    ValueError
        If ``delta`` is not finite, ``rabi_mod`` not finite and >= 0, or
        their ``omega_r`` overflows.
    DegenerateDriveError
        If both ``delta`` and ``rabi_mod`` vanish (angle undefined).
    """
    # Positive chains, so that NaN and inf fail them.
    if not 0.0 <= rabi_mod < math.inf:
        raise ValueError(f"rabi_mod must be finite and >= 0, got {rabi_mod}")
    if not -math.inf < delta < math.inf:
        raise ValueError(f"delta must be finite, got {delta}")
    omega_r = math.hypot(rabi_mod, delta)
    if omega_r == 0.0:
        raise DegenerateDriveError("rabi_mod and delta are both zero")
    if omega_r == math.inf:
        raise ValueError(f"omega_r = hypot({rabi_mod}, {delta}) must be finite, got inf")
    return MixingAngle(theta=math.atan2(rabi_mod, -delta), omega_r=omega_r)


def eigensystem(pulse: PulseParams) -> Eigensystem:
    """Dressed states of ``pulse``'s :func:`rotating_frame_hamiltonian`.

    The eigenvalues are +/- hbar*omega_r/2.  With half-angle c = cos(theta/2),
    s = sin(theta/2) and phi the laser phase, the eigenvectors on
    (C_b, C_a) are::

        v_plus  = ( c e^{-i phi/2},  s e^{+i phi/2})
        v_minus = (-s e^{-i phi/2},  c e^{+i phi/2})
    """
    import numpy as np

    ang = mixing_angle(pulse.detuning, pulse.rabi_mod)
    half = ang.theta / 2.0
    c, s = math.cos(half), math.sin(half)
    em = cmath.exp(-1j * pulse.laser_phase / 2.0)
    ep = em.conjugate()
    v_plus = np.array([c * em, s * ep], dtype=complex)
    v_minus = np.array([-s * em, c * ep], dtype=complex)
    lam = HBAR * ang.omega_r / 2.0
    return Eigensystem(
        lambda_plus=lam, lambda_minus=-lam, v_plus=v_plus, v_minus=v_minus
    )


def spectral_projectors(eig: Eigensystem) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors |v+><v+| and |v-><v-| built from the eigenvectors.

    They are Hermitian, idempotent, mutually orthogonal, and sum to the
    identity.
    """
    import numpy as np

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

    Raises
    ------
    ValueError
        If a phase of the closed form is not finite: ``omega_r tau / 2``,
        ``delta tau / 2``, ``delta t0 + phi`` or ``mean_shift tau``, with
        ``delta = frame_delta`` and ``phi = effective_phase``.
    """
    import numpy as np

    return np.array(_propagator_rows(rabi_mod, effective_phase, start_time, duration,
                                     frame_delta, rot_delta, mean_shift))


def _propagator_rows(
    rabi_mod: float,
    effective_phase: float,
    start_time: float,
    duration: float,
    frame_delta: float,
    rot_delta: float | None = None,
    mean_shift: float = 0.0,
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The rows of :func:`propagator_matrix` as plain complex numbers."""
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
    frame_angle = frame_delta * duration / 2.0
    drive_angle = frame_delta * start_time + effective_phase
    shift_angle = mean_shift * duration
    # One test in the usual case: a phase that is not finite makes the sum
    # not finite.  So can finite phases whose sum overflows, and then the
    # loop finds nothing to refuse.
    if not math.isfinite(half_angle + frame_angle + drive_angle + shift_angle):
        for name, value in (("omega_r tau / 2", half_angle), ("delta tau / 2", frame_angle),
                            ("delta t0 + phi", drive_angle), ("mean_shift tau", shift_angle)):
            if not math.isfinite(value):
                raise ValueError(f"pulse phase {name} must be finite, got {value}")
    c = math.cos(half_angle)
    s = math.sin(half_angle)
    frame = cmath.exp(-1j * frame_angle)
    drive = cmath.exp(-1j * drive_angle)
    overall = cmath.exp(-1j * shift_angle)
    return (
        (overall * (frame * (c - 1j * cos_theta * s)),
         overall * (-1j * frame * drive * sin_theta * s)),
        (overall * (-1j * frame.conjugate() * drive.conjugate() * sin_theta * s),
         overall * (frame.conjugate() * (c + 1j * cos_theta * s))),
    )


def pulse_propagator(pulse: PulseParams) -> np.ndarray:
    """Exact propagator of ``pulse`` on (C_b, C_a) amplitudes."""
    return propagator_matrix(
        rabi_mod=pulse.rabi_mod,
        effective_phase=pulse.laser_phase,
        start_time=pulse.start_time,
        duration=pulse.duration,
        frame_delta=pulse.detuning,
    )


def evolve_pulse(state: TwoLevelState, pulse: PulseParams) -> TwoLevelState:
    """Apply one square pulse to a state via the closed-form propagator.

    A phase of the closed form that overflows raises ``ValueError`` (see
    :func:`propagator_matrix`).
    """
    (u_bb, u_ba), (u_ab, u_aa) = _propagator_rows(
        pulse.rabi_mod, pulse.laser_phase, pulse.start_time, pulse.duration,
        pulse.detuning)
    return TwoLevelState(c_a=u_ab * state.c_b + u_aa * state.c_a,
                         c_b=u_bb * state.c_b + u_ba * state.c_a)


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


def _check_oracle_step(dt: float, rate: float, duration: float, n_samples: int) -> int:
    """RK4 steps ``max(1, ceil(duration / dt))`` over each of ``n_samples``
    back-to-back spans of ``duration``.

    Refuses a ``duration`` that is not finite and positive
    (:class:`TimeOrderError`), and a step that is not positive, that
    resolves the fastest ``rate`` [rad/s] by fewer than
    ``_ORACLE_RESOLUTION`` steps per period, or whose count over all
    ``n_samples`` spans exceeds ``_MAX_ORACLE_STEPS`` (an infinite or NaN
    ratio too).  The resolution limit carries a relative slack of 1e-9, so
    a ``dt`` computed as the limit itself passes despite rounding.
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
    # max(1, ceil(r)) <= m exactly when max(r, 1) <= m, for an integer m;
    # a NaN ratio fails the comparison.
    ratio = max(duration / dt, 1.0)
    if not ratio <= _MAX_ORACLE_STEPS // n_samples:
        raise StepSizeError(
            f"dt={dt} over duration {n_samples * duration} needs "
            f"{n_samples * ratio:.3e} RK4 steps; at most {_MAX_ORACLE_STEPS} "
            f"are allowed"
        )
    return math.ceil(ratio)


def _rk4_step_map(
    a0: list[list[complex]], nu: list[float], h: float
) -> list[list[complex]]:
    """Rows of RK4's constant step map ``D(h)^dag P`` (see :func:`_rk4_lab_frame`).

    ``P = 1 + (h/6)(k1 + 2 k2 + 2 k3 + k4)`` with ``k1 = A(0) = a0``,
    ``k2 = A(h/2)(1 + (h/2) k1)``, ``k3 = A(h/2)(1 + (h/2) k2)`` and
    ``k4 = A(h)(1 + h k3)``, where ``A(s)_jk = a0_jk d_j conj(d_k)`` with
    ``d_j = e^{i nu_j s}``.  Row j is ``conj(d_j(h))`` times row j of the
    increment ``(h/6)(...)``, plus ``conj(d_j(h))`` on the diagonal: adding
    the identity last keeps the increment's low bits, which ``1 + ...``
    would round to the ulp of 1 before the phase multiplies it.

    The stages multiply generator entries before ``h`` scales them, so
    entries near 1e154 rad/s overflow however small ``h`` is; a map that is
    not finite raises :class:`StepSizeError` naming the largest entry.
    """
    half = 0.5 * h
    d_mid = [cmath.exp(1j * v * half) for v in nu]
    d_end = [cmath.exp(1j * v * h) for v in nu]
    mid = [[a * (p * q.conjugate()) for a, q in zip(row, d_mid)]
           for row, p in zip(a0, d_mid)]
    end = [[a * (p * q.conjugate()) for a, q in zip(row, d_end)]
           for row, p in zip(a0, d_end)]
    k2 = _rk4_stage(mid, half, a0)
    k3 = _rk4_stage(mid, half, k2)
    k4 = _rk4_stage(end, h, k3)
    sixth = h / 6.0
    step = []
    for j, (q, r1, r2, r3, r4) in enumerate(zip(d_end, a0, k2, k3, k4)):
        q = q.conjugate()
        row = []
        for w1, w2, w3, w4 in zip(r1, r2, r3, r4):
            row.append(q * (sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)))
        row[j] += q
        if not all(map(cmath.isfinite, row)):
            peak = max(abs(a) for r in a0 for a in r)
            raise StepSizeError(f"RK4 step map overflows for generator entries "
                                f"up to {peak:.3e} rad/s")
        step.append(row)
    return step


def _rk4_stage(gen: list[list[complex]], c: float, k: list[list[complex]]
               ) -> list[list[complex]]:
    """The next RK4 stage ``gen (1 + c k)``, as ``gen + c (gen k)``."""
    cols = list(zip(*k))
    out = []
    for g in gen:
        row = []
        for g_m, col in zip(g, cols):
            row.append(g_m + c * sum(map(operator.mul, g, col)))
        out.append(row)
    return out


def _rk4_sweep(
    a0: list[list[complex]],
    nu: list[float],
    amplitudes: list[complex],
    t0: float,
    duration: float,
    dt: float,
    rate: float,
    n_samples: int,
) -> tuple[list[complex], int]:
    """Classic RK4 for ``dc/dt = A(t) c``, ``A(t)_jk = a0_jk e^{i(nu_j - nu_k) t}``,
    sampled after each of ``n_samples`` back-to-back spans of ``duration``.

    ``dt`` is the requested step and ``rate`` [rad/s] the fastest rate it
    must resolve: :func:`_check_oracle_step` refuses the pair, or a total
    over all spans past the step budget, or gives the steps per span, and
    the step is shrunk so that they land exactly on ``duration``.

    With ``D(t) = diag(e^{i nu t})`` the generator obeys ``A(t + s) =
    D(t) A(s) D(t)^dag``, so every RK4 step is the first step's map ``P``
    conjugated by ``D(t)``.  The loop advances ``b = D(t)^dag c`` by the
    constant ``D(h)^dag P``.  It returns ``b`` after each span in turn,
    ``len(nu)`` values each in one flat list (which holds a long sweep in
    less memory than a list per span), and the steps per span.  The
    per-call work (the map from :func:`_rk4_step_map`, the phases into
    ``b``) is plain complex arithmetic on the ``a0`` rows and the ``nu``
    list, of length 2 or 3, which costs less than numpy's per-call dispatch
    on arrays that small.

    The step itself follows the generator's size.  A 2x2 map (the
    two-level pulse) advances ``b`` by its four entries as Python complex
    numbers, which costs about half of one numpy call per step.  A 3x3 map
    (the Raman generator) is one call of the map's bound ``dot`` (a single
    BLAS matrix-vector product) writing into one of two reused buffers,
    which then swap: at nine products a step, that is faster than the
    plain arithmetic, and it gives the bits of ``step @ b`` at about half
    its dispatch cost.
    """
    n_steps = _check_oracle_step(dt, rate, duration, n_samples)
    step = _rk4_step_map(a0, nu, duration / n_steps)
    b = [cmath.exp(-1j * v * t0) * c for v, c in zip(nu, amplitudes)]
    samples = []
    if len(b) == 2:
        (m00, m01), (m10, m11) = step
        b_b, b_a = b
        for _ in range(n_samples):
            for _ in range(n_steps):
                b_b, b_a = m00 * b_b + m01 * b_a, m10 * b_b + m11 * b_a
            samples += (b_b, b_a)
        return samples, n_steps
    import numpy as np

    advance = np.array(step).dot
    b = np.array(b)
    spare = np.empty_like(b)
    for _ in range(n_samples):
        for _ in range(n_steps):
            advance(b, out=spare)
            b, spare = spare, b
        samples += b.tolist()
    return samples, n_steps


def _rk4_lab_frame(a0: list[list[complex]], nu: list[float], amplitudes: list[complex],
                   t0: float, duration: float, dt: float, rate: float) -> list[complex]:
    """``c`` at ``t0 + duration``: one span of :func:`_rk4_sweep`, its ``b``
    turned back by ``D(t0 + duration)``."""
    b, _ = _rk4_sweep(a0, nu, amplitudes, t0, duration, dt, rate, 1)
    t1 = t0 + duration
    return [cmath.exp(1j * v * t1) * c for v, c in zip(nu, b)]


def _pulse_generator(
    pulse: PulseParams,
) -> tuple[list[list[complex]], list[float], float]:
    """``a0``, ``nu`` and the fastest rate of ``pulse``'s lab-frame equations
    on (C_b, C_a) (see :func:`ode_oracle`)."""
    drive = -0.5j * pulse.rabi_mod * cmath.exp(-1j * pulse.laser_phase)
    return ([[0.0, drive], [-drive.conjugate(), 0.0]],
            [-0.5 * pulse.detuning, 0.5 * pulse.detuning],
            math.hypot(pulse.rabi_mod, pulse.detuning))


def ode_oracle(state: TwoLevelState, pulse: PulseParams, dt: float) -> TwoLevelState:
    """Integrate one pulse with a fixed-step RK4 scheme (reference path).

    This deliberately avoids the rotating frame and the closed-form
    propagator: it steps the explicitly time-dependent lab-frame amplitude
    equations

        dC_b/dt = -(i/2) Omega e^{-i(delta t + phi)} C_a
        dC_a/dt = -(i/2) Omega e^{+i(delta t + phi)} C_b

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
        If ``dt`` is not positive or too coarse for the pulse, the pulse
        needs more than ``_MAX_ORACLE_STEPS`` (10,000,000) steps of it, or
        the Rabi rate overflows the RK4 step map.
    """
    a0, nu, rate = _pulse_generator(pulse)
    c_b, c_a = _rk4_lab_frame(a0, nu, [state.c_b, state.c_a], pulse.start_time,
                              pulse.duration, dt, rate)
    return TwoLevelState(c_a=c_a, c_b=c_b)


def _excited_sweep(
    pulse: PulseParams, dt: float, n_samples: int
) -> tuple[array, int]:
    """:func:`ode_oracle` from the ground state in one sweep: the excited
    populations after each of ``n_samples`` back-to-back spans of
    ``pulse.duration``, as an ``array("d")`` column, and the RK4 steps per
    span.

    ``D`` is diagonal and unitary, so each population is ``|b_b|^2`` of
    the sweep's sample, with no phase turned back.  It is taken as
    ``abs(b_b) ** 2``, the form of the closed-form column that ``gravsim
    rabi`` compares it with, and lies within 2**-52 of the sample's exact
    squared modulus.
    """
    a0, nu, rate = _pulse_generator(pulse)
    samples, n_steps = _rk4_sweep(a0, nu, [0.0, 1.0], pulse.start_time,
                                  pulse.duration, dt, rate, n_samples)
    return array("d", (abs(b) ** 2 for b in islice(samples, 0, None, 2))), n_steps
