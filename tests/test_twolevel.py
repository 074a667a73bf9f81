"""Tests for the exact two-level pulse dynamics and sequence composition."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import gravsim.twolevel
from gravsim.core import PulseParams, SequenceParams, TwoLevelState
from gravsim.errors import (
    DegenerateDriveError,
    InvalidSequenceError,
    StepSizeError,
)
from gravsim.twolevel import (
    eigensystem,
    evolve_pulse,
    interaction_hamiltonian,
    mach_zehnder_probability,
    mixing_angle,
    ode_oracle,
    propagator_matrix,
    pulse_propagator,
    rotating_frame_hamiltonian,
    run_sequence,
    spectral_projectors,
)

HBAR = 1.054571817e-34

angles = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)
rates = st.floats(1e2, 1e7, allow_nan=False, allow_infinity=False)
detunings = st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def test_interaction_hamiltonian_entries():
    # [DERIVED: independent complex-exponential evaluation in the test]
    omega = 2.0 * math.pi * 500.0
    delta = 2.0 * math.pi * 1e3
    phi = math.pi / 3.0
    t = 1.0e-4
    pulse = PulseParams(rabi_mod=omega, detuning=delta, duration=1.0, laser_phase=phi)
    h = interaction_hamiltonian(pulse, t)
    expected_01 = 0.5 * HBAR * omega * cmath.exp(-1j * (delta * t + phi))
    assert h[0, 0] == 0.0 and h[1, 1] == 0.0
    assert h[0, 1] == pytest.approx(expected_01, rel=1e-14)
    assert h[1, 0] == pytest.approx(expected_01.conjugate(), rel=1e-14)


@given(rates, detunings, angles, st.floats(0.0, 1e-3))
@settings(max_examples=200)
def test_interaction_hamiltonian_hermitian(omega, delta, phi, t):
    pulse = PulseParams(rabi_mod=omega, detuning=delta, duration=1.0, laser_phase=phi)
    h = interaction_hamiltonian(pulse, t)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-40)


def test_rotating_frame_hamiltonian_matrix():
    omega = 2.0 * math.pi * 1e4
    delta = 2.0 * math.pi * 2e3
    phi = 0.8
    pulse = PulseParams(rabi_mod=omega, detuning=delta, duration=1e-4, laser_phase=phi)
    m = rotating_frame_hamiltonian(pulse)
    assert m[0, 0] == pytest.approx(-0.5 * HBAR * delta, rel=1e-14)
    assert m[1, 1] == pytest.approx(+0.5 * HBAR * delta, rel=1e-14)
    assert m[0, 1] == pytest.approx(
        0.5 * HBAR * omega * cmath.exp(-1j * phi), rel=1e-14
    )
    # Eigenvalues are the dressed energies +/- hbar*omega_r/2.
    omega_r = math.hypot(omega, delta)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(m),
        [-0.5 * HBAR * omega_r, 0.5 * HBAR * omega_r],
        rtol=1e-12,
    )


# ---------------------------------------------------------------------------
# Mixing angle and eigensystem
# ---------------------------------------------------------------------------


def test_mixing_angle_reference_points():
    # [TRIVIAL] resonant drive
    res = mixing_angle(0.0, 1e4)
    assert res.theta == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert res.omega_r == pytest.approx(1e4)
    # [PAPER] delta = -Omega gives theta = pi/4
    below = mixing_angle(-1e4, 1e4)
    assert below.theta == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert below.omega_r == pytest.approx(1e4 * math.sqrt(2.0), rel=1e-15)
    # Mirror case: delta = +Omega gives 3 pi/4.
    above = mixing_angle(1e4, 1e4)
    assert above.theta == pytest.approx(3.0 * math.pi / 4.0, abs=1e-15)


def test_mixing_angle_degenerate_raises():
    with pytest.raises(DegenerateDriveError):
        mixing_angle(0.0, 0.0)
    with pytest.raises(ValueError):
        mixing_angle(0.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mixing_angle_refuses_non_finite(bad):
    # NaN fails every comparison, and inf gives omega_r = inf: neither may
    # come back as an angle.
    with pytest.raises(ValueError, match="delta must be finite"):
        mixing_angle(bad, 1.0)
    with pytest.raises(ValueError, match="rabi_mod must be finite"):
        mixing_angle(0.0, bad)


@given(rates, detunings, angles)
@settings(max_examples=200)
def test_eigensystem_solves_hamiltonian(omega, delta, phi):
    pulse = PulseParams(rabi_mod=omega, detuning=delta, duration=1.0, laser_phase=phi)
    eig = eigensystem(pulse)
    m = rotating_frame_hamiltonian(pulse)
    scale = abs(eig.lambda_plus)
    np.testing.assert_allclose(
        m @ eig.v_plus, eig.lambda_plus * eig.v_plus, atol=1e-12 * scale
    )
    np.testing.assert_allclose(
        m @ eig.v_minus, eig.lambda_minus * eig.v_minus, atol=1e-12 * scale
    )
    # Orthonormality.
    assert abs(np.vdot(eig.v_plus, eig.v_plus) - 1.0) < 1e-12
    assert abs(np.vdot(eig.v_minus, eig.v_minus) - 1.0) < 1e-12
    assert abs(np.vdot(eig.v_plus, eig.v_minus)) < 1e-12


def test_spectral_projectors_closed_form():
    # [DERIVED: half-angle closed forms evaluated independently here]
    omega, delta, phi = 1e4, -1e4 / math.tan(math.pi / 3.0), math.pi / 5.0
    ang = mixing_angle(delta, omega)
    assert ang.theta == pytest.approx(math.pi / 3.0, rel=1e-12)
    pulse = PulseParams(rabi_mod=omega, detuning=delta, duration=1.0, laser_phase=phi)
    eig = eigensystem(pulse)
    p_plus, p_minus = spectral_projectors(eig)
    th = math.pi / 3.0
    c2 = math.cos(th / 2.0) ** 2
    s2 = math.sin(th / 2.0) ** 2
    off = 0.5 * math.sin(th) * cmath.exp(-1j * phi)
    np.testing.assert_allclose(
        p_plus, [[c2, off], [off.conjugate(), s2]], atol=1e-14
    )
    np.testing.assert_allclose(
        p_minus, [[s2, -off], [-off.conjugate(), c2]], atol=1e-14
    )


@given(rates, detunings, angles)
@settings(max_examples=200)
def test_spectral_projectors_algebra(omega, delta, phi):
    pulse = PulseParams(rabi_mod=omega, detuning=delta, duration=1.0, laser_phase=phi)
    eig = eigensystem(pulse)
    p_plus, p_minus = spectral_projectors(eig)
    ident = np.eye(2)
    np.testing.assert_allclose(p_plus + p_minus, ident, atol=1e-12)
    np.testing.assert_allclose(p_plus @ p_plus, p_plus, atol=1e-12)
    np.testing.assert_allclose(p_minus @ p_minus, p_minus, atol=1e-12)
    np.testing.assert_allclose(p_plus @ p_minus, np.zeros((2, 2)), atol=1e-12)


# ---------------------------------------------------------------------------
# Closed-form propagator
# ---------------------------------------------------------------------------


@given(rates, detunings, angles, st.floats(1e-7, 1e-3))
@settings(max_examples=200)
def test_propagator_unitary(omega, delta, phi, tau):
    u = propagator_matrix(omega, phi, 0.0, tau, delta)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    # SU(2): determinant of the frame-conjugated rotation is unity.
    assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_resonant_pi_pulse_inverts_with_known_phase():
    # [DERIVED: closed form] resonant pi pulse maps ground to -i e^{-i phi} b
    omega = 2.0 * math.pi * 2.5e4
    phi = 0.9
    pulse = PulseParams(
        rabi_mod=omega, detuning=0.0, duration=math.pi / omega, laser_phase=phi
    )
    out = evolve_pulse(TwoLevelState.ground(), pulse)
    expected = -1j * cmath.exp(-1j * phi)
    assert out.c_b == pytest.approx(expected, abs=1e-12)
    assert abs(out.c_a) < 1e-12


def test_resonant_half_pulse_beam_splitter():
    omega = 1e5
    pulse = PulseParams(
        rabi_mod=omega, detuning=0.0, duration=math.pi / (2.0 * omega)
    )
    out = evolve_pulse(TwoLevelState.ground(), pulse)
    assert abs(out.c_a) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(out.c_b) ** 2 == pytest.approx(0.5, abs=1e-12)


@given(rates, detunings, st.floats(1e-7, 1e-3))
@settings(max_examples=200)
def test_flopping_formula(omega, delta, tau):
    # [PAPER] P_b(tau) = (Omega^2/Omega_r^2) sin^2(Omega_r tau / 2)
    pulse = PulseParams(rabi_mod=omega, detuning=delta, duration=tau)
    out = evolve_pulse(TwoLevelState.ground(), pulse)
    omega_r = math.hypot(omega, delta)
    expected = (omega / omega_r) ** 2 * math.sin(omega_r * tau / 2.0) ** 2
    assert abs(out.c_b) ** 2 == pytest.approx(expected, abs=1e-12)


def test_detuned_pulse_incomplete_inversion():
    # At delta = Omega the peak transfer is capped at 1/2.
    omega = 1e5
    omega_r = omega * math.sqrt(2.0)
    pulse = PulseParams(rabi_mod=omega, detuning=omega, duration=math.pi / omega_r)
    out = evolve_pulse(TwoLevelState.ground(), pulse)
    assert abs(out.c_b) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_propagator_start_time_only_shifts_drive_phase():
    # Shifting t0 by dt must equal shifting the laser phase by delta*dt.
    omega, delta, tau = 3e4, 7e3, 2e-5
    u_shifted = propagator_matrix(omega, 0.3, 1.7e-4, tau, delta)
    u_rephased = propagator_matrix(omega, 0.3 + delta * 1.7e-4, 0.0, tau, delta)
    np.testing.assert_allclose(u_shifted, u_rephased, rtol=1e-12, atol=1e-15)


def test_pulse_propagator_uses_pulse_record_fields():
    pulse = PulseParams(
        rabi_mod=4e4,
        detuning=-3e3,
        duration=1.3e-5,
        laser_phase=0.2,
        start_time=2e-4,
    )
    expected = propagator_matrix(4e4, 0.2, 2e-4, 1.3e-5, -3e3)
    np.testing.assert_allclose(pulse_propagator(pulse), expected, rtol=1e-15)


def test_spectral_decomposition_gives_propagator():
    # The pedagogy chain end to end: the dressed energies and projectors of
    # the rotating-frame Hamiltonian, exponentiated and carried back to the
    # lab frame, D(t0 + tau)^dag (sum_k e^{-i lambda_k tau/hbar} P_k) D(t0)
    # with D(t) = diag(e^{i delta t/2}, e^{-i delta t/2}), are the closed-form
    # propagator.
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(2000):
        omega = float(np.exp(rng.uniform(math.log(1e2), math.log(1e7))))
        delta = float(rng.uniform(-3.0, 3.0)) * omega
        pulse = PulseParams(
            rabi_mod=omega,
            detuning=delta,
            duration=float(1.0 - rng.uniform()) * 5.0 / omega,
            laser_phase=float(rng.uniform(-math.pi, math.pi)),
            start_time=float(rng.uniform()) * 10.0 / omega,
        )
        eig = eigensystem(pulse)
        p_plus, p_minus = spectral_projectors(eig)
        tau, t0 = pulse.duration, pulse.start_time
        rotating = (cmath.exp(-1j * eig.lambda_plus * tau / HBAR) * p_plus
                    + cmath.exp(-1j * eig.lambda_minus * tau / HBAR) * p_minus)

        def frame(t):
            return np.diag([cmath.exp(0.5j * delta * t), cmath.exp(-0.5j * delta * t)])

        chain = frame(t0 + tau).conj().T @ rotating @ frame(t0)
        worst = max(worst, float(np.max(np.abs(chain - pulse_propagator(pulse)))))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# Independent RK4 oracle
# ---------------------------------------------------------------------------


def test_ode_oracle_step_guard():
    pulse = PulseParams(rabi_mod=1e5, detuning=0.0, duration=1e-4)
    with pytest.raises(StepSizeError):
        ode_oracle(TwoLevelState.ground(), pulse, dt=2.0 * math.pi / (10.0 * 1e5))
    with pytest.raises(StepSizeError):
        ode_oracle(TwoLevelState.ground(), pulse, dt=0.0)


def test_ode_oracle_step_guard_slack():
    # The guard shared with the three-level oracle allows a 1e-9 relative
    # slack on the limit of 100 steps per generalized Rabi period.
    pulse = PulseParams(rabi_mod=8e4, detuning=6e4, duration=1e-4)
    limit = 2.0 * math.pi / (100.0 * 1e5)
    out = ode_oracle(TwoLevelState.ground(), pulse, dt=limit * (1.0 + 1e-10))
    assert abs(out.c_a) ** 2 + abs(out.c_b) ** 2 == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(StepSizeError, match=r"dt=.* too coarse: need <= 6\.283e-07 "
                       r"to resolve 1\.000e\+05 rad/s"):
        ode_oracle(TwoLevelState.ground(), pulse, dt=limit * (1.0 + 1e-6))


def test_ode_oracle_step_budget(monkeypatch):
    # 100 steps of an exactly representable dt land exactly on the duration.
    dt = 2.0**-24
    pulse = PulseParams(rabi_mod=1e5, detuning=2e4, duration=100 * dt)
    monkeypatch.setattr(gravsim.twolevel, "_MAX_ORACLE_STEPS", 100)
    at_budget = ode_oracle(TwoLevelState.ground(), pulse, dt)
    monkeypatch.undo()
    assert at_budget == ode_oracle(TwoLevelState.ground(), pulse, dt)
    monkeypatch.setattr(gravsim.twolevel, "_MAX_ORACLE_STEPS", 99)
    with pytest.raises(StepSizeError, match=r"needs 1\.000e\+02 RK4 steps; at most "
                       r"99 are allowed"):
        ode_oracle(TwoLevelState.ground(), pulse, dt)


def test_ode_oracle_infinite_step_ratio_refused():
    # duration / dt overflows to inf: refused, not an OverflowError from ceil.
    pulse = PulseParams(rabi_mod=1e5, detuning=0.0, duration=1e-4)
    with pytest.raises(StepSizeError, match=r"needs inf RK4 steps"):
        ode_oracle(TwoLevelState.ground(), pulse, dt=5e-324)


def test_ode_oracle_rate_overflowing_the_step_map_refused():
    # The RK4 stages multiply generator entries of Omega/2 before h scales
    # them: (pi * 4.5e153 Hz)^2 overflows a double, (pi * 4e153 Hz)^2 does not.
    for rabi_hz, finite in ((4e153, True), (4.5e153, False)):
        rabi = 2.0 * math.pi * rabi_hz
        pulse = PulseParams(rabi_mod=rabi, detuning=0.0, duration=math.pi / rabi)
        dt = 2.0 * math.pi / (200.0 * rabi)
        if finite:
            out = ode_oracle(TwoLevelState.ground(), pulse, dt)
            assert abs(out.c_b) ** 2 == pytest.approx(1.0, abs=1e-6)
            continue
        with pytest.raises(StepSizeError, match=r"^RK4 step map overflows for "
                           r"generator entries up to 1\.414e\+154 rad/s$"):
            ode_oracle(TwoLevelState.ground(), pulse, dt)


def test_ode_oracle_norm_conservation():
    omega = 2.0 * math.pi * 1e4
    pulse = PulseParams(rabi_mod=omega, detuning=0.3 * omega, duration=math.pi / omega)
    out = ode_oracle(TwoLevelState.ground(), pulse, dt=2.0 * math.pi / (200.0 * omega))
    norm = abs(out.c_a) ** 2 + abs(out.c_b) ** 2
    assert abs(norm - 1.0) < 1e-9


@pytest.mark.parametrize(
    "omega,delta,phi,tau_factor",
    [
        (2.0 * math.pi * 1e4, 0.0, 0.0, 1.0),
        (2.0 * math.pi * 1e4, 2.0 * math.pi * 3e3, 1.1, 0.7),
        (5.0e4, -2.0e4, -2.0, 1.9),
        (7.7e4, 1.3e4, 0.4, 0.33),
    ],
)
def test_closed_form_matches_oracle_amplitudes(omega, delta, phi, tau_factor):
    # The closed-form propagator and the lab-frame RK4 integration are two
    # independent routes to the same amplitudes (phases included).
    tau = tau_factor * math.pi / omega
    pulse = PulseParams(
        rabi_mod=omega,
        detuning=delta,
        duration=tau,
        laser_phase=phi,
        start_time=3.0e-5,
    )
    start = TwoLevelState(c_a=math.sqrt(0.7), c_b=math.sqrt(0.3) * 1j)
    closed = evolve_pulse(start, pulse)
    omega_r = math.hypot(omega, delta)
    oracle = ode_oracle(start, pulse, dt=2.0 * math.pi / (200.0 * omega_r))
    assert abs(closed.c_a - oracle.c_a) < 1e-7
    assert abs(closed.c_b - oracle.c_b) < 1e-7


def _per_step_rk4(state, pulse, dt):
    """Reference: RK4 with four lab-frame derivative stages per step, in
    plain Python complex arithmetic (the oracle's former loop)."""
    n_steps = max(1, math.ceil(pulse.duration / dt))
    h = pulse.duration / n_steps

    def deriv(c_b, c_a, t):
        drive = pulse.rabi_mod * cmath.exp(-1j * (pulse.detuning * t + pulse.laser_phase))
        return -0.5j * drive * c_a, -0.5j * drive.conjugate() * c_b

    c_b, c_a, t = complex(state.c_b), complex(state.c_a), pulse.start_time
    for _ in range(n_steps):
        kb1, ka1 = deriv(c_b, c_a, t)
        kb2, ka2 = deriv(c_b + 0.5 * h * kb1, c_a + 0.5 * h * ka1, t + 0.5 * h)
        kb3, ka3 = deriv(c_b + 0.5 * h * kb2, c_a + 0.5 * h * ka2, t + 0.5 * h)
        kb4, ka4 = deriv(c_b + h * kb3, c_a + h * ka3, t + h)
        c_b += (h / 6.0) * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
        c_a += (h / 6.0) * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
        t += h
    return c_b, c_a


def _exact_lab_frame(state, pulse):
    """Exact solution of the oracle's ODE: with D(t) = diag(e^{i nu t}),
    nu = (-delta/2, delta/2), b = D(t)^dag c obeys db/dt = (a0 - i nu) b."""
    drive = -0.5j * pulse.rabi_mod * cmath.exp(-1j * pulse.laser_phase)
    a0 = np.array([[0.0, drive], [-drive.conjugate(), 0.0]])
    nu = np.array([-0.5, 0.5]) * pulse.detuning
    t0, t1 = pulse.start_time, pulse.start_time + pulse.duration
    b0 = np.exp(-1j * nu * t0) * np.array([state.c_b, state.c_a])
    return np.exp(1j * nu * t1) * (expm((a0 - 1j * np.diag(nu)) * pulse.duration) @ b0)


ORACLE_PULSES = [
    PulseParams(rabi_mod=2.0 * math.pi * 1e4, detuning=2.0 * math.pi * 3e3,
                duration=3.3e-4, laser_phase=0.5, start_time=3.0e-5),
    PulseParams(rabi_mod=5.0e4, detuning=-2.0e4, duration=2.1e-4,
                laser_phase=-0.7, start_time=0.0213),
    PulseParams(rabi_mod=2.0 * math.pi * 1e5, detuning=0.0, duration=5.0e-6),
]
ORACLE_START = TwoLevelState(c_a=math.sqrt(0.7), c_b=math.sqrt(0.3) * cmath.exp(0.4j))


@pytest.mark.parametrize("pulse", ORACLE_PULSES)
def test_ode_oracle_matches_per_step_rk4(pulse):
    # One constant step map is the same RK4, reorganised: every amplitude
    # agrees with the stage-by-stage loop to rounding.
    dt = 2.0 * math.pi / (200.0 * math.hypot(pulse.rabi_mod, pulse.detuning))
    out = ode_oracle(ORACLE_START, pulse, dt)
    c_b, c_a = _per_step_rk4(ORACLE_START, pulse, dt)
    assert abs(out.c_b - c_b) <= 1e-9
    assert abs(out.c_a - c_a) <= 1e-9


@pytest.mark.parametrize("pulse", ORACLE_PULSES)
def test_ode_oracle_converges_at_fourth_order(pulse):
    exact = _exact_lab_frame(ORACLE_START, pulse)
    dt = 2.0 * math.pi / (100.0 * math.hypot(pulse.rabi_mod, pulse.detuning))
    errors = []
    for step in (dt, dt / 2.0):
        out = ode_oracle(ORACLE_START, pulse, step)
        errors.append(np.max(np.abs(np.array([out.c_b, out.c_a]) - exact)))
    assert 13.0 < errors[0] / errors[1] < 19.0


def _textbook_recurrence(a0, nu, amplitudes, t0, h, n_steps):
    """``b`` after ``n_steps`` steps of the plain recurrence ``b = step b``
    on the step map of ``_rk4_step_map``: for a 2x2 map, each entry of the
    product a sum of two Python complex products, row by row; otherwise
    ``step @ b``."""
    step = gravsim.twolevel._rk4_step_map(a0, nu, h)
    b = [cmath.exp(-1j * v * t0) * c for v, c in zip(nu, amplitudes)]
    if len(b) == 2:
        for _ in range(n_steps):
            b = [row[0] * b[0] + row[1] * b[1] for row in step]
        return b
    step, b = np.array(step), np.array(b)
    for _ in range(n_steps):
        b = step @ b
    return b.tolist()


def _textbook_step_map_loop(a0, nu, amplitudes, t0, duration, n_steps):
    """``c`` at ``t0 + duration`` from :func:`_textbook_recurrence`."""
    b = _textbook_recurrence(a0, nu, amplitudes, t0, duration / n_steps, n_steps)
    t1 = t0 + duration
    return [cmath.exp(1j * v * t1) * c for v, c in zip(nu, b)]


def _hex(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


_DRIVE = -0.5j * 5.0e4 * cmath.exp(-0.7j)
_G, _E = -0.5j * 3.0e4 * cmath.exp(0.4j), -0.5j * 2.0e4 * cmath.exp(-1.9j)
# Two-level (nu = (-delta/2, delta/2), a detuning of zero included) and
# three-level (nu = (delta1, 0, delta2), Raman-like) generators.
_LAB_FRAME_CASES = [
    ([[0.0, _DRIVE], [-_DRIVE.conjugate(), 0.0]],
     [-0.5 * delta, 0.5 * delta], [ORACLE_START.c_b, ORACLE_START.c_a])
    for delta in (0.0, 2.0e4, -3.1e4)
] + [
    ([[0.0, _G, 0.0], [-_G.conjugate(), 0.0, -_E.conjugate()], [0.0, _E, 0.0]],
     [delta1, 0.0, delta1 + 1.3e3], [0.6, 0.8j, 0.0])
    for delta1 in (1.0e6, -2.5e6)
]


def _lab_frame_call(case, n_steps):
    """Arguments of an ``_rk4_lab_frame`` call that takes ``n_steps`` steps
    of ``case``."""
    a0, nu, amplitudes = _LAB_FRAME_CASES[case]
    rate = max(abs(z) for z in nu + [w for row in a0 for w in row])
    dt = 2.0 * math.pi / (200.0 * rate)
    return a0, nu, amplitudes, (n_steps - 0.5) * dt, dt, rate


@pytest.mark.parametrize("n_steps", [1, 2, 3, 162])
@pytest.mark.parametrize("t0", [0.0, 3.7e-6, -0.0213])
@pytest.mark.parametrize("case", range(len(_LAB_FRAME_CASES)))
def test_rk4_lab_frame_is_the_textbook_recurrence_bit_for_bit(case, t0, n_steps):
    # The sweep is the recurrence b = step b on _rk4_lab_frame's own step
    # map to the last bit (zero signs included): in plain complex
    # arithmetic for the two-level cases, and, for the three-level ones, as
    # step @ b after an odd and an even number of buffer swaps.
    a0, nu, amplitudes, duration, dt, rate = _lab_frame_call(case, n_steps)
    got = gravsim.twolevel._rk4_lab_frame(a0, nu, amplitudes, t0, duration, dt, rate)
    want = _textbook_step_map_loop(a0, nu, amplitudes, t0, duration, n_steps)
    assert _hex(got) == _hex(want)
    # A sweep of three spans records b after n_steps, 2 n_steps and
    # 3 n_steps steps of the same recurrence.
    samples, steps = gravsim.twolevel._rk4_sweep(
        a0, nu, amplitudes, t0, duration, dt, rate, 3)
    assert steps == n_steps and len(samples) == 3 * len(nu)
    for i in range(1, 4):
        want = _textbook_recurrence(a0, nu, amplitudes, t0, duration / n_steps,
                                    i * n_steps)
        assert _hex(samples[(i - 1) * len(nu):i * len(nu)]) == _hex(want)


def _mp_lab_frame(a0, nu, amplitudes, t0, duration, n_steps):
    """``_rk4_lab_frame``'s recurrence in 50-digit arithmetic: the same RK4
    stages, step map and phases, from the same doubles.  The phase arguments
    nu_j * s are its rounded products, so that only the rounding
    of the arithmetic after them is measured."""
    h = duration / n_steps
    with mpmath.workdps(50):
        def exp_i(x):
            return mpmath.expj(mpmath.mpf(x))

        def generator(s):
            d = [exp_i(v * s) for v in nu]
            return mpmath.matrix([[mpmath.mpc(a) * p * mpmath.conj(q)
                                   for a, q in zip(row, d)] for row, p in zip(a0, d)])

        one = mpmath.eye(len(nu))
        k1 = mpmath.matrix([[mpmath.mpc(a) for a in row] for row in a0])
        mid, end = generator(0.5 * h), generator(h)
        k2 = mid * (one + mpmath.mpf(0.5 * h) * k1)
        k3 = mid * (one + mpmath.mpf(0.5 * h) * k2)
        k4 = end * (one + mpmath.mpf(h) * k3)
        p = one + mpmath.mpf(h) / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        step = mpmath.diag([exp_i(-v * h) for v in nu]) * p
        b = mpmath.matrix([exp_i(-v * t0) * mpmath.mpc(c) for v, c in zip(nu, amplitudes)])
        for _ in range(n_steps):
            b = step * b
        t1 = t0 + duration
        return [exp_i(v * t1) * b[j] for j, v in enumerate(nu)]


@pytest.mark.parametrize("n_steps", [1, 2, 3, 162])
@pytest.mark.parametrize("t0", [0.0, 3.7e-6, -0.0213])
@pytest.mark.parametrize("case", range(len(_LAB_FRAME_CASES)))
def test_rk4_lab_frame_rounding_against_mpmath(case, t0, n_steps):
    # Against the same recurrence in 50 digits, _rk4_lab_frame is off by at
    # most 2.2 ulp (of 1) in up to 3 steps and 25 ulp in 162 steps; the
    # numpy step map it replaced was off by up to 2.2 and 24.  The bound
    # leaves a margin over both.
    a0, nu, amplitudes, duration, dt, rate = _lab_frame_call(case, n_steps)
    got = gravsim.twolevel._rk4_lab_frame(a0, nu, amplitudes, t0, duration, dt, rate)
    exact = _mp_lab_frame(a0, nu, amplitudes, t0, duration, n_steps)
    err = max(float(abs(mpmath.mpc(z) - w)) for z, w in zip(got, exact))
    assert err <= (2.5 + 0.2 * n_steps) * 2.0**-52


# ---------------------------------------------------------------------------
# Three-pulse sequences
# ---------------------------------------------------------------------------


def test_sequence_dark_port_and_bright_port():
    seq_dark = SequenceParams(t_interrogation=1e-3, tau_p=1e-5)
    assert run_sequence(seq_dark) == pytest.approx(0.0, abs=1e-12)
    seq_bright = SequenceParams(
        t_interrogation=1e-3, tau_p=1e-5, phases=(0.0, 0.0, math.pi)
    )
    assert run_sequence(seq_bright) == pytest.approx(1.0, abs=1e-12)


def test_sequence_fringe_against_closed_formula_both_timings():
    # [DERIVED: frozen from an exact-composition study at delta/Omega = 1e-3]
    # start-to-start spacing reproduces the offset fringe law to ~1e-6, while
    # dark-interval spacing carries no detuning offset at this order.
    tau_p = 1e-5
    omega = math.pi / tau_p
    delta = 1e-3 * omega
    rng = np.random.default_rng(20260823)
    worst_start = 0.0
    worst_dark = 0.0
    for _ in range(200):
        phases = tuple(rng.uniform(-math.pi, math.pi, size=3))
        seq = SequenceParams(t_interrogation=2e-3, tau_p=tau_p, phases=phases)
        dphi = phases[0] - 2.0 * phases[1] + phases[2]
        p_start = run_sequence(seq, detuning=delta, timing="start-to-start")
        p_dark = run_sequence(seq, detuning=delta, timing="dark-intervals")
        worst_start = max(
            worst_start, abs(p_start - mach_zehnder_probability(delta, tau_p, dphi))
        )
        worst_dark = max(
            worst_dark, abs(p_dark - mach_zehnder_probability(0.0, tau_p, dphi))
        )
    assert worst_start < 1e-4
    assert worst_dark < 1e-4


def test_sequence_timing_conventions_differ_at_nonzero_detuning():
    # The two placement conventions are genuinely different fringe laws: at
    # delta/Omega = 1e-3 they disagree by about delta*tau_p/2 in phase.
    tau_p = 1e-5
    omega = math.pi / tau_p
    delta = 1e-3 * omega
    seq = SequenceParams(t_interrogation=2e-3, tau_p=tau_p, phases=(0.3, -0.8, 1.7))
    p_start = run_sequence(seq, detuning=delta, timing="start-to-start")
    p_dark = run_sequence(seq, detuning=delta, timing="dark-intervals")
    assert abs(p_start - p_dark) > 5e-5


def test_sequence_rejects_unknown_timing_and_overlap():
    seq = SequenceParams(t_interrogation=1e-3, tau_p=1e-5)
    with pytest.raises(InvalidSequenceError):
        run_sequence(seq, timing="centered")
    # Pulses that would overlap are refused when the sequence is built.
    with pytest.raises(InvalidSequenceError):
        short = SequenceParams(t_interrogation=0.5e-5, tau_p=1e-5)
        run_sequence(short, timing="start-to-start")


def test_mach_zehnder_probability_closed_form_values():
    # [TRIVIAL]
    assert mach_zehnder_probability(0.0, 1e-5, 0.0) == 0.0
    assert mach_zehnder_probability(0.0, 1e-5, math.pi) == pytest.approx(1.0)
    # The detuning offset enters as delta*tau_p/2.
    delta, tau_p = 300.0, 1e-5
    assert mach_zehnder_probability(delta, tau_p, 0.0) == pytest.approx(
        0.5 * (1.0 - math.cos(-delta * tau_p / 2.0)), rel=1e-12
    )


def test_sequence_phase_sign_convention():
    # Advancing only phi_2 by x shifts the fringe by -2x.
    tau_p = 1e-5
    for x in (0.3, 1.1):
        seq = SequenceParams(t_interrogation=1e-3, tau_p=tau_p, phases=(0.0, x, 0.0))
        expected = 0.5 * (1.0 - math.cos(-2.0 * x))
        assert run_sequence(seq) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# Metamorphic relations of the pulse path
# ---------------------------------------------------------------------------

_EPS = 2.0**-52
sequence_geometry = st.tuples(st.floats(1e-3, 0.2), st.floats(1e-6, 1e-4))
timings = st.sampled_from(["dark-intervals", "start-to-start"])
#: Detunings up to 7 kHz, about the Doppler shift of 2.7 mm/s along k_eff.
small_detunings = st.floats(-2.0 * math.pi * 7e3, 2.0 * math.pi * 7e3)


def _phase_argument_scale(seq, detuning, t_start=0.0):
    """One plus the largest drive-phase argument |phi| + |delta t| a
    sequence reaches: the exit probability's rounding grows with it, at
    most 1.2 eps times it over 60,000 random sequences of these tests."""
    t_end = abs(t_start) + 2.0 * (seq.t_interrogation + seq.tau_p)
    return 1.0 + max(abs(p) for p in seq.phases) + abs(detuning) * t_end


@settings(max_examples=60, deadline=None, derandomize=True)
@given(geometry=sequence_geometry, phases=st.tuples(angles, angles, angles),
       shift=angles, detuning=small_detunings, timing=timings)
def test_sequence_is_invariant_under_a_common_laser_phase(
    geometry, phases, shift, detuning, timing
):
    # phi1 - 2 phi2 + phi3 is unchanged by a common shift, and so is the fringe.
    seq = SequenceParams(*geometry, phases=phases)
    shifted = SequenceParams(*geometry, phases=tuple(p + shift for p in phases))
    p = run_sequence(seq, detuning, timing=timing)
    assert abs(run_sequence(shifted, detuning, timing=timing) - p) <= (
        2.0 * _EPS * _phase_argument_scale(shifted, detuning))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(geometry=sequence_geometry, phases=st.tuples(angles, angles, angles),
       t_start=st.floats(-0.1, 0.1), detuning=small_detunings, timing=timings)
def test_sequence_is_invariant_under_a_start_time_shift(
    geometry, phases, t_start, detuning, timing
):
    # A later start adds delta t_start to every pulse's drive phase, a common
    # shift that phi1 - 2 phi2 + phi3 cancels.
    seq = SequenceParams(*geometry, phases=phases)
    p = run_sequence(seq, detuning, timing=timing)
    assert abs(run_sequence(seq, detuning, t_start=t_start, timing=timing) - p) <= (
        2.0 * _EPS * _phase_argument_scale(seq, detuning, t_start))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=st.floats(0.0, math.pi), phi=angles, omega=rates, delta=detunings,
       tau=st.floats(1e-7, 1e-3), laser_phase=angles,
       start=st.floats(-1e-3, 1e-3))
def test_evolve_pulse_is_the_propagator_applied(
    theta, phi, omega, delta, tau, laser_phase, start
):
    # Applying the closed form to two amplitudes equals the matrix product,
    # to 1.1 ulp over 20,000 random pulses and states.
    state = TwoLevelState(c_a=math.cos(theta / 2.0),
                          c_b=math.sin(theta / 2.0) * cmath.exp(1j * phi))
    pulse = PulseParams(rabi_mod=omega, detuning=delta, duration=tau,
                        laser_phase=laser_phase, start_time=start)
    out = evolve_pulse(state, pulse)
    c_b, c_a = pulse_propagator(pulse) @ np.array([state.c_b, state.c_a])
    assert abs(out.c_b - c_b) <= 2.0 * _EPS
    assert abs(out.c_a - c_a) <= 2.0 * _EPS
