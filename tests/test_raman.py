"""Tests for two-photon transitions, elimination, and the three-level oracle."""

import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

import gravsim.twolevel
from gravsim.core import HBAR, RB87_MASS, ThreeLevelState
from gravsim.errors import EliminationError, StepSizeError, TimeOrderError
from gravsim.raman import (
    EffectiveParams,
    LaserPair,
    RamanDetunings,
    RamanState,
    detunings,
    effective_params,
    effective_params_from_detunings,
    pi_pulse_duration,
    raman_pulse,
    raman_sequence_probability,
    three_level_ode_oracle,
    two_photon_detuning,
)
from gravsim.twolevel import mach_zehnder_probability, propagator_matrix

K1 = 8.05e6  # [rad/m] upward beam
K2 = -8.05e6  # [rad/m] downward beam
# Optical carrier scaled down from the physical few-hundred THz: only
# frequency differences enter the dynamics, and a smaller carrier keeps
# double-precision roundoff in those differences negligible (ulp ~ 1e-3 rad/s
# here vs ~0.5 rad/s at the true optical scale).
OMEGA_IG = 2.0 * math.pi * 3.8423e11  # [rad/s] g -> i transition frequency
OMEGA_SPLIT = 2.0 * math.pi * 6.834e9  # [rad/s] hyperfine splitting
OMEGA_IE = OMEGA_IG - OMEGA_SPLIT


def make_lasers(
    delta1_target=2.0 * math.pi * 1e6,
    rabi_gi=2.0 * math.pi * 1e4,
    rabi_ei=2.0 * math.pi * 1e4,
    phi1=0.0,
    phi2=0.0,
    delta_two_photon=0.0,
    p=0.0,
    mass=RB87_MASS,
):
    """Build a beam pair whose detunings at momentum p take target values."""
    k_eff = K1 - K2
    p_i = p + HBAR * K1
    p_e = p + HBAR * k_eff
    omega1 = delta1_target + OMEGA_IG - (p * p - p_i * p_i) / (2.0 * mass * HBAR)
    delta2_target = delta1_target - delta_two_photon
    omega2 = delta2_target + OMEGA_IE - (p_e * p_e - p_i * p_i) / (2.0 * mass * HBAR)
    return LaserPair(
        k1=K1,
        k2=K2,
        omega1=omega1,
        omega2=omega2,
        phi1=phi1,
        phi2=phi2,
        rabi_gi=rabi_gi,
        rabi_ei=rabi_ei,
    )


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------


def test_k_eff_of_counterpropagating_beams():
    lasers = make_lasers()
    assert lasers.k_eff == pytest.approx(2.0 * K1)


def test_raman_detunings_consistency_enforced():
    with pytest.raises(ValueError):
        RamanDetunings(delta1=1e6, delta2=2e5, delta_two_photon=0.0)
    d = RamanDetunings(delta1=1e6, delta2=2e5, delta_two_photon=8e5)
    assert d.delta_two_photon == pytest.approx(d.delta1 - d.delta2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_raman_detunings_refuse_non_finite(bad):
    # NaN passes no comparison, so a NaN field must not slip through the
    # identity check; nor may an infinite one, which would reach the oracle.
    for fields in ((1e9, 1e9, bad), (bad, 1e9, 0.0), (1e9, bad, 0.0),
                   (bad, bad, bad), (bad, 0.0, bad)):
        with pytest.raises(ValueError, match="need finite detunings"):
            RamanDetunings(*fields)


def test_detunings_match_construction_targets():
    # make_lasers inverts the detuning definitions; recovering the targets
    # checks the Doppler/recoil bookkeeping in both directions.
    p = 2.0e-27
    lasers = make_lasers(delta1_target=2.0 * math.pi * 2e6, delta_two_photon=750.0, p=p)
    d = detunings(lasers, p, RB87_MASS, OMEGA_IG, OMEGA_IE)
    assert d.delta1 == pytest.approx(2.0 * math.pi * 2e6, abs=1e-3)
    assert d.delta_two_photon == pytest.approx(750.0, abs=1e-3)


def test_two_photon_detuning_closed_form_agrees_with_difference():
    # Two independent routes: single-photon difference vs collapsed form.
    for p in (0.0, 1.3e-27, -2.7e-27):
        lasers = make_lasers(delta_two_photon=300.0, p=0.0)
        d = detunings(lasers, p, RB87_MASS, OMEGA_IG, OMEGA_IE)
        closed = two_photon_detuning(lasers, p, RB87_MASS, OMEGA_SPLIT)
        assert closed == pytest.approx(d.delta_two_photon, abs=1e-3)


def test_two_photon_detuning_magic_momentum():
    # At p = -hbar k_eff / 2 the Doppler and recoil terms cancel exactly.
    lasers = make_lasers()
    p_magic = -0.5 * HBAR * lasers.k_eff
    value = two_photon_detuning(lasers, p_magic, RB87_MASS, OMEGA_SPLIT)
    expected = lasers.omega1 - lasers.omega2 - OMEGA_SPLIT
    assert value == pytest.approx(expected, abs=1e-9)


def test_two_photon_recoil_magnitude_at_rest():
    # For omega1 - omega2 = splitting and p = 0 the residual is the
    # two-photon recoil shift, about 2*pi * 15 kHz for these parameters.
    lasers = make_lasers()
    offset = lasers.omega1 - lasers.omega2 - OMEGA_SPLIT
    value = two_photon_detuning(lasers, 0.0, RB87_MASS, OMEGA_SPLIT) - offset
    k = lasers.k_eff
    assert value == pytest.approx(-HBAR * k * k / (2.0 * RB87_MASS), rel=1e-12)
    assert abs(value) == pytest.approx(2.0 * math.pi * 15.07e3, rel=5e-3)


# ---------------------------------------------------------------------------
# Adiabatic elimination
# ---------------------------------------------------------------------------


def test_effective_params_worked_example():
    # [PAPER] equal couplings 2*pi*1 MHz at Delta = 2*pi*1 GHz give a
    # two-photon Rabi rate of 2*pi*250 rad/s and equal 2*pi*250 light shifts.
    lasers = make_lasers(rabi_gi=2.0 * math.pi * 1e6, rabi_ei=2.0 * math.pi * 1e6)
    params = effective_params(lasers, 2.0 * math.pi * 1e9)
    assert abs(params.omega_eff) == pytest.approx(2.0 * math.pi * 250.0, rel=1e-12)
    assert params.ac_g == pytest.approx(2.0 * math.pi * 250.0, rel=1e-12)
    assert params.ac_e == pytest.approx(2.0 * math.pi * 250.0, rel=1e-12)
    assert params.delta_ac == pytest.approx(0.0, abs=1e-9)


def test_effective_params_phases_and_differential_shift():
    lasers = make_lasers(
        rabi_gi=2.0 * math.pi * 1e4,
        rabi_ei=2.0 * math.pi * 1.2e4,
        phi1=0.4,
        phi2=-0.2,
    )
    big_delta = 2.0 * math.pi * 1e6
    params = effective_params(lasers, big_delta)
    assert params.phi_eff == pytest.approx(-0.6)
    expected_ac_g = (2.0 * math.pi * 1e4) ** 2 / (4.0 * big_delta)
    assert params.ac_g == pytest.approx(expected_ac_g, rel=1e-12)
    assert params.delta_ac == pytest.approx(0.44 * expected_ac_g, rel=1e-12)


def test_raman_pulse_rejects_complex_light_shifts():
    # EffectiveParams is public, so complex shifts can reach raman_pulse
    # directly; they cannot drive unitary dynamics.
    real = effective_params(make_lasers(), 2.0 * math.pi * 1e6)
    shift = 25.0 * cmath.exp(0.7j)
    for ac_g, ac_e in ((shift, real.ac_e), (real.ac_g, shift)):
        params = EffectiveParams(
            omega_eff=real.omega_eff,
            ac_g=ac_g,
            ac_e=ac_e,
            phi_eff=real.phi_eff,
        )
        with pytest.raises(EliminationError, match="imaginary"):
            raman_pulse(RamanState.from_ground(), params, 0.0, 0.0, 1e-3)


def test_effective_params_zero_detuning_rejected():
    with pytest.raises(EliminationError):
        effective_params(make_lasers(), 0.0)


def test_effective_params_from_detunings_uses_mean():
    lasers = make_lasers()
    dets = RamanDetunings(delta1=1.1e6, delta2=0.9e6, delta_two_photon=0.2e6)
    via_dets = effective_params_from_detunings(lasers, dets)
    direct = effective_params(lasers, 1.0e6)
    assert via_dets.omega_eff == pytest.approx(direct.omega_eff, rel=1e-12)


# ---------------------------------------------------------------------------
# Effective pulses
# ---------------------------------------------------------------------------


def test_pi_pulse_duration_and_inversion_phase():
    # [DERIVED: closed form] pi pulse at the shifted resonance inverts fully;
    # the transferred amplitude carries the mean-light-shift, frame, and
    # drive phases.
    lasers = make_lasers(
        rabi_gi=2.0 * math.pi * 1e4,
        rabi_ei=2.0 * math.pi * 1.2e4,
        phi1=0.3,
        phi2=1.1,
    )
    params = effective_params(lasers, 2.0 * math.pi * 1e6)
    tau = pi_pulse_duration(params)
    assert tau == pytest.approx(math.pi / (2.0 * abs(params.omega_eff)), rel=1e-15)
    delta = complex(params.delta_ac).real  # drive at the displaced resonance
    t0 = 1.7e-4
    out = raman_pulse(RamanState.from_ground(), params, delta, t0, tau)
    assert abs(out.c_e) ** 2 == pytest.approx(1.0, abs=1e-12)
    mean_shift = 0.5 * (complex(params.ac_e).real + complex(params.ac_g).real)
    expected = (
        -1j
        * cmath.exp(-1j * mean_shift * tau)
        * cmath.exp(-1j * delta * tau / 2.0)
        * cmath.exp(-1j * (delta * t0 + params.phi_eff))
    )
    assert out.c_e == pytest.approx(expected, abs=1e-12)


def test_equal_shifts_reduce_to_bare_dynamics():
    # With ac_g = ac_e the resonance is undisplaced: the propagator equals
    # the bare two-level one times the global mean-shift phase.
    omega = 2.0 * math.pi * 1e4
    lasers = make_lasers(rabi_gi=omega, rabi_ei=omega, phi1=0.2, phi2=0.9)
    params = effective_params(lasers, 2.0 * math.pi * 1e6)
    assert complex(params.delta_ac) == 0.0
    delta, t0, tau = 37.0, 2e-4, 3.3e-3
    ac = complex(params.ac_g).real
    bare = propagator_matrix(
        2.0 * abs(params.omega_eff), params.phi_eff, t0, tau, delta
    )
    dressed = propagator_matrix(
        2.0 * abs(params.omega_eff),
        params.phi_eff,
        t0,
        tau,
        delta,
        rot_delta=delta,
        mean_shift=ac,
    )
    np.testing.assert_allclose(dressed, cmath.exp(-1j * ac * tau) * bare, rtol=1e-12)


@pytest.mark.parametrize("delta,tau", [(0.0, 1e-3), (250.0, 2.7e-3), (-400.0, 5e-3)])
def test_raman_pulse_unitary_and_momentum_labels(delta, tau):
    lasers = make_lasers(rabi_gi=2.0 * math.pi * 1e4, rabi_ei=2.0 * math.pi * 0.8e4)
    params = effective_params(lasers, 2.0 * math.pi * 1e6)
    start = RamanState.from_ground(p=1.0e-27, k_eff=lasers.k_eff)
    out = raman_pulse(start, params, delta, 0.0, tau)
    norm = abs(out.c_g) ** 2 + abs(out.c_e) ** 2
    assert norm == pytest.approx(1.0, abs=1e-12)
    # Momentum labels are constants of the motion, separated by the recoil.
    assert out.p_g == start.p_g and out.p_e == start.p_e
    assert out.momentum_transfer == pytest.approx(HBAR * lasers.k_eff, rel=1e-12)


def test_sequence_formula_is_shared_with_two_level():
    assert raman_sequence_probability is mach_zehnder_probability
    assert raman_sequence_probability(300.0, 1e-5, 0.4) == mach_zehnder_probability(
        300.0, 1e-5, 0.4
    )


# ---------------------------------------------------------------------------
# Full three-level oracle
# ---------------------------------------------------------------------------


def test_oracle_step_guard():
    lasers = make_lasers()
    dets = RamanDetunings(
        delta1=2.0 * math.pi * 1e6, delta2=2.0 * math.pi * 1e6, delta_two_photon=0.0
    )
    with pytest.raises(StepSizeError):
        three_level_ode_oracle(
            ThreeLevelState.ground(), lasers, dets, duration=1e-4, dt=1e-5
        )
    with pytest.raises(StepSizeError):
        three_level_ode_oracle(
            ThreeLevelState.ground(), lasers, dets, duration=1e-4, dt=-1.0
        )


@pytest.mark.parametrize("duration", [-1e-7, 0.0, math.nan, math.inf])
def test_oracle_refuses_non_positive_or_non_finite_duration(duration):
    # Refused before any step: without the check, -1e-7 ran one RK4 step of
    # that size, 0 returned the input and NaN asked for "nan RK4 steps".
    dets = RamanDetunings(
        delta1=2.0 * math.pi * 1e6, delta2=2.0 * math.pi * 1e6, delta_two_photon=0.0
    )
    with pytest.raises(TimeOrderError, match=rf"duration .*got {duration}$"):
        three_level_ode_oracle(
            ThreeLevelState.ground(), make_lasers(), dets, duration=duration, dt=1e-9
        )


def test_oracle_step_guard_slack():
    # Same guard and slack as the two-level oracle: 1e-9 relative.
    lasers = make_lasers()
    fastest = 2.0 * math.pi * 1e6
    dets = RamanDetunings(delta1=fastest, delta2=fastest, delta_two_photon=0.0)
    limit = 2.0 * math.pi / (100.0 * fastest)
    out = three_level_ode_oracle(
        ThreeLevelState.ground(), lasers, dets, duration=1e-6,
        dt=limit * (1.0 + 1e-10),
    )
    norm = abs(out.c_g) ** 2 + abs(out.c_i) ** 2 + abs(out.c_e) ** 2
    assert norm == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(StepSizeError, match=r"dt=.* too coarse: need <= 1\.000e-08 "
                       r"to resolve 6\.283e\+06 rad/s"):
        three_level_ode_oracle(
            ThreeLevelState.ground(), lasers, dets, duration=1e-6,
            dt=limit * (1.0 + 1e-6),
        )


def test_oracle_step_budget(monkeypatch):
    # The budget lives in the RK4 driver both oracles share.
    lasers = make_lasers()
    dets = RamanDetunings(delta1=1e6, delta2=1e6, delta_two_photon=0.0)
    dt = 2.0**-30
    args = (ThreeLevelState.ground(), lasers, dets, 100 * dt, dt)
    monkeypatch.setattr(gravsim.twolevel, "_MAX_ORACLE_STEPS", 100)
    at_budget = three_level_ode_oracle(*args)
    monkeypatch.undo()
    assert at_budget == three_level_ode_oracle(*args)
    monkeypatch.setattr(gravsim.twolevel, "_MAX_ORACLE_STEPS", 99)
    with pytest.raises(StepSizeError, match=r"needs 1\.000e\+02 RK4 steps; at most "
                       r"99 are allowed"):
        three_level_ode_oracle(*args)


def test_oracle_infinite_step_ratio_refused():
    dets = RamanDetunings(delta1=1e6, delta2=1e6, delta_two_photon=0.0)
    with pytest.raises(StepSizeError, match=r"needs inf RK4 steps"):
        three_level_ode_oracle(
            ThreeLevelState.ground(), make_lasers(), dets, duration=1e-4, dt=5e-324
        )


def test_oracle_norm_conservation_and_intermediate_bound():
    # Far-detuned drive: the norm stays unit to 1e-9 and the intermediate
    # population (sampled at segment boundaries) stays below 4 (Omega/2Delta)^2.
    omega = 2.0 * math.pi * 1e4
    big_delta = 2.0 * math.pi * 1e6
    lasers = make_lasers(delta1_target=big_delta, rabi_gi=omega, rabi_ei=omega)
    dets = detunings(lasers, 0.0, RB87_MASS, OMEGA_IG, OMEGA_IE)
    dt = 2.0 * math.pi / (100.0 * max(abs(dets.delta1), abs(dets.delta2)))
    state = ThreeLevelState.ground()
    chunk = 2.5e-4
    max_ci = 0.0
    for _ in range(8):
        state = three_level_ode_oracle(state, lasers, dets, chunk, dt)
        max_ci = max(max_ci, abs(state.c_i) ** 2)
    norm = abs(state.c_g) ** 2 + abs(state.c_i) ** 2 + abs(state.c_e) ** 2
    assert abs(norm - 1.0) < 1e-9
    assert max_ci < 4.0 * (omega / (2.0 * big_delta)) ** 2


def test_effective_model_matches_oracle_far_detuned():
    # Elimination accuracy: at Delta = 100 Omega a pi/2 two-photon pulse
    # agrees with the full integration at the amplitude level.
    omega = 2.0 * math.pi * 1e4
    big_delta = 2.0 * math.pi * 1e6
    phi1, phi2 = 0.4, -0.2
    lasers = make_lasers(
        delta1_target=big_delta,
        rabi_gi=omega,
        rabi_ei=omega,
        phi1=phi1,
        phi2=phi2,
    )
    dets = detunings(lasers, 0.0, RB87_MASS, OMEGA_IG, OMEGA_IE)
    assert dets.delta_two_photon == pytest.approx(0.0, abs=1e-3)
    params = effective_params_from_detunings(lasers, dets)
    tau = 0.5 * pi_pulse_duration(params)
    closed = raman_pulse(
        RamanState.from_ground(k_eff=lasers.k_eff), params, 0.0, 0.0, tau
    )
    dt = 2.0 * math.pi / (100.0 * max(abs(dets.delta1), abs(dets.delta2)))
    oracle = three_level_ode_oracle(ThreeLevelState.ground(), lasers, dets, tau, dt)
    assert abs(abs(closed.c_g) ** 2 - abs(oracle.c_g) ** 2) < 1e-3
    assert abs(abs(closed.c_e) ** 2 - abs(oracle.c_e) ** 2) < 1e-3
    # Amplitude-level (phase-sensitive) agreement.
    assert abs(closed.c_g - oracle.c_g) < 2e-3
    assert abs(closed.c_e - oracle.c_e) < 2e-3


def test_oracle_transfer_peaks_at_displaced_resonance():
    # Unequal couplings displace the two-photon resonance by delta_ac; a pi
    # pulse driven there achieves (nearly) full transfer in the full model.
    omega = 2.0 * math.pi * 1e4
    big_delta = 2.0 * math.pi * 5e5
    lasers = make_lasers(
        delta1_target=big_delta, rabi_gi=omega, rabi_ei=1.2 * omega
    )
    params = effective_params(lasers, big_delta)
    delta_ac = complex(params.delta_ac).real
    assert delta_ac != 0.0
    lasers = make_lasers(
        delta1_target=big_delta,
        rabi_gi=omega,
        rabi_ei=1.2 * omega,
        delta_two_photon=delta_ac,
    )
    dets = detunings(lasers, 0.0, RB87_MASS, OMEGA_IG, OMEGA_IE)
    assert dets.delta_two_photon == pytest.approx(delta_ac, abs=1e-3)
    tau = pi_pulse_duration(params)
    dt = 2.0 * math.pi / (100.0 * max(abs(dets.delta1), abs(dets.delta2)))
    oracle = three_level_ode_oracle(ThreeLevelState.ground(), lasers, dets, tau, dt)
    assert abs(oracle.c_e) ** 2 > 0.995


def _per_step_three_level(state, lasers, dets, duration, dt, t0):
    """Reference: RK4 with four lab-frame derivative stages per step, in
    plain Python complex arithmetic (the oracle's former loop)."""
    n_steps = max(1, math.ceil(duration / dt))
    h = duration / n_steps
    r_gi, r_ei = complex(lasers.rabi_gi), complex(lasers.rabi_ei)

    def deriv(c, t):
        e1 = cmath.exp(1j * (dets.delta1 * t - lasers.phi1))
        e2 = cmath.exp(1j * (dets.delta2 * t - lasers.phi2))
        return (
            -0.5j * r_gi.conjugate() * e1 * c[1],
            -0.5j * (r_gi * e1.conjugate() * c[0] + r_ei * e2.conjugate() * c[2]),
            -0.5j * r_ei.conjugate() * e2 * c[1],
        )

    def shift(c, k, f):
        return [x + f * y for x, y in zip(c, k)]

    c, t = [complex(state.c_g), complex(state.c_i), complex(state.c_e)], t0
    for _ in range(n_steps):
        k1 = deriv(c, t)
        k2 = deriv(shift(c, k1, 0.5 * h), t + 0.5 * h)
        k3 = deriv(shift(c, k2, 0.5 * h), t + 0.5 * h)
        k4 = deriv(shift(c, k3, h), t + h)
        c = [x + (h / 6.0) * (a + 2.0 * b + 2.0 * d + e)
             for x, a, b, d, e in zip(c, k1, k2, k3, k4)]
        t += h
    return c


def _exact_three_level(state, lasers, dets, duration, t0):
    """Exact solution of the oracle's ODE: with D(t) = diag(e^{i nu t}),
    nu = (delta1, 0, delta2), b = D(t)^dag c obeys db/dt = (a0 - i nu) b."""
    g = -0.5j * complex(lasers.rabi_gi).conjugate() * cmath.exp(-1j * lasers.phi1)
    e = -0.5j * complex(lasers.rabi_ei).conjugate() * cmath.exp(-1j * lasers.phi2)
    a0 = np.array(
        [[0.0, g, 0.0], [-g.conjugate(), 0.0, -e.conjugate()], [0.0, e, 0.0]]
    )
    nu = np.array([dets.delta1, 0.0, dets.delta2])
    b0 = np.exp(-1j * nu * t0) * np.array([state.c_g, state.c_i, state.c_e])
    b1 = expm((a0 - 1j * np.diag(nu)) * duration) @ b0
    return np.exp(1j * nu * (t0 + duration)) * b1


# Unequal single-photon detunings, complex couplings, nonzero phases and
# start times; amplitudes in all three levels.
ORACLE_CASES = [
    (
        LaserPair(k1=K1, k2=K2, omega1=0.0, omega2=0.0, phi1=0.4, phi2=-0.3,
                  rabi_gi=2.0e4 * (0.6 + 0.8j), rabi_ei=1.5e4 * (0.28 - 0.96j)),
        RamanDetunings(delta1=3.0e5, delta2=2.7e5, delta_two_photon=3.0e4),
        2.0e-4,
        1.7e-3,
    ),
    (
        LaserPair(k1=K1, k2=K2, omega1=0.0, omega2=0.0, phi1=-1.2, phi2=2.5,
                  rabi_gi=4.0e4j, rabi_ei=3.0e4 * cmath.exp(0.7j)),
        RamanDetunings(delta1=-1.5e5, delta2=-2.2e5, delta_two_photon=7.0e4),
        1.2e-4,
        0.0213,
    ),
]
ORACLE_START = ThreeLevelState(
    c_g=math.sqrt(0.5), c_i=0.3j, c_e=math.sqrt(0.41) * cmath.exp(-0.9j)
)


def _oracle_dt(lasers, dets, resolution):
    fastest = max(abs(dets.delta1), abs(dets.delta2),
                  abs(lasers.rabi_gi), abs(lasers.rabi_ei))
    return 2.0 * math.pi / (resolution * fastest)


@pytest.mark.parametrize("lasers,dets,duration,t0", ORACLE_CASES)
def test_oracle_matches_per_step_rk4(lasers, dets, duration, t0):
    # One constant step map is the same RK4, reorganised: every amplitude
    # agrees with the stage-by-stage loop to rounding.
    dt = _oracle_dt(lasers, dets, 150.0)
    out = three_level_ode_oracle(ORACLE_START, lasers, dets, duration, dt, t0=t0)
    ref = _per_step_three_level(ORACLE_START, lasers, dets, duration, dt, t0)
    for got, want in zip((out.c_g, out.c_i, out.c_e), ref):
        assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("lasers,dets,duration,t0", ORACLE_CASES)
def test_oracle_converges_at_fourth_order(lasers, dets, duration, t0):
    exact = _exact_three_level(ORACLE_START, lasers, dets, duration, t0)
    dt = _oracle_dt(lasers, dets, 100.0)
    errors = []
    for step in (dt, dt / 2.0):
        out = three_level_ode_oracle(ORACLE_START, lasers, dets, duration, step, t0=t0)
        errors.append(np.max(np.abs(np.array([out.c_g, out.c_i, out.c_e]) - exact)))
    assert 13.0 < errors[0] / errors[1] < 19.0
