"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Every test finishes with a single ``ACCEPTANCE <n> PASS`` line carrying the
measured figures (visible with ``pytest -s``) and enforces its own wall-clock
budget.  Random inputs use frozen seeds so each run exercises the identical
dataset.
"""

import math
import time

import numpy as np
import pytest

from gravsim.core import (
    HBAR,
    PulseParams,
    RB87_MASS,
    SequenceParams,
    ThreeLevelState,
    TwoLevelState,
)
from gravsim.measurement import beta_grid, estimate_g, simulate_scan
from gravsim.noise import (
    Psd,
    SensitivityProfile,
    TimeSeries,
    allan_deviation,
    allan_from_acceleration_psd,
    dc_phase_response,
    monte_carlo_phase_variance,
    monte_carlo_vibration_allan,
    phase_variance_from_psd,
)
from gravsim.raman import (
    LaserPair,
    RamanState,
    detunings,
    effective_params_from_detunings,
    pi_pulse_duration,
    raman_pulse,
    raman_sequence_probability,
    three_level_ode_oracle,
)
from gravsim.trajectory import (
    action_quadrature_oracle,
    build_vertices,
    classical_action,
    path_phase,
)
from gravsim.twolevel import (
    eigensystem,
    evolve_pulse,
    mach_zehnder_probability,
    ode_oracle,
    run_sequence,
    spectral_projectors,
)


def _finish(number, detail, elapsed, budget):
    print(f"ACCEPTANCE {number} PASS — {detail} [{elapsed:.2f} s < {budget:g} s]")
    assert elapsed < budget


def test_criterion_1_pi_pulse_inversion():
    start = time.perf_counter()
    omega = 2.0 * math.pi * 1.0e4
    pulse = PulseParams(rabi_mod=omega, detuning=0.0, duration=math.pi / omega)
    closed = abs(evolve_pulse(TwoLevelState.ground(), pulse).c_b) ** 2
    assert closed == pytest.approx(1.0, abs=1e-12)
    oracle = ode_oracle(
        TwoLevelState.ground(), pulse, dt=2.0 * math.pi / (200.0 * omega)
    )
    assert abs(oracle.c_b) ** 2 == pytest.approx(1.0, abs=1e-6)
    _finish(
        1,
        f"closed |1-P|={abs(closed - 1.0):.1e}, "
        f"oracle |1-P|={abs(abs(oracle.c_b) ** 2 - 1.0):.1e}",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_2_fringe_law_and_formula_identity():
    start = time.perf_counter()
    tau_p = 1e-5
    omega = math.pi / tau_p
    delta = 1e-3 * omega
    rng = np.random.default_rng(2203)
    worst = 0.0
    for _ in range(1000):
        phases = tuple(float(p) for p in rng.uniform(-math.pi, math.pi, size=3))
        seq = SequenceParams(t_interrogation=2e-3, tau_p=tau_p, phases=phases)
        dphi = phases[0] - 2.0 * phases[1] + phases[2]
        p = run_sequence(seq, detuning=delta, timing="start-to-start")
        worst = max(worst, abs(p - mach_zehnder_probability(delta, tau_p, dphi)))
    assert worst < 1e-4

    # Two- and three-level fringe formulas are the same function; still
    # exercise both names on 1e4 random inputs.
    assert raman_sequence_probability is mach_zehnder_probability
    deltas = rng.uniform(-1e6, 1e6, size=10_000)
    taus = rng.uniform(1e-7, 1e-3, size=10_000)
    dphis = rng.uniform(-10.0, 10.0, size=10_000)
    for d, t, f in zip(deltas, taus, dphis):
        assert raman_sequence_probability(d, t, f) == mach_zehnder_probability(
            d, t, f
        )
    _finish(
        2,
        f"max |P - fringe law| = {worst:.2e} over 1000 phase triples; "
        "formulas identical on 10000 inputs",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_3_action_closed_vs_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(1203)
    worst = 0.0
    for _ in range(100):
        z1 = float(rng.uniform(-50.0, 50.0))
        z2 = float(rng.uniform(-50.0, 50.0))
        t1 = float(rng.uniform(0.0, 5.0))
        t2 = t1 + float(rng.uniform(1e-3, 10.0))
        g = float(rng.uniform(0.5, 20.0))
        closed = classical_action(z1, t1, z2, t2, g=g)
        oracle = action_quadrature_oracle(z1, t1, z2, t2, g=g)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    assert worst < 1e-9
    _finish(
        3,
        f"max relative action error = {worst:.2e} over 100 segments",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_4_vertex_closure_and_path_phase():
    start = time.perf_counter()
    worst_closure = 0.0
    worst_zero_g = 0.0
    worst_phase = 0.0
    for g in (0.0, 1.62, 9.81):
        for big_t in (0.01, 0.1):
            v = build_vertices(z0=0.02, v0=0.15, big_t=big_t, g=g)
            closure = v.z_c + v.z_d - v.z_a - v.z_b
            assert closure == pytest.approx(g * big_t * big_t, rel=1e-12)
            phase = path_phase(v, big_t, g=g)
            assert abs(phase) < 1e-9
            if g > 0.0:
                worst_closure = max(
                    worst_closure,
                    abs(closure - g * big_t * big_t) / (g * big_t * big_t),
                )
            else:
                worst_zero_g = max(worst_zero_g, abs(closure))
            worst_phase = max(worst_phase, abs(phase))
    _finish(
        4,
        f"max closure error = {worst_closure:.2e} rel "
        f"({worst_zero_g:.1e} m abs at g=0), "
        f"max |path phase| = {worst_phase:.2e} rad",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_5_g_recovery_and_shot_noise_scaling():
    start = time.perf_counter()
    k_eff, g_true, big_t = 1.61e7, 9.81, 0.1
    betas = beta_grid(k_eff * g_true, 2.0, 50, big_t)

    noiseless = estimate_g(
        simulate_scan(betas, k_eff=k_eff, g_true=g_true, big_t=big_t),
        k_eff=k_eff,
        big_t=big_t,
    )
    rel = abs(noiseless.g_hat - g_true) / g_true
    assert rel < 1e-9

    # A high-atom-number scan stays on the same fringe and recovers g to the
    # shot-noise level.
    big_scan = estimate_g(
        simulate_scan(
            betas, k_eff=k_eff, g_true=g_true, big_t=big_t, n_atoms=10**6, seed=0
        ),
        k_eff=k_eff,
        big_t=big_t,
    )
    assert abs(big_scan.g_hat - g_true) / g_true < 1e-4

    atom_numbers = (10**3, 10**4, 10**5)
    mean_sigma = []
    for n_atoms in atom_numbers:
        sigmas = [
            estimate_g(
                simulate_scan(
                    betas,
                    k_eff=k_eff,
                    g_true=g_true,
                    big_t=big_t,
                    n_atoms=n_atoms,
                    seed=seed,
                ),
                k_eff=k_eff,
                big_t=big_t,
            ).sigma_g
            for seed in range(200)
        ]
        mean_sigma.append(float(np.mean(sigmas)))
    slope = float(
        np.polyfit(np.log(atom_numbers), np.log(mean_sigma), 1)[0]
    )
    assert slope == pytest.approx(-0.5, abs=0.05)
    _finish(
        5,
        f"noiseless rel error = {rel:.2e}, sigma_g slope = {slope:.3f}",
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_6_allan_estimator():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    white = TimeSeries(samples=rng.normal(0.0, 1.0, 65536), dt=1.0)
    taus = [float(2**k) for k in range(1, 10)]  # 2 s .. 512 s: 2.4 decades
    result = allan_deviation(white, taus)
    slope = float(
        np.polyfit(np.log(result.tau_avgs), np.log(result.adevs), 1)[0]
    )
    assert slope == pytest.approx(-0.5, abs=0.05)

    constant = TimeSeries(samples=np.full(4096, 3.7), dt=1.0)
    const_result = allan_deviation(constant, [2.0, 8.0, 64.0])
    assert np.all(const_result.adevs == 0.0)
    _finish(
        6,
        f"white-noise slope = {slope:.4f} over {math.log10(256):.1f} decades; "
        "constant input exactly 0",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_7_sensitivity_formalism():
    start = time.perf_counter()
    # DC response in the thin-pulse limit.
    thin = SensitivityProfile.from_tau_p(big_t=0.1, tau_p=1e-9)
    k_eff = 1.61e7
    dc = dc_phase_response(thin, k_eff=k_eff, a0=1.0)
    dc_rel = abs(dc - k_eff * 0.1**2) / (k_eff * 0.1**2)
    assert dc_rel < 1e-6

    # Phase-noise variance: deterministic quadrature vs Monte Carlo.
    profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
    band = Psd(
        freqs=np.array([2.0 * math.pi * 1e3, 2.0 * math.pi * 1e4]),
        values=np.array([1e-8, 1e-8]),
    )
    pred = phase_variance_from_psd(band, profile, allow_partial=True).variance
    # Dense oracle: composite Simpson over omega, 256 nodes per period
    # 2 pi / span, of the closed-form |G| written out independently in
    # perfbench/reference.py (512 nodes agree to 4e-13).
    assert pred == pytest.approx(1.1624327875350395e-06, rel=1e-9)
    mc = monte_carlo_phase_variance(band, profile, n_shots=500, seed=3)
    phase_ratio = mc / pred
    assert abs(mc - pred) / pred < 0.10

    # Vibration-noise Allan variance: formula vs time-domain Monte Carlo.
    accel_band = Psd(
        freqs=np.array([2.0 * math.pi * 1.0, 2.0 * math.pi * 50.0]),
        values=np.array([1e-7, 1e-7]),
    )
    shot = allan_from_acceleration_psd(
        accel_band,
        profile,
        k_eff=k_eff,
        cycle_time=0.25,
        formula="shot-sampled",
        allow_partial=True,
    )
    printed = allan_from_acceleration_psd(
        accel_band,
        profile,
        k_eff=k_eff,
        cycle_time=0.25,
        formula="printed",
        allow_partial=True,
    )
    # Oracle: composite Simpson over omega of the closed-form |G| written
    # out independently in perfbench/reference.py, at a step of 6.25e-4
    # rad/s; halving the step from 1.25e-3 moves either value by < 6e-16.
    assert shot == pytest.approx(8080.076711062827, rel=1e-9)
    assert printed == pytest.approx(108.70976040167223, rel=1e-9)
    vib_mc = monte_carlo_vibration_allan(
        accel_band, profile, k_eff=k_eff, cycle_time=0.25, n_shots=420, seed=0
    )
    vib_ratio = vib_mc / shot
    assert abs(vib_mc - shot) / shot < 0.15
    _finish(
        7,
        f"DC rel error = {dc_rel:.2e}; phase MC/quadrature = {phase_ratio:.3f}; "
        f"vibration MC/shot-sampled = {vib_ratio:.3f} "
        f"(shot-sampled {shot:.6g}, printed {printed:.6g})",
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_8_adiabatic_elimination():
    start = time.perf_counter()
    omega = 2.0 * math.pi * 1e4
    big_delta = 2.0 * math.pi * 1e6  # 100x the couplings
    # Counter-propagating beam pair tuned so the single-photon detuning at
    # rest equals big_delta with zero two-photon detuning.  The optical
    # carrier is scaled down from the physical few-hundred THz: only
    # frequency differences enter the dynamics, and a smaller carrier keeps
    # double-precision roundoff in those differences negligible.
    k1, k2 = 8.05e6, -8.05e6
    omega_ig = 2.0 * math.pi * 3.8423e11
    omega_ie = omega_ig - 2.0 * math.pi * 6.834e9
    p_i = HBAR * k1
    p_e = HBAR * (k1 - k2)
    lasers = LaserPair(
        k1=k1,
        k2=k2,
        omega1=big_delta + omega_ig + p_i * p_i / (2.0 * RB87_MASS * HBAR),
        omega2=big_delta
        + omega_ie
        - (p_e * p_e - p_i * p_i) / (2.0 * RB87_MASS * HBAR),
        phi1=0.4,
        phi2=-0.2,
        rabi_gi=omega,
        rabi_ei=omega,
    )
    dets = detunings(lasers, 0.0, RB87_MASS, omega_ig, omega_ie)
    params = effective_params_from_detunings(lasers, dets)
    tau = 0.5 * pi_pulse_duration(params)
    closed = raman_pulse(
        RamanState.from_ground(k_eff=lasers.k_eff), params, 0.0, 0.0, tau
    )
    dt = 2.0 * math.pi / (100.0 * max(abs(dets.delta1), abs(dets.delta2)))
    oracle = three_level_ode_oracle(ThreeLevelState.ground(), lasers, dets, tau, dt)
    err_g = abs(abs(closed.c_g) ** 2 - abs(oracle.c_g) ** 2)
    err_e = abs(abs(closed.c_e) ** 2 - abs(oracle.c_e) ** 2)
    assert err_g < 1e-3
    assert err_e < 1e-3
    _finish(
        8,
        f"population errors after pi/2 pulse: ground {err_g:.2e}, "
        f"excited {err_e:.2e}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_9_spectral_projectors():
    start = time.perf_counter()
    rng = np.random.default_rng(903)
    ident = np.eye(2)
    worst_entry = 0.0
    worst_complete = 0.0
    for _ in range(1000):
        omega = float(np.exp(rng.uniform(math.log(1e2), math.log(1e7))))
        delta = float(rng.uniform(-3.0, 3.0)) * omega
        phi = float(rng.uniform(-math.pi, math.pi))
        pulse = PulseParams(
            rabi_mod=omega, detuning=delta, duration=1.0, laser_phase=phi
        )
        p_plus, p_minus = spectral_projectors(eigensystem(pulse))
        # Independent half-angle closed forms.
        theta = math.atan2(omega, -delta)
        c2 = math.cos(0.5 * theta) ** 2
        s2 = math.sin(0.5 * theta) ** 2
        off = 0.5 * math.sin(theta) * complex(math.cos(phi), -math.sin(phi))
        ref_plus = np.array([[c2, off], [off.conjugate(), s2]])
        ref_minus = np.array([[s2, -off], [-off.conjugate(), c2]])
        worst_entry = max(
            worst_entry,
            float(np.max(np.abs(p_plus - ref_plus))),
            float(np.max(np.abs(p_minus - ref_minus))),
        )
        worst_complete = max(
            worst_complete, float(np.max(np.abs(p_plus + p_minus - ident)))
        )
    assert worst_entry < 1e-12
    assert worst_complete < 1e-12
    _finish(
        9,
        f"max entrywise error = {worst_entry:.2e}, "
        f"max completeness defect = {worst_complete:.2e} over 1000 draws",
        time.perf_counter() - start,
        1.0,
    )
