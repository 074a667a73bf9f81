"""Tests for fringe scans, shot-noise detection, and gravity estimation."""

import dataclasses
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravsim import measurement
from gravsim.errors import (
    AmbiguousFringeError,
    DataFormatError,
    FitFailureError,
    TimeOrderError,
)
from gravsim.measurement import (
    FringeScan,
    GravityEstimate,
    _fit_fringe,
    _gram_adjugate,
    beta_grid,
    estimate_g,
    estimate_g_dual,
    ideal_fringe,
    simulate_scan,
)
from gravsim.trajectory import chirped_phase

K_EFF = 1.61e7
G_TRUE = 9.81


def make_scan(
    big_t=0.1,
    g_true=G_TRUE,
    dphi_laser=0.0,
    span_fringes=2.0,
    n_points=50,
    n_atoms=0,
    seed=None,
    center_offset=0.0,
):
    center = K_EFF * g_true - dphi_laser / (big_t * big_t) + center_offset
    betas = beta_grid(center, span_fringes, n_points, big_t)
    return simulate_scan(betas, K_EFF, g_true, big_t, dphi_laser, n_atoms, seed)


# ---------------------------------------------------------------------------
# Fringe model and detection
# ---------------------------------------------------------------------------


def test_ideal_fringe_matches_phase_model():
    betas = beta_grid(K_EFF * G_TRUE, 2.0, 21, 0.1)
    values = ideal_fringe(betas, K_EFF, G_TRUE, 0.1, 0.3)
    for beta, val in zip(betas, values):
        phase = chirped_phase(float(beta), K_EFF, G_TRUE, 0.1, 0.3)
        assert val == pytest.approx(0.5 * (1.0 - math.cos(phase)), abs=1e-12)


def test_ideal_fringe_null_and_periodicity():
    big_t = 0.1
    beta_null = K_EFF * G_TRUE
    assert ideal_fringe(beta_null, K_EFF, G_TRUE, big_t) == pytest.approx(0.0, abs=1e-12)
    period = 2.0 * math.pi / (big_t * big_t)
    for k in (1, -3):
        assert ideal_fringe(beta_null + k * period, K_EFF, G_TRUE, big_t) == pytest.approx(
            0.0, abs=1e-9
        )
    # Half a period away the fringe is bright.
    assert ideal_fringe(beta_null + period / 2.0, K_EFF, G_TRUE, big_t) == pytest.approx(
        1.0, abs=1e-9
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    big_t=st.floats(0.01, 0.3),
    offset_fringes=st.floats(-5.0, 5.0),
    dphi_laser=st.floats(-3.0, 3.0),
)
def test_ideal_fringe_under_doubled_t(big_t, offset_fringes, dphi_laser):
    # T -> 2T with beta - k_eff g quartered keeps the phase (beta - k_eff g)
    # T^2.  Quartering beta and g scales every product and difference by a
    # power of two, so the fringe keeps every bit.
    betas = K_EFF * G_TRUE + offset_fringes * 2.0 * math.pi / big_t**2 + np.array(
        [-1.0, 0.0, 0.37, 2.0]) * 2.0 * math.pi / big_t**2
    want = ideal_fringe(betas, K_EFF, G_TRUE, big_t, dphi_laser)
    got = ideal_fringe(betas / 4.0, K_EFF, G_TRUE / 4.0, 2.0 * big_t, dphi_laser)
    assert got.tobytes() == want.tobytes()
    beta = float(betas[2])
    assert (ideal_fringe(beta / 4.0, K_EFF, G_TRUE / 4.0, 2.0 * big_t, dphi_laser)
            == ideal_fringe(beta, K_EFF, G_TRUE, big_t, dphi_laser))


def test_beta_grid_span():
    big_t = 0.1
    grid = beta_grid(100.0, 2.0, 41, big_t)
    assert grid.size == 41
    assert grid[20] == pytest.approx(100.0)
    assert grid[-1] - grid[0] == pytest.approx(2.0 * 2.0 * math.pi / big_t**2)


@pytest.mark.parametrize("n_points", [1, 0, -3])
def test_beta_grid_needs_two_points(n_points):
    with pytest.raises(ValueError, match="n_points must be >= 2"):
        beta_grid(100.0, 2.0, n_points, 0.1)


@pytest.mark.parametrize("betas", [[1.0], [[1.0, 2.0]]], ids=["one_point", "2d"])
def test_fringe_scan_needs_a_1d_grid(betas):
    with pytest.raises(DataFormatError, match="1-D grid with >= 2 points"):
        FringeScan(np.array(betas), np.zeros(2), np.zeros(2), n_atoms=0, seed=None)


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3)], ids=["probabilities", "measured"])
def test_fringe_scan_arrays_share_the_grid_length(lengths):
    n_p, n_m = lengths
    with pytest.raises(DataFormatError, match="share one length"):
        FringeScan(np.arange(2.0), np.zeros(n_p), np.zeros(n_m), n_atoms=0, seed=None)


def adversarial_phases():
    """Phases where 0.5 (1 - cos phi) sits at an end of [0, 1] or cos is
    least accurate: multiples of pi and their neighbours, signed zeros and
    subnormals, and the largest doubles."""
    multiples = np.pi * np.arange(-2000.0, 2001.0)
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-16, -1e-8])
    huge = np.array([1e15, 2.0**53, 1e22, 1e300, np.finfo(float).max])
    return np.concatenate([
        multiples,
        np.nextafter(multiples, np.inf),
        np.nextafter(multiples, -np.inf),
        tiny,
        huge,
        -huge,
    ])


def test_ideal_fringe_lies_exactly_in_unit_interval():
    # 0.5 (1 - cos phi) with cos in [-1, 1] rounds into [0, 1] with no
    # tolerance, which is why a noisy scan needs no clip before its draws.
    # With k_eff = 1, g = 0, T = 1 and no laser phase, beta is the phase.
    rng = np.random.default_rng(25)
    signs = rng.choice([-1.0, 1.0], 100_000)
    phases = np.concatenate([
        signs * 10.0 ** rng.uniform(-20.0, 308.0, 100_000),
        adversarial_phases(),
    ])
    fractions = ideal_fringe(phases, 1.0, 0.0, 1.0)
    assert np.all((fractions >= 0.0) & (fractions <= 1.0))
    for phase in adversarial_phases():
        assert 0.0 <= ideal_fringe(float(phase), 1.0, 0.0, 1.0) <= 1.0


def test_nan_chirp_rate_is_refused_on_both_paths():
    betas = beta_grid(K_EFF * G_TRUE, 2.0, 50, 0.1)
    betas[7] = math.nan
    # Noisy: numpy's binomial draw refuses the NaN fraction itself.
    with pytest.raises(ValueError, match="NaN"):
        simulate_scan(betas, K_EFF, G_TRUE, 0.1, 0.0, 100, 5)
    # Noiseless: the scan carries the NaN, and the fit refuses it.
    scan = simulate_scan(betas, K_EFF, G_TRUE, 0.1)
    with pytest.raises(FitFailureError, match="non-finite"):
        estimate_g(scan, K_EFF, 0.1)


@pytest.mark.parametrize("span_fringes", [1e307, 3e305])
def test_beta_grid_refuses_a_width_that_overflows(span_fringes):
    # 3e305 periods give a finite half-width whose double, the width that
    # np.linspace steps across, overflows.
    with pytest.raises(ValueError, match="span_fringes = .* overflows"):
        beta_grid(K_EFF * G_TRUE, span_fringes, 50, 0.1)


@pytest.mark.parametrize("center", [1.7e308, -1.7e308])
def test_beta_grid_refuses_an_end_that_overflows(center):
    # A finite width whose far end, center +/- half-width, overflows.
    with pytest.raises(ValueError, match="center = .* overflows"):
        beta_grid(center, 1e305, 50, 0.1)


@pytest.mark.parametrize("center", [1.7e308, -1.7e308])
def test_beta_grid_refuses_an_end_that_overflows_at_negative_span(center):
    # A negative span runs the grid from its upper end; the far end is the
    # same, and overflowed once with a numpy warning.
    with pytest.raises(ValueError, match="center = .* overflows"):
        beta_grid(center, -1e305, 50, 0.1)


def test_g_hat_overflowing_a_subnormal_k_eff_is_refused():
    # beta_null is resolved to about 1e-15 rad/s^2, and dividing it by
    # k_eff = 5e-324 overflows.
    betas = beta_grid(5e-324 * G_TRUE, 2.0, 50, 0.1)
    scan = simulate_scan(betas, 5e-324, G_TRUE, 0.1)
    with pytest.raises(FitFailureError, match="overflows dividing by k_eff = 5e-324"):
        estimate_g(scan, 5e-324, 0.1)


@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
def test_non_positive_or_non_finite_big_t_rejected(bad):
    # The same refusal as chirped_phase, not a ZeroDivisionError, a NaN grid
    # or a singular fit design.
    scan = make_scan()
    match = f"need finite big_t > 0, got {bad}"
    with pytest.raises(TimeOrderError, match=match):
        beta_grid(K_EFF * G_TRUE, 2.0, 41, bad)
    with pytest.raises(TimeOrderError, match=match):
        estimate_g(scan, K_EFF, bad)
    with pytest.raises(TimeOrderError, match=match):
        estimate_g_dual(scan, 0.1, scan, bad, K_EFF)
    with pytest.raises(TimeOrderError, match=match):
        estimate_g_dual(scan, bad, scan, 0.1, K_EFF)


@pytest.mark.parametrize("bad", [1e200, 1e-200])
def test_big_t_whose_square_is_not_finite_and_nonzero_rejected(bad):
    # 2 pi / T^2 would be 0 or inf: a zero-width grid and a division by zero.
    scan = make_scan()
    match = re.escape(f"need big_t**2 finite and nonzero, got big_t = {bad}")
    with pytest.raises(TimeOrderError, match=match):
        beta_grid(K_EFF * G_TRUE, 2.0, 41, bad)
    with pytest.raises(TimeOrderError, match=match):
        estimate_g(scan, K_EFF, bad)
    with pytest.raises(TimeOrderError, match=match):
        estimate_g_dual(scan, 0.1, scan, bad, K_EFF)


def test_atom_number_beyond_binomial_range_rejected():
    # Generator.binomial takes n up to 2^63 - 1; one more is refused before
    # any draw, and the largest is accepted.
    with pytest.raises(ValueError, match="n_atoms must be in"):
        make_scan(n_atoms=2**63, seed=5)
    scan = make_scan(n_atoms=2**63 - 1, seed=5)
    assert np.all((scan.measured >= 0.0) & (scan.measured <= 1.0))


# ---------------------------------------------------------------------------
# Scan simulation and determinism
# ---------------------------------------------------------------------------


def test_noiseless_scan_copies_ideal_fringe():
    scan = make_scan()
    np.testing.assert_array_equal(scan.measured, scan.probabilities)
    assert scan.n_atoms == 0


def test_noisy_scan_requires_seed_and_differs_from_ideal():
    with pytest.raises(ValueError):
        make_scan(n_atoms=100)
    scan = make_scan(n_atoms=200, seed=5)
    assert np.any(scan.measured != scan.probabilities)
    # Detected fractions are k / n_atoms.
    assert np.all(np.abs(scan.measured * 200 - np.round(scan.measured * 200)) < 1e-9)
    with pytest.raises(ValueError):
        make_scan(n_atoms=100, seed=-1)
    with pytest.raises(ValueError):
        simulate_scan(np.array([K_EFF * G_TRUE, np.nan]), n_atoms=100, seed=5)


def test_scan_reproducible_and_seed_sensitive():
    a = make_scan(n_atoms=500, seed=11)
    b = make_scan(n_atoms=500, seed=11)
    c = make_scan(n_atoms=500, seed=12)
    np.testing.assert_array_equal(a.measured, b.measured)
    assert np.any(a.measured != c.measured)


def test_scan_prefix_reproduces_leading_points():
    # Every point draws from its own (seed, index) stream, so a scan of the
    # first k chirp rates measures exactly the first k values of the full one.
    full = make_scan(n_atoms=500, seed=11)
    for k in (2, 17, 49):
        head = simulate_scan(full.betas[:k], K_EFF, G_TRUE, 0.1, 0.0, 500, 11)
        np.testing.assert_array_equal(head.measured, full.measured[:k])


@pytest.mark.parametrize(
    "seed, n_atoms, n_points", [(0, 1, 5), (11, 500, 50), (2**40 + 7, 10_000, 2_000)]
)
def test_point_is_philox_stream_at_its_index(seed, n_atoms, n_points):
    # Point i draws Binomial(n_atoms, p_i) from Philox under the key
    # SeedSequence(seed).generate_state(2, uint64), counter (0, 0, 0, i),
    # each generator built here through the public constructor.
    scan = make_scan(n_points=n_points, span_fringes=n_points / 10.0,
                     n_atoms=n_atoms, seed=seed)
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    for i in sorted({0, 1, n_points // 3, n_points - 1}):
        rng = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, i]))
        k = rng.binomial(n_atoms, scan.probabilities[i])
        assert scan.measured[i] == k / n_atoms


@pytest.mark.parametrize("n_atoms", [1, 20, 10_000, 100_000])
def test_every_point_is_philox_stream_at_its_index(n_atoms):
    # All 200 points against generators built through the public
    # constructor.  With k_eff = 1, g = 0 and T = 1 the fringe phase is beta
    # itself, so beta = 0 gives p = 0 and beta = +-pi gives p = 1 exactly.
    # Counts n p <= 30 take numpy's inversion sampler, larger ones BTPE;
    # both consume a varying number of outputs per draw, so any state the
    # re-seat fails to reset shows at some later point.
    betas = np.linspace(-3.0, 3.0, 200)
    betas[[0, 60, 120, 199]] = [-math.pi, 0.0, 0.0, math.pi]
    seed = 2**33 + 5
    scan = simulate_scan(betas, 1.0, 0.0, 1.0, 0.0, n_atoms, seed)
    p = np.clip(scan.probabilities, 0.0, 1.0)
    assert np.count_nonzero(p == 0.0) == 2 and np.count_nonzero(p == 1.0) == 2
    if n_atoms >= 10_000:
        mean = n_atoms * np.minimum(p, 1.0 - p)
        assert np.any(mean <= 30.0) and np.any(mean > 30.0)
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    expected = [
        np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, i]))
        .binomial(n_atoms, p_i) / n_atoms
        for i, p_i in enumerate(p)
    ]
    np.testing.assert_array_equal(scan.measured, expected)


def in_fresh_thread(fn):
    """fn() run in a new thread, whose detector is built for it."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=30.0)
    assert not worker.is_alive()
    return out[0]


def test_interleaved_seeds_match_fresh_scans():
    # One thread's detector serves seeds A, B, A in turn, at atom numbers
    # that take numpy's BTPE and inversion samplers; each scan equals the
    # same scan on a detector that has drawn nothing before.
    runs = [(11, 10_000), (12, 20), (11, 10_000)]
    fresh = [
        in_fresh_thread(lambda: make_scan(n_atoms=n, seed=seed).measured)
        for seed, n in runs
    ]
    for (seed, n), expected in zip(runs, fresh):
        scan = make_scan(n_atoms=n, seed=seed)
        np.testing.assert_array_equal(scan.measured, expected)


def test_threads_draw_what_a_sequential_run_draws():
    # Three workers of 200 scans each, with the switch interval cut so that
    # they interleave mid-scan: each scan equals its sequential twin.
    betas = beta_grid(K_EFF * G_TRUE, 2.0, 20, 0.1)
    seeds = [range(1_000 * j, 1_000 * j + 200) for j in (1, 2, 3)]

    def run(worker_seeds):
        return [
            simulate_scan(betas, K_EFF, G_TRUE, 0.1, 0.0, 1_000, seed).measured
            for seed in worker_seeds
        ]

    expected = [run(worker_seeds) for worker_seeds in seeds]
    results = [None] * len(seeds)
    start = threading.Barrier(len(seeds), timeout=30.0)

    def work(j):
        start.wait()
        results[j] = run(seeds[j])

    workers = [threading.Thread(target=work, args=(j,)) for j in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(np.array(got), np.array(want))


def test_detection_streams_are_independent_unit_binomials():
    # Over the 103,308 points with p in [0.1, 0.9], the z-scores of the
    # detected counts have zero mean, unit variance, no lag-1 correlation
    # along the scan and none between seeds, each within four standard errors.
    n_atoms, n_points = 1_000, 175_000
    a = make_scan(n_points=n_points, span_fringes=n_points / 10.0,
                  n_atoms=n_atoms, seed=21)
    b = simulate_scan(a.betas, K_EFF, G_TRUE, 0.1, 0.0, n_atoms, 22)
    keep = (a.probabilities >= 0.1) & (a.probabilities <= 0.9)
    p = a.probabilities[keep]
    scale = np.sqrt(p * (1.0 - p) / n_atoms)
    z_a = (a.measured[keep] - p) / scale
    z_b = (b.measured[keep] - p) / scale
    assert z_a.size >= 100_000
    se = 1.0 / math.sqrt(z_a.size)
    assert abs(np.mean(z_a)) < 4.0 * se
    assert abs(np.var(z_a) - 1.0) < 4.0 * math.sqrt(2.0) * se
    assert abs(np.mean(z_a[:-1] * z_a[1:])) < 4.0 * se
    assert abs(np.mean(z_a * z_b)) < 4.0 * se


# ---------------------------------------------------------------------------
# Gravity estimation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("big_t", [0.010, 0.100])
@pytest.mark.parametrize("dphi_laser", [0.0, 1.2, -2.9])
def test_noiseless_recovery_any_laser_offset(big_t, dphi_laser):
    scan = make_scan(big_t=big_t, dphi_laser=dphi_laser)
    est = estimate_g(scan, K_EFF, big_t, dphi_laser)
    assert abs(est.g_hat - G_TRUE) / G_TRUE < 1e-9
    assert est.fit_residual < 1e-9


def test_unreported_laser_offset_biases_g_by_known_amount():
    big_t, dphi = 0.1, 0.8
    scan = make_scan(big_t=big_t, dphi_laser=dphi)
    est = estimate_g(scan, K_EFF, big_t)  # offset not passed on
    expected_bias = -dphi / (big_t * big_t) / K_EFF
    assert est.g_hat - G_TRUE == pytest.approx(expected_bias, rel=1e-6)


def test_center_fringe_folding_shift():
    # Centering the scan one full fringe above the null shifts the answer by
    # exactly one fringe-lattice spacing.
    big_t = 0.1
    period = 2.0 * math.pi / (big_t * big_t)
    base = estimate_g(make_scan(big_t=big_t), K_EFF, big_t)
    shifted_scan = make_scan(big_t=big_t, center_offset=period)
    shifted = estimate_g(shifted_scan, K_EFF, big_t)
    assert shifted.g_hat - base.g_hat == pytest.approx(period / K_EFF, rel=1e-9)


def test_ambiguity_guards():
    big_t = 0.1
    with pytest.raises(AmbiguousFringeError):
        estimate_g(make_scan(big_t=big_t, span_fringes=1.0), K_EFF, big_t)
    with pytest.raises(AmbiguousFringeError):
        estimate_g(
            make_scan(big_t=big_t, span_fringes=2.0, n_points=12), K_EFF, big_t
        )


def test_noisy_fit_reports_shot_limited_uncertainty():
    big_t = 0.1
    sigmas = {}
    for n_atoms in (1_000, 100_000):
        values = []
        for seed in range(25):
            scan = make_scan(big_t=big_t, n_atoms=n_atoms, seed=seed)
            values.append(estimate_g(scan, K_EFF, big_t).sigma_g)
        sigmas[n_atoms] = float(np.mean(values))
    slope = (math.log(sigmas[100_000]) - math.log(sigmas[1_000])) / (
        math.log(100_000) - math.log(1_000)
    )
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_reported_sigma_tracks_ensemble_scatter():
    big_t, n_atoms = 0.1, 10_000
    fitted, estimates = [], []
    for seed in range(60):
        scan = make_scan(big_t=big_t, n_atoms=n_atoms, seed=seed)
        est = estimate_g(scan, K_EFF, big_t)
        fitted.append(est.sigma_g)
        estimates.append(est.g_hat)
    ratio = float(np.mean(fitted)) / float(np.std(estimates, ddof=1))
    assert 1.0 / 1.5 < ratio < 1.5


def test_dual_interrogation_time_disambiguation():
    t_a, t_b = 0.1, 0.071
    scan_a = make_scan(big_t=t_a)
    scan_b = make_scan(big_t=t_b)
    est = estimate_g_dual(scan_a, t_a, scan_b, t_b, K_EFF)
    assert abs(est.g_hat - G_TRUE) / G_TRUE < 1e-9
    # Identical interrogation times leave the pairing degenerate.
    with pytest.raises(AmbiguousFringeError):
        estimate_g_dual(scan_a, t_a, make_scan(big_t=t_a), t_a, K_EFF)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_atoms=st.sampled_from([0, 1000, 10**6]),
    big_t=st.floats(0.01, 0.3),
    dphi_laser=st.floats(-3.0, 3.0),
    center_offset=st.floats(-1.0, 1.0),
)
def test_reversed_k_eff_is_the_mirror_image(
    seed, n_atoms, big_t, dphi_laser, center_offset
):
    # (beta, k_eff, dphi) -> -(beta, k_eff, dphi) negates the fringe phase,
    # which the even cosine does not see: the same counts, the same g_hat,
    # a positive sigma_g equal to the forward one and a mirrored null.
    period = 2.0 * math.pi / (big_t * big_t)
    center = K_EFF * G_TRUE - dphi_laser / (big_t * big_t) + center_offset * period
    betas = beta_grid(center, 3.0, 60, big_t)
    fwd = simulate_scan(betas, K_EFF, G_TRUE, big_t, dphi_laser, n_atoms, seed)
    rev = simulate_scan(-betas, -K_EFF, G_TRUE, big_t, -dphi_laser, n_atoms, seed)
    assert np.array_equal(rev.measured, fwd.measured)
    est_fwd = estimate_g(fwd, K_EFF, big_t, dphi_laser)
    est_rev = estimate_g(rev, -K_EFF, big_t, -dphi_laser)
    assert est_rev.g_hat == est_fwd.g_hat
    assert est_rev.sigma_g == est_fwd.sigma_g >= 0.0
    assert est_rev.beta_null == -est_fwd.beta_null
    assert est_rev.fit_residual == est_fwd.fit_residual


@pytest.mark.parametrize("n_atoms", [0, 10_000])
def test_dual_interrogation_time_under_reversed_k_eff(n_atoms):
    # Two scans of the same fringes with k_eff reversed pair the same
    # offsets: g and sigma_g come out equal, the null chirp mirrored.  Scan
    # a is centred 1.2 fringes off the null, so its fit folds to the next
    # fringe and the pairing moves it back by one.
    t_a, t_b = 0.1, 0.071
    scans = {}
    for sign in (1.0, -1.0):
        for big_t, fringes in ((t_a, 1.2), (t_b, 0.1)):
            center = K_EFF * G_TRUE + fringes * 2.0 * math.pi / big_t**2
            betas = sign * beta_grid(center, 3.0, 60, big_t)
            scans[sign, big_t] = simulate_scan(
                betas, sign * K_EFF, G_TRUE, big_t, 0.0, n_atoms, seed=5
            )
    fwd, rev = (
        estimate_g_dual(scans[s, t_a], t_a, scans[s, t_b], t_b, s * K_EFF)
        for s in (1.0, -1.0)
    )
    assert abs(fwd.g_hat - G_TRUE) < 1e-6
    assert abs(fwd.beta_null - K_EFF * G_TRUE) < 1.0
    assert rev.g_hat == fwd.g_hat
    assert rev.sigma_g == fwd.sigma_g
    assert rev.beta_null == -fwd.beta_null


@pytest.mark.parametrize("offset, resolved", [(3, True), (4, False)])
def test_dual_search_reaches_three_fringes_and_no_further(monkeypatch, offset, resolved):
    # Fits off by +offset fringes of scan a and -offset of scan b: the
    # pairing (-3, 3) moves both back, while at 4 every pairing of the fixed
    # +-3 search leaves a gap of at least one lattice step.
    big_t_a, big_t_b = 0.1, 0.071
    lat_a = 2.0 * math.pi / (K_EFF * big_t_a * big_t_a)
    lat_b = 2.0 * math.pi / (K_EFF * big_t_b * big_t_b)
    ests = iter([GravityEstimate(G_TRUE + offset * lat_a, 0.0, 0.0, 0.0),
                 GravityEstimate(G_TRUE - offset * lat_b, 0.0, 0.0, 0.0)])
    monkeypatch.setattr(measurement, "estimate_g", lambda *args: next(ests))
    if resolved:
        est = estimate_g_dual(None, big_t_a, None, big_t_b, K_EFF)
        assert est.g_hat == pytest.approx(G_TRUE, abs=1e-12)
        assert est.beta_null == pytest.approx(-3 * 2.0 * math.pi / big_t_a**2)
    else:
        with pytest.raises(AmbiguousFringeError, match="no fringe pairing agrees"):
            estimate_g_dual(None, big_t_a, None, big_t_b, K_EFF)


def test_fine_lattice_neighbour_is_the_runner_up(monkeypatch):
    # At T_b = 1000 s the lattice of scan b is 3.9e-13 m/s^2, so the
    # offsets next to the best one lie within twice the 1e-12 floor: the
    # pairing is ambiguous though every other offset of scan a is far.
    big_t_a, big_t_b = 0.1, 1000.0
    est = GravityEstimate(G_TRUE, 0.0, 0.0, 0.0)
    monkeypatch.setattr(measurement, "estimate_g", lambda *args: est)
    with pytest.raises(AmbiguousFringeError, match="comparably consistent"):
        estimate_g_dual(None, big_t_a, None, big_t_b, K_EFF)


# ---------------------------------------------------------------------------
# Fringe fit against oracles independent of the fit
# ---------------------------------------------------------------------------


def fit_jacobian(x, b, psi0):
    """Jacobian of A - B cos(x - psi0) in (A, B, psi0)."""
    return np.column_stack(
        [np.ones_like(x), -np.cos(x - psi0), -b * np.sin(x - psi0)]
    )


def scan_phase(scan, big_t=0.1):
    center = 0.5 * (scan.betas.max() + scan.betas.min())
    return (scan.betas - center) * big_t * big_t


@pytest.fixture(
    scope="module",
    params=[(50, 2.0, range(10)), (2_000, 20.0, range(2)), (20_000, 200.0, range(1))],
    ids=["50pt", "2000pt", "20000pt"],
)
def noisy_scan_data(request):
    """(x, y) pairs of noisy scans at 1000 atoms, one per seed."""
    n_points, span_fringes, seeds = request.param
    data = []
    for seed in seeds:
        scan = make_scan(
            n_points=n_points, span_fringes=span_fringes, n_atoms=1_000, seed=seed
        )
        data.append((scan_phase(scan), scan.measured))
    return data


def test_fit_is_stationary_point_of_sse(noisy_scan_data):
    # At the returned (A, B, psi0) the SSE gradient J^T r vanishes: each
    # Jacobian column is orthogonal to the residual, to rounding.
    for x, y in noisy_scan_data:
        a, b, psi0, sse, _ = _fit_fringe(x, y)
        residual = a - b * np.cos(x - psi0) - y
        assert residual @ residual == pytest.approx(sse, rel=1e-12)
        jac = fit_jacobian(x, b, psi0)
        cosines = np.abs(jac.T @ residual) / (
            np.linalg.norm(jac, axis=0) * np.linalg.norm(residual)
        )
        assert np.max(cosines) <= 1e-11


def test_fit_sigma_is_gauss_newton_variance(noisy_scan_data):
    for x, y in noisy_scan_data:
        _, b, psi0, sse, sigma_psi0 = _fit_fringe(x, y)
        jac = fit_jacobian(x, b, psi0)
        cov = np.linalg.inv(jac.T @ jac) * sse / (x.size - 3)
        assert sigma_psi0 == pytest.approx(math.sqrt(cov[2, 2]), rel=1e-9)


@pytest.mark.parametrize("shift", [0.0, 0.7])
def test_adjugate_covariance_matches_inverse(noisy_scan_data, shift):
    # adj(G) / det(G) against LAPACK's inverse of the same Gram matrix.  A
    # centred scan leaves G01 G02 - G00 G12 at rounding; the shifted phases
    # make every cofactor count.
    for x, _ in noisy_scan_data:
        x = x + shift
        design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
        gram = design.T @ design
        adj, det = _gram_adjugate(gram, x.size)
        inverse = np.linalg.inv(gram)
        err = np.max(np.abs(np.array(adj) / det - inverse))
        assert err <= 1e-12 * np.max(np.abs(inverse))


def mp_fit(x, y):
    """(psi0, sigma_psi0) of the same least squares, solved at 40 digits.

    The design [1, cos x, sin x] is evaluated from the binary x, and the
    normal equations, residuals and delta-method variance are formed and
    solved in mpmath.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        xs = [mp.mpf(v) for v in x.tolist()]
        ys = [mp.mpf(v) for v in y.tolist()]
        cols = [[mp.mpf(1)] * len(xs), [mp.cos(v) for v in xs], [mp.sin(v) for v in xs]]
        gram = mp.matrix([[mp.fdot(u, v) for v in cols] for u in cols])
        cov = gram**-1
        a, c, s = cov * mp.matrix([mp.fdot(u, ys) for u in cols])
        sse = mp.fsum(
            (a + c * cv + s * sv - yv) ** 2 for cv, sv, yv in zip(cols[1], cols[2], ys)
        )
        grad = mp.matrix([0, -s, c]) / (c * c + s * s)
        var = sse / (len(xs) - 3) * (grad.T * cov * grad)[0]
        return float(mp.atan2(-s, -c)), float(mp.sqrt(var))


@pytest.mark.parametrize("n_points, span_fringes, seed", [(50, 2.0, 3), (2_000, 20.0, 4)])
def test_fit_matches_mpmath_normal_equations(n_points, span_fringes, seed):
    scan = make_scan(
        n_points=n_points, span_fringes=span_fringes, n_atoms=1_000, seed=seed
    )
    x = scan_phase(scan)
    _, _, psi0, _, sigma_psi0 = _fit_fringe(x, scan.measured)
    psi0_mp, sigma_mp = mp_fit(x, scan.measured)
    assert abs(psi0 - psi0_mp) <= 4e-15
    assert abs(sigma_psi0 - sigma_mp) <= 1e-13 * sigma_mp


@pytest.mark.parametrize("x0", [0.0, 1.0, math.pi / 4, -2.2])
def test_degenerate_design_fails(x0):
    # Equal phases make the columns of [1, cos x, sin x] dependent; some
    # Gram matrices are then exactly singular, the others only to rounding.
    y = np.linspace(0.1, 0.9, 50)
    with pytest.raises(FitFailureError, match="singular"):
        _fit_fringe(np.full(y.size, x0), y)


def test_ill_conditioned_gram_fails_the_condition_test():
    # Orthogonal columns of norms 1, 1 and 1e-8: det(G) = 1e-16 passes the
    # determinant test by 15 orders, but trace(G) trace(adj G) / det(G) =
    # 2e16 exceeds 1 / (n eps) = 1.5e15.
    with pytest.raises(FitFailureError, match="singular to rounding"):
        _gram_adjugate(np.diag([1.0, 1.0, 1e-16]), 3)


def test_noiseless_wide_scan_recovers_g():
    big_t = 0.1
    scan = make_scan(big_t=big_t, span_fringes=200.0, n_points=20_000)
    est = estimate_g(scan, K_EFF, big_t)
    assert abs(est.g_hat - G_TRUE) / G_TRUE < 1e-9


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s: simulate_scan(s.betas, K_EFF, G_TRUE, 0.1, dphi_laser=math.nan),
        lambda s: dataclasses.replace(
            s, measured=np.where(np.arange(s.betas.size) == 7, math.nan, s.measured)
        ),
        lambda s: dataclasses.replace(
            s, betas=np.where(np.arange(s.betas.size) == 7, math.inf, s.betas)
        ),
        lambda s: dataclasses.replace(s, betas=np.full(s.betas.size, math.nan)),
    ],
    ids=["nan-laser-phase", "nan-fraction", "inf-chirp-rate", "all-nan-chirp-rates"],
)
def test_non_finite_scan_fails_the_fit(corrupt):
    # Without the check a NaN laser phase gave g_hat = sigma_g = nan.
    scan = corrupt(make_scan())
    with pytest.raises(FitFailureError, match="non-finite"):
        estimate_g(scan, K_EFF, 0.1)
    with pytest.raises(FitFailureError, match="non-finite"):
        estimate_g_dual(scan, 0.1, make_scan(big_t=0.07), 0.07, K_EFF)


@pytest.mark.parametrize("level", [0.0, 0.5])
def test_fit_without_contrast_fails(level):
    x = scan_phase(make_scan())
    with pytest.raises(FitFailureError):
        _fit_fringe(x, np.full(x.size, level))
