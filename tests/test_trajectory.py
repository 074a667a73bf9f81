"""Tests for free-fall actions, diamond vertices, and phase combinations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravsim.core import DEFAULT_K_EFF, HBAR, RB87_MASS
from gravsim.errors import TimeOrderError
from gravsim.trajectory import (
    FreeFallTrajectory,
    TrajectoryVertices,
    action_quadrature_oracle,
    boundary_velocity,
    build_vertices,
    chirped_phase,
    classical_action,
    laser_phase_sum,
    path_phase,
    total_phase,
)

GRAVITIES = (0.0, 1.62, 9.81)
BIG_TS = (0.010, 0.100)


# ---------------------------------------------------------------------------
# Trajectories and actions
# ---------------------------------------------------------------------------


def test_trajectory_initial_conditions_and_kinematics():
    tr = FreeFallTrajectory(z1=1.5, v1=-0.3, t1=2.0, g=9.81)
    assert tr.position(2.0) == 1.5
    assert tr.velocity(2.0) == -0.3
    # Finite-difference velocity agrees with the analytic derivative.
    eps = 1e-6
    num = (tr.position(2.5 + eps) - tr.position(2.5 - eps)) / (2.0 * eps)
    assert num == pytest.approx(tr.velocity(2.5), rel=1e-8)


def test_boundary_velocity_hits_both_endpoints():
    z1, t1, z2, t2, g = 0.2, 0.0, -0.4, 0.3, 9.81
    v1 = boundary_velocity(z1, t1, z2, t2, g)
    tr = FreeFallTrajectory(z1=z1, v1=v1, t1=t1, g=g)
    assert tr.position(t2) == pytest.approx(z2, abs=1e-15)


def test_classical_action_closed_form_second_path():
    # [DERIVED: independent re-evaluation of the three terms in the test]
    m, g = RB87_MASS, 9.81
    z1, t1, z2, t2 = 0.05, 0.0, -0.12, 0.15
    dt = t2 - t1
    expected = (
        m * (z2 - z1) ** 2 / (2.0 * dt)
        - m * g * dt * (z2 + z1) / 2.0
        - m * g * g * dt**3 / 24.0
    )
    assert classical_action(z1, t1, z2, t2, m, g) == pytest.approx(expected, rel=1e-15)


def test_classical_action_time_order_guard():
    with pytest.raises(TimeOrderError):
        classical_action(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(TimeOrderError):
        action_quadrature_oracle(0.0, 1.0, 1.0, 0.5)
    # NaN fails every comparison, so each check must be a positive one.
    for bad in (math.nan, math.inf, -math.inf):
        for t1, t2 in ((bad, 1.0), (0.0, bad)):
            for fn in (classical_action, action_quadrature_oracle):
                with pytest.raises(TimeOrderError, match="finite t2 > t1"):
                    fn(0.0, t1, 1.0, t2)
            with pytest.raises(TimeOrderError, match="finite t2 > t1"):
                boundary_velocity(0.0, t1, 1.0, t2, 9.81)


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(1e-3, 0.5),
    st.sampled_from(GRAVITIES),
)
@settings(max_examples=100, deadline=None)
def test_action_closed_form_matches_quadrature(z1, z2, dt, g):
    closed = classical_action(z1, 0.0, z2, dt, RB87_MASS, g)
    quad = action_quadrature_oracle(z1, 0.0, z2, dt, RB87_MASS, g)
    scale = max(abs(closed), RB87_MASS)  # actions can cross zero
    assert abs(closed - quad) <= 1e-9 * scale


def test_action_additive_along_true_path():
    # Splitting at any intermediate point of the actual trajectory must not
    # change the total action.
    z1, t1, z2, t2, g = 0.3, 0.1, -0.6, 0.55, 9.81
    v1 = boundary_velocity(z1, t1, z2, t2, g)
    tmid = 0.32
    zmid = FreeFallTrajectory(z1=z1, v1=v1, t1=t1, g=g).position(tmid)
    total = classical_action(z1, t1, z2, t2, RB87_MASS, g)
    split = classical_action(z1, t1, zmid, tmid, RB87_MASS, g) + classical_action(
        zmid, tmid, z2, t2, RB87_MASS, g
    )
    assert split == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# Diamond vertices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", GRAVITIES)
@pytest.mark.parametrize("big_t", BIG_TS)
def test_vertex_sag_identities(g, big_t):
    v = build_vertices(z0=0.02, v0=0.15, big_t=big_t, g=g)
    free = build_vertices(z0=0.02, v0=0.15, big_t=big_t, g=0.0)
    sag = 0.5 * g * big_t * big_t
    # Gravity displaces the mirror-pulse vertices by g T^2 / 2 and the
    # recombination vertex by 2 g T^2 (tolerances at the few-ulp level of
    # the vertex heights themselves).
    assert free.z_c - v.z_c == pytest.approx(sag, rel=1e-12, abs=1e-16)
    assert free.z_d - v.z_d == pytest.approx(sag, rel=1e-12, abs=1e-16)
    assert free.z_b - v.z_b == pytest.approx(4.0 * sag, rel=1e-12, abs=1e-16)


@pytest.mark.parametrize("g", GRAVITIES)
@pytest.mark.parametrize("big_t", BIG_TS)
def test_vertex_closure_identities(g, big_t):
    v = build_vertices(z0=0.02, v0=0.15, big_t=big_t, g=g)
    # Gravity-free diamond is a parallelogram.
    free = build_vertices(z0=0.02, v0=0.15, big_t=big_t, g=0.0)
    assert free.z_c + free.z_d - free.z_a - free.z_b == pytest.approx(0.0, abs=1e-15)
    # With gravity the combination equals g T^2 (relative to its scale).
    combo = v.z_c + v.z_d - v.z_a - v.z_b
    expected = g * big_t * big_t
    if g == 0.0:
        assert combo == pytest.approx(0.0, abs=1e-15)
    else:
        assert combo == pytest.approx(expected, rel=1e-12)


def test_both_arms_close_at_recombination():
    # Propagating each arm segment-by-segment lands on the same z_b.
    z0, v0, big_t, g = 0.0, 0.1, 0.08, 9.81
    v_r = HBAR * DEFAULT_K_EFF / RB87_MASS
    upper_mid = FreeFallTrajectory(z1=z0, v1=v0 + v_r, t1=0.0, g=g)
    z_c = upper_mid.position(big_t)
    upper_end = FreeFallTrajectory(
        z1=z_c, v1=upper_mid.velocity(big_t) - v_r, t1=big_t, g=g
    )
    lower_mid = FreeFallTrajectory(z1=z0, v1=v0, t1=0.0, g=g)
    z_d = lower_mid.position(big_t)
    lower_end = FreeFallTrajectory(
        z1=z_d, v1=lower_mid.velocity(big_t) + v_r, t1=big_t, g=g
    )
    v = build_vertices(z0=z0, v0=v0, big_t=big_t, g=g)
    assert upper_end.position(2.0 * big_t) == pytest.approx(v.z_b, abs=1e-15)
    assert lower_end.position(2.0 * big_t) == pytest.approx(v.z_b, abs=1e-15)
    assert z_c == pytest.approx(v.z_c, abs=1e-15)
    assert z_d == pytest.approx(v.z_d, abs=1e-15)


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", GRAVITIES)
@pytest.mark.parametrize("big_t", BIG_TS)
def test_path_phase_vanishes_on_closed_diamond(g, big_t):
    v = build_vertices(z0=0.02, v0=0.15, big_t=big_t, g=g)
    assert abs(path_phase(v, big_t, g=g)) < 1e-9


def test_path_phase_first_order_sensitivity():
    # [DERIVED] perturbing the recombination vertex by eps changes the phase
    # by -(m / (T hbar)) (z_c - z_d) eps.
    # eps is chosen large enough that the closure identity's few-ulp
    # roundoff (~1e-18 on these vertex sums) is negligible against it; the
    # phase formula is exactly linear in the perturbation.
    big_t, g, eps = 0.05, 9.81, 1e-9
    v = build_vertices(z0=0.0, v0=0.1, big_t=big_t, g=g)
    perturbed = TrajectoryVertices(z_a=v.z_a, z_b=v.z_b + eps, z_c=v.z_c, z_d=v.z_d)
    expected = -(RB87_MASS / (big_t * HBAR)) * (v.z_c - v.z_d) * eps
    assert path_phase(perturbed, big_t, g=g) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("g", GRAVITIES)
def test_laser_phase_sum_recovers_gravity_signal(g):
    big_t = 0.1
    phases = (0.2, -0.4, 0.9)
    v = build_vertices(z0=0.01, v0=0.2, big_t=big_t, g=g)
    got = laser_phase_sum(v, phases)
    expected = DEFAULT_K_EFF * g * big_t * big_t + (0.2 + 0.8 + 0.9)
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-9)


def test_total_phase_worked_value():
    # [PAPER] k_eff = 1.61e7 rad/m, g = 9.81 m/s^2, T = 100 ms
    value = total_phase(0.1, k_eff=1.61e7, g=9.81)
    assert value == pytest.approx(1.579410e6, rel=1e-6)
    # Laser phases ride on top unchanged.
    assert total_phase(0.1, 1.61e7, 9.81, (0.1, 0.2, 0.3)) == pytest.approx(
        1.579410e6 + 0.1 - 0.4 + 0.3, rel=1e-9
    )


def test_chirped_phase_null_condition():
    g, big_t = 9.81, 0.1
    beta_null = DEFAULT_K_EFF * g
    # At the null chirp only the programmed laser phase remains.
    assert chirped_phase(beta_null, DEFAULT_K_EFF, g, big_t, 0.7) == pytest.approx(
        0.7, abs=1e-9
    )
    # Away from the null the phase grows as (beta - k g) T^2.
    off = 2.0 * math.pi * 25.0 / (big_t * big_t)
    assert chirped_phase(beta_null + off, DEFAULT_K_EFF, g, big_t) == pytest.approx(
        2.0 * math.pi * 25.0, rel=1e-12
    )


@pytest.mark.parametrize("beta", [0.0, 1e6, DEFAULT_K_EFF * 9.81, -3e8])
@pytest.mark.parametrize("big_t, dphi", [(0.1, 0.3), (0.01, -2.0), (0.5, 0.0)])
def test_chirped_and_total_phase_signs(beta, big_t, dphi):
    # Gravity enters total_phase as +k g T^2 and chirped_phase as -k g T^2,
    # so the sum cancels it: chirped_phase(beta) + total_phase = beta T^2 +
    # 2 dphi_laser.  At T = 0.1 s and dphi = 0.3 they read 1579410.3 and
    # -1579409.7 at beta = 0.
    g = 9.81
    total = total_phase(big_t, DEFAULT_K_EFF, g, (dphi, 0.0, 0.0))
    chirped = chirped_phase(beta, DEFAULT_K_EFF, g, big_t, dphi)
    scale = (DEFAULT_K_EFF * g + abs(beta)) * big_t * big_t
    assert chirped + total == pytest.approx(
        beta * big_t * big_t + 2.0 * dphi, abs=1e-15 * scale
    )
    assert total - dphi == pytest.approx(DEFAULT_K_EFF * g * big_t * big_t, rel=1e-15)


def test_phase_functions_guard_time_order():
    v = build_vertices(z0=0.0, v0=0.1, big_t=0.05)
    with pytest.raises(TimeOrderError):
        build_vertices(0.0, 0.1, -0.01)
    with pytest.raises(TimeOrderError):
        path_phase(v, 0.0)
    with pytest.raises(TimeOrderError):
        total_phase(0.0)
    with pytest.raises(TimeOrderError):
        chirped_phase(0.0, big_t=-1.0)
    # NaN fails every comparison, so each check must be a positive one.
    for bad in (math.nan, math.inf):
        with pytest.raises(TimeOrderError, match="finite big_t > 0"):
            build_vertices(0.0, 0.1, bad)
        with pytest.raises(TimeOrderError, match="finite big_t > 0"):
            path_phase(v, bad)
        with pytest.raises(TimeOrderError, match="finite big_t > 0"):
            total_phase(bad)
        with pytest.raises(TimeOrderError, match="finite big_t > 0"):
            chirped_phase(1.0, big_t=bad)
