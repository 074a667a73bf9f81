"""Tests for sensitivity functions, spectral integrals, synthesis, and Allan
statistics.

Oracle strategy:
* piecewise sensitivity values at hand-picked points where the trig collapses
  to exact constants;
* the closed-form acceleration weight against a dense numeric cumulative
  integral of the sensitivity function (two independent paths);
* the transfer function against an in-test dense trapezoid of
  g_s(t) e^{-i omega t}, against 50-digit mpmath values of the five
  segment integrals, and against the thin-pulse closed form;
* PSD integrals against narrowband concentration limits, against a
  pulse-pair lag form in the time domain, and against time-domain
  Monte-Carlo with frozen seeds; the Gauss-Legendre rules against
  monomials and numpy's leggauss;
* Allan estimators against hand-evaluated block arithmetic, slope laws
  for white and random-walk noise, and direct block-sum (reduceat) and
  running-mean (convolve) forms.
"""

import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import cumulative_trapezoid, simpson
from scipy.signal import periodogram
from scipy.special import spherical_jn

import gravsim
from gravsim.core import PulseParams, TwoLevelState, _pulse_edges
from gravsim.errors import (
    CoverageError,
    DataFormatError,
    InsufficientDataError,
    ResolutionError,
)
from gravsim.noise import (
    AllanResult,
    Psd,
    SensitivityProfile,
    TimeSeries,
    _ALLAN_BLOCK,
    _allan_work,
    _band_phases,
    _bins,
    _centred_prefix_sum,
    _PANEL_ORDERS,
    _PANEL_SIZES,
    _gauss_legendre,
    _panel_rule,
    _second_difference_power,
    _smooth_length,
    _window_transform,
    acceleration_phase,
    allan_deviation,
    allan_deviation_overlapping,
    allan_from_acceleration_psd,
    dc_phase_response,
    monte_carlo_phase_variance,
    monte_carlo_vibration_allan,
    phase_variance_from_psd,
    read_psd_csv,
    read_series_csv,
    sensitivity_a,
    sensitivity_g,
    synthesize_noise,
    synthesize_noise_with_derivative,
    transfer_function,
    write_allan_csv,
    write_psd_csv,
    write_series_csv,
)
from gravsim.twolevel import evolve_pulse

SQ2 = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# Profile and sensitivity function
# ---------------------------------------------------------------------------


class TestSensitivityProfile:
    def test_pi_pulse_condition_enforced(self):
        # The Rabi rate is derived, never stored, so it cannot disagree.
        for tau_p in (0.01, 1e-5, 1e-9, 3e-300):
            profile = SensitivityProfile.from_tau_p(big_t=0.1, tau_p=tau_p)
            assert profile.omega_r == math.pi / tau_p
        assert [f.name for f in dataclasses.fields(profile)] == ["big_t", "tau_p"]

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="big_t > tau_p"):
            SensitivityProfile.from_tau_p(big_t=0.01, tau_p=0.02)
        with pytest.raises(ValueError, match="big_t > tau_p"):
            SensitivityProfile.from_tau_p(big_t=0.01, tau_p=-1.0)
        with pytest.raises(ValueError, match="big_t > tau_p"):
            SensitivityProfile.from_tau_p(big_t=0.01, tau_p=0.0)
        # pi / tau_p overflows to inf below about 1.7e-308, the span
        # 2 (big_t + tau_p) above about 9e307, and their product here.
        for big_t, tau_p in ((0.1, 1e-310), (1e308, 1e-5), (1e300, 2.3e-308)):
            with pytest.raises(ValueError, match="finite pi/tau_p and a finite "
                               "Rabi phase"):
                SensitivityProfile.from_tau_p(big_t=big_t, tau_p=tau_p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, bad):
        # NaN fails every comparison, so each check must be a positive one.
        with pytest.raises(ValueError, match="finite big_t > tau_p"):
            SensitivityProfile.from_tau_p(big_t=bad, tau_p=1e-5)
        with pytest.raises(ValueError, match="finite big_t > tau_p"):
            SensitivityProfile.from_tau_p(big_t=0.1, tau_p=bad)
        with pytest.raises(ValueError, match="finite big_t > tau_p"):
            SensitivityProfile(big_t=bad, tau_p=1e-5)

    def test_span_and_center(self):
        p = SensitivityProfile.from_tau_p(big_t=0.1, tau_p=0.01)
        assert p.span == pytest.approx(0.22, rel=1e-15)
        assert p.t_mid == pytest.approx(0.11, rel=1e-15)


class TestSensitivityG:
    profile = SensitivityProfile.from_tau_p(big_t=0.1, tau_p=0.01)

    @pytest.mark.parametrize(
        "t, expected",
        [
            (0.0, 0.0),  # rises from zero at the first pulse edge
            (0.0025, -SQ2),  # quarter through the first ramp: -sin(pi/4)
            (0.005, -1.0),  # end of first pulse joins the dark value
            (0.05, -1.0),  # first dark interval
            (0.105, -1.0),  # mirror pulse entry continuous with dark
            (0.11, 0.0),  # center of the mirror pulse crosses zero
            (0.115, 1.0),  # mirror pulse exit joins the second dark value
            (0.16, 1.0),  # second dark interval
            (0.2175, SQ2),  # quarter from the end: +sin(pi/4)
            (0.22, 0.0),  # falls to zero at the last pulse edge
            (-0.01, 0.0),  # outside
            (0.25, 0.0),  # outside
        ],
    )
    def test_piecewise_values(self, t, expected):
        assert sensitivity_g(np.array([t]), self.profile)[0] == pytest.approx(
            expected, abs=1e-12
        )

    def test_odd_about_center(self):
        u = np.linspace(0.0, 0.11, 2001)
        left = sensitivity_g(self.profile.t_mid - u, self.profile)
        right = sensitivity_g(self.profile.t_mid + u, self.profile)
        np.testing.assert_allclose(right, -left, atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(big_t=st.floats(0.01, 0.5), ratio=st.floats(1e-5, 0.9))
    def test_odd_about_center_to_rounding(self, big_t, ratio):
        # g_s(t_mid + u) = -g_s(t_mid - u) over the whole sequence.  Rounding
        # t_mid +- u moves each time by up to half an ulp of the span, which
        # slope omega_r turns into omega_r span 2^-53; the phase arguments
        # and the trig add a few eps.  (T = 0.1 s, tau_p = 0.01 s: 4.4e-15
        # measured over 10,001 points, within a bound of 1.6e-14.)
        profile = SensitivityProfile(big_t, ratio * big_t)
        u = np.linspace(0.0, 0.5 * profile.span, 10_001)
        left = sensitivity_g(profile.t_mid - u, profile)
        right = sensitivity_g(profile.t_mid + u, profile)
        bound = (profile.omega_r * profile.span + 4.0) * 2.0**-52
        assert np.max(np.abs(right + left)) <= bound

    def test_integrates_to_zero(self):
        t = np.linspace(0.0, self.profile.span, 40001)
        total = simpson(sensitivity_g(t, self.profile), x=t)
        assert abs(total) < 1e-10

    def test_scalar_input(self):
        val = sensitivity_g(0.05, self.profile)
        assert isinstance(val, float)
        assert val == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        # Such a time lies in no segment, and once read 0.0.
        for three_segment in (False, True):
            with pytest.raises(ValueError, match="t must be finite"):
                sensitivity_g(bad, self.profile, three_segment)
            with pytest.raises(ValueError, match="t must be finite"):
                sensitivity_g(np.array([0.05, bad]), self.profile, three_segment)


class TestSensitivityGByDefinition:
    """g_s(t) is twice the response of the exit probability, at mid-fringe,
    to a laser phase jump at time t (Cheinet et al., IEEE Trans. Instrum.
    Meas. 57, 1141 (2008)).

    The three pulses start at edges 0, 2 and 4 of ``core._pulse_edges`` and
    go through the closed-form ``twolevel.evolve_pulse``.  The pulse that
    contains t is split there, and every piece after t carries the jump; no
    segment formula enters.  The three-segment comparison shape is not the
    response of any pi/2 -- pi -- pi/2 sequence, so it has no such check.
    """

    JUMP = 1e-5

    @staticmethod
    def _exit_probability(big_t, tau_p, t, jump, last_phase):
        edges = _pulse_edges(big_t, tau_p)
        pulses = [(edges[0], 0.5 * tau_p, 0.0), (edges[2], tau_p, 0.0),
                  (edges[4], 0.5 * tau_p, last_phase)]
        pieces = []
        for start, duration, phase in pulses:
            if t <= start:
                pieces.append((start, duration, phase + jump))
            elif t < start + duration:
                pieces.append((start, t - start, phase))
                pieces.append((t, start + duration - t, phase + jump))
            else:
                pieces.append((start, duration, phase))
        state = TwoLevelState.ground()
        for start, duration, phase in pieces:
            state = evolve_pulse(state, PulseParams(
                rabi_mod=math.pi / tau_p, detuning=0.0, duration=duration,
                laser_phase=phase, start_time=start,
            ))
        return abs(state.c_b) ** 2

    @pytest.mark.parametrize(
        "big_t, tau_p", [(0.05, 0.005), (0.1, 1e-5), (0.02, 5e-4)]
    )
    def test_phase_jump_response_is_sensitivity_g(self, big_t, tau_p):
        profile = SensitivityProfile.from_tau_p(big_t=big_t, tau_p=tau_p)
        times = np.linspace(0.0, profile.span, 501)
        g_s = sensitivity_g(times, profile)
        # The last phase sets mid-fringe on either slope; at -pi/2 the
        # response, and so g_s, changes sign.
        for last_phase, sign in ((0.5 * math.pi, 1.0), (-0.5 * math.pi, -1.0)):
            # 2 dP/dphi by central difference in the jump.
            response = np.array([
                (self._exit_probability(big_t, tau_p, t, self.JUMP, last_phase)
                 - self._exit_probability(big_t, tau_p, t, -self.JUMP, last_phase))
                / self.JUMP
                for t in times
            ])
            np.testing.assert_allclose(response, sign * g_s, rtol=0.0, atol=1e-9)


class TestSensitivityGThreeSegment:
    profile = SensitivityProfile.from_tau_p(big_t=0.1, tau_p=0.01)

    @pytest.mark.parametrize(
        "t, expected",
        [
            (0.0225, SQ2),  # sin(omega_r t) branch, omega_r t = 2.25 pi
            (0.07, 1.0),  # plateau
            (0.1625, SQ2),  # sin(omega_r (t - T)) branch
            (0.21, 0.0),  # outside the 2T window
            (-0.01, 0.0),
        ],
    )
    def test_piecewise_values(self, t, expected):
        got = sensitivity_g(np.array([t]), self.profile, three_segment=True)[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_not_dc_rejecting(self):
        # The plateau is all +1, so the integral is near T, not zero: this
        # variant does not reject constant phase drifts.
        t = np.linspace(0.0, 2.0 * self.profile.big_t, 40001)
        total = simpson(sensitivity_g(t, self.profile, three_segment=True), x=t)
        assert total > 0.05


class TestSegmentEdges:
    """g_s at every segment edge, where each segment owns its right edge."""

    @pytest.mark.parametrize(
        "big_t, tau_p", [(0.1, 0.01), (0.1, 1e-5), (0.08, 0.012), (0.1, 1e-9)]
    )
    def test_default_shape_edge_values_bit_for_bit(self, big_t, tau_p):
        # Both sides of every default edge meet, so these pin the values and
        # the signs of the two zeros the piecewise formulas give.
        profile = SensitivityProfile.from_tau_p(big_t=big_t, tau_p=tau_p)
        a = 0.5 * tau_p
        edges = np.array(
            [0.0, a, a + big_t, 3.0 * a + big_t, 3.0 * a + 2.0 * big_t, profile.span]
        )
        got = sensitivity_g(edges, profile)
        expected = np.array([-0.0, -1.0, -1.0, 1.0, 1.0, 0.0])
        assert got.tobytes() == expected.tobytes()

    def test_three_segment_edges_take_the_earlier_segment(self):
        # omega_r T / 2 = 10 pi / 3: the ramps end at sin(10 pi / 3) and
        # sin(20 pi / 3), far from the plateau's 1 and the outside 0.
        big_t = 0.08
        profile = SensitivityProfile.from_tau_p(big_t=big_t, tau_p=0.012)
        edges = np.array([0.0, 0.5 * big_t, 1.5 * big_t, 2.0 * big_t])
        got = sensitivity_g(edges, profile, three_segment=True)
        expected = [0.0, -math.sqrt(0.75), 1.0, math.sqrt(0.75)]
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


class TestMirrorPulseArgument:
    """g_s and w inside the mirror pulse against the exact ``t - T - a``.

    Subtracting the rounded ``T + a`` in one step errs by up to ulp(T)/2 in
    the argument, which omega_r scales to ~1e-12 in g_s at the CLI defaults
    and ~1e-9 at tau_p = 1 ns.  Fractions form the argument exactly here.
    """

    @pytest.mark.parametrize("tau_p", [1e-5, 1e-9])
    def test_matches_exact_argument(self, tau_p):
        big_t = 0.1
        profile = SensitivityProfile.from_tau_p(big_t=big_t, tau_p=tau_p)
        w = profile.omega_r
        a = 0.5 * tau_p
        t = np.linspace(a + big_t, 3.0 * a + big_t, 2001)
        x = [float(Fraction(ti) - Fraction(big_t) - Fraction(a)) for ti in t]
        g_exact = np.array([-math.cos(w * xi) for xi in x])
        w_exact = np.array([1.0 / w + big_t + math.sin(w * xi) / w for xi in x])
        np.testing.assert_allclose(
            sensitivity_g(t, profile), g_exact, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            sensitivity_a(t, profile, k_eff=1.0), w_exact, rtol=0.0, atol=1e-12
        )


class TestAccelerationWeight:
    profile = SensitivityProfile.from_tau_p(big_t=0.08, tau_p=0.012)

    def test_closed_form_matches_numeric_cumulative_integral(self):
        # Second path: w(t) = integral_t^span g_s computed by dense
        # cumulative trapezoid of the sampled sensitivity function.
        span = self.profile.span
        t = np.linspace(0.0, span, 160001)
        gs = sensitivity_g(t, self.profile)
        cum = cumulative_trapezoid(gs, t, initial=0.0)
        w_numeric = cum[-1] - cum
        w_closed = sensitivity_a(t, self.profile, k_eff=1.0)
        np.testing.assert_allclose(w_closed, w_numeric, atol=1e-10)

    def test_boundary_values(self):
        assert sensitivity_a(0.0, self.profile, k_eff=1.0) == pytest.approx(
            0.0, abs=1e-15
        )
        assert sensitivity_a(self.profile.span, self.profile, k_eff=1.0) == (
            pytest.approx(0.0, abs=1e-15)
        )

    def test_linear_through_dark_interval(self):
        # Between pulses the weight grows linearly with unit slope.
        a = 0.5 * self.profile.tau_p
        x = np.array([0.0, 0.013, 0.04])
        got = sensitivity_a(a + x, self.profile, k_eff=1.0)
        np.testing.assert_allclose(
            got, 1.0 / self.profile.omega_r + x, rtol=1e-14, atol=1e-16
        )

    def test_k_eff_scaling(self):
        t = np.array([0.02, 0.05])
        one = sensitivity_a(t, self.profile, k_eff=1.0)
        scaled = sensitivity_a(t, self.profile, k_eff=1.61e7)
        np.testing.assert_allclose(scaled, 1.61e7 * one, rtol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        # Such a time lies in no segment, and once read 0.0.
        with pytest.raises(ValueError, match="t must be finite"):
            sensitivity_a(bad, self.profile)
        with pytest.raises(ValueError, match="t must be finite"):
            sensitivity_a(np.array([0.05, bad]), self.profile)


class TestDcResponse:
    def test_matches_closed_form_gain(self):
        # [DERIVED] integral of the closed-form weight over the sequence:
        #   T^2 + tau_p T (1 + 2/pi) + 2 tau_p^2/pi
        profile = SensitivityProfile.from_tau_p(big_t=0.08, tau_p=0.012)
        t_, tau = 0.08, 0.012
        expected = t_**2 + tau * t_ * (1.0 + 2.0 / math.pi) + 2.0 * tau**2 / math.pi
        got = dc_phase_response(profile, k_eff=1.0, a0=1.0)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_thin_pulse_limit_is_t_squared(self):
        profile = SensitivityProfile.from_tau_p(big_t=0.1, tau_p=1e-9)
        got = dc_phase_response(profile, k_eff=1.61e7, a0=9.81)
        assert got == pytest.approx(1.61e7 * 9.81 * 0.1**2, rel=1e-6)

    @pytest.mark.parametrize(
        "big_t, tau_p",
        [(0.05, 0.005), (0.1, 1e-5), (0.02, 5e-4), (0.1, 1e-9), (0.08, 0.012)],
    )
    def test_matches_mpmath_quadrature(self, big_t, tau_p):
        # integral t g_s dt by 40-digit tanh-sinh quadrature of each piece
        # of the shape in sensitivity_g's docstring, with the exact Rabi
        # rate pi / tau_p.  Measured gap: at most 8.4e-17 relative.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            big, a = mp.mpf(big_t), mp.mpf(tau_p) / 2
            w, span = mp.pi / (2 * a), 2 * big + 4 * a
            pieces = [
                (lambda t: -mp.sin(w * t), 0, a),
                (lambda t: -1, a, a + big),
                (lambda t: -mp.cos(w * (t - big - a)), a + big, 3 * a + big),
                (lambda t: 1, 3 * a + big, 3 * a + 2 * big),
                (lambda t: mp.sin(w * (span - t)), 3 * a + 2 * big, span),
            ]
            expected = float(sum(mp.quad(lambda t: t * f(t), [lo, hi])
                                 for f, lo, hi in pieces))
        profile = SensitivityProfile.from_tau_p(big_t=big_t, tau_p=tau_p)
        got = dc_phase_response(profile, k_eff=1.0, a0=1.0)
        assert got == pytest.approx(expected, rel=2.2e-16, abs=0.0)


class TestAccelerationPhase:
    profile = SensitivityProfile.from_tau_p(big_t=0.08, tau_p=0.012)

    @pytest.mark.parametrize("t_start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, t_start):
        # A NaN or infinite window holds no sample, so the phase would read 0.
        accel = TimeSeries(samples=np.full(100, 2.5), dt=1e-3)
        with pytest.raises(ValueError, match="t_start must be finite"):
            acceleration_phase(accel, self.profile, t_start=t_start)

    def test_constant_acceleration_matches_dc_response(self):
        dt = 1e-5
        n = int(round((self.profile.span + 0.02) / dt))
        accel = TimeSeries(samples=np.full(n, 2.5), dt=dt, t0=-0.01)
        got = acceleration_phase(accel, self.profile, k_eff=1.61e7)
        expected = dc_phase_response(self.profile, k_eff=1.61e7, a0=2.5)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_window_start_offset(self):
        dt = 1e-5
        n = int(round((self.profile.span + 0.02) / dt))
        accel = TimeSeries(samples=np.full(n, 2.5), dt=dt, t0=5.0 - 0.01)
        shifted = acceleration_phase(accel, self.profile, k_eff=1.61e7, t_start=5.0)
        accel0 = TimeSeries(samples=np.full(n, 2.5), dt=dt, t0=-0.01)
        assert shifted == pytest.approx(
            acceleration_phase(accel0, self.profile, k_eff=1.61e7), rel=1e-12
        )


# ---------------------------------------------------------------------------
# Transfer function
# ---------------------------------------------------------------------------


def _mp_transfer(omega: float, profile: SensitivityProfile) -> float:
    """|G(omega)| from the five segment integrals of g_s, at 50 digits.

    Written from the piecewise shape in ``sensitivity_g``'s docstring with
    the profile's own (binary) T, tau_p and omega_r, each integral in closed
    form: ``integral_lo^hi e^{i kappa t} dt``, and ``hi - lo`` at kappa = 0.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        om, w = mp.mpf(omega), mp.mpf(profile.omega_r)
        big_t, a = mp.mpf(profile.big_t), mp.mpf(profile.tau_p) / 2
        span = 2 * big_t + 4 * a

        def e(kappa, lo, hi):  # integral_lo^hi e^{i kappa t} dt
            if kappa == 0:
                return hi - lo
            return (mp.expj(kappa * hi) - mp.expj(kappa * lo)) / (1j * kappa)

        def sin_cos(ref, lo, hi):
            # integrals of sin and cos of w (t - ref) against e^{-i om t}
            up = mp.expj(-w * ref) * e(w - om, lo, hi)
            down = mp.expj(w * ref) * e(-w - om, lo, hi)
            return (up - down) / 2j, (up + down) / 2

        g = (
            -sin_cos(0, 0, a)[0]
            - e(-om, a, a + big_t)
            - sin_cos(big_t + a, a + big_t, 3 * a + big_t)[1]
            + e(-om, 3 * a + big_t, 3 * a + 2 * big_t)
            - sin_cos(span, 3 * a + 2 * big_t, span)[0]
        )
        return float(abs(g))


def transfer_function_square_profile(omega, big_t):
    """Thin-pulse (square g_s) transfer magnitude ``(4/omega) sin^2(omega T/2)``.

    The ``omega -> 0`` limit is zero (DC rejection)."""
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.zeros_like(omega_arr)
    nz = omega_arr != 0.0
    out[nz] = 4.0 / omega_arr[nz] * np.sin(0.5 * omega_arr[nz] * big_t) ** 2
    return out if np.ndim(omega) else float(out[0])


class TestTransferFunction:
    @pytest.mark.parametrize(
        "big_t, tau_p", [(0.1, 1e-5), (0.05, 5e-3), (0.02, 5e-4), (0.1, 1e-9)]
    )
    def test_matches_mpmath_segment_integrals(self, big_t, tau_p):
        # The closed product form against the segment integrals it replaces:
        # at DC, below and at the fringe scale, around and at the Rabi rate
        # (where the product's 0/0 is rewritten away), far above it, and on
        # the CLI's 79-point table, to 1e-15 of the peak |G|.  G(0) is exactly
        # 0 in the product form.
        profile = SensitivityProfile.from_tau_p(big_t=big_t, tau_p=tau_p)
        w = profile.omega_r
        special = [0.0, 313.0, 2.0 * math.pi / big_t, 0.5 * w, w,
                   w * (1.0 + 1e-9), w * (1.0 - 1e-9), 2.0 * w, 50.0 * w]
        omega = np.concatenate(
            [special, 2.0 * math.pi * np.linspace(0.1, 4.0, 79) / big_t]
        )
        got = transfer_function(omega, profile)
        assert got[0] == 0.0 and transfer_function(0.0, profile) == 0.0
        expected = np.array([_mp_transfer(o, profile) for o in omega])
        np.testing.assert_allclose(got, expected, rtol=0.0,
                                   atol=1e-15 * expected.max())

    def test_matches_dense_quadrature_oracle(self):
        # Independent second path: dense trapezoid of g_s e^{-i omega t}.
        profile = SensitivityProfile.from_tau_p(big_t=0.07, tau_p=0.004)
        omega = 987.0
        t = np.linspace(0.0, profile.span, 2_000_001)
        gs = sensitivity_g(t, profile)
        brute = abs(np.trapezoid(gs * np.exp(-1j * omega * t), t))
        got = transfer_function(np.array([omega]), profile)[0]
        assert got == pytest.approx(brute, rel=1e-4)

    def test_three_segment_matches_dense_quadrature(self):
        profile = SensitivityProfile.from_tau_p(big_t=0.07, tau_p=0.004)
        omega = 987.0
        t = np.linspace(0.0, 2.0 * profile.big_t, 2_000_001)
        gs = sensitivity_g(t, profile, three_segment=True)
        brute = abs(np.trapezoid(gs * np.exp(-1j * omega * t), t))
        got = transfer_function(np.array([omega]), profile, three_segment=True)[0]
        assert got == pytest.approx(brute, rel=1e-4)

    def test_thin_pulse_limit_matches_square_profile(self):
        big_t = 0.1
        profile = SensitivityProfile.from_tau_p(big_t=big_t, tau_p=1e-8)
        omega = 2.0 * math.pi * np.array([0.3, 0.7, 1.3, 2.6]) / big_t
        got = transfer_function(omega, profile)
        expected = transfer_function_square_profile(omega, big_t)
        np.testing.assert_allclose(got, expected, rtol=2e-5)

    def test_zero_at_fringe_harmonic(self):
        # At omega T = 2 pi the square-profile response has an exact null.
        big_t = 0.1
        profile = SensitivityProfile.from_tau_p(big_t=big_t, tau_p=1e-8)
        got = transfer_function(2.0 * math.pi / big_t, profile)
        assert got < 1e-4 * big_t

    def test_dc_is_zero(self):
        profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
        assert transfer_function(0.0, profile) == pytest.approx(0.0, abs=1e-12)
        assert transfer_function_square_profile(0.0, 0.05) == 0.0

    def test_matches_dense_trapezoid_across_band(self):
        # From below the fringe scale to 50 omega_r, where the segment
        # integrals cancel strongly, and at omega = omega_r (1 + {0, +-1e-9}),
        # where a segment exponent vanishes: the sinc limit.  The trapezoid
        # nodes fall on every segment edge (each a multiple of span/44), so
        # its error is the smooth O(h^2) one: at most 2e-7 here.
        profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
        resonance = profile.omega_r * np.array([1.0, 1.0 + 1e-9, 1.0 - 1e-9])
        omega = np.concatenate([[313.0, 2717.0, 31415.0], resonance])
        got = transfer_function(omega, profile)
        t = np.linspace(0.0, profile.span, 44 * 50_000 + 1)
        gs = sensitivity_g(t, profile)
        expected = np.array(
            [abs(np.trapezoid(gs * np.exp(-1j * w * t), t)) for w in omega]
        )
        np.testing.assert_allclose(got, expected, rtol=1e-6, atol=0.0)

    def test_three_segment_at_cli_defaults(self):
        # Rabi oscillation of 2,500 cycles per ramp; the transfer grid is the
        # CLI default (0.1 .. 4 cycles per T, 79 points).  Midpoint nodes
        # never touch the segment edges, where this shape jumps.  At the
        # exact fringe nulls |G| ~ 1e-17, so those rows get an absolute bound.
        big_t = 0.1
        profile = SensitivityProfile.from_tau_p(big_t=big_t, tau_p=1e-5)
        omega = 2.0 * math.pi * np.linspace(0.1, 4.0, 79) / big_t
        got = transfer_function(omega, profile, three_segment=True)
        n = 200_000
        h = 2.0 * big_t / n
        t = h * (np.arange(n) + 0.5)
        gs = sensitivity_g(t, profile, three_segment=True)
        expected = np.array([abs(h * np.sum(gs * np.exp(-1j * w * t))) for w in omega])
        np.testing.assert_allclose(
            got, expected, rtol=1e-6, atol=1e-12 * expected.max()
        )

    def test_import_loads_no_scipy(self):
        src = str(Path(gravsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for module in ("gravsim.noise", "gravsim.cli"):
            code = (
                f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            )
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True,
            )
            assert out.stdout.strip() == "[]", module

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("rabi", ["twolevel"]),
            ("fringe", ["measurement", "trajectory"]),
            ("gsweep", ["measurement", "trajectory"]),
            ("allan", ["noise"]),
            ("sensitivity", ["noise"]),
            ("psd-variance", ["noise"]),
        ],
    )
    def test_cli_command_loads_only_its_modules(self, tmp_path, command, expected):
        series = TimeSeries(samples=np.sin(np.arange(64.0)), dt=0.5)
        write_series_csv(tmp_path / "series.csv", series)
        psd = Psd(freqs=np.array([1.0, 1e6]), values=np.array([1e-9, 1e-9]))
        write_psd_csv(tmp_path / "psd.csv", psd)
        (tmp_path / "run.ini").write_text(
            f"[noise]\nseries_file = {tmp_path / 'series.csv'}\n"
            f"psd_file = {tmp_path / 'psd.csv'}\nallow_partial = true\n"
        )
        argv = [command, "--config", str(tmp_path / "run.ini"),
                "--out", str(tmp_path / "out")]
        code = (
            "import json, sys, gravsim.cli\n"
            f"assert gravsim.cli.main({argv!r}) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        src = str(Path(gravsim.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        loaded = json.loads(out.stdout)
        ours = [m.split(".", 1)[1] for m in loaded if m.startswith("gravsim.")]
        assert ours == sorted(["cli", "core", "errors", *expected])
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]
        if command in ("sensitivity", "psd-variance"):
            # np.union1d's np.unique imported numpy.ma here.
            assert "numpy.ma" not in loaded
        # Only the noise module logs; the other commands load no logging.
        assert ("logging" in loaded) == ("noise" in expected)
        # rabi's sweep, closed form and table are plain Python numbers.
        assert ("numpy" in loaded) == (command != "rabi")

    def test_rejects_negative_frequency(self):
        profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
        with pytest.raises(ValueError, match="omega"):
            transfer_function(np.array([-1.0]), profile)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_frequency(self, bad):
        # NaN once came back as a NaN magnitude, and +inf raised numpy's
        # RuntimeWarning from sin.
        profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
        for three_segment in (False, True):
            with pytest.raises(ValueError, match="omega must be finite and >= 0"):
                transfer_function(bad, profile, three_segment)
            with pytest.raises(ValueError, match="omega must be finite and >= 0"):
                transfer_function(np.array([10.0, bad, 20.0]), profile, three_segment)

    def test_scalar_input(self):
        profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
        assert isinstance(transfer_function(100.0, profile), float)


# ---------------------------------------------------------------------------
# PSD container and synthesis
# ---------------------------------------------------------------------------


class TestTimeSeries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        # Otherwise both Allan estimators return NaN deviations, no error.
        y = np.ones(64)
        y[17] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            TimeSeries(samples=y, dt=0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_t0_rejected(self, bad):
        with pytest.raises(ValueError, match="t0 must be finite"):
            TimeSeries(samples=np.ones(4), dt=0.1, t0=bad)


class TestPsd:
    def test_validation(self):
        with pytest.raises(ValueError):
            Psd(freqs=np.array([2.0, 1.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Psd(freqs=np.array([1.0, 2.0]), values=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            Psd(freqs=np.array([-1.0, 2.0]), values=np.array([1.0, 1.0]))
        for freqs in ([1.0, math.nan], [math.nan, 2.0], [1.0, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                Psd(freqs=np.array(freqs), values=np.array([1.0, 1.0]))

    def test_interpolation_zero_outside(self):
        psd = Psd(freqs=np.array([1.0, 3.0]), values=np.array([2.0, 4.0]))
        np.testing.assert_allclose(
            psd.value_at(np.array([0.5, 1.0, 2.0, 3.0, 4.0])),
            [0.0, 2.0, 3.0, 4.0, 0.0],
        )


class TestSynthesizeNoise:
    band = Psd(
        freqs=np.array([2.0 * math.pi * 5.0, 2.0 * math.pi * 40.0]),
        values=np.array([0.3, 0.3]),
    )

    def test_deterministic_per_seed(self):
        a = synthesize_noise(self.band, duration=25.0, dt=2e-3, seed=5)
        b = synthesize_noise(self.band, duration=25.0, dt=2e-3, seed=5)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = synthesize_noise(self.band, duration=25.0, dt=2e-3, seed=6)
        assert not np.array_equal(a.samples, c.samples)

    def test_sample_variance_equals_spectral_sum(self):
        # Parseval: with fixed-modulus random-phase bins the mean square is
        # exactly the sum of S(omega_k) d_omega, independent of the draw.
        series = synthesize_noise(self.band, duration=25.0, dt=2e-3, seed=5)
        n = series.samples.size
        d_omega = 2.0 * math.pi / (n * series.dt)
        omega_k = d_omega * np.arange(1, n // 2 + 1)
        s_k = self.band.value_at(omega_k)
        if n % 2 == 0:
            s_k[-1] = 0.0  # Nyquist bin carries no power
        assert float(np.mean(series.samples**2)) == pytest.approx(
            float(np.sum(s_k) * d_omega), rel=1e-12
        )

    def test_variance_matches_band_integral(self):
        series = synthesize_noise(self.band, duration=25.0, dt=2e-3, seed=5)
        target = 0.3 * 2.0 * math.pi * (40.0 - 5.0)
        assert float(np.mean(series.samples**2)) == pytest.approx(target, rel=0.02)

    def test_periodogram_matches_target_in_band(self):
        series = synthesize_noise(self.band, duration=25.0, dt=2e-3, seed=5)
        freqs_hz, power = periodogram(
            series.samples, fs=1.0 / series.dt, window="boxcar", detrend=False
        )
        in_band = (freqs_hz > 6.0) & (freqs_hz < 39.0)
        # One-sided density per Hz corresponds to 2*pi times the per-(rad/s)
        # density; with boxcar windowing every in-band bin is exact.
        np.testing.assert_allclose(
            power[in_band], 2.0 * math.pi * 0.3, rtol=1e-6
        )

    def test_zero_target_gives_zeros(self):
        silent = Psd(freqs=self.band.freqs, values=np.zeros(2))
        series = synthesize_noise(silent, duration=25.0, dt=2e-3, seed=5)
        assert np.all(series.samples == 0.0)

    def test_independent_seeds_uncorrelated(self):
        a = synthesize_noise(self.band, duration=25.0, dt=2e-3, seed=5)
        b = synthesize_noise(self.band, duration=25.0, dt=2e-3, seed=6)
        corr = np.corrcoef(a.samples, b.samples)[0, 1]
        assert abs(corr) < 0.1

    def test_derivative_shares_draw_and_obeys_parseval(self):
        series, rate = synthesize_noise_with_derivative(
            self.band, duration=25.0, dt=2e-3, seed=5
        )
        base = synthesize_noise(self.band, duration=25.0, dt=2e-3, seed=5)
        np.testing.assert_array_equal(series.samples, base.samples)
        n = series.samples.size
        d_omega = 2.0 * math.pi / (n * series.dt)
        omega_k = d_omega * np.arange(1, n // 2 + 1)
        s_k = self.band.value_at(omega_k)
        if n % 2 == 0:
            s_k[-1] = 0.0
        assert float(np.mean(rate.samples**2)) == pytest.approx(
            float(np.sum(omega_k**2 * s_k) * d_omega), rel=1e-12
        )

    def test_derivative_close_to_finite_difference(self):
        series, rate = synthesize_noise_with_derivative(
            self.band, duration=25.0, dt=2e-3, seed=5
        )
        fd = np.gradient(series.samples, series.dt)
        err = np.sqrt(np.mean((fd - rate.samples) ** 2) / np.mean(rate.samples**2))
        assert err < 0.1

    @pytest.mark.parametrize("duration", [25.0, 25.002])  # even and odd n
    def test_matches_full_band_formula_bit_for_bit(self, duration):
        # Every bin of the rfft spectrum written out, out-of-band bins
        # included: modulus (n/2) sqrt(2 S(omega_k) d_omega), phase drawn
        # from default_rng(seed) for all n // 2 bins, Nyquist bin zero.
        dt, seed = 2e-3, 5
        n = int(round(duration / dt))
        d_omega = 2.0 * math.pi / (n * dt)
        omega_k = np.arange(1, n // 2 + 1) * d_omega
        amps = np.sqrt(2.0 * self.band.value_at(omega_k) * d_omega)
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, omega_k.size)
        spectrum = np.zeros(n // 2 + 1, dtype=complex)
        spectrum[1:] = 0.5 * n * amps * np.exp(1j * theta)
        if n % 2 == 0:
            spectrum[-1] = 0.0
        rate_spectrum = np.zeros_like(spectrum)
        rate_spectrum[1:] = 1j * omega_k * spectrum[1:]

        series = synthesize_noise(self.band, duration, dt, seed)
        assert series.samples.tobytes() == np.fft.irfft(spectrum, n).tobytes()
        pair = synthesize_noise_with_derivative(self.band, duration, dt, seed)
        assert pair[0].samples.tobytes() == series.samples.tobytes()
        assert pair[1].samples.tobytes() == np.fft.irfft(rate_spectrum, n).tobytes()

    def test_undersampled_top_frequency_rejected(self):
        with pytest.raises(ResolutionError, match="Nyquist"):
            synthesize_noise(self.band, duration=25.0, dt=0.02, seed=5)

    def test_short_duration_rejected(self):
        with pytest.raises(ResolutionError, match="100 periods"):
            synthesize_noise(self.band, duration=5.0, dt=2e-3, seed=5)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ResolutionError, match="16"):
            synthesize_noise(self.band, duration=25.0, dt=2.0, seed=5)

    @pytest.mark.parametrize(
        "duration, dt",
        [(math.nan, 2e-3), (math.inf, 2e-3), (25.0, math.nan)],
        ids=["nan_duration", "inf_duration", "nan_dt"],
    )
    def test_non_finite_grid_rejected(self, duration, dt):
        with pytest.raises(ValueError, match="must be finite and positive"):
            _bins(self.band, duration, dt)


# ---------------------------------------------------------------------------
# PSD integrals
# ---------------------------------------------------------------------------


class TestPhaseVarianceFromPsd:
    profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)

    def test_narrowband_concentration(self):
        # A PSD concentrated near omega_0 with total weight W gives
        # sigma^2 -> (omega_0 |G(omega_0)|)^2 W.
        omega0 = 0.37 * 2.0 * math.pi / self.profile.big_t
        delta = 1e-4 * omega0
        psd = Psd(
            freqs=np.array([omega0 - delta, omega0, omega0 + delta]),
            values=np.array([0.0, 2.0, 0.0]),
        )
        weight = 2.0 * delta  # triangle area
        gain = transfer_function(omega0, self.profile)
        expected = (omega0 * gain) ** 2 * weight
        result = phase_variance_from_psd(psd, self.profile, allow_partial=True)
        assert result.variance == pytest.approx(expected, rel=1e-3)
        # The tabulated edges are zero, so flat extrapolation of the tails
        # correctly bounds the truncated contribution by zero.
        assert result.truncation_estimate == 0.0

    def test_truncation_estimate_positive_for_clipped_band(self):
        band = Psd(
            freqs=np.array([2.0 * math.pi * 1000.0, 2.0 * math.pi * 10000.0]),
            values=np.array([1e-8, 1e-8]),
        )
        result = phase_variance_from_psd(band, self.profile, allow_partial=True)
        assert result.truncation_estimate > 0.0

    def test_coverage_enforced(self):
        psd = Psd(
            freqs=np.array([10.0, 20.0]), values=np.array([1.0, 1.0])
        )
        with pytest.raises(CoverageError, match="does not cover"):
            phase_variance_from_psd(psd, self.profile)

    def test_full_coverage_accepted(self):
        low = 0.9 * 0.01 * 2.0 * math.pi / self.profile.big_t
        high = 1.1 * 100.0 * self.profile.omega_r
        psd = Psd(freqs=np.array([low, high]), values=np.array([1e-12, 1e-12]))
        result = phase_variance_from_psd(psd, self.profile)
        assert result.variance > 0.0
        assert result.truncation_estimate == 0.0

    def test_monte_carlo_cross_check(self):
        # [DERIVED] frozen-seed time-domain cross-validation; the 150-shot
        # estimator has ~12% statistical scatter.
        band = Psd(
            freqs=np.array([2.0 * math.pi * 1000.0, 2.0 * math.pi * 10000.0]),
            values=np.array([1e-8, 1e-8]),
        )
        predicted = phase_variance_from_psd(
            band, self.profile, allow_partial=True
        ).variance
        measured = monte_carlo_phase_variance(
            band, self.profile, n_shots=150, seed=12, oversample=16,
            duration_factor=8,
        )
        assert measured == pytest.approx(predicted, rel=0.25)


def _lag_form_phase_variance(psd, profile, nodes):
    """Oracle: the phase variance as a double integral over pulse pairs.

    g_s is continuous and vanishes at both ends, so omega G(omega) is the
    Fourier transform of h = g_s', which is nonzero only on the three
    pulses, and sigma^2 = sum over pulse pairs (b, c) of the integral of
    h(t) h(t') R(t - t') over both pulses, with R(u) = integral S cos(omega
    u) d omega in closed form on each linear segment of S.  Each pulse takes
    ``nodes`` Gauss-Legendre nodes in its local time s; the lag is the
    pulse-centre offset plus the local difference, so that no node time of
    order T is rounded before the subtraction.
    """
    f, v = psd.freqs, psd.values
    centre, half = 0.5 * (f[1:] + f[:-1]), 0.5 * (f[1:] - f[:-1])
    level, slope = 0.5 * (v[1:] + v[:-1]), np.diff(v) / np.diff(f)

    def autocovariance(u):
        # S = level + slope (omega - centre): only the level meets the part
        # of the cosine even about the centre, only the slope the odd part.
        u = u[..., None]
        return np.sum(
            2.0 * half * level * np.cos(centre * u) * spherical_jn(0, half * u)
            - 2.0 * slope * half**2 * np.sin(centre * u) * spherical_jn(1, half * u),
            axis=-1,
        )

    w, a, big_t = profile.omega_r, 0.5 * profile.tau_p, profile.big_t
    pulses = [  # (centre, half-length, h(s)), s = t - centre
        (0.5 * a, 0.5 * a, lambda s: -w * np.cos(w * (s + 0.5 * a))),
        (big_t + 2.0 * a, a, lambda s: w * np.cos(w * s)),
        (2.0 * big_t + 3.5 * a, 0.5 * a, lambda s: -w * np.cos(w * (s - 0.5 * a))),
    ]
    x, wt = leggauss(nodes)
    total = 0.0
    for cb, hb, fb in pulses:
        for cc, hc, fc in pulses:
            sb, sc = hb * x, hc * x
            lags = (cb - cc) + (sb[:, None] - sc[None, :])
            total += float((fb(sb) * hb * wt) @ autocovariance(lags) @ (fc(sc) * hc * wt))
    return total


class TestCoverageSlack:
    # The required band is [0.01 (2 pi / T), 100 omega_r], and a table edge
    # within a relative 1e-9 of a band edge covers that side.  At T = 0.05 s
    # and tau_p = 0.005 s the band's top is 2 pi 1e4 rad/s bit for bit, the
    # top of criterion 7's table, so the high side's slack is the one in use.
    profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
    low = 0.01 * 2.0 * math.pi / 0.05
    high = 2.0 * math.pi * 1e4

    def test_criterion_7_top_is_the_required_top(self):
        assert 100.0 * self.profile.omega_r == self.high

    @pytest.mark.parametrize(
        "low_factor, high_factor, uncovered",
        [
            (1.0, 1.0, False),
            (1.0 + 0.5e-9, 1.0, False),
            (1.0, 1.0 - 0.5e-9, False),
            (1.0 + 2e-9, 1.0, True),
            (1.0, 1.0 - 2e-9, True),
        ],
    )
    def test_edge_within_slack_makes_no_tail(self, low_factor, high_factor, uncovered):
        psd = Psd(freqs=np.array([low_factor * self.low, high_factor * self.high]),
                  values=np.array([1e-12, 1e-12]))
        if uncovered:
            with pytest.raises(CoverageError, match="does not cover"):
                phase_variance_from_psd(psd, self.profile)
        else:
            assert phase_variance_from_psd(psd, self.profile).truncation_estimate == 0.0
        result = phase_variance_from_psd(psd, self.profile, allow_partial=True)
        assert (result.truncation_estimate > 0.0) == uncovered


class TestPanelRule:
    """Gauss-Legendre panels of the PSD integrals."""

    crit7 = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
    cli = SensitivityProfile.from_tau_p(big_t=0.1, tau_p=1e-5)
    # Sloped, with kinks: five breakpoints from 20 Hz to 10 kHz.
    sloped = Psd(
        freqs=2.0 * math.pi * np.array([20.0, 150.0, 700.0, 3e3, 1e4]),
        values=1e-8 * np.array([3.0, 1.0, 2.0, 0.5, 0.1]),
    )

    @pytest.mark.parametrize("order", _PANEL_ORDERS)
    def test_rule_is_gauss_legendre(self, order):
        x, w = _gauss_legendre(order)
        ref_x, ref_w = leggauss(order)
        np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=1e-15)
        # leggauss's own weights are off by up to 1.5e-15 at 24 nodes
        # against a 50-digit evaluation; 1e-15 of the weight sum 2.
        np.testing.assert_allclose(w, ref_w, rtol=0.0, atol=2e-15)
        for k in range(2 * order):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert w @ x**k == pytest.approx(exact, rel=1e-14, abs=1e-15)
        assert _gauss_legendre(order)[0] is x
        assert not x.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize(
        "freqs, time_scale",
        [
            (2.0 * math.pi * np.array([20.0, 150.0, 700.0, 3e3, 1e4]), 0.2),
            # Breakpoints 1e-3 apart, at an edge of the grading, and from 0.
            (np.array([1e-3, 0.5, 0.501, 1e-3 * 2**10, 7.0, 400.0]), 1.0),
            (np.array([0.0, 0.3, 90.0, 90.0 + 1e-9, 1e3]), 0.11),
        ],
        ids=["sloped", "clustered", "from_zero"],
    )
    def test_no_panel_straddles_a_breakpoint(self, freqs, time_scale):
        # On each tabulated interval the nodes inside must integrate t^k,
        # t = (omega - left) / width, exactly for k <= 3: a panel across a
        # breakpoint would put part of its rule on each side.
        nodes, weights = _panel_rule(Psd(freqs, np.ones(freqs.size)), time_scale)
        assert np.all((nodes > freqs[0]) & (nodes < freqs[-1]))
        assert not np.isin(nodes, freqs).any()
        interval = np.searchsorted(freqs, nodes) - 1
        for i, (left, right) in enumerate(zip(freqs[:-1], freqs[1:])):
            inside = interval == i
            t = (nodes[inside] - left) / (right - left)
            for k in range(4):
                assert weights[inside] @ t**k == pytest.approx(
                    (right - left) / (k + 1), rel=1e-13)

    def test_panels_graded_toward_positive_low_edge(self):
        # From lo = 1e-3 rad/s the panel edges double until the panels are 4
        # periods 2 pi / time_scale wide; each cell [lo 2^k, lo 2^(k+1)]
        # holds whole panels, and the first node sits within lo of lo.
        lo, time_scale = 1e-3, 1.0
        nodes, weights = _panel_rule(Psd(np.array([lo, 100.0]), np.ones(2)),
                                     time_scale)
        widest = _PANEL_SIZES[-1] * 2.0 * math.pi / time_scale
        k = np.arange(math.ceil(math.log2(widest / lo)))
        for left in lo * 2.0**k:
            inside = (nodes > left) & (nodes < 2.0 * left)
            assert weights[inside].sum() == pytest.approx(left, rel=1e-13)
        assert nodes.min() < 2.0 * lo
        # A table from omega = 0 has no pole there to grade toward.
        flat, _ = _panel_rule(Psd(np.array([0.0, 100.0]), np.ones(2)), time_scale)
        assert flat.min() > 1e-3 * widest

    @pytest.mark.parametrize("timing", ["crit7", "cli"])
    def test_phase_variance_matches_lag_form(self, timing, monkeypatch):
        profile = getattr(self, timing)
        got = phase_variance_from_psd(self.sloped, profile, allow_partial=True).variance
        # Enough lag-form nodes for R's fastest oscillation, 2 pi 10 kHz,
        # across the pi pulse (314 rad at tau_p = 5 ms).
        oracle = _lag_form_phase_variance(self.sloped, profile,
                                          200 if timing == "crit7" else 16)
        assert got == pytest.approx(oracle, rel=1e-12)
        monkeypatch.setattr(gravsim.noise, "_PANEL_SIZES",
                            tuple(0.5 * s for s in _PANEL_SIZES))
        denser = phase_variance_from_psd(self.sloped, profile, allow_partial=True)
        assert denser.variance == pytest.approx(got, rel=1e-13)

    @pytest.mark.parametrize("formula, cycle_time", [
        ("printed", 0.25), ("shot-sampled", 0.25), ("shot-sampled", 0.11),
    ])
    def test_vibration_converged_under_doubling(self, formula, cycle_time,
                                                monkeypatch):
        # cycle_time = span: sin^2(omega cycle_time / 2) doubles the lags of
        # |G|^2, so the shot-sampled panels follow span + cycle_time.
        psd = Psd(2.0 * math.pi * np.array([1.0, 7.0, 1e3, 2e4]),
                  np.array([1e-7, 3e-7, 1e-8, 1e-9]))
        args = (psd, self.crit7, 1.61e7, cycle_time, formula, True)
        got = allan_from_acceleration_psd(*args)
        monkeypatch.setattr(gravsim.noise, "_PANEL_SIZES",
                            tuple(0.5 * s for s in _PANEL_SIZES))
        assert allan_from_acceleration_psd(*args) == pytest.approx(got, rel=1e-13)

    def test_dense_table_fewer_nodes_than_trapezoid(self):
        # 10,000 log-spaced rows from 10 Hz to 10 kHz at the CLI timing: the
        # 32-points-per-period trapezoid with every breakpoint took 73,942
        # nodes; a row narrower than 0.05 periods costs 4 nodes here.
        freqs = 2.0 * math.pi * np.geomspace(10.0, 1e4, 10_000)
        psd = Psd(freqs, np.full(freqs.size, 1e-9))
        nodes, _ = _panel_rule(psd, self.cli.span)
        d_omega = 2.0 * math.pi / self.cli.span / 32.0
        trapezoid = math.ceil((freqs[-1] - freqs[0]) / d_omega) + 1 + freqs.size - 2
        assert nodes.size < trapezoid
        assert trapezoid == 73_942

    @pytest.mark.parametrize("time_scale", [1e305, 1e306, 1e307])
    def test_vast_time_scale_needs_infinite_nodes(self, time_scale):
        # The node sum overflows, or a panel count, or both: refused, with
        # no numpy overflow warning first.
        psd = Psd(np.array([1.0, 100.0, 1e4]), np.ones(3))
        with pytest.raises(ResolutionError, match="needs inf quadrature nodes"):
            _panel_rule(psd, time_scale)

    def test_node_budget_counts_every_panel(self, monkeypatch):
        # Period 2 pi: [1, 2], [2, 4] and [4, 8] are one left edge wide and
        # take 12 nodes; [8, 16], [16, 32] and three panels on [32, 100] are
        # over one period wide and take 24.  3 * 12 + 5 * 24 = 156.
        monkeypatch.setattr(gravsim.noise, "_MAX_GRID_POINTS", 155)
        psd = Psd(np.array([1.0, 100.0]), np.ones(2))
        with pytest.raises(ResolutionError, match="needs 156 quadrature nodes; at "
                           "most 155 are allowed"):
            _panel_rule(psd, 1.0)


def _time_domain_phase_variance(
    psd, profile, n_shots, seed, oversample=32, duration_factor=16
):
    """Oracle: synthesize every shot's rate record and integrate it.

    Per shot, the rate spectrum ``i omega_k X_k`` from stream
    ``(seed, shot)`` goes through an inverse FFT, and the trapezoid rule
    over the first sequence window weights the record by ``g_s``.  Returns
    the mean-square phase and the record length.
    """
    dt = min(2.0 * math.pi / (oversample * psd.freqs[-1]), profile.tau_p / 16.0)
    n = int(round(profile.span / dt))
    dt = profile.span / n
    weights = sensitivity_g(dt * np.arange(n + 1), profile) * dt
    weights[0] *= 0.5
    weights[-1] *= 0.5
    n_record = int(round(duration_factor * profile.span / dt))
    d_omega = 2.0 * math.pi / (n_record * dt)
    omega_k = np.arange(1, n_record // 2 + 1) * d_omega
    amps = np.sqrt(2.0 * psd.value_at(omega_k) * d_omega)
    phases = []
    for shot in range(n_shots):
        rng = np.random.default_rng([seed, shot])
        theta = rng.uniform(0.0, 2.0 * math.pi, omega_k.size)
        rate_spectrum = np.zeros(n_record // 2 + 1, dtype=complex)
        rate_spectrum[1:] = 1j * omega_k * 0.5 * n_record * amps * np.exp(1j * theta)
        if n_record % 2 == 0:
            rate_spectrum[-1] = 0.0
        rate = np.fft.irfft(rate_spectrum, n_record)
        phases.append(weights @ rate[: n + 1])
    return float(np.mean(np.square(phases))), n_record


class TestMonteCarloPhaseVariance:
    """The bin-by-bin Monte Carlo against the time-domain loop it replaces."""

    crit7 = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
    short = SensitivityProfile.from_tau_p(big_t=0.02, tau_p=5e-4)

    @staticmethod
    def _band(lo_hz, hi_hz):
        return Psd(
            freqs=2.0 * math.pi * np.array([lo_hz, hi_hz]),
            values=np.array([1e-8, 1e-8]),
        )

    def _check(self, psd, profile, record_parity, **kwargs):
        expected, n_record = _time_domain_phase_variance(psd, profile, **kwargs)
        assert n_record % 2 == record_parity
        measured = monte_carlo_phase_variance(psd, profile, **kwargs)
        assert measured == pytest.approx(expected, rel=1e-12)
        return measured

    def test_criterion_7_band_even_record(self):
        self._check(self._band(1e3, 1e4), self.crit7, 0, n_shots=6, seed=3)

    def test_odd_record_length(self):
        # span / dt = 3321 and a five-fold record give N = 16605.
        self._check(self._band(1e3, 9e3), self.short, 1, n_shots=12, seed=4,
                    oversample=9, duration_factor=5)

    def test_interior_gap_splits_live_bins(self):
        # Zero from 3.5 to 6 kHz: the powered bins form two separate runs.
        psd = Psd(
            freqs=2.0 * math.pi * np.array([1e3, 3e3, 3.5e3, 6e3, 6.5e3, 1e4]),
            values=np.array([1e-8, 1e-8, 0.0, 0.0, 2e-8, 2e-8]),
        )
        assert psd.value_at(2.0 * math.pi * 4.5e3) == 0.0
        self._check(psd, self.crit7, 0, n_shots=6, seed=8, oversample=16,
                    duration_factor=8)

    def test_band_draw_equals_full_draw(self):
        # Skipping to the band keeps each phase only while numpy's uniform
        # takes one 64-bit output per double; a numpy change that breaks
        # that fails here instead of shifting Monte-Carlo values.  Cases:
        # criterion 7's band, and an odd record with a gap from 3.5 to 6 kHz.
        gap = Psd(
            freqs=2.0 * math.pi * np.array([1e3, 3e3, 3.5e3, 6e3, 6.5e3, 9e3]),
            values=np.array([1e-8, 1e-8, 0.0, 0.0, 2e-8, 2e-8]),
        )
        for psd, profile, oversample, factor, parity in (
            (self._band(1e3, 1e4), self.crit7, 32, 16, 0),
            (gap, self.short, 9, 5, 1),
        ):
            dt = min(2.0 * math.pi / (oversample * psd.freqs[-1]), profile.tau_p / 16.0)
            dt = profile.span / int(round(profile.span / dt))
            band = _bins(psd, factor * profile.span, dt)
            assert band.n % 2 == parity
            # The powered bins of the full grid, and their amplitudes.
            d_omega = 2.0 * math.pi / (band.n * dt)
            full = np.sqrt(2.0 * psd.value_at(np.arange(1, band.n // 2 + 1) * d_omega)
                           * d_omega)
            np.testing.assert_array_equal(band.k, np.flatnonzero(full) + 1)
            np.testing.assert_array_equal(band.amps, full[band.k - 1])
            live = band.k - 1  # rfft bin k takes draw k - 1
            assert 0 < live[0] and live[-1] < band.n // 2 - 1
            for shot in range(3):
                np.testing.assert_array_equal(
                    _band_phases(live, [5, shot]),
                    np.random.default_rng([5, shot]).uniform(
                        0.0, 2.0 * math.pi, band.n // 2
                    )[live],
                )

    def test_zero_psd_gives_zero(self):
        silent = Psd(freqs=self._band(1e3, 1e4).freqs, values=np.zeros(2))
        assert self._check(silent, self.crit7, 0, n_shots=4, seed=1,
                           oversample=16, duration_factor=4) == 0.0

    @pytest.mark.parametrize("oversample", [0, -1])
    @pytest.mark.parametrize(
        "monte_carlo",
        [monte_carlo_phase_variance, monte_carlo_vibration_allan],
        ids=["phase_variance", "vibration_allan"],
    )
    def test_oversample_below_one_rejected(self, monte_carlo, oversample):
        with pytest.raises(ValueError, match="oversample must be >= 1"):
            monte_carlo(self._band(1e3, 1e4), self.crit7, n_shots=4, seed=1,
                        oversample=oversample)

    def test_no_record_and_one_interpolation(self, monkeypatch):
        # The spectrum is interpolated once per call, not once per shot,
        # and no shot goes through an inverse FFT or a synthesizer.
        def refuse(*args, **kwargs):
            raise AssertionError("record synthesized")

        for name in ("synthesize_noise", "synthesize_noise_with_derivative"):
            monkeypatch.setattr(gravsim.noise, name, refuse)
        monkeypatch.setattr(np.fft, "irfft", refuse)
        calls = []
        original = Psd.value_at
        monkeypatch.setattr(
            Psd, "value_at", lambda psd, omega: calls.append(1) or original(psd, omega)
        )
        monte_carlo_phase_variance(
            self._band(1e3, 1e4), self.crit7, n_shots=5, seed=2, oversample=16,
            duration_factor=4,
        )
        assert len(calls) == 1


class TestAllanFromAccelerationPsd:
    profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)

    def test_narrowband_concentration_shot_sampled(self):
        omega0 = 2.0 * math.pi * 3.3
        delta = 1e-4 * omega0
        psd = Psd(
            freqs=np.array([omega0 - delta, omega0, omega0 + delta]),
            values=np.array([0.0, 1e-6, 0.0]),
        )
        weight = 1e-6 * delta
        cycle = 0.25
        gain = transfer_function(omega0, self.profile)
        expected = (
            2.0
            * 1e6**2
            * (gain / omega0) ** 2
            * math.sin(0.5 * omega0 * cycle) ** 2
            * weight
        )
        got = allan_from_acceleration_psd(
            psd, self.profile, k_eff=1e6, cycle_time=cycle,
            formula="shot-sampled", allow_partial=True,
        )
        assert got == pytest.approx(expected, rel=1e-3)

    def test_printed_form_scales_inversely_with_cycle_time(self):
        psd = Psd(
            freqs=np.array([2.0 * math.pi * 1.0, 2.0 * math.pi * 50.0]),
            values=np.array([1e-7, 1e-7]),
        )
        one = allan_from_acceleration_psd(
            psd, self.profile, k_eff=1.61e7, cycle_time=0.25, allow_partial=True
        )
        two = allan_from_acceleration_psd(
            psd, self.profile, k_eff=1.61e7, cycle_time=0.5, allow_partial=True
        )
        assert one == pytest.approx(2.0 * two, rel=1e-12)
        assert one > 0.0

    def test_formulas_differ(self):
        psd = Psd(
            freqs=np.array([2.0 * math.pi * 1.0, 2.0 * math.pi * 50.0]),
            values=np.array([1e-7, 1e-7]),
        )
        printed = allan_from_acceleration_psd(
            psd, self.profile, k_eff=1.61e7, cycle_time=0.25, allow_partial=True
        )
        sampled = allan_from_acceleration_psd(
            psd, self.profile, k_eff=1.61e7, cycle_time=0.25,
            formula="shot-sampled", allow_partial=True,
        )
        assert printed > 0.0 and sampled > 0.0
        assert abs(printed - sampled) > 0.5 * max(printed, sampled)

    def test_zero_psd_gives_zero(self):
        psd = Psd(
            freqs=np.array([1.0, 100.0]), values=np.array([0.0, 0.0])
        )
        assert (
            allan_from_acceleration_psd(
                psd, self.profile, cycle_time=0.25, allow_partial=True
            )
            == 0.0
        )

    def test_cycle_shorter_than_sequence_rejected(self):
        psd = Psd(freqs=np.array([1.0, 100.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="cycle_time"):
            allan_from_acceleration_psd(
                psd, self.profile, cycle_time=0.05, allow_partial=True
            )

    @pytest.mark.parametrize("formula", ["printed", "shot-sampled"])
    def test_non_finite_cycle_time_rejected(self, formula):
        # NaN fails every comparison, so the check must be a positive one.
        psd = Psd(freqs=np.array([1.0, 100.0]), values=np.array([1.0, 1.0]))
        for cycle in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"cycle_time .* got {cycle}"):
                allan_from_acceleration_psd(
                    psd, self.profile, cycle_time=cycle, formula=formula,
                    allow_partial=True,
                )

    def test_table_from_omega_zero(self):
        # Near 0, |G| ~ omega S: the shot-sampled integrand tends to 0, so a
        # table from omega = 0 reads as one from just above it; the printed
        # weight grows as 1/omega^2, diverges, and is refused.
        top = 2.0 * math.pi * 50.0
        values = np.array([1e-7, 1e-7])
        at_zero = allan_from_acceleration_psd(
            Psd(np.array([0.0, top]), values), self.profile, cycle_time=0.25,
            formula="shot-sampled", allow_partial=True,
        )
        near_zero = allan_from_acceleration_psd(
            Psd(np.array([1e-9, top]), values), self.profile, cycle_time=0.25,
            formula="shot-sampled", allow_partial=True,
        )
        assert at_zero == pytest.approx(near_zero, rel=1e-9)
        with pytest.raises(ValueError, match="omega = 0"):
            allan_from_acceleration_psd(
                Psd(np.array([0.0, top]), values), self.profile, cycle_time=0.25,
                formula="printed", allow_partial=True,
            )

    def test_unknown_formula_rejected(self):
        psd = Psd(freqs=np.array([1.0, 100.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="formula"):
            allan_from_acceleration_psd(
                psd, self.profile, cycle_time=0.25, formula="mystery",
                allow_partial=True,
            )

    def test_monte_carlo_cross_check(self):
        # [DERIVED] frozen-seed cross-validation of the shot-sampled form
        # against sliced-record shot phases (~12% statistical scatter).
        band = Psd(
            freqs=np.array([2.0 * math.pi * 4.0, 2.0 * math.pi * 50.0]),
            values=np.array([1e-7, 1e-7]),
        )
        predicted = allan_from_acceleration_psd(
            band, self.profile, k_eff=1.61e7, cycle_time=0.25,
            formula="shot-sampled", allow_partial=True,
        )
        measured = monte_carlo_vibration_allan(
            band, self.profile, k_eff=1.61e7, cycle_time=0.25, n_shots=150,
            seed=12,
        )
        assert measured == pytest.approx(predicted, rel=0.25)


def _brute_smooth_length(n):
    """Least 5-smooth integer >= n, by trial division of n, n + 1, ..."""
    k = n
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


def _sliced_record_shot_phases(psd, profile, k_eff, cycle, n_shots, seed,
                               oversample=32):
    """Oracle: synthesize the acceleration record and slice it into shots.

    The record is the least 5-smooth number of whole cycles of s samples
    that holds ``n_shots`` cycles, one span and one sample; shot q is the
    trapezoid of ``k_eff w(t) a(t)`` over the window starting at sample
    ``q s``.  Returns the shot phases, the record length, the length needed
    and s.
    """
    dt0 = min(2.0 * math.pi / (oversample * psd.freqs[-1]), profile.tau_p / 8.0)
    steps = int(math.ceil(cycle / dt0))
    dt = cycle / steps
    needed = int(round((n_shots * cycle + profile.span + dt) / dt))
    n = _smooth_length(-(-needed // steps)) * steps
    series = synthesize_noise(psd, n * dt, dt, seed)
    assert series.samples.size == n
    weights = sensitivity_a(dt * np.arange(int(round(profile.span / dt)) + 1),
                            profile, k_eff) * dt
    weights[0] *= 0.5
    weights[-1] *= 0.5
    index = steps * np.arange(n_shots)[:, None] + np.arange(weights.size)
    phases = series.samples[index] @ weights
    return phases, n, needed, steps


class TestWindowTransform:
    """The chirp-z transform against numpy's zero-padded rfft."""

    @pytest.mark.parametrize(
        "n, count, bins",
        [
            (1000, 37, np.arange(1, 501)),  # even n, k = 1 to n // 2
            (1001, 37, np.arange(1, 501)),  # odd n, k = 1 to n // 2
            (999, 400, np.r_[3:40, 300:499]),  # an interior gap
            (4096, 1, np.array([1, 2048])),  # one weight, the two ends
            (648_000, 177, np.arange(405, 20251)),  # the vibration window
        ],
    )
    def test_matches_zero_padded_rfft(self, n, count, bins):
        weights = np.random.default_rng(count).normal(size=count)
        expected = np.fft.rfft(weights, n)[bins]
        got = _window_transform(weights, n, bins)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * scale)


class TestVibrationMonteCarlo:
    """The spectral shots of :func:`monte_carlo_vibration_allan`: the
    whole-cycle grid they stand for, and the estimator's mean over seeds."""

    profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
    band = Psd(
        freqs=np.array([2.0 * math.pi * 4.0, 2.0 * math.pi * 50.0]),
        values=np.array([1e-7, 1e-7]),
    )

    def test_smooth_length_matches_brute_force(self):
        got = [_smooth_length(n) for n in range(1, 5001)]
        assert got == [_brute_smooth_length(n) for n in range(1, 5001)]

    @pytest.mark.parametrize(
        "top_hz, n_shots, expected",
        [
            pytest.param(50.0, 1600, 648_000, id="1600-648000"),
            pytest.param(50.0, 150, 64_000, id="150-64000"),
            # 61 Hz gives 488 samples per cycle; its record was once folded
            # modulo n / gcd(n, 488) = 390,625 and peaked at 13.7 MB.
            pytest.param(61.0, 1600, 790_560, id="61Hz-1600-790560"),
        ],
    )
    def test_matches_sliced_record_oracle(self, top_hz, n_shots, expected):
        # The record the spectral shots stand for, synthesized at the same
        # whole number of cycles and sliced into trapezoid windows, gives
        # the same Allan variance; the Monte Carlo itself allocates no
        # array of n samples.
        cycle = 0.25
        band = Psd(freqs=np.array([2.0 * math.pi * 4.0, 2.0 * math.pi * top_hz]),
                   values=np.array([1e-7, 1e-7]))
        phases, n, needed, steps = _sliced_record_shot_phases(
            band, self.profile, 1.61e7, cycle, n_shots, seed=1
        )
        oracle = float(np.mean(np.diff(phases) ** 2) / 2.0)
        assert n == expected
        cycles, rest = divmod(n, steps)
        assert rest == 0 and n >= needed and _brute_smooth_length(cycles) == cycles
        tracemalloc.start()
        try:
            measured = monte_carlo_vibration_allan(
                band, self.profile, k_eff=1.61e7, cycle_time=cycle,
                n_shots=n_shots, seed=1,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert measured == pytest.approx(oracle, rel=1e-12)
        assert peak < 8 * n

    def test_non_finite_cycle_time_rejected(self):
        for cycle in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"cycle_time .* got {cycle}"):
                monte_carlo_vibration_allan(
                    self.band, self.profile, cycle_time=cycle, n_shots=4
                )

    def test_composed_run_adds_projection_noise(self):
        # A simulated run at criterion 7's timing: each shot's vibration
        # phase, read at mid-fringe on alternate sides +-pi/2 (Le Gouet et
        # al. 2008), p = (1 +- sin phi) / 2, detected as a binomial count of
        # N atoms and inverted as +-arcsin(2 p_hat - 1).  Independent noises
        # add in Allan variance, and projection noise adds 1/N rad^2 at one
        # cycle (Itano et al. 1993).  These 12 seeds read a mean ratio of
        # 1.005 and a spread of 0.048 per seed (0.040 over 200 others), so
        # 4 standard errors of the mean is 0.055.
        n_atoms, n_shots, cycle = 200, 1600, 0.25
        band = Psd(freqs=np.array([2.0 * math.pi, 2.0 * math.pi * 50.0]),
                   values=np.array([6e-14, 6e-14]))
        predicted = allan_from_acceleration_psd(
            band, self.profile, k_eff=1.61e7, cycle_time=cycle,
            formula="shot-sampled", allow_partial=True,
        ) + 1.0 / n_atoms
        sides = np.where(np.arange(n_shots) % 2 == 0, 1.0, -1.0)
        ratios = []
        for seed in range(12):
            phases, *_ = _sliced_record_shot_phases(
                band, self.profile, 1.61e7, cycle, n_shots, seed)
            p = 0.5 * (1.0 + sides * np.sin(phases))
            counts = np.random.default_rng([seed, 1]).binomial(n_atoms, p)
            estimates = sides * np.arcsin(2.0 * counts / n_atoms - 1.0)
            adev = allan_deviation(TimeSeries(estimates, cycle), [cycle]).adevs[0]
            ratios.append(adev**2 / predicted)
        assert abs(np.mean(ratios) - 1.0) < 0.055

    def test_unbiased_over_seeds(self):
        # 200 seeds read mean 1.0004 and std 0.116 of MC / shot-sampled.
        predicted = allan_from_acceleration_psd(
            self.band, self.profile, k_eff=1.61e7, cycle_time=0.25,
            formula="shot-sampled", allow_partial=True,
        )
        ratios = np.array([
            monte_carlo_vibration_allan(
                self.band, self.profile, k_eff=1.61e7, cycle_time=0.25,
                n_shots=150, seed=seed,
            ) / predicted
            for seed in range(100)
        ])
        std_err = ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) < 4.0 * std_err


# ---------------------------------------------------------------------------
# Allan estimators
# ---------------------------------------------------------------------------


#: (N, m) at the omission rule 2m > N: m = N//2 is kept, m = N//2 + 1 not.
_OMISSION_CASES = [(n, n // 2 + k) for n in (4, 5, 100, 101) for k in (0, 1)]


def _check_omission_rule(estimator, n, m, count, caplog):
    """Both estimators keep ``m`` with ``count`` blocks (or differences)
    while ``2m <= N``, and otherwise omit it with one log record and, when
    no time is left, raise one error text."""
    series = TimeSeries(samples=np.arange(float(n)), dt=1.0)
    with caplog.at_level("WARNING", logger="gravsim.noise"):
        result = estimator(series, [float(m), 1.0])
    if 2 * m <= n:
        np.testing.assert_array_equal(result.tau_avgs, [m, 1.0])
        assert result.n_blocks[0] == count
        assert caplog.messages == []
        return
    omitted = f"omitting 1 tau in [{m}, {m}] s: two blocks exceed the {n}-sample series"
    np.testing.assert_array_equal(result.tau_avgs, [1.0])
    assert caplog.messages == [omitted]
    # The refusal carries the record instead of logging it: one line.
    caplog.clear()
    with pytest.raises(InsufficientDataError) as refused:
        estimator(series, [float(m)])
    assert str(refused.value) == (
        f"no requested averaging time fits two blocks in the series; {omitted}")
    assert caplog.messages == []


class TestAllanDeviation:
    def test_alternating_series_hand_value(self):
        # [DERIVED] alternating +-1 at tau = dt: all adjacent block-mean
        # differences are +-2, so the variance is sum(4)/(2 (n-1)) = 2.
        y = np.array([1.0, -1.0] * 4)
        result = allan_deviation(TimeSeries(samples=y, dt=1.0), [1.0])
        assert result.adevs[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert result.n_blocks[0] == 8

    def test_alternating_series_pairs_average_out(self):
        y = np.array([1.0, -1.0] * 4)
        result = allan_deviation(TimeSeries(samples=y, dt=1.0), [2.0])
        assert result.adevs[0] == 0.0

    def test_constant_series_gives_exact_zero(self):
        y = np.full(100, 3.7)
        result = allan_deviation(TimeSeries(samples=y, dt=0.1), [0.1, 0.5, 1.0])
        assert np.all(result.adevs == 0.0)

    def test_white_noise_slope(self):
        rng = np.random.default_rng(42)
        series = TimeSeries(samples=rng.normal(0.0, 1.0, 65536), dt=1.0)
        taus = [2.0**k for k in range(1, 10)]
        result = allan_deviation(series, taus)
        slope = np.polyfit(np.log(result.tau_avgs), np.log(result.adevs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_random_walk_slope(self):
        rng = np.random.default_rng(42)
        series = TimeSeries(samples=np.cumsum(rng.normal(0.0, 1.0, 65536)), dt=1.0)
        taus = [2.0**k for k in range(1, 10)]
        result = allan_deviation(series, taus)
        slope = np.polyfit(np.log(result.tau_avgs), np.log(result.adevs), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_tau_snapped_down_to_sample_multiple(self):
        series = TimeSeries(samples=np.arange(100.0), dt=0.5)
        result = allan_deviation(series, [1.85])
        assert result.tau_avgs[0] == pytest.approx(1.5, rel=1e-12)

    def test_duplicate_snaps_reported_once(self, caplog):
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        with caplog.at_level("WARNING", logger="gravsim.noise"):
            result = allan_deviation(series, [1.0, 1.2, 2.0])
        np.testing.assert_allclose(result.tau_avgs, [1.0, 2.0])
        assert caplog.messages == [
            "omitting 1 tau in [1.2, 1.2] s: snaps to an m already kept"
        ]

    def test_sub_sample_tau_omitted_with_log(self, caplog):
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        with caplog.at_level("WARNING", logger="gravsim.noise"):
            result = allan_deviation(series, [0.1, 4.0])
        assert result.tau_avgs.size == 1
        assert caplog.messages == [
            "omitting 1 tau in [0.1, 0.1] s: shorter than one sample"
        ]

    def test_omitted_tau_logged_not_printed(self, caplog, capsys, monkeypatch):
        # The record reaches the application's handlers (caplog's here).
        # With none installed it must not fall through to stderr by
        # logging.lastResort.
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        with caplog.at_level("WARNING", logger="gravsim.noise"):
            allan_deviation(series, [0.1, 4.0])
        assert caplog.messages == [
            "omitting 1 tau in [0.1, 0.1] s: shorter than one sample"
        ]
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        allan_deviation_overlapping(series, [0.1, 4.0])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("n, m", _OMISSION_CASES)
    def test_too_long_tau_omitted_with_log(self, caplog, n, m):
        # m = N//2 leaves two blocks; m = N//2 + 1 is omitted.
        _check_omission_rule(allan_deviation, n, m, 2, caplog)

    def test_all_invalid_raises(self):
        series = TimeSeries(samples=np.arange(10.0), dt=1.0)
        with pytest.raises(InsufficientDataError):
            allan_deviation(series, [100.0])

    def test_block_count_reported(self):
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        result = allan_deviation(series, [7.0])
        assert result.n_blocks[0] == 100 // 7


class TestAllanDeviationOverlapping:
    def test_alternating_series_hand_value(self):
        y = np.array([1.0, -1.0] * 4)
        result = allan_deviation_overlapping(TimeSeries(samples=y, dt=1.0), [1.0])
        assert result.adevs[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert result.n_blocks[0] == 7

    @pytest.mark.parametrize("n", [2, 3, 7, 100, 4097])
    @pytest.mark.parametrize("value", [3.7, 9.81, -2.5e-8, 1234.5678])
    def test_constant_series_gives_exact_zero(self, n, value):
        series = TimeSeries(samples=np.full(n, value), dt=0.1)
        taus = [0.1 * m for m in (1, 2, 3, 8, 64) if 2 * m <= n]
        result = allan_deviation_overlapping(series, taus)
        assert np.all(result.adevs == 0.0)

    def test_duplicate_snaps_reported_once(self):
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        result = allan_deviation_overlapping(series, [1.0, 1.2, 2.0])
        np.testing.assert_allclose(result.tau_avgs, [1.0, 2.0])
        np.testing.assert_array_equal(result.n_blocks, [99, 97])

    def test_sub_sample_tau_omitted_with_log(self, caplog):
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        with caplog.at_level("WARNING", logger="gravsim.noise"):
            result = allan_deviation_overlapping(series, [0.1, 4.0])
        np.testing.assert_allclose(result.tau_avgs, [4.0])
        assert caplog.messages == [
            "omitting 1 tau in [0.1, 0.1] s: shorter than one sample"
        ]

    @pytest.mark.parametrize("n, m", _OMISSION_CASES)
    def test_too_long_tau_omitted_with_log(self, caplog, n, m):
        # m = N//2 leaves N - 2m + 1 differences; m = N//2 + 1 is omitted.
        _check_omission_rule(allan_deviation_overlapping, n, m, n - 2 * m + 1, caplog)

    def test_white_noise_slope(self):
        rng = np.random.default_rng(42)
        series = TimeSeries(samples=rng.normal(0.0, 1.0, 65536), dt=1.0)
        taus = [2.0**k for k in range(1, 10)]
        result = allan_deviation_overlapping(series, taus)
        slope = np.polyfit(np.log(result.tau_avgs), np.log(result.adevs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_agrees_with_non_overlapping_on_white_noise(self):
        rng = np.random.default_rng(42)
        series = TimeSeries(samples=rng.normal(0.0, 1.0, 65536), dt=1.0)
        non = allan_deviation(series, [32.0])
        over = allan_deviation_overlapping(series, [32.0])
        assert over.adevs[0] == pytest.approx(non.adevs[0], rel=0.2)

    def test_all_invalid_raises(self):
        series = TimeSeries(samples=np.arange(10.0), dt=1.0)
        with pytest.raises(InsufficientDataError):
            allan_deviation_overlapping(series, [100.0])


def _reduceat_adev(y, m):
    """Non-overlapping Allan deviation from block sums (np.add.reduceat)."""
    n_blocks = y.size // m
    sums = np.add.reduceat(y[: n_blocks * m], np.arange(0, n_blocks * m, m))
    return math.sqrt(np.mean(np.diff(sums / m) ** 2) / 2.0)


def _convolve_adev(y, m):
    """Overlapping Allan deviation from a running-mean convolution."""
    means = np.convolve(y, np.full(m, 1.0 / m), mode="valid")
    return math.sqrt(np.mean((means[m:] - means[:-m]) ** 2) / 2.0)


# Integers in [-256, 256], 4 to 1,024 of them (a power of two), from a
# seed: the mean is a dyadic number, so every centred sample, prefix sum,
# second difference and sum of squares either estimator forms from them (or
# from an integer affine map of them) is exact.
_exact_series = st.builds(
    lambda seed, k: np.random.default_rng(seed).integers(-256, 257, 2**k).astype(float),
    st.integers(0, 2**32 - 1), st.integers(2, 10))
_estimators = st.sampled_from([allan_deviation, allan_deviation_overlapping])


class TestAllanSymmetries:
    """The Allan deviation as a seminorm of the series: blind to an offset,
    scaled by |a| under y -> a y, and blind to the direction of time."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(y=_exact_series, a=st.integers(-8, 8).filter(bool),
           b=st.integers(-(2**20), 2**20), dt=st.floats(1e-3, 10.0),
           estimator=_estimators)
    def test_affine_map_scales_by_abs_a(self, y, a, b, dt, estimator):
        # Only the final divide and square root, and the check's own product,
        # round: 2 eps relative (3.0e-16 measured over 3,000 random cases).
        taus = [dt * 2**j for j in range(y.size.bit_length() - 1)]
        want = estimator(TimeSeries(y, dt), taus)
        got = estimator(TimeSeries(a * y + b, dt), taus)
        np.testing.assert_array_equal(got.tau_avgs, want.tau_avgs)
        np.testing.assert_array_equal(got.n_blocks, want.n_blocks)
        scaled = abs(a) * want.adevs
        assert np.all(np.abs(got.adevs - scaled) <= 2.0 * 2.0**-52 * scaled)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(y=_exact_series, dt=st.floats(1e-3, 10.0), estimator=_estimators)
    def test_time_reversal_changes_no_bit(self, y, dt, estimator):
        # Every m divides N, so the non-overlapping blocks of the reversed
        # series are the same blocks in reverse order; with every sum exact,
        # both estimators give the same bits.
        taus = [dt * 2**j for j in range(y.size.bit_length() - 1)]
        want = estimator(TimeSeries(y, dt), taus)
        got = estimator(TimeSeries(y[::-1], dt), taus)
        np.testing.assert_array_equal(got.n_blocks, want.n_blocks)
        assert got.adevs.tobytes() == want.adevs.tobytes()


class TestAllanPrefixSum:
    """Both estimators read one mean-centred prefix sum; these pin its
    precision against the direct block forms and its bookkeeping."""

    @pytest.mark.parametrize(
        "estimator", [allan_deviation, allan_deviation_overlapping],
        ids=["non_overlapping", "overlapping"],
    )
    def test_offset_costs_no_digits(self, estimator):
        # 9.81 + 1e-8 white noise: y - y[0] is exact (one binade), so the
        # estimate must not depend on which of the two is analysed.
        rng = np.random.default_rng(5)
        y = 9.81 + 1e-8 * rng.normal(0.0, 1.0, 1 << 16)
        taus = list(np.geomspace(1.0, y.size / 5, 20))
        got = estimator(TimeSeries(samples=y, dt=1.0), taus)
        shifted = estimator(TimeSeries(samples=y - y[0], dt=1.0), taus)
        np.testing.assert_array_equal(got.n_blocks, shifted.n_blocks)
        np.testing.assert_allclose(got.adevs, shifted.adevs, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "estimator, direct",
        [(allan_deviation, _reduceat_adev), (allan_deviation_overlapping, _convolve_adev)],
        ids=["non_overlapping", "overlapping"],
    )
    def test_random_walk_matches_direct_forms(self, estimator, direct):
        # A random walk drifts far from its mean, the hardest case for a
        # prefix sum; the loss against the direct forms stays far below 1e-9.
        rng = np.random.default_rng(42)
        y = np.cumsum(rng.normal(0.0, 1.0, 65536))
        ms = [1, 2, 3, 8, 32, 100, 512, 2000]
        result = estimator(TimeSeries(samples=y, dt=1.0), [float(m) for m in ms])
        expected = [direct(y, m) for m in ms]
        np.testing.assert_allclose(result.adevs, expected, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize(
        "estimator, direct, count",
        [
            (allan_deviation, _reduceat_adev, lambda n, m: n // m),
            (allan_deviation_overlapping, _convolve_adev, lambda n, m: n - 2 * m + 1),
        ],
        ids=["non_overlapping", "overlapping"],
    )
    def test_edge_snaps_keep_times_and_counts(self, estimator, direct, count):
        # m = 1, m = N // 2, m not dividing N, and two requests snapping to
        # each of m = 7 and m = N // 2.
        n = 1001
        y = np.random.default_rng(3).normal(0.0, 1.0, n)
        ms = [1, 7, 13, n // 2]
        taus = [0.5, 3.5, 3.9, 6.5, 0.5 * (n // 2), 0.5 * (n // 2) + 0.4]
        result = estimator(TimeSeries(samples=y, dt=0.5), taus)
        np.testing.assert_array_equal(result.tau_avgs, [0.5 * m for m in ms])
        np.testing.assert_array_equal(result.n_blocks, [count(n, m) for m in ms])
        np.testing.assert_allclose(
            result.adevs, [direct(y, m) for m in ms], rtol=1e-12, atol=0.0
        )

    @staticmethod
    def _check_blocked_sum(n_terms, overlapping, work=None):
        m = 5
        stride = 1 if overlapping else m
        size = (n_terms - 1) * stride + 2 * m + 1
        steps = np.random.default_rng(n_terms).normal(0.0, 1.0, size - 1)
        c = np.concatenate(([0.0], np.cumsum(steps)))
        j = stride * np.arange(n_terms)
        expected = math.fsum((c[j + 2 * m] - 2.0 * c[j + m] + c[j]) ** 2)
        if work is None:
            work = _allan_work(c.size)
        power, count = _second_difference_power(c, m, stride, work)
        assert count == n_terms
        assert power == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n_terms", [8191, 8192, 8193, 3 * 8192 + 7])
    @pytest.mark.parametrize("overlapping", [False, True])
    def test_blocked_sum_matches_unblocked(self, n_terms, overlapping):
        # Term counts on either side of the edge of an 8192-term block (set
        # by the work buffer passed in) and a ragged last block.
        self._check_blocked_sum(n_terms, overlapping, np.empty(3 * 8192))

    @pytest.mark.parametrize(
        "n_terms",
        [_ALLAN_BLOCK - 1, _ALLAN_BLOCK, _ALLAN_BLOCK + 1, 3 * _ALLAN_BLOCK + 7],
    )
    @pytest.mark.parametrize("overlapping", [False, True])
    def test_default_block_sum_matches_unblocked(self, n_terms, overlapping):
        # The same edges of the default block, with the buffer the
        # estimators allocate.
        self._check_blocked_sum(n_terms, overlapping)

    @staticmethod
    def _exact_power(c, m, stride):
        """Exact rational sum of (c[j+2m] - 2 c[j+m] + c[j])^2 over the float
        prefix sum: every double is an integer over a power of two, so on
        the largest denominator the terms are Python ints."""
        ratios = [v.as_integer_ratio() for v in c.tolist()]
        den = max(d for _, d in ratios)
        k = [num * (den // d) for num, d in ratios]
        total = sum((k[j + 2 * m] - 2 * k[j + m] + k[j]) ** 2
                    for j in range(0, len(k) - 2 * m, stride))
        return Fraction(total, den * den)

    @staticmethod
    def _drifting_series(kind):
        n = 20_000
        rng = np.random.default_rng(2024)
        t = np.arange(n)
        white = rng.normal(0.0, 1.0, n)
        return {
            "white": white,
            "ramp": 1e-3 * t + white,
            "walk": np.cumsum(white),
            "sine": np.sin(2.0 * np.pi * t / 5000.0) + 1e-3 * white,
        }[kind]

    @pytest.mark.parametrize("kind", ["white", "ramp", "walk", "sine"])
    @pytest.mark.parametrize(
        "m, stride, block",
        [(1, 1, None), (4, 1, None), (4, 4, None), (64, 1, None),
         (64, 64, None), (1000, 1, None), (1000, 1000, None),
         (512, 1, 512), (513, 1, 512), (1000, 1, 512)],
    )
    def test_power_matches_exact_rational_sum(
        self, kind, m, stride, block, monkeypatch
    ):
        # On drifting series the block sums dwarf their differences, which
        # is where an expanded square would cancel.  With a 512-term block,
        # m = 512 fills the s-window to two blocks, and m = 513 and 1000
        # form the two s-windows apart.
        if block is not None:
            monkeypatch.setattr("gravsim.noise._ALLAN_BLOCK", block)
        c = _centred_prefix_sum(self._drifting_series(kind))
        power, count = _second_difference_power(c, m, stride, _allan_work(c.size))
        assert count == (c.size - 1 - 2 * m) // stride + 1
        exact = self._exact_power(c, m, stride)
        assert abs(Fraction(power) - exact) <= Fraction(1, 10**15) * exact

    @pytest.mark.parametrize(
        "estimator", [allan_deviation, allan_deviation_overlapping],
        ids=["non_overlapping", "overlapping"],
    )
    def test_peak_memory_is_the_prefix_sum(self, estimator):
        # The prefix sum is the one array as long as the series; the
        # second differences go through one small block buffer.
        n = 1 << 20
        series = TimeSeries(np.random.default_rng(7).normal(0.0, 1.0, n), dt=1.0)
        taus = list(np.geomspace(1.0, 4096.0, 20))
        tracemalloc.start()
        try:
            estimator(series, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * (n + 1)

    @pytest.mark.parametrize(
        "estimator", [allan_deviation, allan_deviation_overlapping],
        ids=["non_overlapping", "overlapping"],
    )
    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_named(self, estimator, tau):
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        with pytest.raises(ValueError, match=f"tau={tau}"):
            estimator(series, [2.0, tau])


_each_estimator = pytest.mark.parametrize(
    "estimator", [allan_deviation, allan_deviation_overlapping],
    ids=["non_overlapping", "overlapping"],
)


class TestAllanGrid:
    """The grid pass: each tau resolved to a kept ``m`` or to one omission
    reason before the kernel runs."""

    @_each_estimator
    def test_one_record_per_reason_with_count_and_range(self, estimator, caplog):
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        taus = [60.0, 0.5, 2.0, 1.0, 2.5, 0.1, 70.0, 1.2, 50.0]
        with caplog.at_level("WARNING", logger="gravsim.noise"):
            result = estimator(series, taus)
        np.testing.assert_array_equal(result.tau_avgs, [2.0, 1.0, 50.0])
        assert caplog.messages == [
            "omitting 2 tau in [0.1, 0.5] s: shorter than one sample",
            "omitting 2 tau in [1.2, 2.5] s: snaps to an m already kept",
            "omitting 2 tau in [60, 70] s: two blocks exceed the 100-sample series",
        ]

    @_each_estimator
    def test_tau_overflowing_its_sample_ratio_is_omitted(self, estimator, caplog):
        # tau / dt is +-inf: compared before any int(), so omitted, not
        # an OverflowError.
        series = TimeSeries(samples=np.arange(20.0), dt=0.01)
        with caplog.at_level("WARNING", logger="gravsim.noise"):
            result = estimator(series, [-1e308, 0.01, 1e308])
        np.testing.assert_array_equal(result.tau_avgs, [0.01])
        assert caplog.messages == [
            "omitting 1 tau in [-1e+308, -1e+308] s: shorter than one sample",
            "omitting 1 tau in [1e+308, 1e+308] s: two blocks exceed the "
            "20-sample series",
        ]

    @_each_estimator
    def test_kernel_runs_once_per_distinct_feasible_m(self, estimator, monkeypatch):
        calls = []
        kernel = gravsim.noise._second_difference_power

        def counted(c, m, stride, work):
            calls.append(m)
            return kernel(c, m, stride, work)

        monkeypatch.setattr("gravsim.noise._second_difference_power", counted)
        series = TimeSeries(samples=np.arange(100.0), dt=0.5)
        taus = np.geomspace(0.1, 100.0, 2000).tolist() + [3.0, 0.5]
        estimator(series, taus)
        expected = list(dict.fromkeys(
            int(tau / 0.5 + 1e-9) for tau in taus if 1 <= tau / 0.5 + 1e-9 < 51))
        assert calls == expected and len(expected) == 50


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


class TestCsvInterfaces:
    def test_psd_round_trip(self, tmp_path):
        psd = Psd(freqs=np.array([1.0, 2.5, 7.0]), values=np.array([0.1, 0.2, 0.0]))
        path = tmp_path / "psd.csv"
        write_psd_csv(path, psd, comments=["flat band fixture"])
        loaded = read_psd_csv(path)
        np.testing.assert_allclose(loaded.freqs, psd.freqs, rtol=1e-15)
        np.testing.assert_allclose(loaded.values, psd.values, rtol=1e-15)
        assert path.read_text().startswith("# flat band fixture\n")

    def test_series_round_trip(self, tmp_path):
        series = TimeSeries(samples=np.array([0.1, -0.4, 0.9]), dt=0.25, t0=2.0)
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        loaded = read_series_csv(path)
        np.testing.assert_allclose(loaded.samples, series.samples, rtol=1e-15)
        assert loaded.dt == pytest.approx(0.25, rel=1e-12)
        assert loaded.t0 == pytest.approx(2.0, rel=1e-12)

    def test_allan_csv_format(self, tmp_path):
        result = AllanResult(
            tau_avgs=np.array([1.0, 2.0]),
            adevs=np.array([0.5, 0.25]),
            n_blocks=np.array([10, 5]),
        )
        path = tmp_path / "allan.csv"
        expected = (
            b"# fixture\n"
            b"tau,adev,n_blocks\n"
            b"1.000000000000000e+00,5.000000000000000e-01,10\n"
            b"2.000000000000000e+00,2.500000000000000e-01,5\n"
        )
        write_allan_csv(path, result, comments=["fixture"])
        assert path.read_bytes() == expected
        # Counts held as floats are still written as plain integers.
        write_allan_csv(
            path,
            AllanResult(result.tau_avgs, result.adevs, np.array([10.0, 5.0])),
            comments=["fixture"],
        )
        assert path.read_bytes() == expected

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            read_psd_csv(tmp_path / "nope.csv")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency,power\n1.0,2.0\n")
        with pytest.raises(DataFormatError, match="expected header"):
            read_psd_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega_rad_per_s,psd_value\n1.0,2.0,3.0\n")
        with pytest.raises(DataFormatError, match="columns"):
            read_psd_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        # The second file's quoted cell runs across two lines.
        for data in ("1.0,lots\n", '1.0,"2.0\n"3.0",4.0\n'):
            path.write_text("omega_rad_per_s,psd_value\n" + data)
            with pytest.raises(DataFormatError):
                read_psd_csv(path)

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega_rad_per_s,psd_value\n")
        with pytest.raises(DataFormatError, match="no data"):
            read_psd_csv(path)

    def test_non_uniform_series_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.0,1.0\n1.0,2.0\n2.5,3.0\n")
        with pytest.raises(DataFormatError, match="uniform"):
            read_series_csv(path)

    @pytest.mark.parametrize("t0, dt", [(1.3e9, 0.01), (3.15e7, 1e-3)])
    def test_epoch_times_read_as_uniform(self, tmp_path, t0, dt):
        # One ulp of t at these sizes exceeds 1e-6 dt, so the step check
        # must allow the rounding of the times; a 1 % glitch still fails.
        # dt = span / (n - 1) is off by about ulp(t0) / span, 2e-10 here.
        path = tmp_path / "epoch.csv"
        t = t0 + dt * np.arange(10_000)
        path.write_text("t,y\n" + "".join(f"{x:.17g},1.0\n" for x in t))
        loaded = read_series_csv(path)
        assert loaded.dt == pytest.approx(dt, rel=1e-9)
        assert loaded.t0 == t0
        t[5_000:] += 0.01 * dt
        path.write_text("t,y\n" + "".join(f"{x:.17g},1.0\n" for x in t))
        with pytest.raises(DataFormatError, match="uniform"):
            read_series_csv(path)

    def test_descending_psd_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega_rad_per_s,psd_value\n2.0,1.0\n1.0,1.0\n")
        with pytest.raises(DataFormatError):
            read_psd_csv(path)

    def test_comment_rows_skipped(self, tmp_path):
        # A row is a comment when its first non-blank character is '#',
        # before the header and between data rows alike.
        path = tmp_path / "series.csv"
        path.write_text(
            "# recorded\n  # c\nt,y\n0.0,1.0\n# between\n\n  # c\n0.5,-2.0\n"
        )
        loaded = read_series_csv(path)
        assert np.array_equal(loaded.samples, [1.0, -2.0])
        assert (loaded.dt, loaded.t0) == (0.5, 0.0)

    def test_whitespace_only_row_is_column_error_at_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.0,1.0\n   \n1.0,2.0\n")
        with pytest.raises(
            DataFormatError, match=r"bad\.csv:3: expected 2 columns, got 1$"
        ):
            read_series_csv(path)

    def test_inline_hash_is_data_error_at_its_line(self, tmp_path):
        # '#' after the first cell does not start a comment.
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.0,1.0\n1.0,2.0 # note\n")
        with pytest.raises(
            DataFormatError,
            match=r"bad\.csv:3: could not convert string to float: '2\.0 # note'$",
        ):
            read_series_csv(path)

    def test_line_numbers_count_comment_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# a\n# b\nt,y\n0.0,lots\n")
        with pytest.raises(
            DataFormatError,
            match=r"bad\.csv:4: could not convert string to float: 'lots'$",
        ):
            read_series_csv(path)
        path.write_text(
            "# a\n# b\nomega_rad_per_s,psd_value\n1.0,2.0\n2.0,3.0,4.0\n"
        )
        with pytest.raises(
            DataFormatError, match=r"bad\.csv:5: expected 2 columns, got 3$"
        ):
            read_psd_csv(path)
        # Comment and empty rows between data rows, some of them repeated,
        # ahead of a bad header, a row of three cells, a non-finite cell and
        # a repeat of the header.
        for text, message in (
            (
                "# a\n\n  # b\nt,z\n0.0,1.0\n",
                r"bad\.csv:4: expected header \['t', 'y'\], got \['t', 'z'\]$",
            ),
            (
                "t,y\n0.0,1.0\n# note\n\n0.0,1.0\n  # indented\n0.0,1.0,5.0\n",
                r"bad\.csv:7: expected 2 columns, got 3$",
            ),
            (
                "t,y\n0.0,1.0\n\n# note\n0.0,1.0\n\n0.0,inf\n",
                r"bad\.csv:7: non-finite value in column 'y': 'inf'$",
            ),
            (
                "t,y\n0.0,1.0\n# note\n\nt,y\n",
                r"bad\.csv:5: could not convert string to float: 't'$",
            ),
        ):
            path.write_text(text)
            with pytest.raises(DataFormatError, match=message):
                read_series_csv(path)

    def test_crlf_and_quoted_cells_read_as_plain(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"t,y\n0.0,1.5\n0.5,-2.25\n1.0,3.0\n")
        variants = {
            "crlf.csv": b"t,y\r\n0.0,1.5\r\n0.5,-2.25\r\n1.0,3.0\r\n",
            "quoted.csv": b'"t","y"\n"0.0","1.5"\n0.5,"-2.25"\n"1.0",3.0\n',
            "both.csv": b'"t","y"\r\n"0.0","1.5"\r\n"0.5","-2.25"\r\n"1.0","3.0"\r\n',
        }
        expected = read_series_csv(plain)
        for name, content in variants.items():
            path = tmp_path / name
            path.write_bytes(content)
            loaded = read_series_csv(path)
            assert np.array_equal(loaded.samples, expected.samples), name
            assert (loaded.dt, loaded.t0) == (expected.dt, expected.t0), name

    @pytest.mark.parametrize("fmt", ["{:.15e}".format, repr])
    def test_doubles_read_back_bit_identical(self, tmp_path, fmt):
        # Random bit patterns span every exponent, subnormals included.
        bits = np.random.default_rng(12).integers(
            0, 2**64, size=70_000, dtype=np.uint64
        )
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:65_536]
        cells = [fmt(float(v)) for v in values]
        path = tmp_path / "series.csv"
        path.write_text(
            "t,y\n" + "".join(f"{i * 0.25!r},{c}\n" for i, c in enumerate(cells))
        )
        loaded = read_series_csv(path)
        expected = np.array([float(s) for s in cells])
        assert loaded.samples.size == 65_536
        assert np.array_equal(loaded.samples.view(np.uint64), expected.view(np.uint64))
