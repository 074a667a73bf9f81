"""Tests for sensitivity functions, spectral integrals, synthesis, and Allan
statistics.

Oracle strategy:
* piecewise sensitivity values at hand-picked points where the trig collapses
  to exact constants;
* the closed-form acceleration weight against a dense numeric cumulative
  integral of the sensitivity function (two independent paths);
* the transfer function against an in-test dense trapezoid of
  g_s(t) e^{-i omega t} and against the thin-pulse closed form;
* PSD integrals against narrowband concentration limits and against
  time-domain Monte-Carlo with frozen seeds;
* Allan estimators against hand-evaluated block arithmetic, slope laws
  for white and random-walk noise, and direct block-sum (reduceat) and
  running-mean (convolve) forms.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson
from scipy.signal import periodogram

import gravsim
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
    _band_phases,
    _bins,
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
    transfer_function_square_profile,
    write_allan_csv,
    write_psd_csv,
    write_series_csv,
)

SQ2 = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# Profile and sensitivity function
# ---------------------------------------------------------------------------


class TestSensitivityProfile:
    def test_pi_pulse_condition_enforced(self):
        with pytest.raises(ValueError, match="pi-pulse"):
            SensitivityProfile(big_t=0.1, tau_p=0.01, omega_r=100.0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="big_t > tau_p"):
            SensitivityProfile.from_tau_p(big_t=0.01, tau_p=0.02)
        with pytest.raises(ValueError, match="big_t > tau_p"):
            SensitivityProfile.from_tau_p(big_t=0.01, tau_p=-1.0)

    def test_constructors_agree(self):
        p1 = SensitivityProfile.from_tau_p(big_t=0.1, tau_p=0.01)
        p2 = SensitivityProfile.from_omega_r(big_t=0.1, omega_r=math.pi / 0.01)
        assert p1.omega_r == pytest.approx(p2.omega_r, rel=1e-15)
        assert p1.tau_p == pytest.approx(p2.tau_p, rel=1e-15)

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

    def test_integrates_to_zero(self):
        t = np.linspace(0.0, self.profile.span, 40001)
        total = simpson(sensitivity_g(t, self.profile), x=t)
        assert abs(total) < 1e-10

    def test_scalar_input(self):
        val = sensitivity_g(0.05, self.profile)
        assert isinstance(val, float)
        assert val == pytest.approx(-1.0, abs=1e-12)


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


class TestAccelerationPhase:
    profile = SensitivityProfile.from_tau_p(big_t=0.08, tau_p=0.012)

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


class TestTransferFunction:
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

    def test_rejects_negative_frequency(self):
        profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
        with pytest.raises(ValueError, match="omega"):
            transfer_function(np.array([-1.0]), profile)

    def test_scalar_input(self):
        profile = SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
        assert isinstance(transfer_function(100.0, profile), float)


# ---------------------------------------------------------------------------
# PSD container and synthesis
# ---------------------------------------------------------------------------


class TestPsd:
    def test_validation(self):
        with pytest.raises(ValueError):
            Psd(freqs=np.array([2.0, 1.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Psd(freqs=np.array([1.0, 2.0]), values=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            Psd(freqs=np.array([-1.0, 2.0]), values=np.array([1.0, 1.0]))

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
            amps, omega_k, n_record = _bins(psd, factor * profile.span, dt)
            assert n_record % 2 == parity
            live = np.flatnonzero(amps)
            assert 0 < live[0] and live[-1] < omega_k.size - 1
            for shot in range(3):
                np.testing.assert_array_equal(
                    _band_phases(live, [5, shot]),
                    np.random.default_rng([5, shot]).uniform(
                        0.0, 2.0 * math.pi, omega_k.size
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


# ---------------------------------------------------------------------------
# Allan estimators
# ---------------------------------------------------------------------------


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
        assert len(caplog.records) == 1
        assert "omitting tau=1.2 s: snaps to m=1 samples" in caplog.text

    def test_sub_sample_tau_omitted_with_log(self, caplog):
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        with caplog.at_level("WARNING", logger="gravsim.noise"):
            result = allan_deviation(series, [0.1, 4.0])
        assert result.tau_avgs.size == 1
        assert "omitting tau=0.1" in caplog.text

    def test_too_long_tau_omitted_with_log(self, caplog):
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        with caplog.at_level("WARNING", logger="gravsim.noise"):
            result = allan_deviation(series, [60.0, 4.0])
        assert result.tau_avgs.size == 1
        assert "omitting tau=60 s: only 1 block(s) of 60 samples" in caplog.text

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
        assert "omitting tau=0.1 s: shorter than one sample" in caplog.text

    def test_too_long_tau_omitted_with_log(self, caplog):
        series = TimeSeries(samples=np.arange(100.0), dt=1.0)
        with caplog.at_level("WARNING", logger="gravsim.noise"):
            result = allan_deviation_overlapping(series, [60.0, 4.0])
        np.testing.assert_allclose(result.tau_avgs, [4.0])
        assert (
            "omitting tau=60 s: series too short for overlapping blocks"
            in caplog.text
        )

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
        path.write_text("omega_rad_per_s,psd_value\n1.0,lots\n")
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

    def test_descending_psd_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega_rad_per_s,psd_value\n2.0,1.0\n1.0,1.0\n")
        with pytest.raises(DataFormatError):
            read_psd_csv(path)
