"""noise-budget: in-process noise and sensitivity budget calls.

The deterministic PSD integrals (phase_variance_from_psd,
allan_from_acceleration_psd, transfer_function tables, dc_phase_response)
sit beside the stochastic synthesis (synthesize_noise and the two Monte
Carlo checks) and the O(N) Allan estimators on a 2**20-sample series, so a
closed-form G(omega) and a spectral-domain Monte Carlo move different
layer metrics.  Band edges, grids, shot and sample counts are fixed; the
seed draws the PSD levels and shapes, the Monte-Carlo seeds and the series.
References are computed on first use by a check, then reused, so they add
neither to set-up nor to the timed operations.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

import reference as ref
from gravsim import noise
from harness import Op, Workload, interleave

TWO_PI = 2.0 * math.pi
K_EFF = 1.61e7
#: Sequence timings (T, tau_p): criterion 7's, the CLI default, a short one.
PROFILES = {"crit7": (0.05, 0.005), "cli": (0.1, 1e-5), "short": (0.02, 5e-4)}
#: PSD integrals agree with the dense closed-form quadrature to this share.
#: Over 50 seeds the program's own grids are off by up to 8.3e-4 (its
#: trapezoid on the printed vibration formula) and 2.5e-4 (phase variance;
#: 9.2e-5 on criterion 7's band), so both they and an exact G pass.
INTEGRAL_REL_TOL = 2e-3
#: Monte-Carlo means must fall within the larger of criterion 7's bound and
#: this many standard errors of a mean over the call's shots.
STAT_SIGMAS = 6.0
MC_SHOTS = 16
VIB_SHOTS = 1600
ALLAN_SAMPLES = 1 << 20
ALLAN_GRIDS = (
    [2.0**k for k in range(13)],
    list(np.geomspace(1, 4096, 20)),
    list(np.geomspace(2, 2048, 30)),
    [1, 3, 10, 30, 100, 300, 1000, 3000],
)


def _rel(value, expected):
    return abs(value - expected) / abs(expected)


def _within(value, expected, tol, what):
    err = _rel(value, expected)
    return None if err <= tol else f"{what} off by {err:.2e} rel (tol {tol:.1e})"


class NoiseBudget(Workload):
    imports = ("gravsim.noise",)
    why = ("PSD integrals, transfer tables, Monte-Carlo synthesis and Allan "
           "loops: the separate costs of the noise module")

    def _psds(self, rng):
        """Phase-noise and acceleration PSDs: fixed bands, seeded values."""
        def shaped(lo_hz, hi_hz, n, slope):
            freqs = TWO_PI * np.geomspace(lo_hz, hi_hz, n)
            bumps = np.exp(rng.normal(0.0, 0.3, n))
            return freqs, bumps * (freqs / freqs[0]) ** slope

        level = 1e-8 * rng.uniform(0.5, 2.0)
        f, v = shaped(50.0, 2e3, 8, -2.0)
        f2, v2 = shaped(10.0, 1e4, 12, 0.0)
        f3, v3 = shaped(1.0, 5e3, 16, -1.0)
        a2f, a2v = shaped(0.5, 20.0, 6, -1.0)
        return {
            # criterion 7's band, flat
            "crit7": ("crit7", np.array([TWO_PI * 1e3, TWO_PI * 1e4]),
                      np.array([level, level])),
            "steep": ("crit7", f, 1e-6 * v),
            "bumpy": ("cli", f2, 1e-9 * v2),
            "pink": ("short", f3, 1e-7 * v3),
            # acceleration PSDs [(m/s^2)^2 per rad/s]
            "accel": ("crit7", np.array([TWO_PI, TWO_PI * 50.0]),
                      np.full(2, 1e-7 * rng.uniform(0.5, 2.0))),
            "accel-low": ("cli", a2f, 1e-7 * a2v),
        }

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        psds = self._psds(rng)
        profiles = {k: noise.SensitivityProfile.from_tau_p(*v)
                    for k, v in PROFILES.items()}
        ops = []

        for name in ("crit7", "steep", "bumpy", "pink"):
            pname, freqs, values = psds[name]
            psd, profile = noise.Psd(freqs, values), profiles[pname]
            expected = cache(lambda f=freqs, v=values, p=pname: ref.phase_variance(
                f, v, *PROFILES[p]))
            ops.append(Op(
                f"phase-variance-{name}",
                lambda psd=psd, profile=profile: noise.phase_variance_from_psd(
                    psd, profile, allow_partial=True),
                lambda out, e=expected: _within(out.variance, e(), INTEGRAL_REL_TOL,
                                                "phase variance")))

        for name, cycle in (("accel", 0.25), ("accel-low", 0.5)):
            pname, freqs, values = psds[name]
            psd, profile = noise.Psd(freqs, values), profiles[pname]
            for formula in ("printed", "shot-sampled"):
                expected = cache(lambda f=freqs, v=values, p=pname, c=cycle,
                                 fm=formula: ref.vibration_allan(
                                     f, v, *PROFILES[p], K_EFF, c, fm))
                ops.append(Op(
                    f"vibration-allan-{formula}",
                    lambda psd=psd, profile=profile, cycle=cycle, formula=formula:
                        noise.allan_from_acceleration_psd(
                            psd, profile, K_EFF, cycle, formula, allow_partial=True),
                    lambda out, e=expected: _within(out, e(), INTEGRAL_REL_TOL,
                                                    "vibration Allan variance")))

        for pname, top_hz in (("crit7", 1e4), ("cli", 1e5)):
            omegas = np.linspace(0.0, TWO_PI * top_hz, 20_001)
            expected = cache(lambda om=omegas, p=pname: ref.transfer(
                om, *PROFILES[p]))
            ops.append(Op(
                f"transfer-table-{pname}",
                lambda omegas=omegas, profile=profiles[pname]:
                    noise.transfer_function(omegas, profile),
                lambda out, e=expected: self._check_transfer(out, e())))

        dc_profiles = dict(PROFILES, thin=(0.1, 1e-9))
        for pname, timing in dc_profiles.items():
            a0 = rng.uniform(0.5, 2.0)
            expected = cache(lambda t=timing, a0=a0: ref.dc_phase(*t, K_EFF, a0))
            profile = noise.SensitivityProfile.from_tau_p(*timing)
            ops.append(Op(
                "dc-response",
                lambda profile=profile, a0=a0: noise.dc_phase_response(
                    profile, K_EFF, a0),
                lambda out, e=expected: _within(out, e(), 1e-9, "DC phase")))

        _, freqs, values = psds["crit7"]
        mc_seed = int(rng.integers(2**31))
        expected = cache(lambda f=freqs, v=values: ref.phase_variance(
            f, v, *PROFILES["crit7"]))
        tol = max(0.10, STAT_SIGMAS * math.sqrt(2.0 / MC_SHOTS))
        ops.append(Op(
            "monte-carlo-phase",
            lambda psd=noise.Psd(freqs, values): noise.monte_carlo_phase_variance(
                psd, profiles["crit7"], MC_SHOTS, mc_seed),
            lambda out, e=expected, tol=tol: _within(out, e(), tol,
                                                     "Monte-Carlo phase variance")))

        _, freqs, values = psds["accel"]
        vib_seed = int(rng.integers(2**31))
        expected = cache(lambda f=freqs, v=values: ref.vibration_allan(
            f, v, *PROFILES["crit7"], K_EFF, 0.25, "shot-sampled"))
        # Measured spread of one call: 9.2 % at 420 shots, i.e. sqrt(3.6/N).
        tol = max(0.15, STAT_SIGMAS * math.sqrt(4.0 / VIB_SHOTS))
        ops.append(Op(
            "monte-carlo-vibration",
            lambda psd=noise.Psd(freqs, values): noise.monte_carlo_vibration_allan(
                psd, profiles["crit7"], K_EFF, 0.25, VIB_SHOTS, vib_seed),
            lambda out, e=expected, tol=tol: _within(out, e(), tol,
                                                     "Monte-Carlo vibration Allan")))

        for name, duration, dt in (("accel", 400.0, 5e-4), ("steep", 20.0, 2e-5)):
            _, freqs, values = psds[name]
            synth_seed = int(rng.integers(2**31))
            expected = cache(lambda f=freqs, v=values, d=duration, dt=dt:
                             ref.synthesis_power(f, v, d, dt))
            ops.append(Op(
                "synthesize",
                lambda psd=noise.Psd(freqs, values), duration=duration, dt=dt,
                    s=synth_seed: noise.synthesize_noise(psd, duration, dt, s),
                lambda out, e=expected: _within(float(np.mean(out.samples**2)), e(),
                                                1e-9, "synthesized power")))

        dt = 0.01
        white = noise.TimeSeries(rng.normal(0.0, 1.0, ALLAN_SAMPLES), dt)
        self._allan_cache: dict[tuple[str, int], float] = {}
        for grid in ALLAN_GRIDS:
            taus = [m * dt for m in grid]
            for estimator in ("allan_deviation", "allan_deviation_overlapping"):
                # Looked up at call time, so a traced list sees the wrapper.
                ops.append(Op(
                    estimator,
                    lambda est=estimator, taus=taus: getattr(noise, est)(white, taus),
                    lambda out, est=estimator: self._check_allan(out, white, est)))

        self.ops = interleave(ops)
        # Warm-up: the cheapest deterministic calls.
        noise.dc_phase_response(profiles["cli"], K_EFF)
        noise.transfer_function(np.linspace(0.0, 1e4, 101), profiles["cli"])

    @staticmethod
    def _check_transfer(out, expected):
        # Absolute error against the table's peak: relative error is
        # meaningless at the nulls of |G|.
        err = float(np.max(np.abs(np.asarray(out) - expected)) / np.max(expected))
        return None if err <= 1e-4 else f"|G| off by {err:.2e} of its peak"

    def _check_allan(self, out, series, estimator):
        slope = ref.loglog_slope(out.tau_avgs, out.adevs)
        if abs(slope + 0.5) > 0.05:
            return f"white-noise Allan slope {slope:.3f}, expected -0.5 +- 0.05"
        overlapping = estimator.endswith("_overlapping")
        one = ref.allan_overlapping if overlapping else ref.allan_nonoverlapping
        for tau, adev in zip(out.tau_avgs, out.adevs):
            m = int(round(tau / series.dt))
            if overlapping and m > 64:
                continue  # the convolution reference costs O(N m)
            key = (estimator, m)
            if key not in self._allan_cache:
                self._allan_cache[key] = one(series.samples, m)
            if _rel(adev, self._allan_cache[key]) > 1e-9:
                return f"adev at m={m} differs from the reference"
        return None
