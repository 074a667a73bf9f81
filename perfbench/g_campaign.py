"""g-campaign: in-process chirp scans, each followed by a g estimate.

Scan width sets the fit's cost (its grid search scales with fringes x
points), so the list mixes several hundred narrow scans, which expose
per-call overhead, tens of wide scans and two 20,000-point scans.
Detection (simulate_scan) sits beside fitting (estimate_g) in every
operation.  Every scan's true g, laser phase, centre offset and detection
seed come from the workload seed; sizes are fixed, so every seed does the
same amount of work.
"""

from __future__ import annotations

import math

import numpy as np

from gravsim import measurement
from harness import Op, Workload, interleave

K_EFF = 1.61e7
#: (kind, points, fringes, atoms per shot, count per list); atoms 0 = noiseless.
SCANS = (
    [("narrow", 50, 2.0, n, 80) for n in (1_000, 10_000, 100_000)]
    + [("narrow-noiseless", 50, 2.0, 0, 24),
       ("wide", 2_000, 20.0, 10_000, 16),
       ("wide-noiseless", 2_000, 20.0, 0, 4),
       ("huge", 20_000, 200.0, 10_000, 1),
       ("huge-noiseless", 20_000, 200.0, 0, 1)]
)
DUAL_PAIRS = 16
DUAL_T = (0.1, 0.071)
#: Noisy estimates must land within this many of their own sigma_g.
SIGMA_MULTIPLE = 6.0
NOISELESS_REL_TOL = 1e-9


def _ideal(betas, g, big_t, dphi):
    return 0.5 * (1.0 - np.cos((betas - K_EFF * g) * big_t**2 + dphi))


def _check_scan(scan, betas, g, big_t, dphi, n_atoms):
    if np.max(np.abs(scan.probabilities - _ideal(betas, g, big_t, dphi))) > 1e-9:
        return "ideal fringe differs from the reference fringe"
    if n_atoms:
        counts = scan.measured * n_atoms
        if (np.any(np.abs(counts - np.round(counts)) > 1e-6 * n_atoms)
                or np.any(counts < 0) or np.any(counts > n_atoms)):
            return "detected fractions are not counts out of n_atoms"
    elif not np.array_equal(scan.measured, scan.probabilities):
        return "noiseless scan has noise"
    return None


def _check_g(est, g, n_atoms):
    if n_atoms == 0:
        rel = abs(est.g_hat - g) / g
        return None if rel <= NOISELESS_REL_TOL else f"noiseless g off by {rel:.2e} rel"
    if not (math.isfinite(est.sigma_g) and est.sigma_g > 0.0):
        return f"sigma_g = {est.sigma_g!r}"
    dev = abs(est.g_hat - g) / est.sigma_g
    return None if dev <= SIGMA_MULTIPLE else f"g off by {dev:.1f} sigma_g"


class GCampaign(Workload):
    imports = ("gravsim.measurement",)
    why = ("chirp scans of 50 to 20,000 points, each fitted for g: detection "
           "and fitting costs in measurement, scaling with scan width")

    def _grid(self, rng, g, dphi, points, fringes, big_t, shift=0):
        """Chirp grid centred within 0.3 fringe of the null, moved by
        ``shift`` whole fringes, so the fold picks a known fringe."""
        period = 2.0 * math.pi / big_t**2
        centre = (K_EFF * g - dphi / big_t**2
                  + (rng.uniform(-0.3, 0.3) + shift) * period)
        half = 0.5 * fringes * period
        return centre + np.linspace(-half, half, points)

    def _truth(self, rng):
        """True g, laser phase and detection seed of one scan."""
        return (9.80 + 0.02 * rng.random(), rng.uniform(-math.pi, math.pi),
                int(rng.integers(2**31)))

    def _scan_op(self, rng, kind, points, fringes, n_atoms):
        big_t = float(rng.choice([0.05, 0.1, 0.2]))
        g, dphi, seed = self._truth(rng)
        betas = self._grid(rng, g, dphi, points, fringes, big_t)

        def call():
            scan = measurement.simulate_scan(
                betas, K_EFF, g, big_t, dphi, n_atoms, seed if n_atoms else None)
            return scan, measurement.estimate_g(scan, K_EFF, big_t, dphi)

        def check(out):
            scan, est = out
            return (_check_scan(scan, betas, g, big_t, dphi, n_atoms)
                    or _check_g(est, g, n_atoms))

        return Op(kind, call, check)

    def _dual_op(self, rng):
        t_a, t_b = DUAL_T
        g, dphi, seed_a = self._truth(rng)
        seed_b = int(rng.integers(2**31))
        betas_a = self._grid(rng, g, dphi, 50, 2.0, t_a)
        # The second scan sits up to one fringe of its own lattice away, so
        # its single-T estimate is off by a lattice step that the pair fixes.
        betas_b = self._grid(rng, g, dphi, 50, 2.0, t_b, int(rng.integers(-1, 2)))
        n_atoms = 10_000

        def call():
            scan_a = measurement.simulate_scan(betas_a, K_EFF, g, t_a, dphi,
                                               n_atoms, seed_a)
            scan_b = measurement.simulate_scan(betas_b, K_EFF, g, t_b, dphi,
                                               n_atoms, seed_b)
            return measurement.estimate_g_dual(scan_a, t_a, scan_b, t_b,
                                               K_EFF, dphi)

        return Op("dual", call, lambda est: _check_g(est, g, n_atoms))

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        ops = [self._scan_op(rng, kind, points, fringes, n_atoms)
               for kind, points, fringes, n_atoms, count in SCANS
               for _ in range(count)]
        ops += [self._dual_op(rng) for _ in range(DUAL_PAIRS)]
        self.ops = interleave(ops)
        # Warm-up: one narrow noisy scan and fit.
        warm = self._scan_op(np.random.default_rng([seed, 3]), "warm", 50, 2.0, 1000)
        if warm.check(warm.call()) is not None:
            raise RuntimeError("warm-up scan failed its check")
