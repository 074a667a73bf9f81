"""Chirped fringe scans, shot-noise detection, and gravity estimation.

The measurement model: for each chirp rate ``beta`` the interferometer exit
population follows the ideal fringe

    P(beta) = (1/2) [1 - cos((beta - k_eff g) T^2 + dphi_laser)]

and a detector averaging ``n_atoms`` projective measurements reports a
binomial fraction.  Scanning ``beta`` and fitting the fringe yields the null
chirp rate and hence ``g = beta_null / k_eff``.

Determinism: a noisy scan derives one Philox key from its seed,
``SeedSequence(seed).generate_state(2, uint64)``, and point ``i`` draws from
the Philox stream that starts at counter ``(0, 0, 0, i)`` under that key
(Salmon et al., SC'11).  Each point is thus a function of ``(seed, i)``
alone: it does not depend on the other points of the scan or on the order
in which they are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_G, DEFAULT_K_EFF
from .errors import AmbiguousFringeError, DataFormatError, FitFailureError
from .trajectory import chirped_phase

__all__ = [
    "FringeScan",
    "GravityEstimate",
    "ideal_fringe",
    "detect",
    "beta_grid",
    "simulate_scan",
    "estimate_g",
    "estimate_g_dual",
]

#: Minimum scan span, in fringe periods, for an unambiguous fit.
_MIN_SPAN_PERIODS = 1.5
#: Minimum sampling density, in points per fringe period.
_MIN_POINTS_PER_PERIOD = 8.0
#: Fitted contrast, relative to the largest datum, below which it is zero.
_CONTRAST_FLOOR = 1e-12


@dataclass(frozen=True)
class FringeScan:
    """One chirp scan: grid, ideal fringe, and (possibly noisy) data.

    Attributes
    ----------
    betas : numpy.ndarray
        Chirp rates [rad/s^2].
    probabilities : numpy.ndarray
        Ideal (noise-free) excited-state fractions.
    measured : numpy.ndarray
        Detected fractions; equals ``probabilities`` for a noiseless scan.
    n_atoms : int
        Atoms per shot (0 means noiseless).
    seed : int or None
        Master seed of the detection streams (None for noiseless scans).
    """

    betas: np.ndarray
    probabilities: np.ndarray
    measured: np.ndarray
    n_atoms: int
    seed: int | None

    def __post_init__(self) -> None:
        b = np.asarray(self.betas, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise DataFormatError("betas must be a 1-D grid with >= 2 points")
        if not (len(self.probabilities) == len(self.measured) == b.size):
            raise DataFormatError("scan arrays must share one length")


@dataclass(frozen=True)
class GravityEstimate:
    """Result of a fringe fit.

    Attributes
    ----------
    g_hat : float
        Estimated gravitational acceleration [m/s^2].
    sigma_g : float
        One-sigma statistical uncertainty on ``g_hat`` [m/s^2].
    beta_null : float
        Fitted null chirp rate, folded to the fringe nearest the scan
        center [rad/s^2].
    fit_residual : float
        Root-mean-square fit residual (fraction units).
    """

    g_hat: float
    sigma_g: float
    beta_null: float
    fit_residual: float


def ideal_fringe(
    beta: np.ndarray | float,
    k_eff: float = DEFAULT_K_EFF,
    g_true: float = DEFAULT_G,
    big_t: float = 0.1,
    dphi_laser: float = 0.0,
) -> np.ndarray | float:
    """Noise-free exit fraction (1/2)[1 - cos((beta - k_eff g) T^2 + dphi)].

    Accepts a scalar or an array of chirp rates.  The fringe is periodic in
    ``beta`` with period ``2 pi / T^2``.
    """
    beta_arr = np.asarray(beta, dtype=float)
    phase = chirped_phase(beta_arr, k_eff, g_true, big_t, dphi_laser)
    if np.ndim(phase) == 0:
        return 0.5 * (1.0 - math.cos(phase))
    return 0.5 * (1.0 - np.cos(phase))


def detect(p_ideal: float, n_atoms: int, rng: np.random.Generator) -> float:
    """Detected fraction of ``n_atoms`` projective measurements.

    Draws ``k ~ Binomial(n_atoms, p_ideal)`` from ``rng`` and returns
    ``k / n_atoms``.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if not -1e-9 <= p_ideal <= 1.0 + 1e-9:
        raise ValueError(f"p_ideal must lie in [0, 1], got {p_ideal}")
    p = min(max(p_ideal, 0.0), 1.0)
    return float(rng.binomial(n_atoms, p)) / float(n_atoms)


def beta_grid(
    center: float, span_fringes: float, n_points: int, big_t: float
) -> np.ndarray:
    """Uniform chirp grid spanning ``span_fringes`` fringe periods."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    half = 0.5 * span_fringes * 2.0 * math.pi / (big_t * big_t)
    return center + np.linspace(-half, half, n_points)


def simulate_scan(
    betas: np.ndarray,
    k_eff: float = DEFAULT_K_EFF,
    g_true: float = DEFAULT_G,
    big_t: float = 0.1,
    dphi_laser: float = 0.0,
    n_atoms: int = 0,
    seed: int | None = None,
) -> FringeScan:
    """Simulate one chirp scan, optionally with binomial shot noise.

    Parameters
    ----------
    betas : numpy.ndarray
        Chirp rates to scan [rad/s^2].
    n_atoms : int, optional
        Atoms per shot; 0 (default) returns a noiseless scan.
    seed : int, optional
        Master seed; required when ``n_atoms > 0``.
    """
    betas = np.asarray(betas, dtype=float)
    probs = np.asarray(ideal_fringe(betas, k_eff, g_true, big_t, dphi_laser))
    if n_atoms == 0:
        return FringeScan(
            betas=betas,
            probabilities=probs,
            measured=probs.copy(),
            n_atoms=0,
            seed=seed,
        )
    if n_atoms < 0:
        raise ValueError(f"n_atoms must be >= 0, got {n_atoms}")
    if seed is None:
        raise ValueError("a seed is required for a noisy scan")
    if not np.all((probs >= -1e-9) & (probs <= 1.0 + 1e-9)):
        raise ValueError("ideal fringe fractions must lie in [0, 1]")
    p = np.clip(probs, 0.0, 1.0)
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    bit_gen = np.random.Philox(key=key)
    rng = np.random.Generator(bit_gen)
    # Re-seating the counter of a fresh state is ~5x cheaper than building
    # Philox(key=key, counter=[0, 0, 0, i]) per point, and draws the same.
    state = bit_gen.state
    counter = state["state"]["counter"]

    def detect_point(i: int) -> int:
        counter[3] = i
        bit_gen.state = state
        return rng.binomial(n_atoms, p[i])

    counts = np.fromiter(map(detect_point, range(p.size)), dtype=float, count=p.size)
    measured = counts / n_atoms
    return FringeScan(
        betas=betas, probabilities=probs, measured=measured, n_atoms=n_atoms, seed=seed
    )


def _fit_fringe(
    x: np.ndarray, y: np.ndarray
) -> tuple[float, float, float, float, float]:
    """Fit y = A - B cos(x - psi0) and return (A, B, psi0, sse, sigma_psi0).

    ``x`` is the scan phase (beta - beta_center) * T^2 in radians.  The model
    is linear in ``(A, C, S) = (A, -B cos psi0, -B sin psi0)`` on the design
    ``[1, cos x, sin x]`` (the known-frequency three-parameter sine fit of
    IEEE Std 1057), so one linear least-squares solve is the exact optimum.
    ``psi0 = atan2(-S, -C)`` lies in [-pi, pi], the fringe nearest ``x = 0``.
    ``sigma_psi0`` propagates ``sigma^2 (X^T X)^-1``, with
    ``sigma^2 = sse / (n - 3)``, through the gradient of ``psi0``; this equals
    the Gauss-Newton variance in the ``(A, B, psi0)`` parametrisation.
    """
    design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise FitFailureError(f"fringe design has rank {rank} < 3")
    a, c, s = (float(v) for v in coef)
    b = math.hypot(c, s)
    # A contrast at the rounding level of the data leaves psi0 undefined.
    if b <= _CONTRAST_FLOOR * float(np.max(np.abs(y))):
        raise FitFailureError(f"fringe contrast {b:.3e} is zero to rounding")
    psi0 = math.atan2(-s, -c)
    residual = design @ coef - y
    sse = float(residual @ residual)
    grad = np.array([0.0, -s, c]) / (b * b)
    cov = np.linalg.inv(design.T @ design)
    sigma_psi0 = math.sqrt(sse / (x.size - 3) * float(grad @ cov @ grad))
    return a, b, psi0, sse, sigma_psi0


def estimate_g(
    scan: FringeScan,
    k_eff: float = DEFAULT_K_EFF,
    big_t: float = 0.1,
    dphi_laser: float = 0.0,
) -> GravityEstimate:
    """Recover g from one chirp scan by fringe fitting.

    Fits ``A - B cos((beta - beta0) T^2)`` to the measured fractions, folds
    the fitted ``beta0`` to the fringe nearest the scan center (the fringe
    identification is only defined modulo ``2 pi / T^2``), and converts::

        g_hat = (beta_null + dphi_laser / T^2) / k_eff

    The ``dphi_laser`` term removes the bias a programmed laser-phase offset
    imprints on the fitted fringe position; leave it at 0 if the offset is
    unknown (it is then absorbed into ``beta_null``).

    Raises
    ------
    AmbiguousFringeError
        If the scan spans fewer than 1.5 fringe periods or samples a period
        with fewer than 8 points.
    FitFailureError
        If the fit design is rank-deficient or the fringe has no contrast.
    """
    betas = np.asarray(scan.betas, dtype=float)
    y = np.asarray(scan.measured, dtype=float)
    period = 2.0 * math.pi / (big_t * big_t)
    span = float(betas.max() - betas.min())
    if span < _MIN_SPAN_PERIODS * period:
        raise AmbiguousFringeError(
            f"scan spans {span / period:.2f} fringe periods; "
            f"need >= {_MIN_SPAN_PERIODS} to identify the central fringe"
        )
    points_per_period = betas.size / (span / period)
    if points_per_period < _MIN_POINTS_PER_PERIOD:
        raise AmbiguousFringeError(
            f"scan samples {points_per_period:.1f} points per fringe period; "
            f"need >= {_MIN_POINTS_PER_PERIOD}"
        )
    center = 0.5 * (float(betas.max()) + float(betas.min()))
    x = (betas - center) * big_t * big_t
    _, _, psi0, sse, sigma_psi0 = _fit_fringe(x, y)
    beta_null = center + psi0 / (big_t * big_t)
    g_hat = (beta_null + dphi_laser / (big_t * big_t)) / k_eff
    sigma_g = sigma_psi0 / (big_t * big_t) / k_eff
    return GravityEstimate(
        g_hat=g_hat,
        sigma_g=sigma_g,
        beta_null=beta_null,
        fit_residual=math.sqrt(sse / betas.size),
    )


def estimate_g_dual(
    scan_a: FringeScan,
    big_t_a: float,
    scan_b: FringeScan,
    big_t_b: float,
    k_eff: float = DEFAULT_K_EFF,
    dphi_laser: float = 0.0,
    max_fringe_offset: int = 3,
) -> GravityEstimate:
    """Disambiguate the fringe identification with two interrogation times.

    Each scan pins g only modulo its own fringe lattice
    ``2 pi / (k_eff T^2)``.  Enumerating small integer fringe offsets for
    both scans and picking the pairing where the two estimates coincide
    selects the common solution; the returned value is the
    inverse-variance-weighted mean (or the plain mean if both fits are
    noiseless).

    Raises
    ------
    AmbiguousFringeError
        If no pairing matches to better than a tenth of the finer lattice
        spacing, or two distinct pairings match comparably well.
    """
    est_a = estimate_g(scan_a, k_eff, big_t_a, dphi_laser)
    est_b = estimate_g(scan_b, k_eff, big_t_b, dphi_laser)
    lat_a = 2.0 * math.pi / (k_eff * big_t_a * big_t_a)
    lat_b = 2.0 * math.pi / (k_eff * big_t_b * big_t_b)
    offsets = range(-max_fringe_offset, max_fringe_offset + 1)
    pairings = sorted(
        (
            (abs((est_a.g_hat + ma * lat_a) - (est_b.g_hat + mb * lat_b)), ma, mb)
            for ma in offsets
            for mb in offsets
        ),
    )
    gap_tol = 0.1 * min(lat_a, lat_b)
    best_gap, ma, mb = pairings[0]
    if best_gap > gap_tol:
        raise AmbiguousFringeError(
            f"no fringe pairing agrees to {gap_tol:.3e} m/s^2 "
            f"(best gap {best_gap:.3e})"
        )
    distinct = [p for p in pairings[1:] if (p[1], p[2]) != (ma, mb)]
    if distinct and distinct[0][0] < 2.0 * max(best_gap, 1e-12):
        raise AmbiguousFringeError(
            "two fringe pairings are comparably consistent; widen the scans "
            "or separate the interrogation times further"
        )
    g_a = est_a.g_hat + ma * lat_a
    g_b = est_b.g_hat + mb * lat_b
    if est_a.sigma_g > 0.0 and est_b.sigma_g > 0.0:
        wa = 1.0 / est_a.sigma_g**2
        wb = 1.0 / est_b.sigma_g**2
        g_hat = (wa * g_a + wb * g_b) / (wa + wb)
        sigma_g = math.sqrt(1.0 / (wa + wb))
    else:
        g_hat = 0.5 * (g_a + g_b)
        sigma_g = 0.0
    return GravityEstimate(
        g_hat=g_hat,
        sigma_g=sigma_g,
        beta_null=est_a.beta_null + ma * 2.0 * math.pi / (big_t_a * big_t_a),
        fit_residual=max(est_a.fit_residual, est_b.fit_residual),
    )
