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

import heapq
import math
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import _EPS, DEFAULT_G, DEFAULT_K_EFF
from .errors import AmbiguousFringeError, DataFormatError, FitFailureError
from .trajectory import _check_big_t, chirped_phase

__all__ = [
    "FringeScan",
    "GravityEstimate",
    "ideal_fringe",
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
#: Most atoms per shot: ``Generator.binomial`` takes n up to 2^63 - 1.
_MAX_ATOMS = 2**63 - 1
#: Each thread's detector, built by :func:`_thread_detector` on first use.
_THREAD = threading.local()


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


def beta_grid(
    center: float, span_fringes: float, n_points: int, big_t: float
) -> np.ndarray:
    """Uniform chirp grid spanning ``span_fringes`` fringe periods.

    Raises
    ------
    TimeOrderError
        If ``big_t`` or its square is not finite and positive.
    ValueError
        If ``n_points < 2``, or the grid's width or an end is not finite.
    """
    _check_big_t(big_t)
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    half = 0.5 * span_fringes * 2.0 * math.pi / (big_t * big_t)
    if not math.isfinite(2.0 * half):  # the width np.linspace steps across
        raise ValueError(
            f"span_fringes = {span_fringes} overflows the chirp grid at T = {big_t}"
        )
    if not math.isfinite(abs(center) + abs(half)):  # the grid's farther end
        raise ValueError(
            f"center = {center} overflows the chirp grid's ends at "
            f"span_fringes = {span_fringes}, T = {big_t}"
        )
    return center + np.linspace(-half, half, n_points)


def _thread_detector() -> tuple[np.random.Philox, Callable[..., int], dict]:
    """This thread's Philox bit generator, its ``binomial``, and its state.

    The state is the plain-int form of ``Philox(key=key, counter=counter)``
    with an empty buffer: the setter reads plain ints faster than uint64
    arrays, and re-seating one bit generator is cheaper than building one
    per point or per scan.  A scan writes its key and each point's counter
    into the dict and assigns the whole dict to ``state`` before every
    draw, so no draw depends on what the thread drew before it.
    """
    try:
        return _THREAD.detector
    except AttributeError:
        bit_gen = np.random.Philox(key=0)
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        _THREAD.detector = (bit_gen, np.random.Generator(bit_gen).binomial, state)
        return _THREAD.detector


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
        Master seed, ``>= 0``; required when ``n_atoms > 0``.

    Raises
    ------
    ValueError
        If ``n_atoms`` is outside [0, 2^63 - 1], a noisy scan has no seed
        or a negative one, or a noisy scan meets a NaN ideal fraction
        (``Generator.binomial`` refuses it).

    Notes
    -----
    Point ``i`` of a noisy scan draws ``Binomial(n_atoms, p_i)``, with
    ``p_i`` the ideal fraction (``0.5 (1 - cos phi)``, which rounding keeps
    inside [0, 1]), exactly as
    ``Generator(Philox(key=key, counter=[0, 0, 0, i]))`` would (the key is
    described in the module docstring).  Each thread keeps one Philox bit
    generator and its ``binomial``, built on the thread's first noisy scan.
    Before each point the full Philox state (the scan's key, counter
    ``(0, 0, 0, i)`` and an empty buffer) is re-seated through the public
    ``state`` setter from a plain-int copy, so a point draws the same
    whatever its thread drew before, and threads share no state.
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
    if not 0 <= n_atoms <= _MAX_ATOMS:
        raise ValueError(f"n_atoms must be in [0, {_MAX_ATOMS}], got {n_atoms}")
    if seed is None or seed < 0:
        raise ValueError(f"a seed >= 0 is required for a noisy scan, got seed={seed}")
    bit_gen, binomial, state = _thread_detector()
    counter = state["state"]["counter"]
    state["state"]["key"] = (
        np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()
    )

    def detect_point(i: int, p_i: float) -> int:
        counter[3] = i
        bit_gen.state = state
        return binomial(n_atoms, p_i)

    counts = np.fromiter(
        map(detect_point, range(probs.size), probs.tolist()), float, count=probs.size
    )
    measured = counts / n_atoms
    return FringeScan(
        betas=betas, probabilities=probs, measured=measured, n_atoms=n_atoms, seed=seed
    )


def _gram_adjugate(
    gram: np.ndarray, n: int
) -> tuple[tuple[tuple[float, ...], ...], float]:
    """Adjugate and determinant of the symmetric 3x3 Gram matrix ``G``.

    ``G^-1 = adj(G) / det(G)``, with ``det(G)`` expanded along the first
    row.  ``G`` sums ``n`` terms per entry, so both are refused when they
    are rounding: ``det(G)`` within ``n eps`` of ``G00 G11 G22`` (its bound
    by Hadamard's inequality), or ``trace(G) trace(adj G) / det(G)`` past
    ``1 / (n eps)``.  That ratio, ``trace(G) trace(G^-1)``, lies between
    ``cond(G)`` and ``9 cond(G)``: about 10 on a fringe scan.  Neither test
    alone refuses every dependent design: on equal phases the determinant
    and the cofactors are all rounding, so their ratio may look sound.

    Raises
    ------
    FitFailureError
        If ``G`` is singular to the rounding of its n-term sums.
    """
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram.tolist()
    c00 = g11 * g22 - g12 * g12
    c01 = g02 * g12 - g01 * g22
    c02 = g01 * g12 - g02 * g11
    c11 = g00 * g22 - g02 * g02
    c12 = g01 * g02 - g00 * g12
    c22 = g00 * g11 - g01 * g01
    det = g00 * c00 + g01 * c01 + g02 * c02
    if not det > n * _EPS * g00 * g11 * g22:
        raise FitFailureError(f"fringe design is singular (det(G) = {det:.3e})")
    cond_bound = (g00 + g11 + g22) * (c00 + c11 + c22) / det
    if not 0.0 < cond_bound < 1.0 / (n * _EPS):
        raise FitFailureError(
            f"fringe design is singular to rounding (cond(G) ~ {cond_bound:.3e})"
        )
    return ((c00, c01, c02), (c01, c11, c12), (c02, c12, c22)), det


def _fit_fringe(
    x: np.ndarray, y: np.ndarray
) -> tuple[float, float, float, float, float]:
    """Fit y = A - B cos(x - psi0) and return (A, B, psi0, sse, sigma_psi0).

    ``x`` is the scan phase (beta - beta_center) * T^2 in radians.  The model
    is linear in ``(A, C, S) = (A, -B cos psi0, -B sin psi0)`` on the design
    ``X = [1, cos x, sin x]`` (the known-frequency three-parameter sine fit
    of IEEE Std 1057), so the normal equations give the exact optimum: with
    the Gram matrix ``G = X^T X``, one BLAS product, ``(A, C, S) = G^-1 X^T
    y``.  ``G`` is 3x3, so ``G^-1 = adj(G) / det(G)`` is solved in closed
    form from six cofactors (:func:`_gram_adjugate`); ``G^-1`` is also the
    covariance shape.  ``sse`` is the sum of the explicit residuals
    ``X (A, C, S) - y``.
    ``psi0 = atan2(-S, -C)`` lies in [-pi, pi], the fringe nearest ``x = 0``.
    ``sigma_psi0`` propagates ``sigma^2 G^-1``, with
    ``sigma^2 = sse / (n - 3)``, through the gradient ``(0, -S, C) / B^2`` of
    ``psi0``, from the same cofactors; this equals the Gauss-Newton variance
    in the ``(A, B, psi0)`` parametrisation.

    Raises
    ------
    FitFailureError
        If ``G`` is singular to the rounding of its n-term sums, or the
        fitted contrast is zero to the rounding of the data.
    """
    design = np.empty((x.size, 3))
    design[:, 0] = 1.0
    design[:, 1] = np.cos(x)
    design[:, 2] = np.sin(x)
    adj, det = _gram_adjugate(design.T @ design, x.size)
    (c00, c01, c02), (_, c11, c12), (_, _, c22) = adj
    r0, r1, r2 = (design.T @ y).tolist()
    a = (c00 * r0 + c01 * r1 + c02 * r2) / det
    c = (c01 * r0 + c11 * r1 + c12 * r2) / det
    s = (c02 * r0 + c12 * r1 + c22 * r2) / det
    b = math.hypot(c, s)
    # A contrast at the rounding level of the data leaves psi0 undefined.
    if b <= _CONTRAST_FLOOR * float(np.max(np.abs(y))):
        raise FitFailureError(f"fringe contrast {b:.3e} is zero to rounding")
    psi0 = math.atan2(-s, -c)
    residual = design @ np.array([a, c, s]) - y
    sse = float(residual @ residual)
    b2 = b * b
    grad_cov_grad = (s * s * c11 - 2.0 * c * s * c12 + c * c * c22) / (det * b2 * b2)
    sigma_psi0 = math.sqrt(sse / (x.size - 3) * grad_cov_grad)
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
    TimeOrderError
        If ``big_t`` is not finite and positive.
    AmbiguousFringeError
        If the scan spans fewer than 1.5 fringe periods or samples a period
        with fewer than 8 points.
    FitFailureError
        If a chirp rate or measured fraction is not finite, the fit design
        is singular, the fringe has no contrast, or g_hat or sigma_g
        overflows (a subnormal ``k_eff``).
    """
    _check_big_t(big_t)
    betas = np.asarray(scan.betas, dtype=float)
    y = np.asarray(scan.measured, dtype=float)
    period = 2.0 * math.pi / (big_t * big_t)
    beta_max, beta_min = float(betas.max()), float(betas.min())
    span = beta_max - beta_min
    # A NaN or infinite chirp rate makes the span non-finite.
    if not (math.isfinite(span) and np.isfinite(y).all()):
        raise FitFailureError(
            "scan holds a non-finite chirp rate or measured fraction"
        )
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
    center = 0.5 * (beta_max + beta_min)
    x = (betas - center) * big_t * big_t
    _, _, psi0, sse, sigma_psi0 = _fit_fringe(x, y)
    beta_null = center + psi0 / (big_t * big_t)
    g_hat = (beta_null + dphi_laser / (big_t * big_t)) / k_eff
    sigma_g = sigma_psi0 / (big_t * big_t) / abs(k_eff)
    if not (math.isfinite(g_hat) and math.isfinite(sigma_g)):
        raise FitFailureError(
            f"g_hat = {g_hat} +- {sigma_g} overflows dividing by k_eff = {k_eff}")
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
) -> GravityEstimate:
    """Disambiguate the fringe identification with two interrogation times.

    Each scan pins g only modulo its own fringe lattice
    ``lat = 2 pi / (|k_eff| T^2)``.  The pairing of fringe offsets
    ``(ma, mb)``, each in ``[-3, 3]``, where the shifted estimates
    ``g_a + ma lat_a`` and ``g_b + mb lat_b`` coincide selects the common
    solution; the returned value is the inverse-variance-weighted mean (or
    the plain mean if both fits are noiseless).  The search ranks all 49
    pairings by their gap and keeps the best and the runner-up, the two the
    ambiguity test compares.

    Raises
    ------
    TimeOrderError
        If ``big_t_a`` or ``big_t_b`` is not finite and positive (each is
        checked by its scan's :func:`estimate_g`, scan a first).
    AmbiguousFringeError
        If no pairing matches to better than a tenth of the finer lattice
        spacing, or two distinct pairings match comparably well.
    FitFailureError
        If either scan's :func:`estimate_g` fit fails.
    """
    est_a = estimate_g(scan_a, k_eff, big_t_a, dphi_laser)
    est_b = estimate_g(scan_b, k_eff, big_t_b, dphi_laser)
    lat_a = 2.0 * math.pi / (abs(k_eff) * big_t_a * big_t_a)
    lat_b = 2.0 * math.pi / (abs(k_eff) * big_t_b * big_t_b)
    offsets = range(-3, 4)
    (best_gap, ma, mb), (next_gap, _, _) = heapq.nsmallest(2, (
        (abs(est_a.g_hat + ma * lat_a - (est_b.g_hat + mb * lat_b)), ma, mb)
        for ma in offsets for mb in offsets))
    gap_tol = 0.1 * min(lat_a, lat_b)
    if best_gap > gap_tol:
        raise AmbiguousFringeError(
            f"no fringe pairing agrees to {gap_tol:.3e} m/s^2 "
            f"(best gap {best_gap:.3e})"
        )
    if next_gap < 2.0 * max(best_gap, 1e-12):
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
        # k_eff < 0 turns the chirp lattice against the g lattice.
        beta_null=est_a.beta_null
        + ma * math.copysign(2.0 * math.pi, k_eff) / (big_t_a * big_t_a),
        fit_residual=max(est_a.fit_residual, est_b.fit_residual),
    )
