"""Noise sensitivity, spectral response, synthesis, and Allan statistics.

The interferometer's response to a time-dependent phase perturbation
``delta_phi(t)`` on the drive is ``delta_Phi = integral g_s(t) d(delta_phi)/dt
dt`` where ``g_s`` is the pulse-sequence sensitivity function: an odd,
piecewise sine/constant shape spanning ``[0, 2T + 2 tau_p]``.  Everything
else follows from it:

* acceleration response through the double time integral (weight function
  ``w(t) = integral_t^end g_s``, so ``delta_Phi = k_eff integral w a dt``);
* spectral transfer function ``G(omega) = integral g_s e^{-i omega t} dt``;
* phase/acceleration PSD integrals for variance and Allan-variance budgets;
* deterministic synthesis of time series from a target PSD (random-phase
  Fourier components), used by the Monte-Carlo cross-checks;
* Allan deviation estimators for time series.

Conventions: PSDs are one-sided in angular frequency, normalized so that
``Var[x] = integral_0^inf S(omega) d omega``; frequencies are rad/s.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (_EPS, DEFAULT_K_EFF, _dc_scale, _pulse_edges, _rabi_rate,
                   _timing_valid, _write_csv)
from .errors import (
    CoverageError,
    DataFormatError,
    InsufficientDataError,
    ResolutionError,
)

__all__ = [
    "TimeSeries",
    "Psd",
    "SensitivityProfile",
    "AllanResult",
    "VarianceResult",
    "sensitivity_g",
    "sensitivity_a",
    "acceleration_phase",
    "dc_phase_response",
    "transfer_function",
    "phase_variance_from_psd",
    "allan_from_acceleration_psd",
    "synthesize_noise",
    "synthesize_noise_with_derivative",
    "monte_carlo_phase_variance",
    "monte_carlo_vibration_allan",
    "allan_deviation",
    "allan_deviation_overlapping",
    "read_psd_csv",
    "read_series_csv",
    "write_psd_csv",
    "write_series_csv",
    "write_allan_csv",
]

logger = logging.getLogger(__name__)
# A library logs, the application shows: without a handler of its own the
# "omitting tau" records reach stderr through logging.lastResort.
logger.addHandler(logging.NullHandler())

#: Coverage band required of tabulated PSDs, in units of the sequence scales:
#: two decades below the fringe frequency 2*pi/T up to two decades above the
#: Rabi rate.
_COVER_LOW_FACTOR = 0.01  # times 2*pi/T
_COVER_HIGH_FACTOR = 100.0  # times omega_r

#: Most Gauss-Legendre nodes a PSD integral may use; a band that needs more
#: is refused rather than integrated under-resolved.
_MAX_GRID_POINTS = 4_000_001

#: Gauss-Legendre panels of the PSD integrals: a panel whose size (see
#: :func:`_panel_rule`) is at most ``_PANEL_SIZES[i]`` takes
#: ``_PANEL_ORDERS[i]`` nodes, and no panel is larger than the last size.
#: Against panels of 1/8 the size and 24 to 48 nodes, every rung is exact
#: to rounding; 3 nodes at 0.05 left 1.7e-12 on a printed vibration budget.
_PANEL_SIZES = (0.05, 0.25, 1.0, 4.0)
_PANEL_ORDERS = (4, 6, 12, 24)

#: Time steps per period of a PSD's top frequency in a Monte-Carlo shot
#: window: the vibration check's constant and the phase check's default.
_OVERSAMPLE = 32

#: Terms per block of Allan second differences: 2^15 doubles, 256 KiB.  An
#: estimator call allocates one work buffer of three blocks (768 KiB, inside
#: the 2-MiB per-core L2 of the host it was tuned on), past glibc's default
#: 128-KiB mmap threshold, so it is allocated once per call and reused for
#: every averaging time.  At 8,192 doubles a third of the kernel's time went
#: to per-block dispatch; 2^17 doubles is slower again.
_ALLAN_BLOCK = 1 << 15

@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real time series.

    Attributes
    ----------
    samples : numpy.ndarray
        Sample values; finite.
    dt : float
        Sampling interval [s].
    t0 : float
        Time of the first sample [s]; finite.
    """

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("samples must be a 1-D array with >= 2 points")
        if not np.isfinite(s).all():
            raise ValueError("samples must be finite")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        object.__setattr__(self, "samples", s)

    @property
    def duration(self) -> float:
        """Span covered by the samples, ``(n - 1) * dt`` [s]."""
        return (self.samples.size - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        """Sample times ``t0 + i dt`` [s]."""
        return self.t0 + self.dt * np.arange(self.samples.size)


@dataclass(frozen=True)
class Psd:
    """One-sided power spectral density tabulated on an angular-freq grid.

    ``Var = integral S(omega) d omega`` over the tabulated band; the density
    is treated as zero outside it and interpolated linearly inside.
    """

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.freqs, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if f.ndim != 1 or f.size < 2 or f.shape != v.shape:
            raise ValueError("freqs and values must be matching 1-D arrays")
        if not np.all(np.isfinite(f)) or np.any(f < 0.0) or np.any(np.diff(f) <= 0.0):
            raise ValueError(
                "freqs must be finite, nonnegative and strictly increasing"
            )
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("PSD values must be finite and nonnegative")
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "values", v)

    def value_at(self, omega: np.ndarray) -> np.ndarray:
        """Linear interpolation on the tabulated grid, zero outside."""
        return np.interp(np.asarray(omega, dtype=float), self.freqs, self.values,
                         left=0.0, right=0.0)


@dataclass(frozen=True)
class SensitivityProfile:
    """Timing of a pi/2 -- pi -- pi/2 sequence for sensitivity purposes.

    Attributes
    ----------
    big_t : float
        Dark interval T between pulses [s].
    tau_p : float
        Pi-pulse duration [s]; the outer pi/2 pulses last tau_p/2.

    The Rabi rate follows from tau_p (see :attr:`omega_r`).
    """

    big_t: float
    tau_p: float

    def __post_init__(self) -> None:
        if not _timing_valid(self.big_t, self.tau_p):
            raise ValueError("need finite big_t > tau_p > 0, finite pi/tau_p and a finite "
                             "Rabi phase 2 pi (big_t + tau_p) / tau_p, got "
                             f"big_t={self.big_t}, tau_p={self.tau_p}")

    @classmethod
    def from_tau_p(cls, big_t: float, tau_p: float) -> "SensitivityProfile":
        """Profile of dark interval ``big_t`` and pi-pulse duration ``tau_p``.

        The same as the constructor; it stays only because the benchmark
        harness (``perfbench/``) calls it, and goes when that harness is next
        revised (ROADMAP items 1 and 23).
        """
        return cls(big_t, tau_p)

    @property
    def omega_r(self) -> float:
        """Rabi rate ``pi / tau_p`` [rad/s] (the pi-pulse condition)."""
        return _rabi_rate(self.tau_p)

    @property
    def span(self) -> float:
        """Total sequence length ``2 T + 2 tau_p`` [s]."""
        return _pulse_edges(self.big_t, self.tau_p)[-1]

    @property
    def t_mid(self) -> float:
        """Center of the sequence, ``T + tau_p`` [s] (odd-symmetry point)."""
        return self.big_t + self.tau_p


@dataclass(frozen=True)
class AllanResult:
    """Allan-deviation estimates over a set of averaging times.

    ``tau_avgs`` hold the snapped averaging times actually used [s],
    ``adevs`` the Allan deviations, ``n_blocks`` how many blocks (or
    overlapping differences) entered each estimate.
    """

    tau_avgs: np.ndarray
    adevs: np.ndarray
    n_blocks: np.ndarray


class VarianceResult(NamedTuple):
    """A PSD-integral variance plus a rough estimate of the missing tails.

    ``truncation_estimate`` is not a bound: it is a 501- or 2001-point
    trapezoid of a flat extrapolation (see :func:`phase_variance_from_psd`),
    and it reads low.
    """

    variance: float
    truncation_estimate: float


# ---------------------------------------------------------------------------
# Sensitivity function and acceleration weight
# ---------------------------------------------------------------------------


class _Segment(NamedTuple):
    """One piece of ``g_s`` on ``[lo, hi]``: ``level + Im(p e^{i omega_r
    (t - ref)})`` with ``ref = big + small`` and ``p`` one of 0, +-1, +-1j;
    a piece with ``p != 0`` has ``level`` 0.

    The reference is subtracted in two steps, ``(t - big) - small``, so the
    mirror pulse's argument ``t - T - a`` keeps its digits at thin pulses.
    """

    lo: float
    hi: float
    level: float
    p: complex
    big: float = 0.0
    small: float = 0.0

    def oscillation(
        self, omega_r: float, t: np.ndarray | float, integrated: bool = False
    ) -> np.ndarray | float:
        """``Im(p e^{ix})`` at ``x = omega_r (t - ref)``, one real trig call.

        With ``integrated``, its antiderivative in ``x``, ``Im(-i p e^{ix})``.
        """
        x = omega_r * ((t - self.big) - self.small)
        re, im = self.p.real, self.p.imag
        if integrated:
            re, im = im, -re
        return re * np.sin(x) if re else im * np.cos(x)


def _segments(
    profile: SensitivityProfile, three_segment: bool = False
) -> list[_Segment]:
    """The pieces of ``g_s`` in time order (see :func:`sensitivity_g`)."""
    big_t = profile.big_t
    if three_segment:
        # sin(w t), 1, sin(w (t - T))
        return [
            _Segment(0.0, 0.5 * big_t, 0.0, 1.0),
            _Segment(0.5 * big_t, 1.5 * big_t, 1.0, 0.0),
            _Segment(1.5 * big_t, 2.0 * big_t, 0.0, 1.0, big_t),
        ]
    e0, a, e2, e3, e4, span = _pulse_edges(big_t, profile.tau_p)
    # -sin(w t), -1, -cos(w (t - T - a)), +1, sin(w (span - t)).  The first
    # level is -0.0 so that g_s(0) = -0.0 + -sin(0) = -0.0 and g_s(span) =
    # 0.0 + -sin(0) = +0.0, the signed zeros of the formulas above.
    return [
        _Segment(e0, a, -0.0, -1.0),
        _Segment(a, e2, -1.0, 0.0),
        _Segment(e2, e3, 0.0, -1j, big_t, a),
        _Segment(e3, e4, 1.0, 0.0),
        _Segment(e4, span, 0.0, -1.0, span),
    ]


def _pieces(t: np.ndarray, segments: list[_Segment]):
    """Each segment with the mask of the times it owns: ``(lo, hi]``, and
    ``[lo, hi]`` for the first.  A time that is not finite would lie in no
    segment, and is refused with ``ValueError``."""
    if not np.isfinite(t).all():
        raise ValueError("sensitivity times t must be finite")
    for i, seg in enumerate(segments):
        above = t > seg.lo if i else t >= seg.lo
        yield seg, above & (t <= seg.hi)


def sensitivity_g(
    t: np.ndarray | float,
    profile: SensitivityProfile,
    three_segment: bool = False,
) -> np.ndarray:
    """Phase sensitivity function ``g_s(t)`` of the three-pulse sequence.

    Default shape (time measured from the start of the first pulse, pulse
    edges at ``a = tau_p/2``)::

        -sin(omega_r t)                    0        <= t <= a
        -1                                 a        <  t <= a + T
        -cos(omega_r (t - T - a))          a + T    <  t <= 3a + T
        +1                                 3a + T   <  t <= 3a + 2T
        +sin(omega_r (span - t))           3a + 2T  <  t <= span
        0                                  elsewhere

    It is odd about the sequence center ``T + tau_p`` and integrates to
    zero (no DC phase response).

    With ``three_segment=True`` a three-segment variant is returned whose
    edge ramps each span half an interrogation interval:
    ``sin(omega_r t)`` on [0, T/2], ``1`` on (T/2, 3T/2],
    ``sin(omega_r (t - T))`` on (3T/2, 2T], zero elsewhere.  Note this
    variant is *not* odd about its center and has a nonzero integral; it is
    provided for comparison only.

    Edge rule, both shapes: every segment owns its right edge, and the first
    also its left one, so at an edge ``g_s`` takes the earlier segment's
    value.  Both shapes come from one table, ``_segments``, which also
    gives the weight ``w(t)`` and the three-segment ``G(omega)``; the
    default ``G(omega)`` and the DC response have closed forms (see
    :func:`transfer_function` and :func:`dc_phase_response`).  A time that
    is not finite raises ``ValueError``.
    """
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr)
    w = profile.omega_r
    for seg, m in _pieces(t_arr, _segments(profile, three_segment)):
        out[m] = seg.level + seg.oscillation(w, t_arr[m]) if seg.p else seg.level
    return out if np.ndim(t) else float(out)


def _weight(t_arr: np.ndarray, profile: SensitivityProfile) -> np.ndarray:
    """Acceleration weight ``w(t) = integral_t^span g_s dt'`` (closed form).

    A backward running sum of the exact segment integrals, plus the exact
    integral from ``t`` to the end of its own segment; stable for any
    tau_p/T ratio.
    """
    w = profile.omega_r
    out = np.zeros_like(t_arr)
    tail = 0.0  # integral of g_s from the current segment's end to span
    for seg, m in reversed(list(_pieces(t_arr, _segments(profile)))):
        t_m = t_arr[m]
        if seg.p:
            at_hi = seg.oscillation(w, seg.hi, integrated=True)
            out[m] = tail + (at_hi - seg.oscillation(w, t_m, integrated=True)) / w
            tail += (at_hi - seg.oscillation(w, seg.lo, integrated=True)) / w
        else:
            out[m] = tail + seg.level * (seg.hi - t_m)
            tail += seg.level * (seg.hi - seg.lo)
    return out


def sensitivity_a(
    t: np.ndarray | float,
    profile: SensitivityProfile,
    k_eff: float = DEFAULT_K_EFF,
) -> np.ndarray:
    """Acceleration sensitivity kernel ``k_eff * w(t)`` [rad s / (m/s^2) /s].

    Defined so that a vertical acceleration perturbation ``delta_a(t)``
    shifts the interferometer phase by::

        delta_Phi = integral sensitivity_a(t) * delta_a(t) dt

    ``w(t)`` is the remaining integral of the sensitivity function (closed
    form per segment); it vanishes outside the sequence, rises from the
    first beam splitter, peaks at ``T + 2/omega_r``-ish mid-sequence values
    around the mirror pulse, and falls symmetrically.  A time that is not
    finite raises ``ValueError``.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = k_eff * _weight(t_arr, profile)
    return out if np.ndim(t) else float(out[0])


def acceleration_phase(
    accel: TimeSeries,
    profile: SensitivityProfile,
    k_eff: float = DEFAULT_K_EFF,
    t_start: float = 0.0,
) -> float:
    """Phase shift from a sampled acceleration record (trapezoid rule).

    The sequence runs over ``[t_start, t_start + span]`` on the record's
    time base; samples outside contribute nothing.
    """
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start}")
    kernel = sensitivity_a(accel.times - t_start, profile, k_eff)
    return float(np.trapezoid(kernel * accel.samples, dx=accel.dt))


def dc_phase_response(
    profile: SensitivityProfile,
    k_eff: float = DEFAULT_K_EFF,
    a0: float = 1.0,
) -> float:
    """Phase ``k_eff a0 S`` from a constant acceleration ``a0``.

    The double integral ``integral w dt = integral t g_s dt`` (by parts;
    ``w`` vanishes at the end) is the closed form ``S = (T + tau_p)(T + 2
    tau_p / pi)``; for ``tau_p << T`` it approaches the textbook ``k_eff a0
    T^2``.
    """
    return float(k_eff * a0 * _dc_scale(profile.big_t, profile.tau_p))


# ---------------------------------------------------------------------------
# Transfer function
# ---------------------------------------------------------------------------


def _sinc(y: np.ndarray) -> np.ndarray:
    """``sin(y) / y``, ``np.sinc(y / pi)`` without its copies.

    ``y`` is taken as ``np.sinc`` forms it, ``pi z`` for ``np.sinc(z)``, and
    overwritten: an exact zero becomes ``eps``, whose ratio is exactly 1, as
    in ``np.sinc``.  Every other element rounds as ``np.sinc``'s does.
    """
    y[y == 0.0] = _EPS
    out = np.sin(y)
    out /= y
    return out


def _exp_integral(kappa: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``integral_lo^hi e^{i kappa t} dt``, finite as ``kappa -> 0``."""
    length = hi - lo
    return (np.exp(0.5j * kappa * (lo + hi)) * length
            * _sinc(math.pi * (kappa * length / (2.0 * math.pi))))


def transfer_function(
    omega: np.ndarray | float,
    profile: SensitivityProfile,
    three_segment: bool = False,
) -> np.ndarray | float:
    """Magnitude of ``G(omega) = integral g_s(t) e^{-i omega t} dt``, exact.

    For the default pi/2 -- pi -- pi/2 shape the five segment integrals
    collapse to one product (Cheinet et al., IEEE Trans. Instrum. Meas. 57,
    1141 (2008), with their pi/2-pulse length ``tau`` = ``tau_p / 2``)::

        |G| = 4 omega_r / |omega^2 - omega_r^2| * |sin(omega t_mid / 2)|
              * |cos(omega t_mid / 2) + (omega_r / omega) sin(omega T / 2)|

    with ``t_mid = T + tau_p``.  As written it is 0/0 at ``omega = 0`` and
    at ``omega = omega_r``.  In ``u = omega / omega_r - 1`` and ``x = omega
    T / 2`` the pi-pulse condition gives ``omega t_mid / 2 = x + pi (1 +
    u) / 2``, so the last factor is ``|u|`` times::

        (pi/2) sinc(u/4) cos(x + pi u / 4) + (omega_r T / 2) sinc(x / pi)

    (``np.sinc(z) = sin(pi z) / (pi z)``), and ``|u|`` cancels the pole of
    ``omega^2 - omega_r^2 = omega_r^2 u (2 + u)``, leaving ``4 / (omega +
    omega_r)`` in front.  Every factor is finite for all ``omega >= 0``
    without a branch, and ``G(0)`` is exactly 0.

    The three-segment variant keeps the segment sum over ``_segments``: on
    each segment ``g_s = level + Im(p e^{i omega_r (t - ref)})``, a sum of
    :func:`_exp_integral` terms at ``kappa = -omega`` and ``+-omega_r -
    omega``.  Its ramps last T/2 each, not a pi-pulse length, so no product
    of this kind holds for it.

    In the thin-pulse limit ``tau_p -> 0`` the magnitude approaches that of
    a square ``g_s``, ``(4/omega) sin^2(omega T / 2)``.  An ``omega`` that
    is negative, NaN or infinite raises ``ValueError``.
    """
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    # NaN fails both comparisons, as min() and max() propagate it.
    if omega_arr.size and not (omega_arr.min() >= 0.0 and omega_arr.max() < math.inf):
        raise ValueError("omega must be finite and >= 0 (one-sided transfer function)")
    w = profile.omega_r
    if three_segment:
        result = np.zeros(omega_arr.shape, dtype=complex)
        for lo, hi, level, p, big, small in _segments(profile, three_segment):
            if level:
                result += level * _exp_integral(-omega_arr, lo, hi)
            if p:
                p = p * np.exp(-1j * w * (big + small))
                result += (p * _exp_integral(w - omega_arr, lo, hi)
                           - np.conj(p) * _exp_integral(-w - omega_arr, lo, hi)) / 2j
        mags = np.abs(result)
    else:
        u = omega_arr / w - 1.0
        x = 0.5 * profile.big_t * omega_arr
        bracket = (0.5 * math.pi * _sinc(math.pi * (0.25 * u))
                   * np.cos(x + 0.25 * math.pi * u)
                   + 0.5 * w * profile.big_t * _sinc(math.pi * (x / math.pi)))
        mags = (4.0 / (omega_arr + w)
                * np.abs(np.sin(0.5 * profile.t_mid * omega_arr) * bracket))
    return mags if np.ndim(omega) else float(mags[0])


# ---------------------------------------------------------------------------
# PSD integrals
# ---------------------------------------------------------------------------


def _check_cycle_time(profile: SensitivityProfile, cycle_time: float | None) -> None:
    """Refuse a shot repetition interval shorter than the sequence or not finite."""
    if cycle_time is None or not profile.span <= cycle_time < math.inf:
        raise ValueError(
            f"cycle_time must be finite and >= the sequence span {profile.span}, "
            f"got {cycle_time}"
        )


def _uncovered_tails(
    psd: Psd, profile: SensitivityProfile, allow_partial: bool, what: str
) -> list[tuple[float, float, int, float]]:
    """The sides of the required band that ``psd`` leaves uncovered.

    The band runs from ``_COVER_LOW_FACTOR`` times the fringe frequency
    ``2 pi / T`` to ``_COVER_HIGH_FACTOR`` times the Rabi rate; a table
    edge within a relative 1e-9 of the band's edge covers it.  Without
    ``allow_partial`` an uncovered side raises :class:`CoverageError`.
    Otherwise each side gives its flat one-decade tail ``(lo, hi, points,
    edge value)``, clipped to the required band: the low side first, then
    the high side.
    """
    low = _COVER_LOW_FACTOR * 2.0 * math.pi / profile.big_t
    high = _COVER_HIGH_FACTOR * profile.omega_r
    tab_lo = float(psd.freqs[0])
    tab_hi = float(psd.freqs[-1])
    tails = []
    if tab_lo > low * (1.0 + 1e-9):
        tails.append((max(low, tab_lo / 10.0), tab_lo, 501, float(psd.values[0])))
    if tab_hi < high * (1.0 - 1e-9):
        tails.append((tab_hi, min(high, 10.0 * tab_hi), 2001, float(psd.values[-1])))
    if tails and not allow_partial:
        raise CoverageError(
            f"{what}: tabulated band [{tab_lo:.3e}, {tab_hi:.3e}] rad/s does "
            f"not cover the required [{low:.3e}, {high:.3e}] rad/s; pass "
            "allow_partial=True to integrate over the tabulated band only"
        )
    return tails


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Legendre recurrence, off-diagonal ``k / sqrt(4 k^2 - 1)``.  Newton steps
    on ``P_n`` polish them, and the weights are ``2 / ((1 - x^2)
    P_n'(x)^2)``, with ``P_n'`` from the last step, which moves x by
    rounding only.  The arrays are cached and read-only.
    """
    k = np.arange(1.0, order)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(3):
        p_prev, p = np.ones_like(x), x
        for n in range(2, order + 1):
            p_prev, p = p, ((2 * n - 1) * x * p - (n - 1) * p_prev) / n
        slope = order * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    # The rule is symmetric about 0; impose it on the rounding too.
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_rule(psd: Psd, time_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights over the band ``psd`` tabulates.

    Every tabulated breakpoint is a panel edge, so ``S`` is linear on each
    panel and an integrand that is analytic between breakpoints is
    integrated by each panel's rule to rounding.  Toward a positive low
    edge ``lo`` the panels are graded through ``lo 2^k``, so that none is
    wider than its left edge (the printed vibration weight has a double
    pole at ``omega = 0``); no panel is wider than ``_PANEL_SIZES[-1]``
    periods ``2 pi / time_scale``, the integrand's fastest oscillation.  A
    panel's size is the larger of its width in periods and its width over
    its left edge, and it takes the fewest nodes of ``_PANEL_ORDERS``
    whose size bound it meets.  A band that needs more than
    ``_MAX_GRID_POINTS`` nodes raises :class:`ResolutionError`.
    """
    period = 2.0 * math.pi / time_scale
    widest = _PANEL_SIZES[-1] * period
    edges = psd.freqs
    lo, hi = float(edges[0]), float(edges[-1])
    if 0.0 < lo < widest:
        doublings = math.ceil(math.log2(min(widest, hi)) - math.log2(lo))
        steps = np.ldexp(lo, np.arange(1, doublings + 1))
        # np.union1d's sort-and-drop-repeats, without the numpy.ma import
        # its np.unique costs a fresh process.
        edges = np.concatenate((edges, steps[steps < hi]))
        edges.sort()
        edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    lefts = edges[:-1]
    spans = np.diff(edges)
    # A vast time_scale overflows the counts, and an infinite need is refused.
    with np.errstate(over="ignore"):
        counts = np.maximum(np.ceil(spans / widest), 1.0)
        widths = spans / counts
        relative = np.divide(widths, lefts, out=np.zeros_like(widths), where=lefts > 0.0)
        # Rounding can leave a panel a hair over the largest size: the last
        # rung takes everything past the one before it.
        rungs = np.searchsorted(_PANEL_SIZES[:-1], np.maximum(widths / period, relative))
        needed = float(np.dot(counts, np.take(_PANEL_ORDERS, rungs)))
    if not needed <= _MAX_GRID_POINTS:
        # Digits in full below 1e15, so a vast need is not a 300-digit line.
        count = f"{needed:.0f}" if needed < 1e15 else f"{needed:.3e}"
        raise ResolutionError(
            f"resolving the PSD band [{lo:.3e}, {hi:.3e}] rad/s needs {count} "
            f"quadrature nodes; at most {_MAX_GRID_POINTS} are allowed"
        )
    # One row per panel: panel j of an interval split into k is centred
    # (2j + 1)/2k of the way across it.
    per = counts.astype(np.intp)
    owner = np.repeat(np.arange(per.size), per)
    index = np.arange(owner.size) - np.repeat(np.cumsum(per) - per, per)
    half = 0.5 * widths[owner]
    mid = lefts[owner] + (2.0 * index + 1.0) * half
    panel_rungs = rungs[owner]
    nodes = np.empty(int(needed))
    weights = np.empty(int(needed))
    start = 0
    for rung, order in enumerate(_PANEL_ORDERS):
        pick = panel_rungs == rung
        stop = start + order * int(np.count_nonzero(pick))
        x, w = _gauss_legendre(order)
        block = nodes[start:stop].reshape(-1, order)
        np.multiply.outer(half[pick], x, out=block)
        block += mid[pick, None]
        np.multiply.outer(half[pick], w, out=weights[start:stop].reshape(-1, order))
        start = stop
    return nodes, weights


def _band_integral(psd: Psd, time_scale: float, weight: Callable) -> float:
    """``integral weight(omega) S(omega) d omega`` over the band ``psd``
    tabulates, on the panels :func:`_panel_rule` lays for ``time_scale``."""
    nodes, weights = _panel_rule(psd, time_scale)
    return float(weights @ (weight(nodes) * psd.value_at(nodes)))


def phase_variance_from_psd(
    s_phi: Psd,
    profile: SensitivityProfile,
    allow_partial: bool = False,
) -> VarianceResult:
    """Interferometer phase variance from a drive-phase-noise PSD.

    Integrates the weighted spectrum::

        sigma_Phi^2 = integral (omega |G(omega)|)^2 S_phi(omega) d omega

    over the tabulated band by Gauss-Legendre panels between the table's
    breakpoints (:func:`_panel_rule`).  ``|G|^2`` oscillates in omega at
    lags up to the sequence span, so panels are at most 4 periods ``2 pi /
    span`` wide; the integrand is analytic on each panel, and the result is
    exact to rounding.  Unless ``allow_partial`` is set, the tabulated band
    must cover two decades below the fringe frequency ``2 pi / T`` through
    two decades above the Rabi rate; when it is set, the returned
    ``truncation_estimate`` estimates the unintegrated tails by
    extrapolating the edge PSD values flat over one decade on each missing
    side.  It is a trapezoid on 501 (low side) or 2001 (high side) points,
    not a bound: that grid under-resolves the ``2 pi / span`` oscillation of
    ``|G|^2``, and against Gauss-Legendre panels it reads 7.0 % low for a
    10 Hz - 10 kHz table at the CLI defaults (T = 0.1 s, tau_p = 10 us) and
    34 % low for a 10 Hz - 100 kHz table.  Integrating the tails on the
    panels waits on ROADMAP item 5.  A band that needs more than
    ``_MAX_GRID_POINTS`` quadrature nodes raises :class:`ResolutionError`.
    """
    tails = _uncovered_tails(s_phi, profile, allow_partial, "phase-noise PSD")

    def weight(omega: np.ndarray) -> np.ndarray:
        return (omega * transfer_function(omega, profile)) ** 2

    variance = _band_integral(s_phi, profile.span, weight)
    truncation = 0.0
    for lo, hi, points, edge in tails:
        tail = np.linspace(lo, hi, points)
        truncation += edge * float(np.trapezoid(weight(tail), tail))
    return VarianceResult(variance=variance, truncation_estimate=truncation)


def allan_from_acceleration_psd(
    s_a: Psd,
    profile: SensitivityProfile,
    k_eff: float = DEFAULT_K_EFF,
    cycle_time: float | None = None,
    formula: str = "printed",
    allow_partial: bool = False,
) -> float:
    """Shot-to-shot Allan variance of the phase from a vibration PSD [rad^2].

    Parameters
    ----------
    s_a : Psd
        One-sided acceleration PSD [(m/s^2)^2 per rad/s].
    profile : SensitivityProfile
        Sequence timing.
    k_eff : float, optional
        Effective wavenumber [rad/m].
    cycle_time : float
        Shot repetition interval [s]; must be at least the sequence span.
    formula : {"printed", "shot-sampled"}
        ``printed`` evaluates ``(k_eff^2 / cycle_time) * integral
        |G(omega)/omega^2|^2 S_a d omega`` exactly as conventionally
        printed.  ``shot-sampled`` evaluates the self-consistent two-sample
        variance of consecutive shot phases::

            2 k_eff^2 integral (|G|/omega)^2 sin^2(omega cycle_time/2)
                      S_a d omega

        which is what a time-domain simulation of the shot sequence
        reproduces (see :func:`monte_carlo_vibration_allan`).  The two
        differ in general (the printed form carries different dimensions);
        both are exposed so budgets can be compared against either
        convention.  A table that starts at ``omega = 0`` is refused by
        the printed form, whose weight diverges there.

        Both are integrated by the Gauss-Legendre panels of
        :func:`phase_variance_from_psd`, graded geometrically toward a
        positive low edge, where the printed weight grows as
        ``1/omega^2``.  Panels are at most 4 periods ``2 pi / (span +
        cycle_time)`` wide for the shot-sampled form, whose ``sin^2`` adds
        ``cycle_time`` to the lags of ``|G|^2``, and ``2 pi / span`` for
        the printed form.
    allow_partial : bool, optional
        Skip the band-coverage requirement (see
        :func:`phase_variance_from_psd`).
    """
    _check_cycle_time(profile, cycle_time)
    _uncovered_tails(s_a, profile, allow_partial, "acceleration PSD")
    if formula not in ("printed", "shot-sampled"):
        raise ValueError(f"formula must be 'printed' or 'shot-sampled', got {formula!r}")
    if formula == "printed" and s_a.freqs[0] == 0.0:
        raise ValueError(
            "printed formula diverges on a PSD table that starts at omega = 0: "
            "|G/omega^2|^2 grows as 1/omega^2 there"
        )
    # |G|^2 oscillates in omega at lags up to the span, and the shot-sampled
    # sin^2(omega cycle_time / 2) adds cycle_time to them.  Every node is
    # inside a panel, so none sits at omega = 0.
    if formula == "shot-sampled":
        return 2.0 * k_eff**2 * _band_integral(s_a, profile.span + cycle_time, lambda w: (
            transfer_function(w, profile) / w * np.sin(0.5 * w * cycle_time)) ** 2)
    return k_eff**2 / cycle_time * _band_integral(
        s_a, profile.span, lambda w: (transfer_function(w, profile) / w / w) ** 2)


# ---------------------------------------------------------------------------
# Noise synthesis
# ---------------------------------------------------------------------------


class _Band(NamedTuple):
    """The bins of a synthesis grid that carry power (see :func:`_bins`)."""

    k: np.ndarray  # rfft indices, increasing
    amps: np.ndarray  # sqrt(2 S(omega_k) d_omega), all nonzero
    omega: np.ndarray  # omega_k = k d_omega
    n: int  # samples of the grid


def _bins(target: Psd, duration: float, dt: float) -> _Band:
    """Deterministic synthesis grid of ``n = round(duration / dt)`` samples,
    reduced to its powered bins.

    Bin ``k = 1 .. n // 2`` sits at ``omega_k = k d_omega`` with amplitude
    ``sqrt(2 S(omega_k) d_omega)``; for even ``n`` the Nyquist bin is left
    out, since it cannot carry a phase.  ``S`` is zero outside the table, so
    only the bins from one below its first frequency to one above its last
    are evaluated, and those with a nonzero amplitude are returned.  Each
    value is the one a grid of all ``n // 2`` bins gives.
    """
    if not (0.0 < duration < math.inf and 0.0 < dt < math.inf):
        raise ValueError(
            f"duration and dt must be finite and positive, got duration="
            f"{duration}, dt={dt}"
        )
    n = int(round(duration / dt))
    if n < 16:
        raise ResolutionError(f"duration/dt gives only {n} samples; need >= 16")
    nyquist = math.pi / dt
    omega_max = float(target.freqs[-1])
    if omega_max > nyquist * (1.0 + 1e-9):
        raise ResolutionError(
            f"dt={dt} cannot represent the PSD's top frequency "
            f"{omega_max:.3e} rad/s (Nyquist {nyquist:.3e})"
        )
    positive = target.freqs[(target.freqs > 0.0) & (target.values > 0.0)]
    if positive.size:
        min_freq_hz = float(positive[0]) / (2.0 * math.pi)
        if n * dt < 100.0 / min_freq_hz * (1.0 - 1e-9):
            raise ResolutionError(
                f"duration {n * dt:.3e} s too short to represent the PSD's "
                f"lowest frequency {min_freq_hz:.3e} Hz (need >= "
                f"{100.0 / min_freq_hz:.3e} s, 100 periods)"
            )
    d_omega = 2.0 * math.pi / (n * dt)
    first = max(1, int(float(target.freqs[0]) / d_omega) - 1)
    last = min((n - 1) // 2, int(omega_max / d_omega) + 1)
    k = np.arange(first, last + 1)
    omega_k = k * d_omega
    amps = np.sqrt(2.0 * target.value_at(omega_k) * d_omega)
    powered = amps != 0.0
    return _Band(k[powered], amps[powered], omega_k[powered], n)


def _band_phases(live: np.ndarray, seed) -> np.ndarray:
    """Random phases of the sorted bins ``live``, drawing only their span.

    Bin ``k``'s phase is element ``k`` of ``default_rng(seed).uniform(0,
    2 pi, n_bins)``.  ``uniform`` takes one 64-bit PCG64 output per double,
    so advancing the stream past the ``live[0]`` bins below the band leaves
    every later phase as that full draw has it.
    """
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(int(live[0]))
    offsets = live - live[0]
    return rng.uniform(0.0, 2.0 * math.pi, size=int(offsets[-1]) + 1)[offsets]


def _spectrum(
    target: Psd, duration: float, dt: float, seed
) -> tuple[np.ndarray, _Band]:
    """Common synthesis core: returns (rfft spectrum, its powered band).

    Only the powered bins get a phasor, and only their phases are drawn
    (rfft bin ``k`` takes draw ``k - 1``); the others stay exactly zero.
    """
    band = _bins(target, duration, dt)
    spectrum = np.zeros(band.n // 2 + 1, dtype=complex)
    if band.k.size:
        phasors = np.exp(1j * _band_phases(band.k - 1, seed))
        spectrum[band.k] = 0.5 * band.n * band.amps * phasors
    return spectrum, band


def synthesize_noise(target: Psd, duration: float, dt: float, seed) -> TimeSeries:
    """Random time series whose periodogram matches ``target`` in band.

    Sums fixed-modulus, random-phase Fourier components on the grid
    ``omega_k = 2 pi k / duration`` with amplitude
    ``sqrt(2 S(omega_k) d_omega)``, so the sample variance approaches
    ``integral S d omega`` and the per-bin periodogram matches the target
    by construction.  Deterministic for a given ``seed``.

    Raises
    ------
    ResolutionError
        If ``dt`` cannot represent the top tabulated frequency, or the
        duration covers fewer than 100 periods of the lowest one.
    """
    spectrum, band = _spectrum(target, duration, dt, seed)
    return TimeSeries(samples=np.fft.irfft(spectrum, band.n), dt=dt)


def synthesize_noise_with_derivative(
    target: Psd, duration: float, dt: float, seed
) -> tuple[TimeSeries, TimeSeries]:
    """Like :func:`synthesize_noise`, also returning the exact derivative.

    The derivative is synthesized from the same Fourier draw (spectrum
    times ``i omega``), so it is the analytic rate of the first series, not
    a finite difference.  The first element is bit-identical to
    ``synthesize_noise(target, duration, dt, seed)``.

    Nothing in the package calls it; it stays only because the benchmark
    harness (``perfbench/``) traces it, and goes when that harness is next
    revised (ROADMAP items 1 and 23).
    """
    spectrum, band = _spectrum(target, duration, dt, seed)
    series = TimeSeries(samples=np.fft.irfft(spectrum, band.n), dt=dt)
    spectrum[band.k] = 1j * band.omega * spectrum[band.k]
    return series, TimeSeries(samples=np.fft.irfft(spectrum, band.n), dt=dt)


# ---------------------------------------------------------------------------
# Monte-Carlo cross-checks
# ---------------------------------------------------------------------------


def _shot_step(
    psd: Psd, profile: SensitivityProfile, oversample: int, pulse_steps: float
) -> float:
    """Time step of a shot window: ``oversample`` steps per period of the
    PSD's top frequency, and at least ``pulse_steps`` per pi pulse."""
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    omega_max = float(psd.freqs[-1])
    return min(2.0 * math.pi / (oversample * omega_max), profile.tau_p / pulse_steps)


def _trapezoid_weights(kernel: np.ndarray, dt: float) -> np.ndarray:
    """``kernel`` times the trapezoid-rule weights of step ``dt``."""
    trap = np.full(kernel.size, dt)
    trap[0] = trap[-1] = 0.5 * dt
    return kernel * trap


def _smooth_length(n: int) -> int:
    """Least ``2^a 3^b 5^c`` that is at least ``n``.

    numpy's pocketfft transforms such a length with its radix-2/3/5 passes;
    a large prime factor (640,177 = 89 x 7,193) sends it to Bluestein's
    algorithm, over ten times slower at that size.  It sizes the vibration
    Monte Carlo's Fourier grid and the FFTs of :func:`_window_transform`.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _window_transform(weights: np.ndarray, n: int, bins: np.ndarray) -> np.ndarray:
    """``np.fft.rfft(weights, n)[bins]`` for increasing ``bins`` and at most
    ``n`` weights, by one chirp-z convolution (Rabiner, Schafer & Rader,
    1969).

    Over the band's span of K bins, ``k = k0 + m`` with ``0 <= m < K``, and
    ``2 j m = j^2 + m^2 - (m - j)^2`` turns ``W_k = sum_j w_j e^{-2 pi i j k
    / n}`` into ``conj(c_m) sum_j (w_j e^{-i pi (j^2 + 2 j k0) / n}) c_{m -
    j}`` with the chirp ``c_l = e^{i pi l^2 / n}``.  That sum is a linear
    convolution of the J weights with ``c`` over ``-J < l < K``, done by
    FFTs of length ``_smooth_length(J + K - 1)``, so the cost follows the
    window and the band, not ``n``.  Every exponent is an integer reduced
    mod 2n before it is scaled to an angle, so no angle exceeds 2 pi and
    none carries the rounding of a large ``j^2``.
    """
    count = weights.size
    k0 = int(bins[0])
    span = int(bins[-1]) - k0 + 1
    size = _smooth_length(count + span - 1)
    period = 2 * n
    j = np.arange(count)
    lags = np.arange(max(count, span))  # c_{-l} = c_l
    chirp = np.exp(1j * (math.pi / n) * (lags * lags % period))
    modulated = np.zeros(size, dtype=complex)
    modulated[:count] = weights * np.exp(
        -1j * (math.pi / n) * ((j * j + (2 * k0 % period) * j) % period))
    kernel = np.zeros(size, dtype=complex)
    kernel[:span] = chirp[:span]
    kernel[size - count + 1:] = chirp[count - 1 : 0 : -1]
    # In place: the window costs three arrays of the FFT length, not six.
    np.fft.fft(modulated, out=modulated)
    modulated *= np.fft.fft(kernel, out=kernel)
    conv = np.fft.ifft(modulated, out=modulated)
    m = bins - k0
    return np.conj(chirp[m]) * conv[m]


def monte_carlo_phase_variance(
    s_phi: Psd,
    profile: SensitivityProfile,
    n_shots: int,
    seed: int,
    oversample: int = _OVERSAMPLE,
    duration_factor: int = 16,
) -> float:
    """Monte-Carlo check of :func:`phase_variance_from_psd`, bin by bin.

    Each shot is an independent drive-phase record: the random-phase
    spectrum of :func:`synthesize_noise` from stream ``(seed, shot)``.  Its
    phase is ``delta_Phi = integral g_s dphi/dt dt``, the trapezoid rule
    over the first sequence window applied to the record's rate; the
    function returns the mean-square phase over the shots.

    No record is synthesized.  The trapezoid is linear in the spectrum, so
    with ``W_k = rfft(weights, N)[k]`` (the trapezoid weights zero-padded to
    the record length N) a shot's phase is ``Re sum_k C_k e^{i theta_k}``,
    ``C_k = i omega_k a_k conj(W_k)``, over the bins with nonzero amplitude
    ``a_k``.  ``W`` is taken on those bins only, by the chirp-z transform
    of :func:`_window_transform`, and ``C`` is built once; each shot draws
    the phases ``theta`` of the band those bins span, and no others, and
    takes one dot product, equal to the time-domain trapezoid of the inverse
    FFT up to rounding.

    Each shot's record is ``duration_factor`` times longer than the
    sequence span.  This matters: a record built on these bins is periodic
    over its duration, and the sensitivity function is antiperiodic over
    half the span (``g_s(t + span/2) = -g_s(t)``), so a record whose period
    equals the span puts every even Fourier mode exactly on a null of the
    transfer function and systematically underestimates the variance.  A
    long record spaces the modes densely enough to sample the
    transfer-function oscillations fairly.
    """
    if n_shots < 2:
        raise ValueError("n_shots must be >= 2")
    if duration_factor < 4:
        raise ValueError("duration_factor must be >= 4")
    dt = _shot_step(s_phi, profile, oversample, 16.0)
    n = int(round(profile.span / dt))
    dt = profile.span / n
    t = dt * np.arange(n + 1)
    weights = _trapezoid_weights(sensitivity_g(t, profile), dt)
    band = _bins(s_phi, duration_factor * profile.span, dt)
    if band.k.size == 0:
        return 0.0
    window = np.conj(_window_transform(weights, band.n, band.k))
    coeffs = 1j * band.omega * band.amps * window
    phases = np.empty(n_shots)
    for shot in range(n_shots):
        theta = _band_phases(band.k - 1, [seed, shot])
        phases[shot] = coeffs.real @ np.cos(theta) - coeffs.imag @ np.sin(theta)
    return float(np.mean(phases**2))


def monte_carlo_vibration_allan(
    s_a: Psd,
    profile: SensitivityProfile,
    k_eff: float = DEFAULT_K_EFF,
    cycle_time: float = 0.25,
    n_shots: int = 400,
    seed: int = 0,
) -> float:
    """Monte-Carlo check of the shot-sampled vibration Allan variance.

    Shot ``q`` reads one acceleration record, the random-phase series of
    :func:`synthesize_noise` on ``n`` samples of step ``dt`` from ``seed``:
    its phase is the trapezoid ``k_eff integral w(t) a(t) dt`` over the
    window that starts ``q`` cycles in.  The function returns the two-sample
    (Allan) variance of the shot phases, :func:`allan_deviation` at one
    cycle, squared.

    No record is synthesized.  With ``s`` samples per cycle, bin amplitudes
    ``a_k``, phases ``theta_k`` and ``W_k = rfft(weights, n)[k]`` (the
    window's trapezoid weights, from :func:`_window_transform` on the
    powered bins), shot ``q``'s phase is ``Re sum_k a_k e^{i theta_k}
    conj(W_k) e^{2 pi i k q s / n}``.  The record is ``n = c s`` samples,
    ``c`` whole cycles, so the last factor is ``e^{2 pi i k q / c}`` and
    depends on ``k`` only modulo ``c``: the terms fold into ``c`` sums, and
    one inverse FFT of length ``c`` gives every shot, shot ``q`` at its
    element ``q``.

    ``c`` is the least 5-smooth number (see :func:`_smooth_length`) of
    cycles whose samples hold ``n_shots`` cycles, one sequence span and one
    sample.  It fixes the Fourier grid and so each seed's draw.  ``dt`` and
    the windows do not depend on ``c``.
    """
    _check_cycle_time(profile, cycle_time)
    if n_shots < 3:
        raise ValueError("n_shots must be >= 3")
    dt0 = _shot_step(s_a, profile, _OVERSAMPLE, 8.0)
    steps_per_cycle = int(math.ceil(cycle_time / dt0))
    dt = cycle_time / steps_per_cycle
    needed = int(round((n_shots * cycle_time + profile.span + dt) / dt))
    cycles = _smooth_length(-(-needed // steps_per_cycle))
    band = _bins(s_a, cycles * steps_per_cycle * dt, dt)
    if band.k.size == 0:
        return 0.0
    t_rel = dt * np.arange(int(round(profile.span / dt)) + 1)
    weights = _trapezoid_weights(sensitivity_a(t_rel, profile, k_eff), dt)
    terms = (band.amps * np.exp(1j * _band_phases(band.k - 1, seed))
             * np.conj(_window_transform(weights, band.n, band.k)))
    residues = band.k % cycles
    folded = (np.bincount(residues, weights=terms.real, minlength=cycles)
              + 1j * np.bincount(residues, weights=terms.imag, minlength=cycles))
    # Shot q is element q; the index array takes a contiguous copy.
    phases = np.fft.ifft(folded, norm="forward").real[np.arange(n_shots)]
    adev = allan_deviation(TimeSeries(phases, cycle_time), [cycle_time]).adevs[0]
    return float(adev**2)


# ---------------------------------------------------------------------------
# Allan statistics
# ---------------------------------------------------------------------------


def _allan(
    series: TimeSeries, tau_avgs: Sequence[float], overlapping: bool
) -> AllanResult:
    """Allan statistics for each requested averaging time, snapped down to
    a whole number ``m`` of samples.

    One pass over ``tau_avgs`` first resolves the grid: with
    ``r = tau / dt + 1e-9``, compared before any ``int()`` so that an
    infinite ``r`` is omitted like any other, a time with ``r < 1`` is
    shorter than one sample, one with ``r >= N // 2 + 1`` leaves fewer than
    two blocks of ``m = floor(r)`` samples (``2 m > N``), and one whose
    ``m`` an earlier time kept is a duplicate.  Each reason's omissions go
    to one log record with their count and range; if no time survives,
    :class:`InsufficientDataError` is raised instead, its message carrying
    those records, so that a refusal is one line.  A time that is not
    finite raises a ``ValueError`` naming it.

    Both estimators then sum the squared second differences of one
    mean-centred prefix sum for each kept ``m``, in the order first
    requested: at every start index (``overlapping``) or at every ``m``-th.
    """
    n = series.samples.size
    short, duplicate, long = [], [], []
    kept: dict[int, None] = {}
    for tau in tau_avgs:
        if not math.isfinite(tau):
            raise ValueError(f"averaging time must be finite, got tau={tau}")
        if (r := tau / series.dt + 1e-9) < 1.0:
            short.append(tau)
        elif r >= n // 2 + 1:
            long.append(tau)
        elif int(r) in kept:
            duplicate.append(tau)
        else:
            kept[int(r)] = None
    notes = [f"omitting {len(omit)} tau in [{min(omit):g}, {max(omit):g}] s: {reason}"
             for omit, reason in ((short, "shorter than one sample"),
                                  (duplicate, "snaps to an m already kept"),
                                  (long, f"two blocks exceed the {n}-sample series"))
             if omit]
    if not kept:
        raise InsufficientDataError("; ".join(
            ["no requested averaging time fits two blocks in the series", *notes]))
    for note in notes:
        logger.warning(note)
    c = _centred_prefix_sum(series.samples)
    work = _allan_work(c.size)
    taus, adevs, counts = [], [], []
    for m in kept:
        power, n_terms = _second_difference_power(c, m, 1 if overlapping else m, work)
        taus.append(m * series.dt)
        adevs.append(math.sqrt(power / (2.0 * m * m * n_terms)))
        # Non-overlapping: n_terms differences of n_terms + 1 blocks.
        counts.append(n_terms if overlapping else n_terms + 1)
    return AllanResult(tau_avgs=np.array(taus), adevs=np.array(adevs),
                       n_blocks=np.array(counts))


def _centred_prefix_sum(y: np.ndarray) -> np.ndarray:
    """``c[0] = 0``, ``c[j] = sum_{i<j} (y_i - ybar)``: the prefix sum both
    Allan estimators read.

    The Allan variance does not depend on an offset, so centring costs
    nothing; for samples in one binade ``y_i - ybar`` is exact (Sterbenz), so
    a large offset such as g loses no digits, and a constant series gives an
    exactly linear ``c`` whose second differences are exactly 0.
    """
    c = np.empty(y.size + 1)
    c[0] = 0.0
    np.subtract(y, y.mean(), out=c[1:])
    np.cumsum(c[1:], out=c[1:])
    return c


def _allan_work(size: int) -> np.ndarray:
    """Work buffer of :func:`_second_difference_power` for a prefix sum of
    ``size`` values: three blocks of at most ``_ALLAN_BLOCK`` doubles."""
    return np.empty(3 * min(size, _ALLAN_BLOCK))


def _second_difference_power(
    c: np.ndarray, m: int, stride: int, work: np.ndarray
) -> tuple[float, int]:
    """``sum_j (c[j+2m] - 2 c[j+m] + c[j])^2`` over ``j = 0, stride, ...``
    while ``j + 2m`` stays inside ``c``, and the number of terms.

    With ``x = c[::stride]`` and lag ``l = m / stride`` (``stride`` divides
    ``m``) each term is a difference of block sums, ``d_j = s_{j+l} - s_j``
    with ``s_j = x[j+l] - x[j]``.  The terms are formed a block at a time
    in ``work`` (from :func:`_allan_work`; a third of it is the block
    length): for a block of ``L`` terms one subtract fills its s-window of
    ``L + l`` values, one more forms ``d`` and a dot product adds up its
    squares.  When ``l`` exceeds the block, the two s-windows ``[lo, hi)`` and
    ``[lo + l, hi + l)`` are formed apart, so ``work`` never holds more
    than three blocks however long ``c`` is.  Nearby block sums of a
    drifting series agree to a factor of two, so their differences are
    exact (Sterbenz), where expanding the square would cancel.
    """
    x = c[::stride]
    lag = m // stride
    n_terms = x.size - 2 * lag
    block = work.size // 3
    d_buf = work[2 * block :]
    power = 0.0
    for lo in range(0, n_terms, block):
        hi = min(lo + block, n_terms)
        if lag <= block:
            s = work[: hi - lo + lag]
            np.subtract(x[lo + lag : hi + 2 * lag], x[lo : hi + lag], out=s)
            near, far = s[: hi - lo], s[lag:]
        else:
            near, far = work[: hi - lo], work[block : block + hi - lo]
            np.subtract(x[lo + lag : hi + lag], x[lo:hi], out=near)
            np.subtract(x[lo + 2 * lag : hi + 2 * lag], x[lo + lag : hi + lag],
                        out=far)
        d = d_buf[: hi - lo]
        np.subtract(far, near, out=d)
        power += float(d @ d)
    return power, n_terms


def allan_deviation(series: TimeSeries, tau_avgs: Sequence[float]) -> AllanResult:
    """Non-overlapping Allan deviation of a time series.

    For each requested averaging time (snapped down to a whole number ``m``
    of samples) the series is cut into ``n`` contiguous blocks, and the
    two-sample variance of consecutive block means is::

        sigma_y^2(tau) = (1 / (2 (n - 1))) sum_{i=1}^{n-1}
                         (ybar_{i+1} - ybar_i)^2

    Each block sum is a difference of the mean-centred prefix sum
    ``c[j] = sum_{i<j} (y_i - ybar)``, so the estimate is the second-difference
    form (NIST SP 1065, phase-data estimator)::

        sigma_y^2(tau) = (1 / (2 m^2 (n - 1))) sum_{j = 0, m, ..., (n-2) m}
                         (c[j+2m] - 2 c[j+m] + c[j])^2

    ``c`` is built once per call and each ``tau`` costs O(n).  Centring
    leaves the variance unchanged and makes an offset such as g cost no
    digits.

    Averaging times shorter than one sample, leaving fewer than two blocks,
    or snapping to an ``m`` that an earlier time kept are omitted, with one
    log record per reason that gives their count and range.

    Raises
    ------
    InsufficientDataError
        If no requested averaging time survives.
    """
    return _allan(series, tau_avgs, overlapping=False)


def allan_deviation_overlapping(
    series: TimeSeries, tau_avgs: Sequence[float]
) -> AllanResult:
    """Overlapping-estimator variant of :func:`allan_deviation`.

    Uses every available start index::

        sigma_y^2(tau) = (1 / (2 m^2 (N - 2m + 1)))
                         sum_{j=0}^{N-2m} (c[j+2m] - 2 c[j+m] + c[j])^2

    where ``c[j+m] - c[j]`` is the length-m block sum starting at ``j`` and
    ``c`` is the mean-centred prefix sum of :func:`allan_deviation`, built
    once per call; the differences of each ``tau`` are summed block by
    block in one work buffer of at most 768 KiB, which every ``tau``
    reuses.  Smoother than the non-overlapping estimator at large tau (the
    reported ``n_blocks`` is the number of overlapping differences).
    Averaging times are snapped and omitted, with one log record per
    reason, as in :func:`allan_deviation`.
    """
    return _allan(series, tau_avgs, overlapping=True)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def _parse_rows(lines: list[str], width: int) -> np.ndarray | None:
    """``lines`` as a float array of ``width`` columns; None if they are not.

    Comment rows are dropped before this parse, so a ``#`` inside a row is
    data (``comments=None``); a cell may be quoted with ``"``.
    """
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == width else None


def _row_error(
    p: Path, lines: list[str], start: int, rows: list[str], width: int
) -> DataFormatError:
    """The error naming the first of ``rows`` that `_parse_rows` rejects, at
    its first occurrence in ``lines`` from index ``start`` on."""
    for line in rows:
        if _parse_rows([line], width) is not None:
            continue
        line_no = lines.index(line, start) + 1
        cells = line.split(",")
        if len(cells) != width:
            return DataFormatError(
                f"{p}:{line_no}: expected {width} columns, got {len(cells)}"
            )
        bad = next(
            (c for c in cells if not c.strip() or _parse_rows([c], 1) is None), line
        )
        return DataFormatError(
            f"{p}:{line_no}: could not convert string to float: {bad!r}"
        )
    # Only a quoted cell that runs across lines gets here.
    return DataFormatError(f"{p}: rows do not parse as {width} numeric columns")


def _read_rows(path: str | Path, expected_header: list[str]) -> np.ndarray:
    """The data rows under ``expected_header`` as a float array.

    Empty rows and rows whose first non-blank character is ``#`` are
    skipped; a bad header or data row, or a non-finite cell (``nan``,
    ``inf``), is reported with its line number.
    """
    p = Path(path)
    if not p.is_file():
        raise DataFormatError(f"input file not found: {p}")
    lines = p.read_text().split("\n")
    # Each error below names the first data row with its fault, and an
    # identical earlier data row would have the same fault, so the row's
    # first occurrence after the header is its line; only an error needs it.
    rows = [
        line for line in lines
        if line and ("#" not in line or not line.lstrip().startswith("#"))
    ]
    if rows:
        head = lines.index(rows[0])
        header = [cell.strip().strip('"') for cell in rows[0].split(",")]
        if header != expected_header:
            raise DataFormatError(
                f"{p}:{head + 1}: expected header {expected_header}, got {header}"
            )
    if len(rows) < 2:
        raise DataFormatError(f"{p}: no data rows")
    width = len(expected_header)
    data = _parse_rows(rows[1:], width)
    if data is None:
        raise _row_error(p, lines, head + 1, rows[1:], width)
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        line = rows[1 + row]
        raise DataFormatError(
            f"{p}:{lines.index(line, head + 1) + 1}: non-finite value in column "
            f"{expected_header[col]!r}: {line.split(',')[col].strip()!r}"
        )
    return data


def read_psd_csv(path: str | Path) -> Psd:
    """Load a PSD from CSV columns ``omega_rad_per_s,psd_value``."""
    data = _read_rows(path, ["omega_rad_per_s", "psd_value"])
    try:
        return Psd(freqs=data[:, 0], values=data[:, 1])
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_series_csv(path: str | Path) -> TimeSeries:
    """Load a uniformly sampled series from CSV columns ``t,y``.

    ``dt`` is the mean step ``(t[-1] - t[0]) / (n - 1)``; every step must
    match it to ``1e-6 dt`` plus four ulps of the largest ``|t|``.
    """
    data = _read_rows(path, ["t", "y"])
    t = data[:, 0]
    if t.size < 2:
        raise DataFormatError(f"{path}: need at least two samples")
    # The mean step, with each step allowed the rounding of the times
    # themselves: at an epoch time such as 1.3e9 s one ulp of t is 2.4e-7 s,
    # above 1e-6 of a 10-ms step.
    dt = float((t[-1] - t[0]) / (t.size - 1))
    slack = 1e-6 * dt + 4.0 * float(np.spacing(np.abs(t).max()))
    if dt <= 0.0 or np.any(np.abs(np.diff(t) - dt) > slack):
        raise DataFormatError(f"{path}: time grid is not uniformly increasing")
    return TimeSeries(samples=data[:, 1], dt=dt, t0=float(t[0]))


def write_psd_csv(path: str | Path, psd: Psd, comments: Sequence[str] = ()) -> None:
    """Write a PSD in the ``omega_rad_per_s,psd_value`` format."""
    _write_csv(path, ["omega_rad_per_s", "psd_value"], [psd.freqs, psd.values], comments)


def write_series_csv(
    path: str | Path, series: TimeSeries, comments: Sequence[str] = ()
) -> None:
    """Write a time series in the ``t,y`` format."""
    _write_csv(path, ["t", "y"], [series.times, series.samples], comments)


def write_allan_csv(
    path: str | Path, result: AllanResult, comments: Sequence[str] = ()
) -> None:
    """Write Allan statistics in the ``tau,adev,n_blocks`` format."""
    _write_csv(
        path,
        ["tau", "adev", "n_blocks"],
        [result.tau_avgs, result.adevs, np.asarray(result.n_blocks, dtype=int)],
        comments,
    )
