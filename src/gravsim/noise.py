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

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import DEFAULT_K_EFF
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
    "transfer_function_square_profile",
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

#: Coverage band required of tabulated PSDs, in units of the sequence scales:
#: two decades below the fringe frequency 2*pi/T up to two decades above the
#: Rabi rate.
_COVER_LOW_FACTOR = 0.01  # times 2*pi/T
_COVER_HIGH_FACTOR = 100.0  # times omega_r

#: Largest omega grid a PSD integral may use; a band that needs more points
#: is refused rather than integrated under-resolved.
_MAX_GRID_POINTS = 4_000_001


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real time series.

    Attributes
    ----------
    samples : numpy.ndarray
        Sample values.
    dt : float
        Sampling interval [s].
    t0 : float
        Time of the first sample [s].
    """

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("samples must be a 1-D array with >= 2 points")
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
        if np.any(f < 0.0) or np.any(np.diff(f) <= 0.0):
            raise ValueError("freqs must be nonnegative and strictly increasing")
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
    omega_r : float
        Rabi rate [rad/s]; tied to tau_p by the pi-pulse condition
        ``omega_r * tau_p = pi``.
    """

    big_t: float
    tau_p: float
    omega_r: float

    def __post_init__(self) -> None:
        if self.tau_p <= 0.0 or self.big_t <= self.tau_p:
            raise ValueError(
                f"need big_t > tau_p > 0, got big_t={self.big_t}, tau_p={self.tau_p}"
            )
        if abs(self.omega_r * self.tau_p - math.pi) > 1e-9 * math.pi:
            raise ValueError(
                "pi-pulse condition omega_r * tau_p = pi violated: "
                f"omega_r*tau_p = {self.omega_r * self.tau_p!r}"
            )

    @classmethod
    def from_tau_p(cls, big_t: float, tau_p: float) -> "SensitivityProfile":
        """Profile with the Rabi rate implied by the pi-pulse condition."""
        return cls(big_t=big_t, tau_p=tau_p, omega_r=math.pi / tau_p)

    @classmethod
    def from_omega_r(cls, big_t: float, omega_r: float) -> "SensitivityProfile":
        """Profile with the pi-pulse duration implied by the Rabi rate."""
        return cls(big_t=big_t, tau_p=math.pi / omega_r, omega_r=omega_r)

    @property
    def span(self) -> float:
        """Total sequence length ``2 T + 2 tau_p`` [s]."""
        return 2.0 * self.big_t + 2.0 * self.tau_p

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
    """A PSD-integral variance plus a flat-extrapolation truncation bound."""

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
    a = 0.5 * profile.tau_p
    span = profile.span
    # -sin(w t), -1, -cos(w (t - T - a)), +1, sin(w (span - t)).  The first
    # level is -0.0 so that g_s(0) = -0.0 + -sin(0) = -0.0 and g_s(span) =
    # 0.0 + -sin(0) = +0.0, the signed zeros of the formulas above.
    return [
        _Segment(0.0, a, -0.0, -1.0),
        _Segment(a, a + big_t, -1.0, 0.0),
        _Segment(a + big_t, 3.0 * a + big_t, 0.0, -1j, big_t, a),
        _Segment(3.0 * a + big_t, 3.0 * a + 2.0 * big_t, 1.0, 0.0),
        _Segment(3.0 * a + 2.0 * big_t, span, 0.0, -1.0, span),
    ]


def _pieces(t: np.ndarray, segments: list[_Segment]):
    """Each segment with the mask of the times it owns: ``(lo, hi]``, and
    ``[lo, hi]`` for the first."""
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
    gives the weight ``w(t)``, the DC response and ``G(omega)``.
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
    around the mirror pulse, and falls symmetrically.
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
    t_rel = accel.times - t_start
    kernel = k_eff * _weight(t_rel, profile)
    return float(np.trapezoid(kernel * accel.samples, dx=accel.dt))


def dc_phase_response(
    profile: SensitivityProfile,
    k_eff: float = DEFAULT_K_EFF,
    a0: float = 1.0,
) -> float:
    """Phase from a constant acceleration ``a0`` via the double integral.

    ``integral w dt = integral t g_s dt`` by parts (``w`` vanishes at the
    end), summed exactly over the segments of ``g_s``; for ``tau_p << T``
    the result approaches the textbook ``k_eff a0 T^2``.
    """
    w = profile.omega_r
    total = 0.0
    for seg in _segments(profile):
        if seg.p:
            # integral t f dt = [t F / w + f / w^2], F = f integrated
            for t, sign in ((seg.hi, 1.0), (seg.lo, -1.0)):
                total += sign * (t * seg.oscillation(w, t, integrated=True) / w
                                 + seg.oscillation(w, t) / w**2)
        else:
            total += 0.5 * seg.level * (seg.hi - seg.lo) * (seg.hi + seg.lo)
    return float(k_eff * a0 * total)


# ---------------------------------------------------------------------------
# Transfer function
# ---------------------------------------------------------------------------


def _exp_integral(kappa: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``integral_lo^hi e^{i kappa t} dt``, finite as ``kappa -> 0``."""
    length = hi - lo
    return (np.exp(0.5j * kappa * (lo + hi)) * length
            * np.sinc(kappa * length / (2.0 * math.pi)))


def transfer_function(
    omega: np.ndarray | float,
    profile: SensitivityProfile,
    three_segment: bool = False,
) -> np.ndarray | float:
    """Magnitude of ``G(omega) = integral g_s(t) e^{-i omega t} dt``, exact.

    On each segment of ``_segments``, ``g_s = level + Im(p e^{i omega_r
    (t - ref)})``, so with the coefficient ``p e^{-i omega_r ref}`` the
    segment's share of ``G`` is a sum of :func:`_exp_integral` terms at
    ``kappa = -omega`` and ``+-omega_r - omega`` (Cheinet et al., IEEE
    Trans. Instrum. Meas. 57, 1141 (2008)).  The sinc form stays finite at
    ``omega = omega_r``.

    In the thin-pulse limit the magnitude approaches
    ``(4/omega) sin^2(omega T / 2)`` (see
    :func:`transfer_function_square_profile`).
    """
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(omega_arr < 0.0):
        raise ValueError("omega must be >= 0 for the one-sided transfer function")
    w = profile.omega_r
    result = np.zeros(omega_arr.shape, dtype=complex)
    for lo, hi, level, p, big, small in _segments(profile, three_segment):
        if level:
            result += level * _exp_integral(-omega_arr, lo, hi)
        if p:
            p = p * np.exp(-1j * w * (big + small))
            result += (p * _exp_integral(w - omega_arr, lo, hi)
                       - np.conj(p) * _exp_integral(-w - omega_arr, lo, hi)) / 2j
    mags = np.abs(result)
    return mags if np.ndim(omega) else float(mags[0])


def transfer_function_square_profile(
    omega: np.ndarray | float, big_t: float
) -> np.ndarray | float:
    """Thin-pulse (square g_s) transfer magnitude ``(4/omega) sin^2(omega T/2)``.

    The ``omega -> 0`` limit is zero (DC rejection)."""
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.zeros_like(omega_arr)
    nz = omega_arr != 0.0
    out[nz] = 4.0 / omega_arr[nz] * np.sin(0.5 * omega_arr[nz] * big_t) ** 2
    return out if np.ndim(omega) else float(out[0])


# ---------------------------------------------------------------------------
# PSD integrals
# ---------------------------------------------------------------------------


def _required_band(profile: SensitivityProfile) -> tuple[float, float]:
    """Frequency band a tabulated PSD must cover for a full budget."""
    low = _COVER_LOW_FACTOR * 2.0 * math.pi / profile.big_t
    high = _COVER_HIGH_FACTOR * profile.omega_r
    return low, high


def _check_coverage(
    psd: Psd, profile: SensitivityProfile, allow_partial: bool, what: str
) -> None:
    low, high = _required_band(profile)
    tab_lo = float(psd.freqs[0])
    tab_hi = float(psd.freqs[-1])
    if tab_lo > low * (1.0 + 1e-9) or tab_hi < high * (1.0 - 1e-9):
        if not allow_partial:
            raise CoverageError(
                f"{what}: tabulated band [{tab_lo:.3e}, {tab_hi:.3e}] rad/s does "
                f"not cover the required [{low:.3e}, {high:.3e}] rad/s; pass "
                "allow_partial=True to integrate over the tabulated band only"
            )


def _integration_grid(psd: Psd, finest_time_scale: float) -> np.ndarray:
    """Linear omega grid resolving the integrand's fastest oscillation."""
    lo = float(psd.freqs[0])
    hi = float(psd.freqs[-1])
    if hi <= lo:
        raise ValueError("PSD band is empty")
    d_omega = (2.0 * math.pi / finest_time_scale) / 32.0
    n = int(math.ceil((hi - lo) / d_omega)) + 1
    if n > _MAX_GRID_POINTS:
        raise ResolutionError(
            f"resolving the PSD band [{lo:.3e}, {hi:.3e}] rad/s needs {n} grid "
            f"points; at most {_MAX_GRID_POINTS} are allowed"
        )
    n = max(n, 1001)
    # Include the tabulated breakpoints so linear PSD features are exact.
    grid = np.union1d(np.linspace(lo, hi, n), psd.freqs)
    return grid


def phase_variance_from_psd(
    s_phi: Psd,
    profile: SensitivityProfile,
    allow_partial: bool = False,
) -> VarianceResult:
    """Interferometer phase variance from a drive-phase-noise PSD.

    Integrates the weighted spectrum::

        sigma_Phi^2 = integral (omega |G(omega)|)^2 S_phi(omega) d omega

    over the tabulated band with a trapezoid rule on a grid fine enough to
    resolve the transfer-function oscillations.  Unless ``allow_partial`` is
    set, the tabulated band must cover two decades below the fringe
    frequency ``2 pi / T`` through two decades above the Rabi rate; when it
    is set, the returned ``truncation_estimate`` bounds the unintegrated
    tails by extrapolating the edge PSD values flat over one decade on each
    missing side.  A band whose grid would need more than
    ``_MAX_GRID_POINTS`` points raises :class:`ResolutionError`.
    """
    _check_coverage(s_phi, profile, allow_partial, "phase-noise PSD")
    grid = _integration_grid(s_phi, profile.span)
    weighted = (grid * np.asarray(transfer_function(grid, profile))) ** 2
    variance = float(np.trapezoid(weighted * s_phi.value_at(grid), grid))

    truncation = 0.0
    low, high = _required_band(profile)
    tab_lo, tab_hi = float(s_phi.freqs[0]), float(s_phi.freqs[-1])
    if tab_lo > low * (1.0 + 1e-9):
        tail = np.linspace(max(low, tab_lo / 10.0), tab_lo, 501)
        gains = (tail * np.asarray(transfer_function(tail, profile))) ** 2
        truncation += float(s_phi.values[0]) * float(np.trapezoid(gains, tail))
    if tab_hi < high * (1.0 - 1e-9):
        tail = np.linspace(tab_hi, min(high, 10.0 * tab_hi), 2001)
        gains = (tail * np.asarray(transfer_function(tail, profile))) ** 2
        truncation += float(s_phi.values[-1]) * float(np.trapezoid(gains, tail))
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
        convention.
    allow_partial : bool, optional
        Skip the band-coverage requirement (see
        :func:`phase_variance_from_psd`).
    """
    if cycle_time is None or cycle_time < profile.span:
        raise ValueError(
            f"cycle_time must be >= the sequence span {profile.span}, got {cycle_time}"
        )
    _check_coverage(s_a, profile, allow_partial, "acceleration PSD")
    # The fastest oscillation in omega comes from the largest time scale
    # (sin^2(omega * cycle_time / 2) for the shot-sampled form).
    grid = _integration_grid(s_a, max(profile.span, cycle_time))
    gain = np.asarray(transfer_function(grid, profile))
    s_vals = s_a.value_at(grid)
    if formula == "printed":
        integrand = (gain / grid**2) ** 2 * s_vals
        return float(k_eff**2 / cycle_time * np.trapezoid(integrand, grid))
    if formula == "shot-sampled":
        integrand = (
            (gain / grid) ** 2 * np.sin(0.5 * grid * cycle_time) ** 2 * s_vals
        )
        return float(2.0 * k_eff**2 * np.trapezoid(integrand, grid))
    raise ValueError(f"formula must be 'printed' or 'shot-sampled', got {formula!r}")


# ---------------------------------------------------------------------------
# Noise synthesis
# ---------------------------------------------------------------------------


def _bins(
    target: Psd, duration: float, dt: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Deterministic synthesis grid: (bin amplitudes, their omega_k, n samples).

    Bin ``k = 1 .. n // 2`` sits at ``omega_k = k d_omega`` with amplitude
    ``sqrt(2 S(omega_k) d_omega)``; for even ``n`` the Nyquist amplitude is
    zero, since that bin cannot carry a phase.
    """
    if dt <= 0.0 or duration <= 0.0:
        raise ValueError("duration and dt must be positive")
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
    k = np.arange(1, n // 2 + 1)
    omega_k = k * d_omega
    amps = np.sqrt(2.0 * target.value_at(omega_k) * d_omega)
    if n % 2 == 0:
        amps[-1] = 0.0
    return amps, omega_k, n


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
) -> tuple[np.ndarray, np.ndarray, int]:
    """Common synthesis core: returns (rfft spectrum, its omega_k, n samples).

    Only bins with power get a phasor, and only their phases are drawn; the
    others stay exactly zero.
    """
    amps, omega_k, n = _bins(target, duration, dt)
    live = np.flatnonzero(amps)
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    if live.size:
        phasors = np.exp(1j * _band_phases(live, seed))
        spectrum[1 + live] = 0.5 * n * amps[live] * phasors
    return spectrum, omega_k, n


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
    spectrum, _, n = _spectrum(target, duration, dt, seed)
    return TimeSeries(samples=np.fft.irfft(spectrum, n), dt=dt)


def synthesize_noise_with_derivative(
    target: Psd, duration: float, dt: float, seed
) -> tuple[TimeSeries, TimeSeries]:
    """Like :func:`synthesize_noise`, also returning the exact derivative.

    The derivative is synthesized from the same Fourier draw (spectrum
    times ``i omega``), so it is the analytic rate of the first series, not
    a finite difference.  The first element is bit-identical to
    ``synthesize_noise(target, duration, dt, seed)``.
    """
    spectrum, omega_k, n = _spectrum(target, duration, dt, seed)
    series = TimeSeries(samples=np.fft.irfft(spectrum, n), dt=dt)
    spectrum[1:] = 1j * omega_k * spectrum[1:]
    return series, TimeSeries(samples=np.fft.irfft(spectrum, n), dt=dt)


# ---------------------------------------------------------------------------
# Monte-Carlo cross-checks
# ---------------------------------------------------------------------------


def monte_carlo_phase_variance(
    s_phi: Psd,
    profile: SensitivityProfile,
    n_shots: int,
    seed: int,
    oversample: int = 32,
    duration_factor: int = 16,
) -> float:
    """Monte-Carlo check of :func:`phase_variance_from_psd`, bin by bin.

    Each shot is an independent drive-phase record: the random-phase
    spectrum of :func:`synthesize_noise` from stream ``(seed, shot)``.  Its
    phase is ``delta_Phi = integral g_s dphi/dt dt``, the trapezoid rule
    over the first sequence window applied to the record's rate; the
    function returns the mean-square phase over the shots.

    No record is synthesized.  The trapezoid is linear in the spectrum, so
    with ``W = conj(rfft(weights, N))`` (trapezoid weights zero-padded to
    the record length N) a shot's phase is ``Re sum_k C_k e^{i theta_k}``,
    ``C_k = i omega_k a_k W_k``, over the bins with nonzero amplitude
    ``a_k``.  ``C`` is built once; each shot draws the phases ``theta`` of
    the band those bins span, and no others, and takes one dot product,
    equal to the time-domain trapezoid of the inverse FFT up to rounding.

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
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    omega_max = float(s_phi.freqs[-1])
    dt = min(
        2.0 * math.pi / (oversample * omega_max), profile.tau_p / 16.0
    )
    n = int(round(profile.span / dt))
    dt = profile.span / n
    t = dt * np.arange(n + 1)
    kernel = sensitivity_g(t, profile)
    trap = np.full(n + 1, dt)
    trap[0] = trap[-1] = 0.5 * dt
    weights = kernel * trap
    amps, omega_k, n_record = _bins(s_phi, duration_factor * profile.span, dt)
    live = np.flatnonzero(amps)
    if live.size == 0:
        return 0.0
    window = np.conj(np.fft.rfft(weights, n_record)[1 + live])
    coeffs = 1j * omega_k[live] * amps[live] * window
    phases = np.empty(n_shots)
    for shot in range(n_shots):
        theta = _band_phases(live, [seed, shot])
        phases[shot] = coeffs.real @ np.cos(theta) - coeffs.imag @ np.sin(theta)
    return float(np.mean(phases**2))


def monte_carlo_vibration_allan(
    s_a: Psd,
    profile: SensitivityProfile,
    k_eff: float = DEFAULT_K_EFF,
    cycle_time: float = 0.25,
    n_shots: int = 400,
    seed: int = 0,
    oversample: int = 32,
) -> float:
    """Time-domain check of the shot-sampled vibration Allan variance.

    Synthesizes one long acceleration record, computes each shot's phase
    ``k_eff integral w(t) a(t) dt`` on consecutive windows spaced by
    ``cycle_time``, and returns the two-sample (Allan) variance of the shot
    phases, ``mean(diff^2)/2``.
    """
    if cycle_time < profile.span:
        raise ValueError(
            f"cycle_time must be >= the sequence span {profile.span}"
        )
    if n_shots < 3:
        raise ValueError("n_shots must be >= 3")
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    omega_max = float(s_a.freqs[-1])
    dt0 = min(2.0 * math.pi / (oversample * omega_max), profile.tau_p / 8.0)
    steps_per_cycle = int(math.ceil(cycle_time / dt0))
    dt = cycle_time / steps_per_cycle
    duration = n_shots * cycle_time + profile.span + dt
    series = synthesize_noise(s_a, duration, dt, seed)
    n_window = int(round(profile.span / dt)) + 1
    t_rel = dt * np.arange(n_window)
    kernel = k_eff * _weight(t_rel, profile)
    trap = np.full(n_window, dt)
    trap[0] = trap[-1] = 0.5 * dt
    weights = kernel * trap
    starts = np.arange(n_shots) * steps_per_cycle
    index = starts[:, None] + np.arange(n_window)[None, :]
    phases = series.samples[index] @ weights
    return float(np.mean(np.diff(phases) ** 2) / 2.0)


# ---------------------------------------------------------------------------
# Allan statistics
# ---------------------------------------------------------------------------


def _allan(
    series: TimeSeries,
    tau_avgs: Sequence[float],
    estimate: Callable[[int], tuple[float, int] | str],
    none_left: str,
) -> AllanResult:
    """Allan statistics for each requested averaging time, snapped down to
    a whole number ``m`` of samples.

    ``estimate(m)`` returns the Allan variance and the number of blocks (or
    differences) behind it, or the reason ``m`` does not fit the series;
    such times, those below one sample, and those snapping to an ``m``
    already reported are omitted with a log record.  ``none_left`` is the
    error text when no time survives.
    """
    taus, adevs, counts = [], [], []
    seen: set[int] = set()
    for tau in tau_avgs:
        m = int(math.floor(tau / series.dt + 1e-9))
        if m < 1:
            logger.warning("omitting tau=%g s: shorter than one sample", tau)
            continue
        if m in seen:
            logger.warning("omitting tau=%g s: snaps to m=%d samples, as an "
                           "earlier tau did", tau, m)
            continue
        result = estimate(m)
        if isinstance(result, str):
            logger.warning("omitting tau=%g s: %s", tau, result)
            continue
        seen.add(m)
        avar, count = result
        taus.append(m * series.dt)
        adevs.append(math.sqrt(avar))
        counts.append(count)
    if not taus:
        raise InsufficientDataError(none_left)
    return AllanResult(
        tau_avgs=np.array(taus), adevs=np.array(adevs), n_blocks=np.array(counts)
    )


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


def _second_difference_power(
    c: np.ndarray, m: int, stride: int, work: np.ndarray
) -> tuple[float, int]:
    """``sum_j (c[j+2m] - 2 c[j+m] + c[j])^2`` over ``j = 0, stride, ...``
    while ``j + 2m`` stays inside ``c``, and the number of terms.

    The terms are formed in the front of ``work`` with in-place ufuncs, so a
    call allocates nothing.
    """
    n_terms = (c.size - 1 - 2 * m) // stride + 1
    d = work[:n_terms]
    far = c[2 * m :: stride][:n_terms]
    mid = c[m::stride][:n_terms]
    np.subtract(far, mid, out=d)
    np.subtract(d, mid, out=d)
    np.add(d, c[::stride][:n_terms], out=d)
    return float(d @ d), n_terms


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

    Averaging times shorter than one sample or leaving fewer than two
    blocks are omitted (with a log record); duplicates after snapping are
    reported once.

    Raises
    ------
    InsufficientDataError
        If no requested averaging time survives.
    """
    y = series.samples
    c = _centred_prefix_sum(y)
    work = np.empty(y.size - 1)

    def estimate(m: int) -> tuple[float, int] | str:
        n_blocks = y.size // m
        if n_blocks < 2:
            return f"only {n_blocks} block(s) of {m} samples"
        power, n_diffs = _second_difference_power(c, m, m, work)
        return power / (2.0 * m * m * n_diffs), n_blocks

    return _allan(
        series, tau_avgs, estimate,
        "no requested averaging time leaves at least two blocks",
    )


def allan_deviation_overlapping(
    series: TimeSeries, tau_avgs: Sequence[float]
) -> AllanResult:
    """Overlapping-estimator variant of :func:`allan_deviation`.

    Uses every available start index::

        sigma_y^2(tau) = (1 / (2 m^2 (N - 2m + 1)))
                         sum_{j=0}^{N-2m} (c[j+2m] - 2 c[j+m] + c[j])^2

    where ``c[j+m] - c[j]`` is the length-m block sum starting at ``j`` and
    ``c`` is the mean-centred prefix sum of :func:`allan_deviation`, built
    once per call; the differences of each ``tau`` are formed in one reused
    buffer.  Smoother than the non-overlapping estimator at large tau (the
    reported ``n_blocks`` is the number of overlapping differences).
    """
    y = series.samples
    c = _centred_prefix_sum(y)
    work = np.empty(y.size - 1)

    def estimate(m: int) -> tuple[float, int] | str:
        if 2 * m > y.size:
            return "series too short for overlapping blocks"
        power, n_terms = _second_difference_power(c, m, 1, work)
        return power / (2.0 * m * m * n_terms), n_terms

    return _allan(
        series, tau_avgs, estimate,
        "no requested averaging time fits the series even once",
    )


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def _read_rows(path: str | Path, expected_header: list[str]) -> np.ndarray:
    p = Path(path)
    if not p.is_file():
        raise DataFormatError(f"input file not found: {p}")
    rows = []
    with p.open(newline="") as fh:
        reader = csv.reader(fh)
        header: list[str] | None = None
        for line_no, row in enumerate(reader, start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [cell.strip() for cell in row]
                if header != expected_header:
                    raise DataFormatError(
                        f"{p}:{line_no}: expected header {expected_header}, "
                        f"got {header}"
                    )
                continue
            if len(row) != len(expected_header):
                raise DataFormatError(
                    f"{p}:{line_no}: expected {len(expected_header)} columns, "
                    f"got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise DataFormatError(f"{p}:{line_no}: {exc}") from exc
    if header is None or not rows:
        raise DataFormatError(f"{p}: no data rows")
    return np.array(rows)


def read_psd_csv(path: str | Path) -> Psd:
    """Load a PSD from CSV columns ``omega_rad_per_s,psd_value``."""
    data = _read_rows(path, ["omega_rad_per_s", "psd_value"])
    try:
        return Psd(freqs=data[:, 0], values=data[:, 1])
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_series_csv(path: str | Path) -> TimeSeries:
    """Load a uniformly sampled series from CSV columns ``t,y``."""
    data = _read_rows(path, ["t", "y"])
    t = data[:, 0]
    if t.size < 2:
        raise DataFormatError(f"{path}: need at least two samples")
    steps = np.diff(t)
    dt = float(steps[0])
    if dt <= 0.0 or np.any(np.abs(steps - dt) > 1e-6 * dt):
        raise DataFormatError(f"{path}: time grid is not uniformly increasing")
    return TimeSeries(samples=data[:, 1], dt=dt, t0=float(t[0]))


def _write_csv(
    path: str | Path,
    header: list[str],
    columns: list[np.ndarray],
    comments: Sequence[str] = (),
) -> None:
    """Write CSV with LF endings, '.' decimals, 15-significant-digit floats
    and integer columns as plain integers; optional '#' comment lines first."""
    formats = [
        "{:d}" if np.issubdtype(np.asarray(column).dtype, np.integer) else "{:.15e}"
        for column in columns
    ]
    p = Path(path)
    with p.open("w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f.format(v) for f, v in zip(formats, row)) + "\n")


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
