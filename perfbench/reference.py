"""Independent reference values the benchmark checks the program against.

Nothing here imports gravsim.  The sensitivity function is written out again
from its piecewise definition, its Fourier transform is evaluated in closed
form segment by segment, and every PSD integral is a dense composite-Simpson
quadrature of that closed form, so a defect in the program's own quadrature
cannot hide in its reference.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _segments(big_t: float, tau_p: float) -> tuple[float, float, list[float]]:
    """Rabi rate, pulse half-width and segment edges of the five-segment g_s."""
    a = 0.5 * tau_p
    edges = [0.0, a, a + big_t, 3.0 * a + big_t, 3.0 * a + 2.0 * big_t,
             2.0 * big_t + 2.0 * tau_p]
    return math.pi / tau_p, a, edges


def sensitivity(t: np.ndarray, big_t: float, tau_p: float) -> np.ndarray:
    """g_s(t) of the pi/2 - pi - pi/2 sequence (first pulse starts at 0)."""
    w, a, (e0, e1, e2, e3, e4, e5) = _segments(big_t, tau_p)
    return np.select(
        [t < e0, t <= e1, t <= e2, t <= e3, t <= e4, t <= e5],
        [0.0 * t, -np.sin(w * t), -1.0 + 0.0 * t,
         -np.cos(w * (t - big_t - a)), 1.0 + 0.0 * t, np.sin(w * (e5 - t))],
        0.0,
    )


def _exp_integral(kappa: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """integral_lo^hi exp(i kappa t) dt, stable at kappa = 0."""
    length = hi - lo
    return (np.exp(0.5j * kappa * (lo + hi)) * length
            * np.sinc(kappa * length / TWO_PI))


def transfer(omega: np.ndarray, big_t: float, tau_p: float) -> np.ndarray:
    """|G(omega)| = |integral g_s(t) exp(-i omega t) dt|, exact."""
    om = np.asarray(omega, dtype=float)
    w, a, (_, e1, e2, e3, e4, span) = _segments(big_t, tau_p)
    up, down = w - om, -w - om  # exponents of exp(+-i w t) exp(-i omega t)
    g = -(_exp_integral(up, 0.0, e1) - _exp_integral(down, 0.0, e1)) / 2j
    g -= _exp_integral(-om, e1, e2)
    c = big_t + a
    g -= 0.5 * (np.exp(-1j * w * c) * _exp_integral(up, e2, e3)
                + np.exp(1j * w * c) * _exp_integral(down, e2, e3))
    g += _exp_integral(-om, e3, e4)
    g += (np.exp(1j * w * span) * _exp_integral(down, e4, span)
          - np.exp(-1j * w * span) * _exp_integral(up, e4, span)) / 2j
    return np.abs(g)


def _simpson_nodes(breaks: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Simpson on each interval of ``breaks``."""
    nodes, weights = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        n = max(2, 2 * math.ceil((hi - lo) / step / 2.0))
        x = np.linspace(lo, hi, n + 1)
        wt = np.full(n + 1, 2.0)
        wt[1::2] = 4.0
        wt[0] = wt[-1] = 1.0
        nodes.append(x)
        weights.append(wt * (hi - lo) / (3.0 * n))
    return np.concatenate(nodes), np.concatenate(weights)


def band_integral(freqs, values, integrand, time_scale: float) -> float:
    """integral integrand(omega) * S(omega) d omega over the tabulated band.

    ``S`` is linear between its breakpoints; the grid takes 64 nodes per
    period ``2 pi / time_scale`` of the integrand's fastest oscillation, and
    at least 32 nodes per lowest band frequency, where 1/omega^k factors vary
    fastest.
    """
    freqs = np.asarray(freqs, dtype=float)
    step = TWO_PI / time_scale / 64.0
    if freqs[0] > 0.0:
        step = min(step, freqs[0] / 32.0)
    x, wt = _simpson_nodes(freqs, step)
    total = 0.0
    for start in range(0, x.size, 1 << 16):
        sl = slice(start, start + (1 << 16))
        total += float(np.sum(wt[sl] * integrand(x[sl])
                              * np.interp(x[sl], freqs, values)))
    return total


def phase_variance(freqs, values, big_t: float, tau_p: float) -> float:
    """integral (omega |G|)^2 S_phi d omega."""
    span = 2.0 * big_t + 2.0 * tau_p
    return band_integral(
        freqs, values, lambda om: (om * transfer(om, big_t, tau_p)) ** 2, span
    )


def vibration_allan(freqs, values, big_t, tau_p, k_eff, cycle_time, formula):
    """Shot-to-shot phase Allan variance from an acceleration PSD."""
    span = max(2.0 * big_t + 2.0 * tau_p, cycle_time)
    if formula == "printed":
        return k_eff**2 / cycle_time * band_integral(
            freqs, values,
            lambda om: (transfer(om, big_t, tau_p) / om**2) ** 2, span)
    return 2.0 * k_eff**2 * band_integral(
        freqs, values,
        lambda om: ((transfer(om, big_t, tau_p) / om) ** 2
                    * np.sin(0.5 * om * cycle_time) ** 2), span)


def dc_phase(big_t: float, tau_p: float, k_eff: float, a0: float) -> float:
    """k_eff a0 integral_0^span w(t) dt, written as integral t g_s(t) dt.

    (w' = -g_s and w(span) = 0, so integration by parts moves the inner
    integral onto t.)  g_s is continuous and smooth on each segment, so
    Simpson on 20,000 intervals per segment is exact to rounding.
    """
    _, _, edges = _segments(big_t, tau_p)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, wt = _simpson_nodes(np.array([lo, hi]), (hi - lo) / 20_000.0)
        total += float(np.sum(wt * x * sensitivity(x, big_t, tau_p)))
    return k_eff * a0 * total


def synthesis_power(freqs, values, duration: float, dt: float) -> float:
    """Mean square of a random-phase synthesis on the record's own bins.

    Fixed-modulus Fourier components with amplitude sqrt(2 S d_omega) give,
    by Parseval, exactly sum_k S(omega_k) d_omega; the Nyquist bin of an
    even-length record carries nothing.
    """
    n = int(round(duration / dt))
    d_omega = TWO_PI / (n * dt)
    omega = d_omega * np.arange(1, (n - 1) // 2 + 1)
    return float(np.sum(np.interp(omega, freqs, values, left=0.0, right=0.0))
                 * d_omega)


def allan_nonoverlapping(y: np.ndarray, m: int) -> float:
    """Non-overlapping Allan deviation from block sums (np.add.reduceat)."""
    n_blocks = y.size // m
    sums = np.add.reduceat(y[: n_blocks * m], np.arange(0, n_blocks * m, m))
    return math.sqrt(float(np.mean(np.diff(sums / m) ** 2)) / 2.0)


def allan_overlapping(y: np.ndarray, m: int) -> float:
    """Overlapping Allan deviation from a running-mean convolution."""
    means = np.convolve(y, np.full(m, 1.0 / m), mode="valid")
    return math.sqrt(float(np.mean((means[m:] - means[:-m]) ** 2)) / 2.0)


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
