"""pulse-verify: closed-form pulse and trajectory physics against its oracles.

No CLI command reaches ``raman`` or ``trajectory``, so this workload is the
only one that measures them.  Pure-Python RK4 loops dominate: the two-level
oracle over a grid of detunings, durations and phases, and the three-level
oracle at Delta/Omega = 20, 50 and 100 (20k, 125k and 500k steps).  The seed
draws phases, detunings and trajectory endpoints; grids and step counts are
fixed.  The twelve Raman operations are the slowest of the list, so the tail
latency falls on them and the median on the two-level operations.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from gravsim import raman, trajectory, twolevel
from gravsim.core import (PulseParams, SequenceParams, ThreeLevelState,
                          TwoLevelState)
from harness import Op, Workload, interleave

TWO_PI = 2.0 * math.pi
RABI = TWO_PI * 1e5
#: Detuning / Rabi rate, and pulse area in units of pi (at the bare Rabi rate).
DETUNINGS = (-1.5, -0.4, 0.0, 0.4, 1.5)
AREAS = (0.5, 1.0, 1.5, 2.0, 2.5)
PHASES_PER_POINT = 3
#: Oracle steps per generalized Rabi period; its worst population error on
#: this grid is 2e-9.
STEPS_PER_PERIOD = 200
POPULATION_TOL = 1e-6
#: Delta / Omega of the three-level runs, ten at the cheapest ratio so that
#: more than ten Raman operations lie above the tail percentile.  The
#: adiabatic-elimination error in population is 0.89 (Omega/Delta)^2 at all
#: three ratios.
RAMAN_RATIOS = (20,) * 10 + (50, 100)
RAMAN_RABI = TWO_PI * 1e4
ELIMINATION_COEFF = 3.0
#: |detuning| bound of the sequence checks; the first-order fringe law is
#: then good to 5.5e-8 in population.
SEQUENCE_DETUNING = 100.0
#: Operations per list.  The 75 two-level operations form the middle of the
#: latency ranking, so the median falls inside one kind of operation, and in
#: the pure-Python RK4 loop, which runs steadier on a shared host than the
#: 0.1-ms operations below it.
SEQUENCES = 15
ACTIONS = 15
DIAMONDS = 10
HBAR = 1.054571817e-34
MASS = 1.443160648e-25


def _population_check(value, expected, tol, what):
    err = abs(value - expected)
    return None if err <= tol else f"{what} population off by {err:.2e} (tol {tol:.1e})"


class PulseVerify(Workload):
    imports = ("gravsim.twolevel", "gravsim.raman", "gravsim.trajectory")
    why = ("closed-form pulses and trajectories against RK4 and quadrature "
           "oracles: the only workload that reaches raman and trajectory")

    def _two_level_ops(self, rng):
        ops = []
        for ratio in DETUNINGS:
            for area in AREAS:
                for phase in rng.uniform(-math.pi, math.pi, PHASES_PER_POINT):
                    delta = ratio * RABI
                    omega_r = math.hypot(RABI, delta)
                    pulse = PulseParams(rabi_mod=RABI, detuning=delta,
                                        duration=area * math.pi / RABI,
                                        laser_phase=float(phase))
                    dt = TWO_PI / (STEPS_PER_PERIOD * omega_r)
                    # Rabi's formula, independent of either code path.
                    expected = ((RABI / omega_r) * math.sin(
                        0.5 * omega_r * pulse.duration)) ** 2

                    def call(pulse=pulse, dt=dt):
                        u = twolevel.propagator_matrix(
                            RABI, pulse.laser_phase, 0.0, pulse.duration,
                            pulse.detuning)
                        ground = TwoLevelState.ground()
                        return (abs(u[0, 1]) ** 2,
                                abs(twolevel.evolve_pulse(ground, pulse).c_b) ** 2,
                                abs(twolevel.ode_oracle(ground, pulse, dt).c_b) ** 2)

                    def check(out, expected=expected):
                        for value, what in zip(out, ("propagator", "evolve_pulse",
                                                     "RK4 oracle")):
                            bad = _population_check(value, expected, POPULATION_TOL, what)
                            if bad:
                                return bad
                        return None

                    ops.append(Op("two-level", call, check))
        return ops

    def _sequence_ops(self, rng):
        ops = []
        for _ in range(SEQUENCES):
            seq = SequenceParams(
                t_interrogation=float(rng.uniform(0.01, 0.2)), tau_p=1e-5,
                phases=tuple(float(p) for p in rng.uniform(-math.pi, math.pi, 3)))
            delta = float(rng.uniform(-SEQUENCE_DETUNING, SEQUENCE_DETUNING))
            expected = twolevel.mach_zehnder_probability(delta, seq.tau_p,
                                                         seq.dphi_laser)
            ops.append(Op(
                "sequence",
                lambda seq=seq, delta=delta: twolevel.run_sequence(
                    seq, delta, timing="start-to-start"),
                lambda out, e=expected: _population_check(
                    out, e, POPULATION_TOL, "sequence")))
        return ops

    def _raman_ops(self, rng):
        ops = []
        for ratio in RAMAN_RATIOS:
            big_delta = ratio * RAMAN_RABI
            phi1, phi2 = (float(p) for p in rng.uniform(-math.pi, math.pi, 2))
            # Only the couplings, phases and detunings enter the dynamics.
            lasers = raman.LaserPair(k1=8.05e6, k2=-8.05e6, omega1=0.0, omega2=0.0,
                                     phi1=phi1, phi2=phi2, rabi_gi=RAMAN_RABI,
                                     rabi_ei=RAMAN_RABI)
            dets = raman.RamanDetunings(big_delta, big_delta, 0.0)
            # A pi/2 pulse of the eliminated drive, 2 |Omega_eff| = Omega^2/(2 Delta).
            duration = 0.5 * math.pi / (RAMAN_RABI**2 / (2.0 * big_delta))
            dt = TWO_PI / (100.0 * big_delta)
            tol = ELIMINATION_COEFF / ratio**2

            def call(lasers=lasers, dets=dets, duration=duration, dt=dt):
                params = raman.effective_params_from_detunings(lasers, dets)
                state = raman.RamanState.from_ground(k_eff=lasers.k_eff)
                closed = raman.raman_pulse(state, params, 0.0, 0.0, duration)
                oracle = raman.three_level_ode_oracle(
                    ThreeLevelState.ground(), lasers, dets, duration, dt)
                return closed, oracle

            def check(out, tol=tol):
                closed, oracle = out
                return (_population_check(abs(closed.c_g) ** 2, abs(oracle.c_g) ** 2,
                                          tol, "ground")
                        or _population_check(abs(closed.c_e) ** 2,
                                             abs(oracle.c_e) ** 2, tol, "excited")
                        or _population_check(abs(closed.c_e) ** 2, 0.5, 1e-9,
                                             "pi/2-pulse"))

            ops.append(Op(f"raman-{ratio}", call, check))
        return ops

    def _trajectory_ops(self, rng):
        ops = []
        for _ in range(ACTIONS):
            z1, z2 = (float(z) for z in rng.uniform(-50.0, 50.0, 2))
            t1 = float(rng.uniform(0.0, 5.0))
            t2 = t1 + float(rng.uniform(1e-3, 10.0))
            g = float(rng.uniform(0.5, 20.0))

            def call(args=(z1, t1, z2, t2), g=g):
                return (trajectory.classical_action(*args, g=g),
                        trajectory.action_quadrature_oracle(*args, g=g))

            ops.append(Op("action", call, lambda out: None if abs(
                out[0] - out[1]) <= 1e-9 * abs(out[1]) else "action differs"))

        k_eff = 1.61e7
        for _ in range(DIAMONDS):
            z0, v0 = float(rng.uniform(0.0, 0.05)), float(rng.uniform(-0.5, 0.5))
            big_t, g = float(rng.uniform(0.01, 0.2)), 9.80 + 0.02 * float(rng.random())
            phases = tuple(float(p) for p in rng.uniform(-math.pi, math.pi, 3))

            def call(z0=z0, v0=v0, big_t=big_t, g=g, phases=phases):
                v = trajectory.build_vertices(z0, v0, big_t, k_eff, MASS, g, HBAR)
                return (v, trajectory.path_phase(v, big_t, MASS, g, HBAR),
                        trajectory.total_phase(big_t, k_eff, g, phases))

            def check(out, z0=z0, v0=v0, big_t=big_t, g=g, phases=phases):
                v, path, total = out
                v_r = HBAR * k_eff / MASS
                sag = 0.5 * g * big_t**2
                heights = (z0, z0 + (2 * v0 + v_r) * big_t - 4 * sag,
                           z0 + (v0 + v_r) * big_t - sag, z0 + v0 * big_t - sag)
                got = (v.z_a, v.z_b, v.z_c, v.z_d)
                scale = max(abs(h) for h in heights) + 1.0
                if max(abs(a - b) for a, b in zip(got, heights)) > 1e-14 * scale:
                    return "vertex heights differ from free fall"
                # The closed diamond has no path phase, up to rounding in
                # heights of size `scale` multiplied by k_eff.
                if abs(path) > 64 * sys.float_info.epsilon * k_eff * scale:
                    return f"path phase {path:.2e} rad on a closed diamond"
                dphi = phases[0] - 2 * phases[1] + phases[2]
                expected = k_eff * g * big_t**2 + dphi
                # The laser phase stamped at the vertices carries the signal.
                laser = k_eff * (v.z_c - v.z_b - v.z_a + v.z_d) + dphi
                if abs(total - expected) > 1e-12 * abs(expected) or abs(
                        laser - expected) > 1e-9 * abs(expected):
                    return "total phase differs from k_eff g T^2 + dphi"
                return None

            ops.append(Op("diamond", call, check))
        return ops

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 5])
        ops = (self._two_level_ops(rng) + self._sequence_ops(rng)
               + self._raman_ops(rng) + self._trajectory_ops(rng))
        self.ops = interleave(ops)
        # Warm-up: one operation of each cheap kind.
        for kind in ("two-level", "sequence", "action", "diamond"):
            op = next(op for op in self.ops if op.kind == kind)
            if op.check(op.call()) is not None:
                raise RuntimeError(f"warm-up {kind} operation failed its check")
