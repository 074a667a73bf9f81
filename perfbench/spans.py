"""Span recording around gravsim's layer boundaries, from outside the program.

A traced list replaces the module attributes of the functions in ``LAYERS``
with wrappers that record one span per call: name, start, end, the span that
was open when the call began, and a work count derived from the call's own
arguments.  Every gravsim module namespace that binds the same function
object is patched too, so calls across modules (``raman.raman_pulse`` ->
``twolevel.propagator_matrix``) and within one (``phase_variance_from_psd``
-> ``transfer_function``) nest correctly.  ``restore`` puts the originals
back, so untraced lists run the unmodified program.

Spans stay in memory and are written out when the run ends.  Timestamps come
from ``time.perf_counter_ns``; only durations are compared, so spans from
CLI child processes combine with the parent's wall time.  The tracer also
times its own work (each wrapper's bookkeeping around the call, installing
and removing wrappers, moving child spans) as ``overhead_ns``, which cannot
be negative, unlike a difference between a traced and an untraced list.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _size(name):
    return lambda a: int(np.size(a[name]))


def _samples(a):
    # Record length as the synthesis computes it: round(duration / dt).
    return round(a["duration"] / a["dt"])


def _steps(duration):
    # Step count as the oracles compute it: ceil(duration / dt), at least 1.
    return lambda a: max(1, math.ceil(duration(a) / a["dt"]))


#: Traced functions per module, with how to count the work of one call (the
#: units are named in run.FUNCTION_STATS).  Functions without a count still
#: get spans, so that self time covers the whole call tree of every operation.
LAYERS = {
    "cli": {name: None for name in (
        "main", "cmd_rabi", "cmd_fringe", "cmd_allan", "cmd_sensitivity",
        "cmd_psd_variance")},
    "measurement": {
        "simulate_scan": _size("betas"),
        "estimate_g": None,
        "estimate_g_dual": None,
    },
    "noise": {
        "transfer_function": _size("omega"),
        "phase_variance_from_psd": None,
        "allan_from_acceleration_psd": None,
        "dc_phase_response": None,
        "monte_carlo_phase_variance": lambda a: int(a["n_shots"]),
        "monte_carlo_vibration_allan": lambda a: int(a["n_shots"]),
        "synthesize_noise": _samples,
        "synthesize_noise_with_derivative": _samples,
        "allan_deviation": lambda a: int(a["series"].samples.size),
        "allan_deviation_overlapping": lambda a: int(a["series"].samples.size),
        "read_psd_csv": None,
        "read_series_csv": None,
    },
    "twolevel": {
        "propagator_matrix": None,
        "evolve_pulse": None,
        "run_sequence": None,
        "ode_oracle": _steps(lambda a: a["pulse"].duration),
    },
    "raman": {
        "effective_params_from_detunings": None,
        "raman_pulse": None,
        "three_level_ode_oracle": _steps(lambda a: a["duration"]),
    },
    "trajectory": {
        "classical_action": None,
        "action_quadrature_oracle": None,
        "build_vertices": None,
        "path_phase": None,
        "total_phase": None,
    },
}


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        # Each span: [name, start_ns, end_ns, parent_index, work].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Time spent in the tracer's own code.
        self.overhead_ns = 0

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter_ns()
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, 0])
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = counter(bound.arguments)
                done = time.perf_counter_ns()
                self.overhead_ns += done - entered - (end - start)

        return traced

    def install(self) -> None:
        """Replace every traced function in all loaded gravsim modules."""
        entered = time.perf_counter_ns()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gravsim" or n.startswith("gravsim."))]
        for short, functions in LAYERS.items():
            owner = sys.modules.get(f"gravsim.{short}")
            if owner is None:
                continue
            for fname, counter in functions.items():
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{short}.{fname}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        self.overhead_ns += time.perf_counter_ns() - entered

    def restore(self) -> None:
        entered = time.perf_counter_ns()
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self.overhead_ns += time.perf_counter_ns() - entered

    def adopt(self, path) -> None:
        """Append the spans and overhead that another process dumped to
        ``path``, keeping the spans' nesting."""
        entered = time.perf_counter_ns()
        with open(path) as fh:
            record = json.load(fh)
        offset = len(self.spans)
        for name, start, end, parent, work in record["spans"]:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, work])
        self.overhead_ns += (record["overhead_ns"]
                             + time.perf_counter_ns() - entered)

    def dump(self, path) -> None:
        """Write the spans and the overhead, which includes encoding them."""
        entered = time.perf_counter_ns()
        spans = json.dumps(self.spans)
        self.overhead_ns += time.perf_counter_ns() - entered
        with open(path, "w") as fh:
            fh.write(f'{{"overhead_ns": {self.overhead_ns}, "spans": {spans}}}')


def summarize(spans: list[list]) -> dict:
    """Per-function calls, busy time, self time and work, plus coverage.

    Self time is a span's duration minus the durations of its direct
    children (calls are sequential, so children never overlap).  ``covered``
    is the total duration of spans that have no parent.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    per = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
    covered_ns = 0
    for i, (name, start, end, parent, work) in enumerate(spans):
        entry = per[name]
        entry["calls"] += 1
        entry["busy_s"] += (end - start) * 1e-9
        entry["self_s"] += (end - start - child_ns[i]) * 1e-9
        entry["work"] += work
        if parent < 0:
            covered_ns += end - start
    return {"functions": dict(per), "covered_s": covered_ns * 1e-9}
