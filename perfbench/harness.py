"""Closed-loop harness shared by the workloads.

A workload builds a fixed list of operations during set-up.  One client
issues them in order, each after the previous one returned, and repeats the
whole list until the run's time is spent.  Every output is checked against
the workload's reference as soon as it returns, outside the timed region.
Costly references are computed on first use by a check and then reused, so
they count neither in set-up nor in the operations' times.  Between
operations the harness also times a fixed probe (:func:`probe`), so that
every time can be reported at a reference host speed.
"""

from __future__ import annotations

import bisect
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up is repeated this many times per run and reported as a median.
SETUP_ROUNDS = 5

#: Host-speed probe.  A shared host runs the same code up to 1.5 times
#: slower for seconds to minutes at a time, the probe along with the
#: program, and it switches between speeds within a second.  Between
#: operations, outside every timed region, the harness runs the probe about
#: once per PROBE_INTERVAL_S of elapsed time (at most PROBE_BURST times in
#: one gap), and PROBE_BURST times before and after each list and each
#: set-up.  Times are reported at the reference speed, at which one probe
#: takes PROBE_REF_S.  An operation's slowdown is the mean of two medians:
#: of the probes in a window before it started and of those in a window
#: after it ended, each PROBE_WINDOW_S or the operation's own latency,
#: whichever is longer (:func:`local_slowdowns`).
PROBE_INTERVAL_S = 0.01
PROBE_BURST = 100
PROBE_WINDOW_S = 0.1
#: About the median probe time on a shared 2-vCPU Xeon VM at 2.1 GHz with
#: Python 3.11 (0.21 to 0.31 ms in 25-s runs).
PROBE_REF_S = 0.3e-3


def probe() -> float:
    """Time a fixed pure-Python loop that calls no gravsim code.  Of the
    probes tried (this loop, complex arithmetic with ``cmath``, numpy on
    small and on medium arrays, and a mix), it followed the host's speed
    best on all three in-process workloads."""
    start = time.perf_counter()
    total = 0.0
    for i in range(4_000):
        total += i * 0.5
    return time.perf_counter() - start


def probes(count: int, at: list[float], took: list[float]) -> None:
    """Run the probe ``count`` times; append start times to ``at`` and
    durations to ``took``."""
    for _ in range(count):
        at.append(time.perf_counter())
        took.append(probe())


def slowdown(before: list[float], after: list[float]) -> float:
    """How much slower than the reference speed the host ran, from probe
    durations taken before and after a timed region (either may be empty)."""
    sides = [statistics.median(x) for x in (before, after) if x]
    return sum(sides) / len(sides) / PROBE_REF_S


def local_slowdowns(spans: list[tuple[float, float]], at: list[float],
                    took: list[float]) -> list[float]:
    """Slowdown of each (start, end) span from the probes near it.  A long
    operation is judged on as long a stretch on each side as it ran.  The
    medians of windows, not of the whole list, because the host switches
    between a fast and a slow speed within a second: a list-wide median
    jumps between the two, and a mean counts probes that an interrupt hit.
    In a list from :func:`run_list` the two windows of a span are never
    both empty: it probes before the first operation, and after any
    operation that ends 10 ms or more after the last probe."""
    out = []
    for start, end in spans:
        window = max(PROBE_WINDOW_S, end - start)
        before = took[bisect.bisect_left(at, start - window):
                      bisect.bisect_left(at, start)]
        after = took[bisect.bisect_left(at, end):
                     bisect.bisect_right(at, end + window)]
        out.append(slowdown(before, after))
    return out


@dataclass
class Op:
    """One operation: ``call`` runs the program, ``check`` judges its output.

    ``check`` returns None when the output matches the reference, else a
    one-line reason.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


class Workload:
    """Base class: subclasses set ``imports`` and ``why`` and build ``ops``."""

    imports: tuple[str, ...] = ()
    rss_note = "peak RSS of this process"
    #: Untraced lists a run holds at least, whatever its length; the tail
    #: percentile counts ten samples above it in that many lists.
    min_lists = 1

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.ops: list[Op] = []
        self.tracer = None  # set by the harness around traced lists
        self.interp_s: list[float] = []
        self.import_s: list[float] = []

    def setup_round(self, seed: int) -> None:
        """One set-up: fresh-interpreter probes, then :meth:`setup`."""
        self.interp_s.append(timed_process([sys.executable, "-c", "pass"],
                                           self.workdir))
        code = "import " + ", ".join(self.imports)
        self.import_s.append(timed_process([sys.executable, "-c", code],
                                           self.workdir))
        self.setup(seed)

    def setup(self, seed: int) -> None:
        """Generate inputs and references from ``seed``; make a warm-up call."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, lists: list["ListResult"]) -> dict[str, float]:
        """Per-layer metrics the workload measures itself, from untraced lists."""
        return {}


@dataclass
class ListResult:
    """One list's measured times, in seconds as measured, with each
    operation's slowdown and the probe times taken while the list ran."""

    traced: bool
    wall_s: float
    latencies_s: list[float]
    failures: list[str]
    slowdowns: list[float]
    probes_s: list[float]

    def at_reference(self) -> tuple[float, list[float]]:
        """Wall time and latencies at the reference host speed.  The wall
        time is scaled by the latency-weighted mean correction."""
        latencies = [x / f for x, f in zip(self.latencies_s, self.slowdowns)]
        return self.wall_s * sum(latencies) / sum(self.latencies_s), latencies


def child_env() -> dict[str, str]:
    """Environment of child interpreters: the checkout's sources first, and
    no GRAVSIM_CONFIG, so that "defaults" means the built-in defaults."""
    env = dict(os.environ)
    env.pop("GRAVSIM_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def timed_process(argv: list[str], cwd: Path) -> float:
    """Wall time of a child process that must exit 0."""
    start = time.perf_counter()
    subprocess.run(argv, cwd=cwd, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_list(workload: Workload, tracer) -> ListResult:
    """Run the list once.  Each output is checked as soon as its operation
    returns, and then dropped, so held outputs do not add to peak memory.
    Probing the host's speed (:func:`probe`), right after an operation
    returns, and checking happen between operations and are left out of
    the list's wall time.  Checks call no traced function."""
    latencies, failures, spans, at, took = [], [], [], [], []
    excluded = 0.0
    if tracer is not None:
        tracer.install()
    workload.tracer = tracer
    try:
        probes(PROBE_BURST, at, took)
        start = last_probe = time.perf_counter()
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                out, failure = op.call(), None
            except Exception:  # an operation that raises counts as failed
                out, failure = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            spans.append((t0, t1))
            due = int((t1 - last_probe) / PROBE_INTERVAL_S)
            if due:
                probes(min(due, PROBE_BURST), at, took)
                last_probe = time.perf_counter()
            if failure is None:
                try:
                    failure = op.check(out)
                except Exception:
                    failure = traceback.format_exc(limit=3)
            if failure is not None:
                failures.append(f"{op.kind}: {failure}")
            del out
            excluded += time.perf_counter() - t1
        wall = time.perf_counter() - start - excluded
        probes(PROBE_BURST, at, took)
    finally:
        workload.tracer = None
        if tracer is not None:
            tracer.restore()
    return ListResult(tracer is not None, wall, latencies, failures,
                      local_slowdowns(spans, at, took), took)


def interleave(ops: list[Op]) -> list[Op]:
    """Mix operation kinds in one fixed order, the same for every seed."""
    order = np.random.default_rng(0).permutation(len(ops))
    return [ops[i] for i in order]


def run_lists(workload: Workload, seconds: float, tracer) -> list[ListResult]:
    """Repeat the list until ``seconds`` are spent: at least
    ``workload.min_lists`` lists, and in a traced run (``tracer`` given)
    untraced and traced lists alternately, at least one of each.  A list is
    not started when the previous one says it would end after the
    deadline."""
    lists: list[ListResult] = []
    least = 2 if tracer is not None else workload.min_lists
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(lists) % 2 == 1
        t0 = time.perf_counter()
        lists.append(run_list(workload, tracer if traced else None))
        now = time.perf_counter()
        if len(lists) >= least and (now - start) + (now - t0) > seconds:
            return lists


def tail_percentile(workload: Workload) -> float:
    """Highest percentile with at least ten operations above it in
    ``min_lists`` lists.

    Fixing it by the list, not by the run, keeps the percentile the same
    however many lists a run fits, so a faster program is not judged on a
    deeper tail; pooled over L lists, 10 L / min_lists samples lie above it.
    """
    return 100.0 * (1.0 - 10.0 / (len(workload.ops) * workload.min_lists))


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_metadata() -> dict:
    """Facts about the host recorded beside the metrics; never gated on."""
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
    }
