"""gravsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload g-campaign --seed 1 --seconds 25 --trace 0

Prints each metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
fuller record (run metadata, per-function spans summary, work counts,
failures) goes to ``perfbench/out/<workload>-s<seed>-t<trace>.json``, and a
traced run also writes its spans to ``perfbench/out/<workload>-s<seed>-spans.json``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# One BLAS thread, here and in every CLI child: the program's matrices are
# small, and threads that wait for a busy core on a shared host only add
# spread.  An explicit setting in the environment wins; run metadata records it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# One CPU for this process and the CLI children it starts, which inherit
# it: the host-speed probe (harness.probe) then measures the CPU the
# program runs on, not another one that is faster or slower at the time.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import harness  # noqa: E402
import numpy as np  # noqa: E402
from harness import SRC  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

WORKLOADS = {
    "cli-batch": ("cli_batch", "CliBatch"),
    "g-campaign": ("g_campaign", "GCampaign"),
    "noise-budget": ("noise_budget", "NoiseBudget"),
    "pulse-verify": ("pulse_verify", "PulseVerify"),
}

#: Per-layer metrics: traced function -> statistics reported for it.
FUNCTION_STATS = {
    "measurement.simulate_scan": ("calls", "points", "busy_s", "us_per_point"),
    "measurement.estimate_g": ("calls", "busy_s", "ms_per_fit"),
    "measurement.estimate_g_dual": ("calls", "self_s"),
    "noise.transfer_function": ("calls", "omegas", "busy_s", "us_per_omega"),
    "noise.phase_variance_from_psd": ("calls", "busy_s", "self_s"),
    "noise.allan_from_acceleration_psd": ("calls", "self_s"),
    "noise.dc_phase_response": ("calls", "busy_s"),
    "noise.monte_carlo_phase_variance": ("calls", "shots", "busy_s", "ms_per_shot"),
    "noise.monte_carlo_vibration_allan": ("calls", "self_s"),
    "noise.synthesize_noise": ("calls", "samples", "ns_per_sample"),
    "noise.synthesize_noise_with_derivative": ("calls", "samples", "ns_per_sample"),
    "noise.allan_deviation": ("calls", "samples", "ns_per_sample"),
    "noise.allan_deviation_overlapping": ("calls", "samples", "ns_per_sample"),
    "twolevel.propagator_matrix": ("calls", "us_per_call"),
    "twolevel.run_sequence": ("calls", "us_per_call"),
    "twolevel.ode_oracle": ("calls", "steps", "us_per_step"),
    "raman.effective_params_from_detunings": ("calls", "us_per_call"),
    "raman.raman_pulse": ("calls", "us_per_call"),
    "raman.three_level_ode_oracle": ("calls", "steps", "us_per_step"),
    "trajectory.classical_action": ("calls", "us_per_call"),
    "trajectory.action_quadrature_oracle": ("calls", "us_per_call"),
    "trajectory.total_phase": ("calls", "us_per_call"),
}
MODULES = ("cli", "measurement", "noise", "twolevel", "raman", "trajectory")
CLI_LAYER = ("cli.interp_start_s", "cli.import_s", "cli.rabi_s", "cli.fringe_s",
             "cli.allan_s", "cli.sensitivity_s", "cli.psd_variance_s")
TIME_SCALE = {"us": 1e6, "ms": 1e3, "ns": 1e9}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    spec = [(name, "s") for name in CLI_LAYER]
    for function, stats in FUNCTION_STATS.items():
        for stat in stats:
            if stat.endswith("_s"):
                unit = "s"
            elif "_per_" in stat:
                unit = stat.split("_", 1)[0]
            else:
                unit = "count"
            spec.append((f"{function}.{stat}", unit))
    spec += [(f"trace.self_s.{m}", "s") for m in MODULES]
    spec += [("trace.wall_s", "s"), ("trace.uncovered_s", "s"),
             ("trace.overhead_s", "s"), ("host.probe_ms", "ms")]
    return spec


def layer_values(summary: dict, n_lists: int) -> dict[str, float]:
    """Per-list values of the FUNCTION_STATS metrics from a spans summary."""
    values = {}
    for function, stats in FUNCTION_STATS.items():
        entry = summary["functions"].get(
            function, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
        for stat in stats:
            if stat in ("calls", "busy_s", "self_s"):
                value = entry[stat] / n_lists
            elif "_per_" in stat:
                scale, per = stat.split("_per_")
                base = entry["calls"] if per in ("call", "fit") else entry["work"]
                value = entry["busy_s"] / base * TIME_SCALE[scale] if base else 0.0
            else:  # the work count in the function's own unit
                value = entry["work"] / n_lists
            values[f"{function}.{stat}"] = value
    return values


def module_self(summary: dict, n_lists: int) -> dict[str, float]:
    totals = dict.fromkeys(MODULES, 0.0)
    for function, entry in summary["functions"].items():
        totals[function.split(".", 1)[0]] += entry["self_s"]
    return {f"trace.self_s.{m}": v / n_lists for m, v in totals.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gravsim" / "__init__.py").is_file():
        print(f"gravsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module_name, class_name = WORKLOADS[args.workload]
    workload_cls = getattr(importlib.import_module(module_name), class_name)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}"
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{stem}-", dir=out_dir))
    try:
        workload = workload_cls(workdir)
        setups = []  # (seconds as measured, slowdown)
        for _ in range(harness.SETUP_ROUNDS):
            at, before, after = [], [], []
            harness.probes(harness.PROBE_BURST, at, before)
            t0 = time.perf_counter()
            workload.setup_round(args.seed)
            seconds = time.perf_counter() - t0
            harness.probes(harness.PROBE_BURST, at, after)
            setups.append((seconds, harness.slowdown(before, after)))
        tracer = Tracer() if args.trace else None
        lists = harness.run_lists(workload, args.seconds, tracer)
        record = report(args, workload, setups, lists, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(out_dir / f"{stem}-t{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}-spans.json")
    print(json.dumps(record["result"]))
    return 0


def report(args, workload, setups, lists, tracer) -> dict:
    untraced = [r for r in lists if not r.traced]
    attempted = sum(len(r.latencies_s) for r in lists)
    failures = [f for r in lists for f in r.failures]
    tail_pct = harness.tail_percentile(workload)

    def timings(setup, corrected):
        """End-to-end times from set-up times and, per untraced list, the
        pair (wall time, latencies)."""
        lists = [corrected(r) for r in untraced]
        latencies = [x for _, lat in lists for x in lat]
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(wall for wall, _ in lists),
            "op_p50_ms": float(np.percentile(latencies, 50.0)) * 1e3,
            "op_tail_ms": float(np.percentile(latencies, tail_pct)) * 1e3,
        }

    e2e = timings([s / f for s, f in setups], harness.ListResult.at_reference)
    e2e["peak_rss_mb"] = workload.peak_rss_mb()
    measured = timings([s for s, _ in setups],
                       lambda r: (r.wall_s, r.latencies_s))
    n_latencies = sum(len(r.latencies_s) for r in untraced)
    all_probes = [x for r in lists for x in r.probes_s]
    meta = harness.run_metadata()
    print(f"# gravsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# metadata " + json.dumps(meta))
    print(f"# {len(lists)} list(s) of {len(workload.ops)} operations "
          f"({len(untraced)} untraced), one client, closed loop")
    print(f"# times at the reference host speed: measured time * "
          f"{harness.PROBE_REF_S * 1e3:g} ms / probe time near the operation "
          f"or set-up; {len(all_probes)} probes, median "
          f"{statistics.median(all_probes) * 1e3:.4g} ms")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(untraced)} list(s)",
        "op_p50_ms": f"p50 of n={n_latencies}",
        "op_tail_ms": f"p{tail_pct:.2f} of n={n_latencies}",
        "peak_rss_mb": workload.rss_note,
    }
    for name, unit in END_TO_END.items():
        as_measured = (f"; {measured[name]:.6g} as measured"
                       if name in measured else "")
        print(f"{name:14s} {e2e[name]:14.6g} {unit:5s} {notes[name]}{as_measured}")
    failed_frac = len(failures) / attempted
    print(f"{'failed_frac':14s} {failed_frac:14.6g} {'1':5s} "
          f"{len(failures)} of {attempted} operations")
    for failure in failures[:10]:
        print(f"# FAILED {failure.splitlines()[-1]}", file=sys.stderr)
        print(failure, file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "metadata": meta,
              "setup_rounds_s": [s for s, _ in setups],
              "setup_slowdowns": [f for _, f in setups],
              "list_walls_s": [r.wall_s for r in lists],
              "list_slowdowns": [r.wall_s / r.at_reference()[0] for r in lists],
              "list_traced": [r.traced for r in lists],
              "tail_percentile": tail_pct, "latency_samples": n_latencies,
              "end_to_end": e2e, "end_to_end_as_measured": measured,
              "failed_frac": failed_frac,
              "failures": failures[:50]}
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        traced = [r for r in lists if r.traced]
        summary = summarize(tracer.spans)
        n = len(traced)
        traced_wall = sum(r.wall_s for r in traced) / n
        values = dict.fromkeys(CLI_LAYER, 0.0)
        values.update(workload.layer_metrics(untraced))
        values.update(layer_values(summary, n))
        values.update(module_self(summary, n))
        values["trace.wall_s"] = traced_wall
        values["trace.uncovered_s"] = traced_wall - summary["covered_s"] / n
        values["trace.overhead_s"] = tracer.overhead_ns * 1e-9 / n
        values["host.probe_ms"] = statistics.median(all_probes) * 1e3
        # The traced minus the untraced list time, recorded for reference
        # only: on a shared host it is mostly noise and can be negative.
        record["traced_minus_untraced_s"] = (
            traced_wall - sum(r.wall_s for r in untraced) / len(untraced))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_spec()}
        record["functions_per_list"] = {
            name: {k: v / n for k, v in entry.items()}
            for name, entry in sorted(summary["functions"].items())}
        print(f"# traced: {n} list(s), {len(tracer.spans)} spans; self time per "
              "module + uncovered = traced wall")
        for name, unit in per_layer_spec():
            if values[name]:
                print(f"{name:52s} {values[name]:14.6g} {unit}")
        print("# no layer has a queue, so no layer reports a wait time")
    record["result"] = {"correct": not failures, "attempted": attempted,
                        "failed": len(failures), "metrics": metrics}
    return record


if __name__ == "__main__":
    sys.exit(main())
