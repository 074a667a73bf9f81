"""Steadiness mode: run workloads repeatedly and report each metric's spread.

    python3 perfbench/steady.py --runs 10 --seed0 100 [--workloads cli-batch,...]
    python3 perfbench/steady.py --runs 1 --seed0 7     # every workload, seed 7

Runs ``run.py`` once per seed (seed0, seed0 + 1, ...) for every workload,
one run at a time, each for RUN_SECONDS, the run length it writes to
BENCHMARK.json.  For each end-to-end metric it prints, with the unit, the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread, the
quartile distance as a share of the median, then the median and spread of
the same metric as measured, before the host-speed correction (see
harness.probe), followed by ``failed_frac``.
Each spread is compared with the metric's bound in BENCHMARK.json: a steady
benchmark keeps it below a third of the bound.  The suggested bound is three
spreads, rounded up to 0.05, between 0.05 and 0.25 (setup_s, whose bound
also absorbs set-up noise, always gets 0.25).  ``--write-benchmark`` writes
BENCHMARK.json with those bounds, taking the largest suggestion over the
workloads.  The full record goes to
perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))  # the workload modules import gravsim

RUN_SECONDS = 25
MAX_BOUND = 0.25


def spread(values: list[float]) -> dict[str, float]:
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [mid] * 3
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else math.inf}


def suggested_bound(name: str, share: float) -> float:
    if name == "setup_s":
        return MAX_BOUND
    return min(MAX_BOUND, max(0.05, math.ceil(3.0 * share * 20.0) / 20.0))


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    record = json.loads((HERE / "out" / f"{workload}-s{seed}-t0.json").read_text())
    result["as_measured"] = record["end_to_end_as_measured"]
    return result


def benchmark_json(bounds: dict[str, float]) -> dict:
    workloads = []
    for name, (module, cls) in run.WORKLOADS.items():
        workloads.append({"name": name, "why": getattr(
            importlib.import_module(module), cls).why})
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": bounds[n]}
            for n, u in run.END_TO_END.items()],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"}
            for n, u in run.per_layer_spec()],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--write-benchmark", action="store_true")
    args = parser.parse_args()
    if args.write_benchmark and args.runs < 4:
        parser.error("--write-benchmark needs at least 4 runs to measure a spread")

    config = ROOT / "BENCHMARK.json"
    bounds = {}
    if config.is_file():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(config.read_text())["end_to_end"]}
    record, suggestions = {}, {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.seed0 + i)
                   for i in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed0}.."
              f"{args.seed0 + args.runs - 1}, "
              f"longest run {max(r['elapsed_s'] for r in results):.1f} s")
        print(f"  {'metric':12s} {'unit':5s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'bound':>6s}  (as measured)")
        stats = {}
        for name in run.END_TO_END:
            s = spread([r["metrics"][name]["value"] for r in results])
            stats[name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else (
                    "WIDE" if s["spread"] > bound else "over 1/3")
            raw = ""
            if name in results[0]["as_measured"]:
                stats[name]["as_measured"] = spread(
                    [r["as_measured"][name] for r in results])
                raw = (f"  ({stats[name]['as_measured']['median']:.5g}, "
                       f"spread {stats[name]['as_measured']['spread']:.3f})")
            print(f"  {name:12s} {run.END_TO_END[name]:5s} {s['median']:11.5g} "
                  f"{s['q1']:11.5g} {s['q3']:11.5g} {s['spread']:7.3f} "
                  f"{bound if bound is not None else '-':>6} {flag:8s}{raw}")
            suggestions[name] = max(suggestions.get(name, 0.0),
                                    suggested_bound(name, s["spread"]))
        print(f"  {'failed_frac':12s} {'1':5s} {failed / attempted:11.5g}"
              f"   ({failed} of {attempted} operations)")
        record[workload] = {"seeds": [args.seed0 + i for i in range(args.runs)],
                            "failed": failed, "metrics": stats,
                            "values": {n: [r["metrics"][n]["value"] for r in results]
                                       for n in run.END_TO_END}}
    print("\nsuggested bounds: " + json.dumps(suggestions))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {"record": record, "suggested_bounds": suggestions}, indent=1))
    if args.write_benchmark:
        config.write_text(json.dumps(benchmark_json(suggestions), indent=2) + "\n")
        print(f"wrote {config}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
