"""cli-batch: fresh ``python -m gravsim.cli`` processes, one at a time.

A CLI user pays interpreter start-up and imports on every call, so import
and CLI changes show here while compute-layer changes barely move it.  One
list is six calls, so that a run repeats it several times: ``rabi`` and
``sensitivity`` at their defaults, a noisy 200-point 4-fringe ``fringe``
scan, ``psd-variance`` on a band-limited PSD with ``allow_partial``, and
``allan`` twice on 65,536-sample white series, once non-overlapping and
once overlapping.  The seed draws gravity, detection seed, series and PSD
values; sizes are fixed.  Each child's output files are parsed and checked
as soon as it exits; references are computed on first use, then reused.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np

import reference as ref
from harness import Op, Workload, child_env

HERE = Path(__file__).resolve().parent
TWO_PI = 2.0 * math.pi
#: One list, in call order; the two ``allan`` calls differ in ``overlapping``.
CALLS = ("rabi", "allan", "fringe", "sensitivity", "allan", "psd-variance")
SUBCOMMANDS = ("rabi", "fringe", "allan", "sensitivity", "psd-variance")
SERIES_SAMPLES = 65_536
SERIES_DT = 0.01
#: Largest Allan averaging time, in samples: 128 blocks remain.
ALLAN_MAX_M = 512
#: CLI defaults the checks rely on: [pulse] rabi_hz, [sequence] T and tau_p,
#: [sensitivity] grids, k_eff.
RABI = TWO_PI * 1e5
PROFILE = (0.1, 1e-5)
K_EFF = 1.61e7
PSD_BAND_HZ = (10.0, 1e4)


def _table(path: Path) -> np.ndarray:
    """Data rows of a CLI CSV: comment lines and the header skipped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def _summary(path: Path) -> dict[str, float]:
    pairs = (ln.split("=", 1) for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#"))
    return {k: float(v) for k, v in pairs}


def _write_csv(path: Path, header: str, columns) -> None:
    rows = "\n".join(",".join(f"{x:.15e}" for x in row) for row in zip(*columns))
    path.write_text(f"{header}\n{rows}\n")


def _write_ini(path: Path, sections: dict[str, dict[str, object]]) -> None:
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))


def _close(values, expected, atol, what):
    err = float(np.max(np.abs(np.asarray(values) - expected)))
    return None if err <= atol else f"{what} off by {err:.2e} (tol {atol:.1e})"


class CliBatch(Workload):
    imports = ("gravsim.cli",)
    rss_note = "peak RSS of the largest CLI child"
    #: Four lists of six calls fit a 25-s run; ten of the 24 calls lie above
    #: the tail percentile, p58.3.
    min_lists = 4
    why = ("fresh CLI processes for five subcommands: interpreter start-up and"
           " imports dominate, so import and CLI changes show here")

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.env = child_env()
        self.child_rss_kb = 0

    def _spawn(self, argv: list[str], outdir: Path) -> int:
        """Run one CLI child to completion; return its exit code."""
        outdir.mkdir(parents=True, exist_ok=True)
        for stale in outdir.iterdir():
            stale.unlink()
        tracer = self.tracer
        spans_file = outdir / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "gravsim.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_file),
                   "--", *argv]
        with open(self.workdir / "stderr.txt", "ab") as err:
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is None:
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        else:
            tracer.adopt(spans_file)
        return proc.returncode

    def _op(self, kind: str, index: int, config: Path | None, check) -> Op:
        outdir = self.workdir / "out" / f"{index:02d}-{kind}"
        argv = [kind, "--out", str(outdir)]
        if config is not None:
            argv += ["--config", str(config)]

        def checked(code):
            if code != 0:
                return f"exit code {code}"
            return check(outdir)

        return Op(kind, lambda: self._spawn(argv, outdir), checked)

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 6])
        inputs = self.workdir / "inputs"
        inputs.mkdir(exist_ok=True)
        ops = []
        for index, kind in enumerate(CALLS):
            make = getattr(self, "_" + kind.replace("-", "_"))
            ops.append(make(rng, inputs, index, CALLS[:index].count(kind)))
        self.ops = ops
        code = self._spawn(["sensitivity", "--out", str(self.workdir / "warm")],
                           self.workdir / "warm")
        if code != 0:
            raise RuntimeError(f"warm-up CLI call exited {code}")
        self.child_rss_kb = 0

    # -- one method per subcommand: writes its inputs, returns the Op ------

    def _rabi(self, rng, inputs, index, r):
        def check(outdir):
            data = _table(outdir / "rabi.csv")
            t, closed, oracle = data.T
            expected = np.sin(0.5 * RABI * t) ** 2
            summary = _summary(outdir / "rabi_summary.txt")
            return (_close(closed, expected, 1e-12, "closed-form population")
                    or _close(oracle, expected, 1e-6, "oracle population")
                    or _close(summary["max_discrepancy"],
                              np.max(np.abs(closed - oracle)), 1e-15,
                              "max_discrepancy"))

        return self._op("rabi", index, None, check)

    def _fringe(self, rng, inputs, index, r):
        gravity = 9.80 + 0.02 * float(rng.random())
        config = inputs / f"fringe-{r}.ini"
        _write_ini(config, {
            "constants": {"gravity": repr(gravity)},
            "scan": {"n_atoms": 10_000, "n_points": 200, "span_fringes": 4},
            "io": {"seed": int(rng.integers(2**31))},
        })

        def check(outdir):
            data = _table(outdir / "fringe.csv")
            beta, p = data.T
            big_t = PROFILE[0]
            expected = 0.5 * (1.0 - np.cos((beta - K_EFF * gravity) * big_t**2))
            s = _summary(outdir / "fringe_summary.txt")
            if len(beta) != 200:
                return f"{len(beta)} scan points, expected 200"
            if not (s["sigma_g"] > 0 and abs(s["g_hat"] - gravity) <= 6 * s["sigma_g"]):
                return f"g_hat {s['g_hat']!r} not within 6 sigma_g of {gravity!r}"
            return _close(p, expected, 1e-9, "ideal fringe")

        return self._op("fringe", index, config, check)

    def _allan(self, rng, inputs, index, r):
        y = rng.normal(0.0, 1.0, SERIES_SAMPLES)
        series = inputs / f"series-{r}.csv"
        _write_csv(series, "t,y", (SERIES_DT * np.arange(y.size), y))
        # The series at the CSV's 15 digits, as the CLI reads it.
        y = cache(lambda y=y: np.array([float(f"{v:.15e}") for v in y]))
        overlapping = r % 2 == 1
        config = inputs / f"allan-{r}.ini"
        _write_ini(config, {"noise": {
            "series_file": str(series), "overlapping": str(overlapping).lower(),
            "tau_max": repr(ALLAN_MAX_M * SERIES_DT)}})
        one = ref.allan_overlapping if overlapping else ref.allan_nonoverlapping

        def check(outdir):
            data = _table(outdir / "allan.csv")
            tau, adev, _ = data.T
            slope = ref.loglog_slope(tau, adev)
            if abs(slope + 0.5) > 0.05:
                return f"white-noise Allan slope {slope:.3f}, expected -0.5 +- 0.05"
            expected = [one(y(), int(round(t / SERIES_DT))) for t in tau]
            return _close(adev / expected, 1.0, 1e-9, "adev / reference")

        return self._op("allan", index, config, check)

    def _sensitivity(self, rng, inputs, index, r):
        def check(outdir):
            gs = _table(outdir / "sensitivity_gs.csv")
            tf = _table(outdir / "sensitivity_transfer.csv")
            expected = ref.transfer(tf[:, 0], *PROFILE)
            return (_close(gs[:, 1], ref.sensitivity(gs[:, 0], *PROFILE), 1e-12,
                           "g_s")
                    or _close(tf[:, 1] / expected.max(), expected / expected.max(),
                              1e-4, "|G| / peak"))

        return self._op("sensitivity", index, None, check)

    def _psd_variance(self, rng, inputs, index, r):
        freqs = TWO_PI * np.geomspace(*PSD_BAND_HZ, 10)
        values = 1e-9 * np.exp(rng.normal(0.0, 0.5, freqs.size))
        psd = inputs / f"psd-{r}.csv"
        _write_csv(psd, "omega_rad_per_s,psd_value", (freqs, values))

        @cache
        def expected():
            # The PSD at the CSV's 15 digits, as the CLI reads it.
            f, v = (np.array([float(f"{x:.15e}") for x in a])
                    for a in (freqs, values))
            return ref.phase_variance(f, v, *PROFILE)

        config = inputs / f"psd-{r}.ini"
        _write_ini(config, {"noise": {"psd_file": str(psd), "allow_partial": "true"}})

        def check(outdir):
            s = _summary(outdir / "psd_variance_summary.txt")
            if not (math.isfinite(s["truncation_estimate"])
                    and s["truncation_estimate"] >= 0.0):
                return f"truncation_estimate {s['truncation_estimate']!r}"
            err = abs(s["phase_variance"] - expected()) / expected()
            return None if err <= 1e-3 else f"phase variance off by {err:.2e} rel"

        return self._op("psd-variance", index, config, check)

    def layer_metrics(self, lists) -> dict[str, float]:
        interp = statistics.median(self.interp_s)
        values = {"cli.interp_start_s": interp,
                  "cli.import_s": statistics.median(self.import_s) - interp}
        for kind in SUBCOMMANDS:
            times = [t for r in lists for op, t in zip(self.ops, r.latencies_s)
                     if op.kind == kind]
            values[f"cli.{kind.replace('-', '_')}_s"] = statistics.median(times)
        return values

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0
