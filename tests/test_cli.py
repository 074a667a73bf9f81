"""End-to-end tests of the command-line front end.

Each test invokes ``main([...])`` in-process and inspects the files it
writes.  Fixtures are generated deterministically (recorded seeds) rather
than shipped as binaries.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gravsim import cli, errors, noise, twolevel
from gravsim.cli import _SCHEMA, load_config, main


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_table(path):
    lines = [
        line for line in path.read_text().splitlines() if not line.startswith("#")
    ]
    header = lines[0].split(",")
    data = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    return header, data


def _one_past(kind, bounds):
    """The values just outside a ``_SCHEMA`` range's finite bounds."""
    if not bounds:
        return []
    low, high = bounds
    return [b + s if kind == "int" else math.nextafter(b, s * math.inf)
            for b, s in ((low, -1), (high, 1)) if math.isfinite(b)]


def data_lines(path):
    """Non-comment lines; the config echo differs when out dirs differ."""
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        out[key] = float(value)
    return out


class TestRabi:
    def test_resonant_inversion_row(self, tmp_path):
        assert main(["rabi", "--out", str(tmp_path)]) == 0
        header, data = read_table(tmp_path / "rabi.csv")
        assert header == ["t", "p_excited_closed", "p_excited_oracle"]
        # Default duration is one resonant inversion time, so the last row
        # sits at rabi * t = pi and must show full population transfer.
        assert data[-1, 1] == pytest.approx(1.0, abs=1e-8)
        assert data[0, 1] == 0.0
        summary = read_summary(tmp_path / "rabi_summary.txt")
        assert summary["max_discrepancy"] < 1e-6

    def test_zero_drive_gives_zero_column(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[pulse]\nrabi_hz = 0.0\nduration = 1e-4\nn_points = 11\n",
        )
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "rabi.csv")
        assert np.all(data[:, 1] == 0.0)
        assert np.all(data[:, 2] == 0.0)

    def test_zero_drive_requires_explicit_duration(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[pulse]\nrabi_hz = 0.0\n")
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "duration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "[pulse]\nduration = 1e6\n",
            "[pulse]\ndetuning_hz = 1e300\n",
            "[pulse]\noracle_dt = 1e-300\n",
            # duration / dt overflows to inf.
            "[pulse]\noracle_dt = 5e-324\n",
        ],
        ids=["duration", "detuning_hz", "oracle_dt", "oracle_dt_subnormal"],
    )
    def test_oracle_step_budget_is_convergence_error(self, tmp_path, capsys, text):
        # Each asks 2e13 to inf RK4 steps per output time; the longest time
        # is refused first, before any file is written.
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["rabi", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("convergence error: ") and err.count("\n") == 1
        assert "RK4 steps; at most 10000000 are allowed" in err
        assert not any(out.iterdir())

    def test_rate_overflowing_the_step_map_is_convergence_error(self, tmp_path, capsys):
        # At 4.5e153 Hz the oracle's step map overflows, which once wrote a
        # nan oracle column at exit 0; at 4e153 Hz it is finite.
        cfg = write_config(tmp_path, "[pulse]\nrabi_hz = 4e153\n")
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
        _, data = read_table(tmp_path / "ok" / "rabi.csv")
        assert np.isfinite(data).all() and data[-1, 2] == pytest.approx(1.0, abs=1e-6)
        cfg = write_config(tmp_path, "[pulse]\nrabi_hz = 4.5e153\n")
        out = tmp_path / "out"
        assert main(["rabi", "--config", cfg, "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "convergence error: RK4 step map overflows for generator entries up "
            "to 1.414e+154 rad/s\n"
        )
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "text",
        ["[pulse]\nduration = 0.6\n",
         "[pulse]\nduration = 0.55\nn_points = 1000000\n"],
        ids=["long_pulse", "many_rows"],
    )
    def test_output_times_step_total_is_convergence_error(self, tmp_path, capsys, text):
        # One sweep steps through every output time.  At the default dt of
        # about 5e-8 s, 200 spans of 3e-3 s need 60,000 steps each, 1.2e7 in
        # all; 999,999 spans of 5.5e-7 s need 11 each, about 1.1e7.  Both are
        # refused before any step is taken.
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["rabi", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("convergence error: ") and err.count("\n") == 1
        assert "RK4 steps; at most 10000000 are allowed" in err
        assert not any(out.iterdir())

    def test_output_times_step_total_is_exact(self, tmp_path, monkeypatch):
        # The default sweep takes one step per output interval, 200 in all:
        # a budget of that many passes, one fewer is refused.
        monkeypatch.setattr(twolevel, "_MAX_ORACLE_STEPS", 200)
        assert main(["rabi", "--out", str(tmp_path / "at")]) == 0
        monkeypatch.setattr(twolevel, "_MAX_ORACLE_STEPS", 199)
        assert main(["rabi", "--out", str(tmp_path / "below")]) == 4

    def test_summary_carries_oracle_diagnostics(self, tmp_path):
        # The sweep's step total and step h: each of the 10 output
        # intervals of 5e-7 s takes 11 steps of the 4.6e-8-s dt.
        cfg = write_config(tmp_path, "[pulse]\ndetuning_hz = 4e4\nn_points = 11\n")
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 0
        rabi, detuning = 2.0 * math.pi * 1e5, 2.0 * math.pi * 4e4
        omega_r = math.hypot(rabi, detuning)
        interval = math.pi / rabi / 10
        n_steps = twolevel._check_oracle_step(
            2.0 * math.pi / (200.0 * omega_r), omega_r, interval, 10)
        assert n_steps == 11
        text = (tmp_path / "rabi_summary.txt").read_text()
        assert "\noracle_steps=110\n" in text
        assert f"\noracle_h={interval / n_steps:.15e}\n" in text

    def test_oracle_column_is_ode_oracle_at_the_sweep_step(self, tmp_path):
        # Each sampled population is ode_oracle's over [0, t_i] at the
        # sweep's step h: the same number of steps, i * 11, of an h that
        # differs by rounding (t_i / (11 i) against the interval / 11), so
        # they agree to a few ulp of 1 (1.0 at most, measured).
        cfg = write_config(
            tmp_path, "[pulse]\ndetuning_hz = 4e4\nn_points = 11\n")
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "rabi.csv")
        rabi, detuning = 2.0 * math.pi * 1e5, 2.0 * math.pi * 4e4
        duration = math.pi / rabi
        h = duration / 10 / 11
        times = np.linspace(0.0, duration, 11)
        for i in range(1, 11):
            t = float(times[i])
            assert math.ceil(t / h) == 11 * i
            pulse = twolevel.PulseParams(rabi, detuning, t)
            final = twolevel.ode_oracle(twolevel.TwoLevelState.ground(), pulse, dt=h)
            assert abs(data[i, 2] - abs(final.c_b) ** 2) <= 8 * 2.0**-52

    def test_rerun_is_byte_identical(self, tmp_path):
        assert main(["rabi", "--out", str(tmp_path)]) == 0
        first = (tmp_path / "rabi.csv").read_bytes()
        assert main(["rabi", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rabi.csv").read_bytes() == first

    def test_output_embeds_config_and_seed(self, tmp_path):
        assert main(["rabi", "--out", str(tmp_path), "--seed", "7"]) == 0
        text = (tmp_path / "rabi.csv").read_text()
        assert "# io.seed = 7\n" in text
        assert "# pulse.rabi_hz = 1.000000000000000e+05\n" in text
        assert "# constants.gravity = 9.810000000000000e+00\n" in text
        assert "constants.hbar" not in text
        assert "constants.atom_mass" not in text

    @pytest.mark.parametrize(
        "text",
        ["", "[pulse]\nduration = 3.3e-6\nn_points = 7\n",
         "[pulse]\nduration = 1.234567e-5\nn_points = 999\n"],
        ids=["defaults", "seven", "odd_duration"],
    )
    def test_time_column_is_linspace(self, tmp_path, monkeypatch, text):
        # i * interval with the last time exactly duration: np.linspace's
        # own arithmetic, bit for bit.
        written = []
        monkeypatch.setattr(cli, "_write_csv",
                            lambda path, header, columns, _: written.append(columns))
        cfg = write_config(tmp_path, text)
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 0
        pulse = load_config(cfg)["pulse"]
        duration = pulse["duration"] or math.pi / (2.0 * math.pi * pulse["rabi_hz"])
        [(times, _, _)] = written
        assert times.tolist() == np.linspace(0.0, duration, pulse["n_points"]).tolist()

    def test_oracle_column_within_one_ulp_of_mpmath(self, tmp_path):
        # CI's detuned.ini.  Each oracle value is abs(b_b) ** 2 of the
        # sweep's sample: within 2**-52, one ulp of 1, of the sample's exact
        # squared modulus (0.25 ulp at most, measured).
        mpmath = pytest.importorskip("mpmath")
        cfg = write_config(tmp_path, "[pulse]\ndetuning_hz = 4e4\n")
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 0
        oracle = [line.split(",")[2] for line in data_lines(tmp_path / "rabi.csv")[1:]]
        rabi, detuning = 2.0 * math.pi * 1e5, 2.0 * math.pi * 4e4
        interval = math.pi / rabi / 200
        dt = 2.0 * math.pi / (200.0 * math.hypot(rabi, detuning))
        pulse = twolevel.PulseParams(rabi, detuning, interval)
        column, _ = twolevel._excited_sweep(pulse, dt, 200)
        assert oracle == [f"{p:.15e}" for p in [0.0, *column]]
        a0, nu, rate = twolevel._pulse_generator(pulse)
        samples, _ = twolevel._rk4_sweep(a0, nu, [0.0, 1.0], 0.0, interval, dt, rate, 200)
        with mpmath.workdps(50):
            for p, b in zip(column, samples[::2]):
                exact = mpmath.mpf(b.real) ** 2 + mpmath.mpf(b.imag) ** 2
                assert abs(mpmath.mpf(p) - exact) <= 2.0**-52

    def test_runs_without_numpy(self, tmp_path):
        # rabi, --help and load_config's refusals import no numpy: with the
        # import blocked they run as usual, and rabi writes the same bytes.
        # Both runs write into one --out directory, which the echo holds.
        src = str(Path(cli.__file__).resolve().parents[1])

        def run(args, block):
            code = ("import sys\n"
                    + ("sys.modules['numpy'] = None\n" if block else "")
                    + "from gravsim.cli import main\nsys.exit(main())\n")
            return subprocess.run([sys.executable, "-c", code, *args],
                                  env=dict(os.environ, PYTHONPATH=src),
                                  capture_output=True, text=True)

        out = tmp_path / "out"
        detuned = write_config(tmp_path, "[pulse]\ndetuning_hz = 4e4\n")
        for config in ([], ["--config", detuned]):
            files = []
            for block in (False, True):
                proc = run(["rabi", *config, "--out", str(out)], block)
                assert (proc.returncode, proc.stderr) == (0, "")
                files.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert sorted(files[1]) == ["rabi.csv", "rabi_summary.txt"]
            assert files[1] == files[0]
        proc = run(["--help"], True)
        assert (proc.returncode, proc.stderr) == (0, "") and "rabi" in proc.stdout
        bad = write_config(tmp_path, "[pulse]\nn_points = 1\n", name="bad.ini")
        proc = run(["rabi", "--config", bad, "--out", str(out)], True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1


class TestFringe:
    def test_noiseless_recovers_configured_gravity(self, tmp_path):
        assert main(["fringe", "--out", str(tmp_path)]) == 0
        summary = read_summary(tmp_path / "fringe_summary.txt")
        assert summary["g_hat"] == pytest.approx(9.81, rel=1e-9)

    def test_noisy_scan_reports_positive_sigma(self, tmp_path):
        cfg = write_config(tmp_path, "[scan]\nn_atoms = 10000\n")
        assert main(
            ["fringe", "--config", cfg, "--out", str(tmp_path), "--seed", "3"]
        ) == 0
        summary = read_summary(tmp_path / "fringe_summary.txt")
        assert summary["sigma_g"] > 0.0
        assert summary["g_hat"] == pytest.approx(9.81, rel=1e-5)

    def test_reversed_k_eff_reports_the_same_sigma(self, tmp_path):
        # k_eff < 0 mirrors the default scan, centred on k_eff g, about
        # beta = 0, and the fringe is even about its null: every point draws
        # the same count, so the fit reads the same noise mirrored about g.
        fitted = []
        for k_eff in ("1.61e7", "-1.61e7"):
            cfg = write_config(
                tmp_path, f"[sequence]\nk_eff = {k_eff}\n[scan]\nn_atoms = 1000\n"
            )
            out = tmp_path / k_eff
            args = ["fringe", "--config", cfg, "--out", str(out), "--seed", "7"]
            assert main(args) == 0
            fitted.append(read_summary(out / "fringe_summary.txt"))
        sigma_fwd, sigma_rev = (run["sigma_g"] for run in fitted)
        assert sigma_rev == pytest.approx(sigma_fwd, rel=1e-12) and sigma_fwd > 0.0
        assert fitted[1]["g_hat"] - 9.81 == pytest.approx(
            9.81 - fitted[0]["g_hat"], abs=1e-14
        )

    def test_noisy_rerun_byte_identical_and_seed_sensitive(self, tmp_path):
        cfg = write_config(tmp_path, "[scan]\nn_atoms = 10000\n")
        args = ["fringe", "--config", cfg, "--out", str(tmp_path), "--seed", "3"]
        summary = tmp_path / "fringe_summary.txt"
        assert main(args) == 0
        first = (tmp_path / "fringe.csv").read_bytes()
        first_summary = summary.read_bytes()
        assert main(args) == 0
        assert (tmp_path / "fringe.csv").read_bytes() == first
        assert summary.read_bytes() == first_summary
        fitted = data_lines(summary)
        assert main(
            ["fringe", "--config", cfg, "--out", str(tmp_path), "--seed", "4"]
        ) == 0
        assert (tmp_path / "fringe.csv").read_bytes() != first
        # fringe.csv holds the ideal fringe, so it differs between seeds only
        # in its "# io.seed" line; the fit of the detected fractions differs.
        assert data_lines(summary) != fitted

    def test_narrow_scan_fails_with_convergence_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[scan]\nspan_fringes = 1.0\n")
        assert main(["fringe", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "convergence error" in capsys.readouterr().err

    def test_invalid_sequence_rejected_as_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[sequence]\nt_interrogation = -1.0\n")
        assert main(["fringe", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


#: The one stderr line of ``allan`` at the default grid on ``white_series``:
#: the first two of 20 times from tau = dt both snap to one sample.
_DUPLICATE_TAU = np.geomspace(1.0, 65535.0 / 5.0, 20)[1]
_DUPLICATE_LINE = (f"omitting 1 tau in [{_DUPLICATE_TAU:g}, {_DUPLICATE_TAU:g}] s: "
                   "snaps to an m already kept")


class TestAllan:
    @pytest.fixture()
    def white_series(self, tmp_path):
        # Deterministic fixture: unit white noise, recorded seed.
        rng = np.random.default_rng(42)
        series = noise.TimeSeries(samples=rng.normal(0.0, 1.0, 65536), dt=1.0)
        path = tmp_path / "white.csv"
        noise.write_series_csv(path, series)
        return path

    def test_white_noise_slope(self, tmp_path, white_series):
        cfg = write_config(
            tmp_path,
            f"[noise]\nseries_file = {white_series}\n"
            "tau_min = 2.0\ntau_max = 512.0\nn_tau = 9\n",
        )
        assert main(["allan", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, data = read_table(tmp_path / "allan.csv")
        assert header == ["tau", "adev", "n_blocks"]
        slope = np.polyfit(np.log(data[:, 0]), np.log(data[:, 1]), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_constant_series_gives_zero_column(self, tmp_path):
        path = tmp_path / "const.csv"
        noise.write_series_csv(
            path, noise.TimeSeries(samples=np.full(512, 1.25), dt=0.5)
        )
        cfg = write_config(tmp_path, f"[noise]\nseries_file = {path}\n")
        assert main(["allan", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "allan.csv")
        assert np.all(data[:, 1] == 0.0)

    def test_overlapping_estimator_selectable(self, tmp_path, white_series):
        cfg = write_config(
            tmp_path,
            f"[noise]\nseries_file = {white_series}\noverlapping = true\n"
            "tau_min = 2.0\ntau_max = 512.0\nn_tau = 9\n",
        )
        assert main(["allan", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "allan.csv")
        # Overlapping differences vastly outnumber non-overlapping blocks.
        assert data[-1, 2] > 60000

    @pytest.mark.parametrize("tau_max", ["inf", "nan"])
    def test_non_finite_tau_max_is_config_error(
        self, tmp_path, white_series, capsys, tau_max
    ):
        cfg = write_config(
            tmp_path, f"[noise]\nseries_file = {white_series}\ntau_max = {tau_max}\n"
        )
        assert main(["allan", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_tau_grid_overflow_is_config_error(self, tmp_path, white_series, capsys):
        # Both ends are finite and in order, but the grid's powers of ten
        # overflow between them.
        top = "1.797693134862315e308"
        cfg = write_config(
            tmp_path, f"[noise]\nseries_file = {white_series}\n"
            f"tau_min = {top}\ntau_max = {top}\nn_tau = 5\n")
        out = tmp_path / "out"
        assert main(["allan", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: [noise] tau_max = 1.797693134862315e+308 overflows "
            "the tau grid\n")
        assert not any(out.iterdir())

    def test_default_grid_rerun_byte_identical_and_duplicate_logged(
        self, tmp_path, white_series, caplog
    ):
        # At the default 20-point grid from tau = dt the first two times both
        # snap to one sample: 19 rows, and the omitted time is logged.
        cfg = write_config(tmp_path, f"[noise]\nseries_file = {white_series}\n")
        args = ["allan", "--config", cfg, "--out", str(tmp_path)]
        with caplog.at_level("WARNING", logger="gravsim.noise"):
            assert main(args) == 0
        first = (tmp_path / "allan.csv").read_bytes()
        assert len(data_lines(tmp_path / "allan.csv")) == 1 + 19
        assert caplog.messages == [_DUPLICATE_LINE]
        assert main(args) == 0
        assert (tmp_path / "allan.csv").read_bytes() == first

    def test_omitted_tau_printed_once_per_run(self, tmp_path, white_series, capsys):
        cfg = write_config(tmp_path, f"[noise]\nseries_file = {white_series}\n")
        args = ["allan", "--config", cfg, "--out", str(tmp_path)]
        for _ in range(2):
            assert main(args) == 0
            assert capsys.readouterr().err == _DUPLICATE_LINE + "\n"

    def test_fresh_process_stderr_is_one_plain_line(self, tmp_path, white_series):
        # The bytes logging.lastResort printed before the library had a
        # handler: the bare message and a newline.
        cfg = write_config(tmp_path, f"[noise]\nseries_file = {white_series}\n")
        src = str(Path(noise.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "gravsim.cli", "allan", "--config", cfg,
             "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=True,
        )
        assert out.stderr.decode() == _DUPLICATE_LINE + "\n"

    def test_million_taus_on_short_series_one_line_per_reason(self, tmp_path, capsys):
        # 1,000,000 times from tau = dt to duration/5 on 20 samples: all but
        # the first of m = 1, 2 and 3 are duplicates, reported in one line.
        series = noise.TimeSeries(samples=np.arange(20.0) % 3, dt=1.0)
        path = tmp_path / "short.csv"
        noise.write_series_csv(path, series)
        cfg = write_config(tmp_path, f"[noise]\nseries_file = {path}\nn_tau = 1000000\n")
        assert main(["allan", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == (
            "omitting 999997 tau in [1, 3.8] s: snaps to an m already kept\n"
        )
        expected = noise.allan_deviation(series, [1.0, 2.0, 3.0])
        _, data = read_table(tmp_path / "allan.csv")
        np.testing.assert_array_equal(
            data, np.column_stack([expected.tau_avgs, expected.adevs, expected.n_blocks])
        )

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_auto_tau_grid_on_a_short_series(self, tmp_path, capsys, n):
        # A fifth of the span, (n - 1) dt / 5, is 0.1 and 0.4 s at n = 2
        # and 5, below the 0.5-s sample (once a config error blaming a grid
        # the user never set); auto tau_max is floored at dt.  At n = 6 a
        # fifth of the span is dt itself.  Every auto time is then dt, and
        # one row comes out.
        series = noise.TimeSeries(samples=np.arange(float(n)) % 3, dt=0.5)
        path = tmp_path / "short.csv"
        noise.write_series_csv(path, series)
        cfg = write_config(tmp_path, f"[noise]\nseries_file = {path}\n")
        assert main(["allan", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == (
            "omitting 19 tau in [0.5, 0.5] s: snaps to an m already kept\n")
        expected = noise.allan_deviation(series, [0.5])
        _, data = read_table(tmp_path / "allan.csv")
        np.testing.assert_array_equal(
            data, np.column_stack([expected.tau_avgs, expected.adevs, expected.n_blocks])
        )

    def test_tau_max_overflowing_the_sample_ratio_is_omitted(self, tmp_path, capsys):
        # tau_max / dt overflows to inf at dt = 0.01 s: omitted with one
        # line, not an OverflowError.
        path = tmp_path / "short.csv"
        noise.write_series_csv(path, noise.TimeSeries(np.arange(20.0) % 3, 0.01))
        cfg = write_config(tmp_path, f"[noise]\nseries_file = {path}\ntau_max = 1e308\n")
        assert main(["allan", "--config", cfg, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("omitting 19 tau in [") and err.count("\n") == 1
        assert err.endswith(" 1e+308] s: two blocks exceed the 20-sample series\n")
        _, data = read_table(tmp_path / "allan.csv")
        assert data.shape == (1, 3) and data[0, 0] == 0.01

    def test_missing_series_key_is_config_error(self, tmp_path, capsys):
        assert main(["allan", "--out", str(tmp_path)]) == 2
        assert "series_file" in capsys.readouterr().err

    def test_missing_series_file_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[noise]\nseries_file = /nonexistent.csv\n")
        assert main(["allan", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_malformed_series_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0.0,1.0\n")
        cfg = write_config(tmp_path, f"[noise]\nseries_file = {path}\n")
        assert main(["allan", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, bad_line",
        [
            (["0.0,1.0", "inf,2.0"], 3),
            (["0.0,1.0", "1.0,2.0", "# gap", "2.0,nan", "3.0,1.0", "4.0,2.0",
              "5.0,1.0"], 5),
        ],
        ids=["inf-in-t", "nan-in-y"],
    )
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, rows, bad_line):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n" + "\n".join(rows) + "\n")
        cfg = write_config(tmp_path, f"[noise]\nseries_file = {path}\n")
        assert main(["allan", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {path}:{bad_line}: non-finite value" in err
        assert "Traceback" not in err
        assert not (tmp_path / "allan.csv").exists()


class TestSensitivity:
    def test_dark_interval_samples(self, tmp_path):
        assert main(["sensitivity", "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "sensitivity_gs.csv")
        first_dark = data[np.argmin(np.abs(data[:, 0] - 0.05)), 1]
        second_dark = data[np.argmin(np.abs(data[:, 0] - 0.15)), 1]
        assert first_dark == pytest.approx(-1.0, abs=1e-12)
        assert second_dark == pytest.approx(1.0, abs=1e-12)

    def test_transfer_null_at_fringe_harmonic(self, tmp_path):
        assert main(["sensitivity", "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "sensitivity_transfer.csv")
        big_t = 0.1
        row = np.argmin(np.abs(data[:, 0] - 2.0 * math.pi / big_t))
        assert data[row, 0] == pytest.approx(2.0 * math.pi / big_t, rel=1e-9)
        assert data[row, 1] < 1e-5

    def test_three_segment_flag_flips_first_dark_sign(self, tmp_path):
        alt = tmp_path / "three-segment"
        assert main(["sensitivity", "--out", str(alt), "--three-segment-gs"]) == 0
        _, data = read_table(alt / "sensitivity_gs.csv")
        plateau = data[np.argmin(np.abs(data[:, 0] - 0.07)), 1]
        assert plateau == pytest.approx(1.0, abs=1e-12)
        beyond = data[data[:, 0] > 0.2001, 1]
        assert np.all(beyond == 0.0)

    @pytest.mark.parametrize("flags", [[], ["--three-segment-gs"]])
    def test_rerun_is_byte_identical(self, tmp_path, flags):
        args = ["sensitivity", "--out", str(tmp_path), *flags]
        files = [tmp_path / f"sensitivity_{n}.csv" for n in ("gs", "transfer")]
        assert main(args) == 0
        first = [f.read_bytes() for f in files]
        assert main(args) == 0
        assert [f.read_bytes() for f in files] == first

    def test_three_segment_header_names_the_flag(self, tmp_path):
        # The flag is not in the config, so the echo alone would let the two
        # shapes' files differ only in io.out_dir.
        plain, flagged = tmp_path / "a", tmp_path / "b"
        assert main(["sensitivity", "--out", str(plain)]) == 0
        assert main(["sensitivity", "--out", str(flagged), "--three-segment-gs"]) == 0
        for name in ("sensitivity_gs.csv", "sensitivity_transfer.csv"):
            headers = [
                [l for l in (run / name).read_text().splitlines()
                 if l.startswith("#") and not l.startswith("# io.out_dir")]
                for run in (plain, flagged)]
            assert headers[0] != headers[1]
            assert headers[0][0] == "# gravsim sensitivity"
            assert headers[1][0] == "# gravsim sensitivity --three-segment-gs"
            assert headers[0][1:] == headers[1][1:]

    def test_largest_finite_transfer_grid_is_written(self, tmp_path):
        cfg = write_config(tmp_path, "[sensitivity]\ntransfer_max_cycles = 1e305\n")
        assert main(["sensitivity", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "sensitivity_transfer.csv")
        assert data.shape == (79, 2) and np.isfinite(data).all()


class TestPsdVariance:
    @pytest.fixture()
    def band_file(self, tmp_path):
        band = noise.Psd(
            freqs=np.array([2.0 * math.pi * 10.0, 2.0 * math.pi * 2000.0]),
            values=np.array([1e-8, 1e-8]),
        )
        path = tmp_path / "band.csv"
        noise.write_psd_csv(path, band)
        return path

    def test_partial_band_summary_matches_library(self, tmp_path, band_file):
        cfg = write_config(
            tmp_path,
            "[sequence]\nt_interrogation = 0.05\ntau_p = 0.005\n"
            f"[noise]\npsd_file = {band_file}\nallow_partial = true\n",
        )
        assert main(["psd-variance", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = read_summary(tmp_path / "psd_variance_summary.txt")
        profile = noise.SensitivityProfile.from_tau_p(big_t=0.05, tau_p=0.005)
        expected = noise.phase_variance_from_psd(
            noise.read_psd_csv(band_file), profile, allow_partial=True
        )
        assert summary["phase_variance"] == pytest.approx(
            expected.variance, rel=1e-12
        )
        assert summary["truncation_estimate"] == pytest.approx(
            expected.truncation_estimate, rel=1e-12
        )

    def test_rerun_is_byte_identical(self, tmp_path, band_file):
        cfg = write_config(
            tmp_path,
            "[sequence]\nt_interrogation = 0.05\ntau_p = 0.005\n"
            f"[noise]\npsd_file = {band_file}\nallow_partial = true\n",
        )
        args = ["psd-variance", "--config", cfg, "--out", str(tmp_path)]
        summary = tmp_path / "psd_variance_summary.txt"
        assert main(args) == 0
        first = summary.read_bytes()
        assert main(args) == 0
        assert summary.read_bytes() == first

    def test_uncovered_band_refused_with_coverage_code(
        self, tmp_path, band_file, capsys
    ):
        cfg = write_config(
            tmp_path,
            "[sequence]\nt_interrogation = 0.05\ntau_p = 0.005\n"
            f"[noise]\npsd_file = {band_file}\n",
        )
        assert main(["psd-variance", "--config", cfg, "--out", str(tmp_path)]) == 5
        assert "coverage error" in capsys.readouterr().err

    def test_unresolvable_band_refused_with_coverage_code(self, tmp_path, capsys):
        # At the default T = 0.1 s, tau_p = 10 us a fully covering band runs
        # to 100 omega_r = 3.1e7 rad/s: about 318,000 panels of 4 periods
        # 2 pi / span, 24 nodes each.
        wide = tmp_path / "wide.csv"
        noise.write_psd_csv(
            wide, noise.Psd(freqs=np.array([0.5, 4e7]), values=np.array([1e-12, 1e-12]))
        )
        cfg = write_config(tmp_path, f"[noise]\npsd_file = {wide}\n")
        assert main(["psd-variance", "--config", cfg, "--out", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert "coverage error" in err
        assert "needs 7640304 quadrature nodes; at most 4000001" in err

    def test_vast_node_count_refused_on_one_short_line(self, tmp_path, capsys):
        # T = 1e300 s asks for about 1.7e303 nodes on a 100-1000 rad/s band:
        # the count is printed as 1.719e+303, not as 304 digits.
        band = tmp_path / "band.csv"
        band.write_text("omega_rad_per_s,psd_value\n100.0,1e-9\n1000.0,1e-9\n")
        cfg = write_config(
            tmp_path,
            "[sequence]\nt_interrogation = 1e300\n"
            f"[noise]\npsd_file = {band}\nallow_partial = true\n",
        )
        assert main(["psd-variance", "--config", cfg, "--out", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert "needs 1.719e+303 quadrature nodes" in err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_frequency_is_data_error(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"omega_rad_per_s,psd_value\n62.8,1e-8\n{cell},1e-8\n")
        cfg = write_config(
            tmp_path,
            "[sequence]\nt_interrogation = 0.05\ntau_p = 0.005\n"
            f"[noise]\npsd_file = {path}\nallow_partial = true\n",
        )
        assert main(["psd-variance", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {path}:3: non-finite value" in err
        assert not (tmp_path / "psd_variance_summary.txt").exists()

    def test_missing_psd_key_is_config_error(self, tmp_path, capsys):
        assert main(["psd-variance", "--out", str(tmp_path)]) == 2
        assert "psd_file" in capsys.readouterr().err


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        # "workers", "hbar", "atom_mass" and "laser_phase" are retired
        # keys: old configs that set them are refused.
        for section, key, known in (
            ("scan", "froop", "span_fringes"),
            ("scan", "workers", "span_fringes"),
            ("constants", "hbar", "gravity"),
            ("constants", "atom_mass", "gravity"),
            ("pulse", "laser_phase", "detuning_hz"),
        ):
            cfg = write_config(tmp_path, f"[{section}]\n{key} = 3\n")
            assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert f"unknown key '{key}' in [{section}]" in err and known in err

    def test_negative_seed_flag_is_refused_as_io_seed(self, tmp_path, capsys):
        # --seed gets [io] seed's range, as the config key does (the
        # fringe-seed case below); a noisy fringe once blamed [scan].
        cfg = write_config(tmp_path, "[scan]\nn_atoms = 100\n")
        out = tmp_path / "out"
        assert main(["fringe", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            "config error: --seed: [io] seed = -1 must lie in [0, inf]\n")
        assert not out.exists()

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[telescope]\nmirrors = 2\n")
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "telescope" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["allow_partial", "overlapping"])
    @pytest.mark.parametrize("word, value", [
        ("true", True), ("yes", True), ("on", True), ("1", True),
        ("false", False), ("no", False), ("off", False), ("0", False),
    ])
    def test_boolean_words_load(self, tmp_path, key, word, value):
        # configparser's eight words, in any case and with whitespace around.
        for text in (word, word.upper(), f" {word.title()}\t"):
            cfg = write_config(tmp_path, f"[noise]\n{key} = {text}\n")
            assert load_config(cfg)["noise"][key] is value

    @pytest.mark.parametrize("key", ["allow_partial", "overlapping"])
    @pytest.mark.parametrize("word", ["Maybe", "2", "t", "y", "enabled", "true yes"])
    def test_word_outside_the_boolean_table_rejected(self, tmp_path, capsys, key, word):
        cfg = write_config(tmp_path, f"[noise]\n{key} = {word}\n")
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}: [noise] {key}: not a boolean: {word!r}\n")

    @pytest.mark.parametrize("text, reason", [
        ("n_points = 3\n", "File contains no section headers. file: "),
        ("[scan]\nn_points = 3\ngarbage\n", "parsing errors: "),
        ("[scan]\nn_points = 3\nn_points = 4\n", "already exists"),
    ], ids=["no_section", "no_value", "duplicate_key"])
    def test_malformed_ini_is_config_error(self, tmp_path, capsys, text, reason):
        # One stderr line, though configparser's message may span three.
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["rabi", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: ") and reason in err
        assert err.count("\n") == 1 and not out.exists()

    def test_unparseable_value_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[scan]\nn_points = soon\n")
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "n_points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("sensitivity", "sensitivity", "transfer_max_cycles", "inf"),
            ("rabi", "pulse", "rabi_hz", "nan"),
            ("rabi", "pulse", "duration", "inf"),
            ("fringe", "constants", "gravity", "nan"),
            ("fringe", "scan", "span_fringes", "inf"),
            # Written with %.15e, the two doubles of each sign nearest the
            # overflow read back as inf.
            ("fringe", "scan", "center", "1.7976931348623157e308"),
            ("fringe", "scan", "center", "-1.7976931348623155e308"),
        ],
    )
    def test_non_finite_float_is_config_error(
        self, tmp_path, capsys, command, section, key, value
    ):
        cfg = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("rabi", "[pulse]\nduration = -1e-6\n", "duration"),
            ("rabi", "[pulse]\nrabi_hz = -1\nduration = 1e-5\n", "rabi_hz"),
            # 5e-324 s over two output intervals leaves 0 s between times.
            ("rabi", "[pulse]\nduration = 5e-324\nn_points = 3\n", "duration"),
            ("sensitivity", "[sequence]\ntau_p = 0\n", "tau_p"),
            ("psd-variance", "[sequence]\ntau_p = 0\n", "tau_p"),
            ("sensitivity", "[sequence]\nk_eff = 0\n", "k_eff"),
            ("psd-variance", "[sequence]\nk_eff = 0\n", "k_eff"),
            ("sensitivity", "[sequence]\nt_interrogation = 1e-5\n", "t_interrogation"),
            ("psd-variance", "[sequence]\nt_interrogation = 1e-5\n", "t_interrogation"),
            ("sensitivity", "[sequence]\ntau_p = 1e-310\n", "tau_p"),
            ("fringe", "[sequence]\ntau_p = 1e-310\n", "tau_p"),
            ("fringe", "[sequence]\nk_eff = 0\n", "k_eff"),
            ("fringe", "[sequence]\nt_interrogation = 1e-6\n", "t_interrogation"),
            ("fringe", "[sequence]\nt_interrogation = 1e-5\n", "t_interrogation"),
            ("fringe", "[scan]\nn_atoms = -5\n", "n_atoms"),
            # Past 2^63 - 1, the largest n numpy's binomial draw accepts.
            ("fringe", "[scan]\nn_atoms = 100000000000000000000\n", "n_atoms"),
            ("fringe", "[scan]\nn_atoms = 100\n[io]\nseed = -1\n",
             "[io] seed = -1 must lie in [0, inf]"),
            # T^2 overflows: the fringe period 2 pi / T^2 would be 0.
            ("fringe", "[sequence]\nt_interrogation = 1e200\n", "t_interrogation"),
            # 2 pi * 1e308 / T overflows the omega grid.
            ("sensitivity", "[sensitivity]\ntransfer_max_cycles = 1e308\n",
             "transfer_max_cycles"),
            # k_eff * g, the null chirp rate, overflows (noiseless and noisy),
            # the chirp grid's width overflows, and phi1 - 2 phi2 + phi3 does.
            ("fringe", "[constants]\ngravity = 1e302\n", "gravity"),
            ("fringe", "[constants]\ngravity = 1e302\n[scan]\nn_atoms = 100\n",
             "gravity"),
            ("fringe", "[scan]\nspan_fringes = 1e307\n", "span_fringes"),
            ("fringe", "[sequence]\nphi1 = 1e308\nphi2 = -1e308\n", "phi2"),
            # An explicit center overflows the fringe phase (beta - k_eff g)
            # T^2, or the grid's far end center + half-width.
            ("fringe", "[sequence]\nt_interrogation = 10\n[scan]\ncenter = 1e308\n",
             "center"),
            ("fringe", "[scan]\ncenter = 1.7e308\nspan_fringes = 1e305\n", "center"),
            # The phase (beta - k_eff g) T^2 is finite, but dphi_laser added
            # to it overflows: this once printed numpy RuntimeWarnings.
            ("fringe", "[sequence]\nt_interrogation = 10\nphi1 = 1e308\n"
             "[scan]\ncenter = 1e306\n", "center"),
            # Past the documented scan maximum; 1e12 points once exited 1
            # with numpy's _ArrayMemoryError.
            ("fringe", "[scan]\nn_points = 1000001\n", "n_points"),
            # rabi's output times have the same maximum.
            ("rabi", "[pulse]\nn_points = 1000001\n", "n_points"),
            ("rabi", "[pulse]\nn_points = 1000000000000\n", "n_points"),
            # Grid sizes that once had no bound: 1e12 exited 1 with numpy's
            # _ArrayMemoryError.
            ("allan", "[noise]\nn_tau = 1000000000000\n", "n_tau"),
            ("sensitivity", "[sensitivity]\nn_time_points = 1000000000000\n",
             "n_time_points"),
            ("sensitivity", "[sensitivity]\ntransfer_points = 1000000000000\n",
             "transfer_points"),
        ],
        ids=["rabi-duration", "rabi-rabi_hz", "rabi-duration_interval_underflow",
             "sensitivity-tau_p",
             "psd_variance-tau_p", "sensitivity-k_eff", "psd_variance-k_eff",
             "sensitivity-T_equal_tau_p", "psd_variance-T_equal_tau_p",
             "sensitivity-tau_p_subnormal", "fringe-tau_p_subnormal",
             "fringe-k_eff", "fringe-T_below_tau_p",
             "fringe-T_equal_tau_p", "fringe-n_atoms", "fringe-n_atoms_overflow",
             "fringe-seed", "fringe-T_squared_overflow",
             "sensitivity-omega_overflow", "fringe-null_chirp_overflow",
             "fringe-noisy_null_chirp_overflow", "fringe-span_overflow",
             "fringe-laser_phase_overflow", "fringe-center_phase_overflow",
             "fringe-center_grid_overflow", "fringe-center_laser_phase_overflow",
             "fringe-n_points_past_max", "rabi-n_points_past_max",
             "rabi-n_points_huge", "allan-n_tau_huge",
             "sensitivity-n_time_points_huge", "sensitivity-transfer_points_huge"],
    )
    def test_out_of_range_value_is_config_error(
        self, tmp_path, capsys, command, text, key
    ):
        if command == "psd-variance":
            psd = tmp_path / "psd.csv"
            psd.write_text("omega_rad_per_s,psd_value\n1.0,1e-9\n1e6,1e-9\n")
            text += f"[noise]\npsd_file = {psd}\nallow_partial = true\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "section, key, value",
        [
            pytest.param(section, key, past, id=f"{section}.{key}={past!r}")
            for section, keys in _SCHEMA.items()
            for key, (kind, _, *bounds) in keys.items()
            for past in _one_past(kind, bounds)
        ],
    )
    def test_value_one_past_a_bound_is_refused(
        self, tmp_path, capsys, section, key, value
    ):
        # Checked where the config is resolved, so every subcommand refuses
        # it, also one that does not read the section (fringe a
        # [sensitivity] value, say).
        cfg = write_config(tmp_path, f"[{section}]\n{key} = {value!r}\n")
        out = tmp_path / "out"
        for command in ("rabi", "fringe", "allan", "sensitivity", "psd-variance"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert f"[{section}] {key} = " in err
            assert not out.exists()

    def test_bounds_themselves_load(self, tmp_path):
        bounds = [(section, key, bound)
                  for section, keys in _SCHEMA.items()
                  for key, (_, _, *ends) in keys.items()
                  for bound in ends if math.isfinite(bound)]
        assert len(bounds) == 13
        for section, key, bound in bounds:
            cfg = write_config(tmp_path, f"[{section}]\n{key} = {bound!r}\n")
            assert load_config(cfg)[section][key] == bound

    def test_every_default_lies_in_its_range(self):
        ranged = {}
        for section, keys in _SCHEMA.items():
            for key, (_, default, *bounds) in keys.items():
                if bounds:
                    ranged[f"{section}.{key}"] = bounds
                    assert bounds[0] <= default <= bounds[1]
        assert sorted(ranged) == [
            "io.seed", "noise.n_tau", "pulse.n_points", "pulse.rabi_hz",
            "scan.n_points", "sensitivity.n_time_points",
            "sensitivity.transfer_min_cycles", "sensitivity.transfer_points",
        ]

    def test_transfer_grid_order_names_both_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[sensitivity]\ntransfer_min_cycles = 4\n"
                           "transfer_max_cycles = 1\n")
        assert main(["sensitivity", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert ("[sensitivity] transfer_min_cycles = 4.0 must be below "
                "transfer_max_cycles = 1.0") in err

    @pytest.mark.parametrize("name", errors.__all__)
    def test_error_class_sets_exit_code_and_label(
        self, tmp_path, capsys, monkeypatch, name
    ):
        # The README's exit codes; every other class falls back to 3.
        documented = {
            "ConfigError": (2, "config error"),
            "DataFormatError": (3, "data error"),
            "InsufficientDataError": (3, "data error"),
            "AmbiguousFringeError": (4, "convergence error"),
            "FitFailureError": (4, "convergence error"),
            "StepSizeError": (4, "convergence error"),
            "CoverageError": (5, "coverage error"),
            "ResolutionError": (5, "coverage error"),
        }
        code, label = documented.get(name, (3, "error"))
        cls = getattr(errors, name)

        def refuse(cfg, out_dir):
            raise cls("refused here")

        # The subcommand table looks cmd_rabi up when it runs.
        monkeypatch.setattr(cli, "cmd_rabi", refuse)
        assert main(["rabi", "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == f"{label}: refused here\n"
        assert (cls.exit_code, cls.label) == (code, label)

    def test_readme_config_block_resolves_to_defaults(self, tmp_path):
        # The documented block sets every key, each to its default, with
        # inline "#" comments.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        config_format = readme.split("### Config file format", 1)[1]
        block = config_format.split("```ini\n", 1)[1].split("```", 1)[0]
        n_set = sum("=" in line.partition("#")[0] for line in block.splitlines())
        assert n_set == sum(len(keys) for keys in _SCHEMA.values()) == 29
        cfg = load_config(write_config(tmp_path, block))
        assert cfg == {
            section: {key: default for key, (_, default, *_) in keys.items()}
            for section, keys in _SCHEMA.items()
        }

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        assert main(
            ["rabi", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]
        ) == 2
        assert "not found" in capsys.readouterr().err

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path, "[pulse]\nrabi_hz = 0.0\nduration = 1e-4\nn_points = 5\n"
        )
        monkeypatch.setenv("GRAVSIM_CONFIG", cfg)
        assert main(["rabi", "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "rabi.csv")
        assert data.shape[0] == 5  # proves the env-var config was read
        assert np.all(data[:, 1] == 0.0)

    def test_explicit_config_beats_env_var(self, tmp_path, monkeypatch):
        env_cfg = write_config(tmp_path, "[pulse]\nn_points = 5\n", name="env.ini")
        cli_cfg = write_config(tmp_path, "[pulse]\nn_points = 7\n", name="cli.ini")
        monkeypatch.setenv("GRAVSIM_CONFIG", env_cfg)
        assert main(["rabi", "--config", cli_cfg, "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "rabi.csv")
        assert data.shape[0] == 7

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "rabi" in capsys.readouterr().out

    def test_missing_subcommand_exits_two(self, capsys):
        assert main([]) == 2


# ---------------------------------------------------------------------------
# The exit-code contract over boundary values of every key
# ---------------------------------------------------------------------------

#: The sections each subcommand reads; a drawn key comes from one of them.
_READS = {
    "rabi": ("pulse",),
    "fringe": ("constants", "sequence", "scan", "io"),
    "allan": ("noise",),
    "sensitivity": ("sequence", "sensitivity"),
    "psd-variance": ("sequence", "noise"),
}
_HUGE = (1e300, 1e308, sys.float_info.max)
_TINY = (5e-324, sys.float_info.min, 1e-300)
#: Stands in for the grids' top, 1,000,000, only for speed: a run that large
#: takes seconds (3-6 s for rabi, fringe or sensitivity on one CPU of a 2-vCPU
#: VM).  Values past the top are drawn as is.
_FAST_GRID = 1001


def _edge_values(kind, bounds):
    """Boundary-heavy INI values of one key: 0, +-tiny, +-huge, the key's
    bounds and the values one past them, and integers past int64."""
    if kind == "bool":
        return ["true", "false"]
    if kind == "int":
        values = [0, 1, -1, 2**63 - 1, 2**63, -(2**63) - 1]
        if bounds:
            top = _FAST_GRID if bounds[1] == cli._MAX_SCAN_POINTS else bounds[1]
            values += [bounds[0], top, *_one_past(kind, bounds)]
        return [str(v) for v in values]
    values = [0.0, *_TINY, *_HUGE]
    values += [-v for v in values[1:]]
    if bounds:
        values += [b for b in bounds if math.isfinite(b)] + _one_past(kind, bounds)
    return [repr(v) for v in values] + (["auto"] if kind == "autofloat" else [])


def _settings_for(command):
    keys = [(section, key) for section in _READS[command]
            for key, spec in _SCHEMA[section].items() if spec[0] != "str"]
    return st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True).flatmap(
        lambda picked: st.tuples(*[
            st.tuples(st.just(section), st.just(key), st.sampled_from(
                _edge_values(_SCHEMA[section][key][0], _SCHEMA[section][key][2:])))
            for section, key in picked]))


_cases = st.sampled_from(sorted(_READS)).flatmap(
    lambda command: st.tuples(st.just(command), _settings_for(command)))

_MAX = repr(sys.float_info.max)
#: The largest double whose 16-digit echo (``%.15e``) reads back finite: the
#: two above it are refused as config values.
_TOP = "1.7976931348623153e+308"
_MIN = repr(sys.float_info.min)
#: Each broke the contract once, found by drawing from these values.
_BROKE = [
    # nan oracle column at exit 0: the RK4 step map overflowed.
    ("rabi", (("pulse", "rabi_hz", "1e+300"),)),
    # numpy warning: the auto duration pi / (2 pi rabi_hz) overflowed.
    ("rabi", (("pulse", "rabi_hz", "5e-324"),)),
    # ValueError traceback: 2 pi rabi_hz overflowed.
    ("rabi", (("pulse", "rabi_hz", "1e+308"), ("pulse", "duration", _MIN))),
    # inf g_hat at exit 0: beta_null / k_eff overflowed.
    ("fringe", (("sequence", "k_eff", "5e-324"),)),
    # numpy warning: the chirp grid's end overflowed for a negative span.
    ("fringe", (("scan", "center", "-" + _MAX), ("scan", "span_fringes", "-1e+300"))),
    ("fringe", (("scan", "center", "-" + _TOP), ("scan", "span_fringes", "-1e+300"))),
    # numpy warnings: the span 2 (T + tau_p) overflowed.
    ("sensitivity", (("sequence", "t_interrogation", "1e+308"),)),
    ("psd-variance", (("sequence", "t_interrogation", "1e+308"),)),
    # inf transfer magnitudes at exit 0: the Rabi phase pi T / tau_p overflowed.
    ("sensitivity", (("sequence", "t_interrogation", "1e+300"),
                     ("sequence", "tau_p", _MIN))),
    # OverflowError traceback from int(tau / dt).
    ("allan", (("noise", "tau_max", "1e+308"),)),
    # numpy warning: the tau grid's powers of ten overflowed.
    ("allan", (("noise", "tau_max", _MAX),)),
    ("allan", (("noise", "tau_max", _TOP),)),
    # Every tau omitted: one stderr line per tau, then the refusal's.
    ("allan", (("noise", "tau_min", "5e-324"), ("noise", "tau_max", "5e-324"))),
    # 1.797693134862316e+308 written for the largest double, which reads
    # back as inf.
    ("rabi", (("pulse", "duration", _MAX), ("pulse", "rabi_hz", _MIN))),
]


def _with_broken_cases(test):
    for case in _BROKE:
        test = example(case=case)(test)
    return test


def _data_values(path):
    """Every number a CSV table or a ``key=value`` summary holds, as written:
    a decimal, or ``nan``/``inf``.  A finite decimal past the largest double
    reads back as ``inf``."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    if path.suffix == ".csv":
        return [Decimal(cell) for line in lines[1:] for cell in line.split(",")]
    return [Decimal(line.partition("=")[2]) for line in lines]


class TestCliContract:
    """README "Exit codes": every run exits 0 with finite data files, or
    exits with its error class's code after one ``label: message`` line."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("contract")
        rng = np.random.default_rng(31)
        # dt = 0.01 s, so tau / dt overflows below the largest double.
        noise.write_series_csv(root / "series.csv",
                               noise.TimeSeries(rng.normal(0.0, 1.0, 64), 0.01))
        freqs = 2.0 * np.pi * np.geomspace(10.0, 1e4, 10)
        noise.write_psd_csv(root / "psd.csv",
                            noise.Psd(freqs, 1e-9 * np.exp(rng.normal(0.0, 0.5, 10))))
        return root

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_cases)
    @_with_broken_cases
    def test_exit_code_stderr_and_finite_files(self, inputs, case):
        command, drawn = case
        cfg = {"noise": {"series_file": str(inputs / "series.csv"),
                         "psd_file": str(inputs / "psd.csv"),
                         "allow_partial": "true"}}
        for section, key, value in drawn:
            cfg.setdefault(section, {})[key] = value
        raised = []

        def run(args, real=cli._run):
            try:
                return real(args)
            except errors.GravsimError as exc:
                raised.append(exc)
                raise

        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "run.ini").write_text("".join(
                f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                for section, keys in cfg.items()))
            stderr = io.StringIO()
            with mock.patch.object(cli, "_run", run), contextlib.redirect_stderr(stderr):
                code = main([command, "--config", str(root / "run.ini"),
                             "--out", str(root / "out")])
            err = stderr.getvalue()
            assert "Traceback" not in err
            if raised:
                exc, = raised
                assert code == exc.exit_code in (2, 3, 4, 5)
                assert err == f"{exc.label}: {exc}\n"
            else:
                assert code == 0
            for path in (root / "out").glob("*"):  # none if --out was not made
                assert all(math.isfinite(float(v)) for v in _data_values(path)), path.name
