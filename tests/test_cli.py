"""End-to-end tests of the command-line front end.

Each test invokes ``main([...])`` in-process and inspects the files it
writes.  Fixtures are generated deterministically (recorded seeds) rather
than shipped as binaries.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    @pytest.mark.parametrize("n_points", [250_000, 10**12])
    def test_output_times_step_total_is_convergence_error(
        self, tmp_path, capsys, n_points
    ):
        # At the default pulse every output time needs up to 100 steps: 250,000
        # times need about 1.3e7 in all, and 1e12 times at least 1e12, refused
        # before the times are allocated (it once exited 1 with numpy's
        # _ArrayMemoryError).
        cfg = write_config(tmp_path, f"[pulse]\nn_points = {n_points}\n")
        out = tmp_path / "out"
        assert main(["rabi", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("convergence error: [pulse] n_points = ")
        assert err.count("\n") == 1
        assert "RK4 steps in all" in err and "at most 10000000 are allowed" in err
        assert not any(out.iterdir())

    def test_output_times_step_total_is_exact(self, tmp_path, monkeypatch):
        # The default run's 201 oracle calls take exactly this many steps in
        # all: a budget of that many passes, one fewer is refused.
        rabi = 2.0 * math.pi * 1e5
        dt, duration = 2.0 * math.pi / (200.0 * rabi), math.pi / rabi
        total = sum(max(1, math.ceil(t / dt))
                    for t in np.linspace(0.0, duration, 201)[1:].tolist())
        monkeypatch.setattr(twolevel, "_MAX_ORACLE_STEPS", total)
        assert main(["rabi", "--out", str(tmp_path / "at")]) == 0
        monkeypatch.setattr(twolevel, "_MAX_ORACLE_STEPS", total - 1)
        assert main(["rabi", "--out", str(tmp_path / "below")]) == 4

    def test_summary_carries_oracle_diagnostics(self, tmp_path):
        # The longest output time's step count and step h, as the oracle
        # took them.
        cfg = write_config(tmp_path, "[pulse]\ndetuning_hz = 4e4\n")
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = read_summary(tmp_path / "rabi_summary.txt")
        rabi, detuning = 2.0 * math.pi * 1e5, 2.0 * math.pi * 4e4
        omega_r = math.hypot(rabi, detuning)
        duration = math.pi / rabi
        n_steps = twolevel._check_oracle_step(
            2.0 * math.pi / (200.0 * omega_r), omega_r, duration)
        assert n_steps == 108
        assert summary["oracle_steps"] == n_steps
        assert summary["oracle_h"] == duration / n_steps
        text = (tmp_path / "rabi_summary.txt").read_text()
        assert "\noracle_steps=108\n" in text

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

    def test_gsweep_is_an_alias(self, tmp_path):
        a = tmp_path / "fringe"
        b = tmp_path / "gsweep"
        assert main(["fringe", "--out", str(a)]) == 0
        assert main(["gsweep", "--out", str(b)]) == 0
        assert data_lines(a / "fringe.csv") == data_lines(b / "fringe.csv")
        assert data_lines(a / "fringe_summary.txt") == data_lines(
            b / "fringe_summary.txt"
        )

    def test_narrow_scan_fails_with_convergence_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[scan]\nspan_fringes = 1.0\n")
        assert main(["fringe", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "convergence error" in capsys.readouterr().err

    def test_invalid_sequence_rejected_as_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[sequence]\nt_interrogation = -1.0\n")
        assert main(["fringe", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


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
        assert "snaps to m=1 samples" in caplog.text
        assert main(args) == 0
        assert (tmp_path / "allan.csv").read_bytes() == first

    def test_omitted_tau_printed_once_per_run(self, tmp_path, white_series, capsys):
        cfg = write_config(tmp_path, f"[noise]\nseries_file = {white_series}\n")
        args = ["allan", "--config", cfg, "--out", str(tmp_path)]
        for _ in range(2):
            assert main(args) == 0
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "snaps to m=1 samples" in err

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
        tau = np.geomspace(1.0, 65535.0 / 5.0, 20)[1]
        assert out.stderr.decode() == (
            f"omitting tau={tau:g} s: snaps to m=1 samples, as an earlier tau did\n"
        )

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
        # "workers", "hbar" and "atom_mass" are retired keys: old configs
        # that set them are refused.
        for section, key, known in (
            ("scan", "froop", "span_fringes"),
            ("scan", "workers", "span_fringes"),
            ("constants", "hbar", "gravity"),
            ("constants", "atom_mass", "gravity"),
        ):
            cfg = write_config(tmp_path, f"[{section}]\n{key} = 3\n")
            assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert f"unknown key '{key}' in [{section}]" in err and known in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[telescope]\nmirrors = 2\n")
        assert main(["rabi", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "telescope" in capsys.readouterr().err

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
            ("sensitivity", "[sequence]\ntau_p = 0\n", "tau_p"),
            ("psd-variance", "[sequence]\ntau_p = 0\n", "tau_p"),
            ("sensitivity", "[sequence]\nk_eff = 0\n", "k_eff"),
            ("psd-variance", "[sequence]\nk_eff = 0\n", "k_eff"),
            ("sensitivity", "[sequence]\nt_interrogation = 1e-5\n", "t_interrogation"),
            ("psd-variance", "[sequence]\nt_interrogation = 1e-5\n", "t_interrogation"),
            ("sensitivity", "[sequence]\ntau_p = 1e-310\n", "tau_p"),
            ("fringe", "[sequence]\ntau_p = 1e-310\n", "tau_p"),
            ("gsweep", "[sequence]\ntau_p = 1e-310\n", "tau_p"),
            ("fringe", "[sequence]\nk_eff = 0\n", "k_eff"),
            ("fringe", "[sequence]\nt_interrogation = 1e-6\n", "t_interrogation"),
            ("fringe", "[sequence]\nt_interrogation = 1e-5\n", "t_interrogation"),
            ("fringe", "[scan]\nn_atoms = -5\n", "n_atoms"),
            # Past 2^63 - 1, the largest n numpy's binomial draw accepts.
            ("fringe", "[scan]\nn_atoms = 100000000000000000000\n", "n_atoms"),
            ("fringe", "[scan]\nn_atoms = 100\n[io]\nseed = -1\n", "seed"),
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
            # Past the documented scan maximum; 1e12 points once exited 1
            # with numpy's _ArrayMemoryError.
            ("fringe", "[scan]\nn_points = 1000001\n", "n_points"),
            ("gsweep", "[scan]\nn_points = 1000000000000\n", "n_points"),
        ],
        ids=["rabi-duration", "rabi-rabi_hz", "sensitivity-tau_p",
             "psd_variance-tau_p", "sensitivity-k_eff", "psd_variance-k_eff",
             "sensitivity-T_equal_tau_p", "psd_variance-T_equal_tau_p",
             "sensitivity-tau_p_subnormal", "fringe-tau_p_subnormal",
             "gsweep-tau_p_subnormal", "fringe-k_eff", "fringe-T_below_tau_p",
             "fringe-T_equal_tau_p", "fringe-n_atoms", "fringe-n_atoms_overflow",
             "fringe-seed", "fringe-T_squared_overflow",
             "sensitivity-omega_overflow", "fringe-null_chirp_overflow",
             "fringe-noisy_null_chirp_overflow", "fringe-span_overflow",
             "fringe-laser_phase_overflow", "fringe-center_phase_overflow",
             "fringe-center_grid_overflow", "fringe-n_points_past_max",
             "gsweep-n_points_huge"],
    )
    def test_out_of_range_value_is_config_error(
        self, tmp_path, capsys, command, text, key
    ):
        psd = tmp_path / "psd.csv"
        psd.write_text("omega_rad_per_s,psd_value\n1.0,1e-9\n1e6,1e-9\n")
        cfg = write_config(
            tmp_path, text + f"[noise]\npsd_file = {psd}\nallow_partial = true\n"
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "Traceback" not in err
        assert not any(out.iterdir())

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
        assert n_set == sum(len(keys) for keys in _SCHEMA.values()) == 30
        cfg = load_config(write_config(tmp_path, block))
        assert cfg == {
            section: {key: default for key, (_, default) in keys.items()}
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
