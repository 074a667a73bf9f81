"""End-to-end tests of the command-line front end.

Each test invokes ``main([...])`` in-process and inspects the files it
writes.  Fixtures are generated deterministically (recorded seeds) rather
than shipped as binaries.
"""

import math

import numpy as np
import pytest

from gravsim import noise
from gravsim.cli import main


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
        # to 100 omega_r = 3.1e7 rad/s: about 41M grid points at span/32.
        wide = tmp_path / "wide.csv"
        noise.write_psd_csv(
            wide, noise.Psd(freqs=np.array([0.5, 4e7]), values=np.array([1e-12, 1e-12]))
        )
        cfg = write_config(tmp_path, f"[noise]\npsd_file = {wide}\n")
        assert main(["psd-variance", "--config", cfg, "--out", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert "coverage error" in err
        assert "needs 40747741 grid points; at most 4000001" in err

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
