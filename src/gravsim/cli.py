"""Batch command-line front end.

Subcommands drive the simulation/analysis modules and write deterministic
CSV tables plus flat ``key=value`` summary blocks:

* ``rabi`` — excited-state population under a single pulse, closed form and
  ODE oracle side by side, with a max-discrepancy summary;
* ``fringe`` / ``gsweep`` — chirp-rate fringe scan (optionally with atom
  shot noise) and the recovered gravity estimate;
* ``allan`` — Allan deviation of a time-series CSV on a log-spaced grid of
  averaging times;
* ``sensitivity`` — sensitivity-function samples and transfer-function
  magnitudes for the configured pulse sequence;
* ``psd-variance`` — interferometer phase variance from a phase-noise PSD.

Configuration is INI-style (``--config`` flag, else the ``GRAVSIM_CONFIG``
environment variable, else built-in defaults); unknown sections or keys are
rejected with the offending name spelled out.  Every output file embeds the
fully resolved configuration and seed as ``#`` comment lines and uses LF
endings and 15-significant-digit scientific notation, so reruns with the
same inputs are byte-identical.

Exit codes: 0 success, 2 configuration errors, 3 data errors, 4 convergence
failures, 5 coverage/resolution refusals.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import measurement, noise, twolevel
from .core import DEFAULT_G, DEFAULT_K_EFF, SequenceParams, TwoLevelState
from .errors import (
    AmbiguousFringeError,
    ConfigError,
    CoverageError,
    DataFormatError,
    FitFailureError,
    GravsimError,
    InsufficientDataError,
    ResolutionError,
    StepSizeError,
)

__all__ = ["main", "load_config", "RunConfig"]

ENV_CONFIG = "GRAVSIM_CONFIG"

# value kinds: float | int | bool | str | autofloat ("auto" or a float)
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "constants": {
        "gravity": ("float", DEFAULT_G),
    },
    "sequence": {
        "t_interrogation": ("float", 0.1),
        "tau_p": ("float", 1e-5),
        "phi1": ("float", 0.0),
        "phi2": ("float", 0.0),
        "phi3": ("float", 0.0),
        "k_eff": ("float", DEFAULT_K_EFF),
    },
    "pulse": {
        "rabi_hz": ("float", 1e5),
        "detuning_hz": ("float", 0.0),
        "laser_phase": ("float", 0.0),
        "duration": ("autofloat", "auto"),
        "n_points": ("int", 201),
        "oracle_dt": ("autofloat", "auto"),
    },
    "scan": {
        "center": ("autofloat", "auto"),
        "span_fringes": ("float", 2.0),
        "n_points": ("int", 50),
        "n_atoms": ("int", 0),
    },
    "noise": {
        "psd_file": ("str", ""),
        "series_file": ("str", ""),
        "allow_partial": ("bool", False),
        "tau_min": ("autofloat", "auto"),
        "tau_max": ("autofloat", "auto"),
        "n_tau": ("int", 20),
        "overlapping": ("bool", False),
    },
    "sensitivity": {
        "n_time_points": ("int", 501),
        "transfer_min_cycles": ("float", 0.1),
        "transfer_max_cycles": ("float", 4.0),
        "transfer_points": ("int", 79),
    },
    "io": {
        "out_dir": ("str", "."),
        "seed": ("int", 0),
    },
}

_TWO_PI = 2.0 * math.pi


@dataclass
class RunConfig:
    """Fully resolved configuration: schema defaults overlaid with the
    config file and command-line overrides."""

    values: dict[str, dict[str, object]]

    def get(self, section: str, key: str) -> object:
        return self.values[section][key]

    def get_float(self, section: str, key: str) -> float:
        return float(self.values[section][key])  # type: ignore[arg-type]

    def get_auto(self, section: str, key: str) -> float | None:
        """Value of an auto-or-number key; None when set to ``auto``."""
        raw = self.values[section][key]
        if isinstance(raw, str):
            return None
        return float(raw)  # type: ignore[arg-type]

    def echo_lines(self, command: str) -> list[str]:
        """Comment lines embedding the resolved config, stable across runs."""
        lines = [f"gravsim {command}"]
        for section in sorted(self.values):
            for key in sorted(self.values[section]):
                lines.append(f"{section}.{key} = {_fmt(self.values[section][key])}")
        return lines


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15e}"
    return str(value)


def _parse_value(kind: str, raw: str, where: str) -> object:
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "autofloat":
            if raw.strip().lower() == "auto":
                return "auto"
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str | None) -> RunConfig:
    """Resolve the configuration: defaults, overlaid with the INI file.

    Unknown sections or keys are rejected with the known alternatives
    listed.  File paths referenced under ``[noise]`` must exist.
    """
    values: dict[str, dict[str, object]] = {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in _SCHEMA.items()
    }
    if path is not None:
        config_path = Path(path)
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with config_path.open() as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{config_path}: {exc}") from exc
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(
                    f"{config_path}: unknown section [{section}] "
                    f"(known: {', '.join(sorted(_SCHEMA))})"
                )
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(
                        f"{config_path}: unknown key '{key}' in [{section}] "
                        f"(known: {', '.join(sorted(_SCHEMA[section]))})"
                    )
                kind = _SCHEMA[section][key][0]
                values[section][key] = _parse_value(
                    kind, raw, f"{config_path}: [{section}] {key}"
                )
    for key in ("psd_file", "series_file"):
        file_ref = values["noise"][key]
        if file_ref and not Path(str(file_ref)).is_file():
            raise DataFormatError(
                f"referenced {key} does not exist: {file_ref}"
            )
    return RunConfig(values=values)


def _sequence_params(cfg: RunConfig) -> SequenceParams:
    try:
        return SequenceParams(
            t_interrogation=cfg.get_float("sequence", "t_interrogation"),
            tau_p=cfg.get_float("sequence", "tau_p"),
            phases=(
                cfg.get_float("sequence", "phi1"),
                cfg.get_float("sequence", "phi2"),
                cfg.get_float("sequence", "phi3"),
            ),
            k_eff=cfg.get_float("sequence", "k_eff"),
        )
    except (GravsimError, ValueError) as exc:
        raise ConfigError(f"[sequence] values invalid: {exc}") from exc


def _profile(cfg: RunConfig) -> noise.SensitivityProfile:
    try:
        return noise.SensitivityProfile.from_tau_p(
            big_t=cfg.get_float("sequence", "t_interrogation"),
            tau_p=cfg.get_float("sequence", "tau_p"),
        )
    except ValueError as exc:
        raise ConfigError(f"[sequence] values invalid: {exc}") from exc


def _write_summary(
    path: Path, cfg: RunConfig, command: str, entries: list[tuple[str, object]]
) -> None:
    with path.open("w", newline="\n") as fh:
        for line in cfg.echo_lines(command):
            fh.write(f"# {line}\n")
        for key, value in entries:
            fh.write(f"{key}={_fmt(value)}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_rabi(cfg: RunConfig, out_dir: Path) -> int:
    rabi = _TWO_PI * cfg.get_float("pulse", "rabi_hz")
    detuning = _TWO_PI * cfg.get_float("pulse", "detuning_hz")
    laser_phase = cfg.get_float("pulse", "laser_phase")
    n_points = int(cfg.get("pulse", "n_points"))
    if n_points < 2:
        raise ConfigError("[pulse] n_points must be >= 2")
    duration = cfg.get_auto("pulse", "duration")
    if duration is None:
        if rabi <= 0.0:
            raise ConfigError(
                "[pulse] duration = auto needs rabi_hz > 0 "
                "(auto means one resonant inversion time pi/rabi)"
            )
        duration = math.pi / rabi
    omega_r = math.hypot(rabi, detuning)
    dt = cfg.get_auto("pulse", "oracle_dt")
    if dt is None:
        dt = _TWO_PI / (200.0 * omega_r) if omega_r > 0.0 else duration / 200.0
    times = np.linspace(0.0, duration, n_points)
    closed = np.empty(n_points)
    oracle = np.empty(n_points)
    ground = TwoLevelState.ground()
    for i, t in enumerate(times):
        if t == 0.0:
            closed[i] = oracle[i] = 0.0  # still in the ground state
            continue
        pulse = twolevel.PulseParams(
            rabi_mod=rabi,
            detuning=detuning,
            duration=float(t),
            laser_phase=laser_phase,
        )
        closed[i] = abs(twolevel.pulse_propagator(pulse)[0, 1]) ** 2
        final = twolevel.ode_oracle(ground, pulse, dt)
        oracle[i] = abs(final.c_b) ** 2
    discrepancy = float(np.max(np.abs(closed - oracle)))
    noise._write_csv(
        out_dir / "rabi.csv",
        ["t", "p_excited_closed", "p_excited_oracle"],
        [times, closed, oracle],
        cfg.echo_lines("rabi"),
    )
    _write_summary(
        out_dir / "rabi_summary.txt", cfg, "rabi",
        [("max_discrepancy", discrepancy)],
    )
    return 0


def cmd_fringe(cfg: RunConfig, out_dir: Path) -> int:
    seq = _sequence_params(cfg)
    gravity = cfg.get_float("constants", "gravity")
    center = cfg.get_auto("scan", "center")
    if center is None:
        center = seq.k_eff * gravity
    n_points = int(cfg.get("scan", "n_points"))
    n_atoms = int(cfg.get("scan", "n_atoms"))
    seed = int(cfg.get("io", "seed"))
    try:
        betas = measurement.beta_grid(
            center=center,
            span_fringes=cfg.get_float("scan", "span_fringes"),
            n_points=n_points,
            big_t=seq.t_interrogation,
        )
    except ValueError as exc:
        raise ConfigError(f"[scan] values invalid: {exc}") from exc
    scan = measurement.simulate_scan(
        betas,
        k_eff=seq.k_eff,
        g_true=gravity,
        big_t=seq.t_interrogation,
        dphi_laser=seq.dphi_laser,
        n_atoms=n_atoms,
        seed=seed if n_atoms > 0 else None,
    )
    estimate = measurement.estimate_g(
        scan, k_eff=seq.k_eff, big_t=seq.t_interrogation, dphi_laser=seq.dphi_laser
    )
    noise._write_csv(
        out_dir / "fringe.csv",
        ["beta", "p_excited"],
        [scan.betas, scan.probabilities],
        cfg.echo_lines("fringe"),
    )
    _write_summary(
        out_dir / "fringe_summary.txt", cfg, "fringe",
        [
            ("g_hat", estimate.g_hat),
            ("sigma_g", estimate.sigma_g),
            ("beta_null", estimate.beta_null),
            ("fit_residual", estimate.fit_residual),
        ],
    )
    return 0


def cmd_allan(cfg: RunConfig, out_dir: Path) -> int:
    series_file = str(cfg.get("noise", "series_file"))
    if not series_file:
        raise ConfigError("[noise] series_file is required for the allan command")
    series = noise.read_series_csv(series_file)
    tau_min = cfg.get_auto("noise", "tau_min")
    tau_max = cfg.get_auto("noise", "tau_max")
    n_tau = int(cfg.get("noise", "n_tau"))
    if n_tau < 1:
        raise ConfigError("[noise] n_tau must be >= 1")
    if tau_min is None:
        tau_min = series.dt
    if tau_max is None:
        tau_max = series.duration / 5.0
    if not (0.0 < tau_min <= tau_max):
        raise ConfigError(
            f"[noise] need 0 < tau_min <= tau_max, got {tau_min}, {tau_max}"
        )
    taus = np.geomspace(tau_min, tau_max, n_tau)
    estimator = (
        noise.allan_deviation_overlapping
        if bool(cfg.get("noise", "overlapping"))
        else noise.allan_deviation
    )
    result = estimator(series, list(taus))
    noise.write_allan_csv(
        out_dir / "allan.csv", result, comments=cfg.echo_lines("allan")
    )
    return 0


def cmd_sensitivity(cfg: RunConfig, out_dir: Path, three_segment_gs: bool) -> int:
    profile = _profile(cfg)
    n_time = int(cfg.get("sensitivity", "n_time_points"))
    if n_time < 2:
        raise ConfigError("[sensitivity] n_time_points must be >= 2")
    times = np.linspace(0.0, profile.span, n_time)
    gs = noise.sensitivity_g(times, profile, three_segment=three_segment_gs)
    noise._write_csv(
        out_dir / "sensitivity_gs.csv",
        ["t", "g_s"], [times, gs],
        cfg.echo_lines("sensitivity"),
    )
    cycles_lo = cfg.get_float("sensitivity", "transfer_min_cycles")
    cycles_hi = cfg.get_float("sensitivity", "transfer_max_cycles")
    n_omega = int(cfg.get("sensitivity", "transfer_points"))
    if not (0.0 <= cycles_lo < cycles_hi) or n_omega < 2:
        raise ConfigError("[sensitivity] transfer grid is invalid")
    omegas = (
        _TWO_PI * np.linspace(cycles_lo, cycles_hi, n_omega) / profile.big_t
    )
    mags = np.asarray(
        noise.transfer_function(omegas, profile, three_segment=three_segment_gs)
    )
    noise._write_csv(
        out_dir / "sensitivity_transfer.csv",
        ["omega_rad_per_s", "transfer_mag"], [omegas, mags],
        cfg.echo_lines("sensitivity"),
    )
    return 0


def cmd_psd_variance(cfg: RunConfig, out_dir: Path) -> int:
    psd_file = str(cfg.get("noise", "psd_file"))
    if not psd_file:
        raise ConfigError("[noise] psd_file is required for the psd-variance command")
    psd = noise.read_psd_csv(psd_file)
    profile = _profile(cfg)
    result = noise.phase_variance_from_psd(
        psd, profile, allow_partial=bool(cfg.get("noise", "allow_partial"))
    )
    _write_summary(
        out_dir / "psd_variance_summary.txt", cfg, "psd-variance",
        [
            ("phase_variance", result.variance),
            ("truncation_estimate", result.truncation_estimate),
        ],
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravsim",
        description="Atom-interferometer gravimeter simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file (default: "
                       f"${ENV_CONFIG} if set, else built-in defaults)")
        p.add_argument("--seed", type=int, help="override [io] seed")
        p.add_argument("--out", help="override [io] out_dir")
        return p

    add("rabi", "single-pulse population dynamics, closed form vs ODE oracle")
    for name in ("fringe", "gsweep"):
        add(name, "chirp-rate fringe scan and gravity estimate")
    add("allan", "Allan deviation of a time-series CSV")
    p = add("sensitivity", "sensitivity-function and transfer-function tables")
    p.add_argument(
        "--three-segment-gs", action="store_true",
        help="use the three-segment sensitivity variant (half-interval ramps, "
        "support (0, 2T)) instead of the default five-segment shape",
    )
    add("psd-variance", "phase variance from a phase-noise PSD")
    return parser


def _run(args: argparse.Namespace) -> int:
    config_path = args.config or os.environ.get(ENV_CONFIG) or None
    cfg = load_config(config_path)
    if args.seed is not None:
        cfg.values["io"]["seed"] = int(args.seed)
    if args.out is not None:
        cfg.values["io"]["out_dir"] = args.out
    out_dir = Path(str(cfg.get("io", "out_dir")))
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "rabi":
        return cmd_rabi(cfg, out_dir)
    if args.command in ("fringe", "gsweep"):
        return cmd_fringe(cfg, out_dir)
    if args.command == "allan":
        return cmd_allan(cfg, out_dir)
    if args.command == "sensitivity":
        return cmd_sensitivity(cfg, out_dir, three_segment_gs=bool(args.three_segment_gs))
    if args.command == "psd-variance":
        return cmd_psd_variance(cfg, out_dir)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports its own diagnostics
        return int(exc.code or 0)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, InsufficientDataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (AmbiguousFringeError, FitFailureError, StepSizeError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 4
    except (CoverageError, ResolutionError) as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return 5
    except GravsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
