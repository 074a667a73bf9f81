"""Batch command-line front end.

Subcommands drive the simulation/analysis modules and write deterministic
CSV tables plus flat ``key=value`` summary blocks:

* ``rabi`` — excited-state population under a single pulse, closed form and
  ODE oracle side by side, with a max-discrepancy summary;
* ``fringe`` — chirp-rate fringe scan (optionally with atom shot noise) and
  the recovered gravity estimate;
* ``allan`` — Allan deviation of a time-series CSV on a log-spaced grid of
  averaging times;
* ``sensitivity`` — sensitivity-function samples and transfer-function
  magnitudes for the configured pulse sequence;
* ``psd-variance`` — interferometer phase variance from a phase-noise PSD.

Configuration is INI-style (``--config`` flag, else the ``GRAVSIM_CONFIG``
environment variable, else built-in defaults); unknown sections or keys,
and values outside a key's range, are rejected with the offending name
spelled out.  The resolved configuration is a plain ``cfg[section][key]``
dict of typed values, in which a key set to ``auto`` reads ``None``.  Every
output file embeds it, seed included, as ``#`` comment lines (``None``
echoed as ``auto``) and uses LF endings and 15-significant-digit
scientific notation, so reruns with the same inputs are byte-identical.

Exit codes: 0 success; a refusal exits with its error class's ``exit_code``
(2 configuration errors, 3 data errors, 4 convergence failures, 5
coverage/resolution refusals) after one ``label: message`` stderr line.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .core import (
    DEFAULT_G,
    DEFAULT_K_EFF,
    SequenceParams,
    _write_csv,
)
from .errors import ConfigError, DataFormatError, GravsimError, TimeOrderError

if TYPE_CHECKING:
    from .noise import SensitivityProfile

# Each subcommand imports the one module it runs, inside its cmd_* function,
# so a fresh process loads (and, without bytecode caches, compiles) no other.
# numpy too is imported only where arrays are built: ``rabi``, ``--help`` and
# every refusal of load_config run without it.

__all__ = ["main", "load_config"]

ENV_CONFIG = "GRAVSIM_CONFIG"

#: Most points one fringe scan, or rows one rabi table, may have.  A noisy
#: scan of 1,000,000 points takes about 2.7-3.2 s and 106 MB of peak RSS,
#: and writes a 44-MB fringe.csv; 1,000,000 rabi rows take about 3.1 s and
#: 108 MB, and write a 66-MB rabi.csv (one CPU of a 2-vCPU VM, Python 3.11,
#: numpy 2.4).  It bounds every other grid size too.
_MAX_SCAN_POINTS = 1_000_000
_GRID = (2, _MAX_SCAN_POINTS)

# (kind, default) or (kind, default, low, high): a value outside [low, high]
# is refused.  Kinds: float | int | bool | str | autofloat (a float, or
# "auto", read as None).
_SCHEMA: dict[str, dict[str, tuple[Any, ...]]] = {
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
        "rabi_hz": ("float", 1e5, 0.0, math.inf),
        "detuning_hz": ("float", 0.0),
        "duration": ("autofloat", None),
        "n_points": ("int", 201, *_GRID),
        "oracle_dt": ("autofloat", None),
    },
    "scan": {
        "center": ("autofloat", None),
        "span_fringes": ("float", 2.0),
        "n_points": ("int", 50, *_GRID),
        "n_atoms": ("int", 0),
    },
    "noise": {
        "psd_file": ("str", ""),
        "series_file": ("str", ""),
        "allow_partial": ("bool", False),
        "tau_min": ("autofloat", None),
        "tau_max": ("autofloat", None),
        "n_tau": ("int", 20, 1, _MAX_SCAN_POINTS),
        "overlapping": ("bool", False),
    },
    "sensitivity": {
        "n_time_points": ("int", 501, *_GRID),
        "transfer_min_cycles": ("float", 0.1, 0.0, math.inf),
        "transfer_max_cycles": ("float", 4.0),
        "transfer_points": ("int", 79, *_GRID),
    },
    "io": {
        "out_dir": ("str", "."),
        "seed": ("int", 0, 0, math.inf),
    },
}

_TWO_PI = 2.0 * math.pi

#: The resolved configuration: ``cfg[section][key]``, typed by ``_SCHEMA``.
Config = dict[str, dict[str, Any]]


def echo_lines(cfg: Config, command: str) -> list[str]:
    """Comment lines embedding the resolved config, stable across runs."""
    lines = [f"gravsim {command}"]
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            lines.append(f"{section}.{key} = {_fmt(cfg[section][key])}")
    return lines


def _fmt(value: object) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15e}"
    return str(value)


def _parse_value(kind: str, raw: str, where: str) -> object:
    try:
        if kind == "autofloat" and raw.strip().lower() == "auto":
            return None
        if kind in ("float", "autofloat"):
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"not a finite number: {raw!r}")
            # The echo and the CSV files write 16 digits, and the two
            # doubles of each sign nearest the overflow round up past it.
            if not math.isfinite(float(_fmt(value))):
                raise ValueError(f"{raw!r} is written as {_fmt(value)}, "
                                 f"which reads back as inf")
            return value
        if kind == "int":
            return int(raw)
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered not in configparser.ConfigParser.BOOLEAN_STATES:
                raise ValueError(f"not a boolean: {raw!r}")
            return configparser.ConfigParser.BOOLEAN_STATES[lowered]
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _in_range(where: str, spec: tuple[Any, ...], value: Any) -> Any:
    """``value``, refused if its ``_SCHEMA`` spec bounds it and it lies outside."""
    _, _, *bounds = spec
    if bounds and not bounds[0] <= value <= bounds[1]:
        raise ConfigError(f"{where} = {value} must lie in [{bounds[0]}, {bounds[1]}]")
    return value


def load_config(path: str | None) -> Config:
    """Resolve the configuration: defaults, overlaid with the INI file.

    Unknown sections or keys are rejected with the known alternatives
    listed, and so is a value outside its key's range.  File paths
    referenced under ``[noise]`` must exist.
    """
    values: Config = {
        section: {key: spec[1] for key, spec in keys.items()}
        for section, keys in _SCHEMA.items()
    }
    if path is not None:
        config_path = Path(path)
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=("#",)
        )
        try:
            with config_path.open() as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            # Some of configparser's messages span lines; stderr gets one.
            raise ConfigError(f"{config_path}: {' '.join(str(exc).split())}") from exc
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
                where = f"{config_path}: [{section}] {key}"
                spec = _SCHEMA[section][key]
                values[section][key] = _in_range(
                    where, spec, _parse_value(spec[0], raw, where))
    for key in ("psd_file", "series_file"):
        file_ref = values["noise"][key]
        if file_ref and not Path(file_ref).is_file():
            raise DataFormatError(
                f"referenced {key} does not exist: {file_ref}"
            )
    return values


def _sequence_params(cfg: Config) -> SequenceParams:
    sequence = cfg["sequence"]
    try:
        return SequenceParams(
            t_interrogation=sequence["t_interrogation"],
            tau_p=sequence["tau_p"],
            phases=(sequence["phi1"], sequence["phi2"], sequence["phi3"]),
            k_eff=sequence["k_eff"],
        )
    except GravsimError as exc:
        raise ConfigError(f"[sequence] values invalid: {exc}") from exc


def _profile(cfg: Config) -> SensitivityProfile:
    from .noise import SensitivityProfile

    seq = _sequence_params(cfg)
    return SensitivityProfile(seq.t_interrogation, seq.tau_p)


def _write_summary(
    path: Path, cfg: Config, command: str, entries: list[tuple[str, object]]
) -> None:
    with path.open("w", newline="\n") as fh:
        for line in echo_lines(cfg, command):
            fh.write(f"# {line}\n")
        for key, value in entries:
            fh.write(f"{key}={_fmt(value)}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_rabi(cfg: Config, out_dir: Path) -> int:
    from . import twolevel

    rabi = _TWO_PI * cfg["pulse"]["rabi_hz"]
    detuning = _TWO_PI * cfg["pulse"]["detuning_hz"]
    if not (math.isfinite(rabi) and math.isfinite(detuning)):
        raise ConfigError(
            f"[pulse] rabi_hz = {cfg['pulse']['rabi_hz']} or detuning_hz = "
            f"{cfg['pulse']['detuning_hz']} overflows its angular rate 2 pi f"
        )
    n_points = cfg["pulse"]["n_points"]
    duration = cfg["pulse"]["duration"]
    if duration is None:
        if rabi <= 0.0:
            raise ConfigError(
                "[pulse] duration = auto needs rabi_hz > 0 "
                "(auto means one resonant inversion time pi/rabi)"
            )
        duration = math.pi / rabi
    interval = duration / (n_points - 1)
    if not 0.0 < interval < math.inf:
        raise ConfigError(
            f"[pulse] duration must be finite and > 0 over {n_points - 1} output "
            f"intervals, got {duration}"
        )
    omega_r = math.hypot(rabi, detuning)
    dt = cfg["pulse"]["oracle_dt"]
    if dt is None:
        dt = _TWO_PI / (200.0 * omega_r) if omega_r > 0.0 else duration / 200.0
    # np.linspace's arithmetic: i * interval, the last time exactly duration.
    times = array("d", (i * interval for i in range(n_points)))
    times[-1] = duration
    # The oracle sweeps the uniform grid once, sampled at each output time
    # after t = 0 (the ground state there).  A drive phase phi turns the
    # propagator into Z U Z^dag with Z diagonal and unitary, which leaves
    # |c_b|^2 from the ground state unchanged, so the pulse has none.
    oracle, n_steps = twolevel._excited_sweep(
        twolevel.PulseParams(rabi, detuning, interval), dt, n_points - 1)
    oracle.insert(0, 0.0)
    # Rabi's formula (rabi / omega_r)^2 sin^2(omega_r t / 2): |U_ba|^2 of the
    # closed-form propagator over [0, t], whose other factors have modulus
    # 1.  Zero at t = 0, and everywhere at rabi = 0.
    amplitude = rabi / omega_r if omega_r > 0.0 else 0.0
    closed = array("d", [0.0])
    closed.extend((amplitude * math.sin(omega_r * t / 2.0)) ** 2 for t in times[1:])
    discrepancy = max(abs(c - o) for c, o in zip(closed, oracle))
    _write_csv(
        out_dir / "rabi.csv",
        ["t", "p_excited_closed", "p_excited_oracle"],
        [times, closed, oracle],
        echo_lines(cfg, "rabi"),
    )
    _write_summary(
        out_dir / "rabi_summary.txt", cfg, "rabi",
        [
            ("max_discrepancy", discrepancy),
            ("oracle_steps", n_steps * (n_points - 1)),
            ("oracle_h", interval / n_steps),
        ],
    )
    return 0


def cmd_fringe(cfg: Config, out_dir: Path) -> int:
    from . import measurement, trajectory

    seq = _sequence_params(cfg)
    gravity = cfg["constants"]["gravity"]
    # Every point's phase holds the null chirp rate k_eff g and the laser
    # phase dphi_laser; either one overflowing leaves a fringe of NaN.
    if not math.isfinite(seq.k_eff * gravity):
        raise ConfigError(
            f"[constants] gravity = {gravity} overflows k_eff * gravity "
            f"at k_eff = {seq.k_eff}"
        )
    if not math.isfinite(seq.dphi_laser):
        raise ConfigError(
            f"[sequence] phi1 - 2 phi2 + phi3 overflows, got phases {seq.phases}"
        )
    center = cfg["scan"]["center"]
    if center is None:
        center = seq.k_eff * gravity
    n_atoms = cfg["scan"]["n_atoms"]
    try:
        betas = measurement.beta_grid(
            center=center,
            span_fringes=cfg["scan"]["span_fringes"],
            n_points=cfg["scan"]["n_points"],
            big_t=seq.t_interrogation,
        )
        # The phase is monotonic in beta, so the grid's ends bound it; on
        # Python floats an overflow gives inf without a numpy warning.
        for beta in betas[[0, -1]].tolist():
            phase = trajectory.chirped_phase(
                beta, seq.k_eff, gravity, seq.t_interrogation, seq.dphi_laser)
            if not math.isfinite(phase):
                raise ConfigError(
                    f"[scan] center = {center} overflows the fringe phase "
                    f"(beta - k_eff g) T^2 + dphi_laser at T = {seq.t_interrogation}"
                )
        scan = measurement.simulate_scan(
            betas,
            k_eff=seq.k_eff,
            g_true=gravity,
            big_t=seq.t_interrogation,
            dphi_laser=seq.dphi_laser,
            n_atoms=n_atoms,
            seed=cfg["io"]["seed"] if n_atoms > 0 else None,
        )
    except ValueError as exc:
        raise ConfigError(f"[scan] values invalid: {exc}") from exc
    except TimeOrderError as exc:
        raise ConfigError(f"[sequence] t_interrogation invalid: {exc}") from exc
    estimate = measurement.estimate_g(
        scan, k_eff=seq.k_eff, big_t=seq.t_interrogation, dphi_laser=seq.dphi_laser
    )
    _write_csv(
        out_dir / "fringe.csv",
        ["beta", "p_excited"],
        [scan.betas, scan.probabilities],
        echo_lines(cfg, "fringe"),
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


def cmd_allan(cfg: Config, out_dir: Path) -> int:
    """Allan deviation of ``[noise] series_file`` on a geometric tau grid.

    ``tau_min = auto`` is the sample interval dt, and ``tau_max = auto`` is
    a fifth of the series' span, but at least dt: on a series of 5 samples
    or fewer a fifth of the span falls below one sample, and the grid
    collapses to tau = dt instead of a range the user never set.
    """
    import logging

    import numpy as np

    from . import noise

    series_file = cfg["noise"]["series_file"]
    if not series_file:
        raise ConfigError("[noise] series_file is required for the allan command")
    series = noise.read_series_csv(series_file)
    tau_min = cfg["noise"]["tau_min"]
    tau_max = cfg["noise"]["tau_max"]
    if tau_min is None:
        tau_min = series.dt
    if tau_max is None:
        tau_max = max(series.duration / 5.0, series.dt)
    if not (0.0 < tau_min <= tau_max < math.inf):
        raise ConfigError(
            f"[noise] need 0 < tau_min <= tau_max < inf, got {tau_min}, {tau_max}"
        )
    # Near the largest double the grid's powers of ten can overflow.
    with np.errstate(over="ignore"):
        taus = np.geomspace(tau_min, tau_max, cfg["noise"]["n_tau"])
    if not np.isfinite(taus).all():
        raise ConfigError(f"[noise] tau_max = {tau_max} overflows the tau grid")
    estimator = (
        noise.allan_deviation_overlapping
        if cfg["noise"]["overlapping"]
        else noise.allan_deviation
    )
    # The omitted averaging times go to stderr, one plain line per reason.
    handler = logging.StreamHandler()
    handler.setLevel(logging.WARNING)
    noise.logger.addHandler(handler)
    try:
        result = estimator(series, taus.tolist())
    finally:
        noise.logger.removeHandler(handler)
    noise.write_allan_csv(
        out_dir / "allan.csv", result, comments=echo_lines(cfg, "allan")
    )
    return 0


def cmd_sensitivity(cfg: Config, out_dir: Path, three_segment_gs: bool) -> int:
    import numpy as np

    from . import noise

    profile = _profile(cfg)
    cycles_lo = cfg["sensitivity"]["transfer_min_cycles"]
    cycles_hi = cfg["sensitivity"]["transfer_max_cycles"]
    n_omega = cfg["sensitivity"]["transfer_points"]
    if not cycles_lo < cycles_hi:
        raise ConfigError(
            f"[sensitivity] transfer_min_cycles = {cycles_lo} must be below "
            f"transfer_max_cycles = {cycles_hi}"
        )
    # The grid's last omega, computed as the array below computes it.
    if not math.isfinite(_TWO_PI * cycles_hi / profile.big_t):
        raise ConfigError(
            f"[sensitivity] transfer_max_cycles = {cycles_hi} overflows the "
            f"omega grid at t_interrogation = {profile.big_t}"
        )
    # The flag is not part of the config, so the header names it.
    echo = echo_lines(
        cfg, "sensitivity --three-segment-gs" if three_segment_gs else "sensitivity")
    times = np.linspace(0.0, profile.span, cfg["sensitivity"]["n_time_points"])
    gs = noise.sensitivity_g(times, profile, three_segment=three_segment_gs)
    _write_csv(out_dir / "sensitivity_gs.csv", ["t", "g_s"], [times, gs], echo)
    omegas = (
        _TWO_PI * np.linspace(cycles_lo, cycles_hi, n_omega) / profile.big_t
    )
    mags = np.asarray(
        noise.transfer_function(omegas, profile, three_segment=three_segment_gs)
    )
    _write_csv(
        out_dir / "sensitivity_transfer.csv",
        ["omega_rad_per_s", "transfer_mag"], [omegas, mags], echo,
    )
    return 0


def cmd_psd_variance(cfg: Config, out_dir: Path) -> int:
    from . import noise

    psd_file = cfg["noise"]["psd_file"]
    if not psd_file:
        raise ConfigError("[noise] psd_file is required for the psd-variance command")
    psd = noise.read_psd_csv(psd_file)
    profile = _profile(cfg)
    result = noise.phase_variance_from_psd(
        psd, profile, allow_partial=cfg["noise"]["allow_partial"]
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

    def add(name: str, help_text: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file (default: "
                       f"${ENV_CONFIG} if set, else built-in defaults)")
        p.add_argument("--seed", type=int, help="override [io] seed")
        p.add_argument("--out", help="override [io] out_dir")
        p.set_defaults(run=run)
        return p

    # Each runner looks its cmd_* up when called, so a replaced module
    # attribute (a wrapper, a test double) is the one that runs.
    add("rabi", "single-pulse population dynamics, closed form vs ODE oracle",
        lambda cfg, out_dir, args: cmd_rabi(cfg, out_dir))
    add("fringe", "chirp-rate fringe scan and gravity estimate",
        lambda cfg, out_dir, args: cmd_fringe(cfg, out_dir))
    add("allan", "Allan deviation of a time-series CSV",
        lambda cfg, out_dir, args: cmd_allan(cfg, out_dir))
    p = add("sensitivity", "sensitivity-function and transfer-function tables",
            lambda cfg, out_dir, args: cmd_sensitivity(
                cfg, out_dir, three_segment_gs=args.three_segment_gs))
    p.add_argument(
        "--three-segment-gs", action="store_true",
        help="use the three-segment sensitivity variant (half-interval ramps, "
        "support (0, 2T)) instead of the default five-segment shape",
    )
    add("psd-variance", "phase variance from a phase-noise PSD",
        lambda cfg, out_dir, args: cmd_psd_variance(cfg, out_dir))
    return parser


def _run(args: argparse.Namespace) -> int:
    config_path = args.config or os.environ.get(ENV_CONFIG) or None
    cfg = load_config(config_path)
    if args.seed is not None:
        cfg["io"]["seed"] = _in_range("--seed: [io] seed", _SCHEMA["io"]["seed"],
                                      args.seed)
    if args.out is not None:
        cfg["io"]["out_dir"] = args.out
    out_dir = Path(cfg["io"]["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return args.run(cfg, out_dir, args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports its own diagnostics
        return int(exc.code or 0)
    try:
        return _run(args)
    except GravsimError as exc:  # each error class carries its code and label
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
