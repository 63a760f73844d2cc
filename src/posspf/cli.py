"""Command-line front end: run experiments and emit CSV results.

Commands
--------
run     Monte Carlo batch of one filter; writes rms.csv and runs.csv
        (only runs.csv, with exit code 1, when every run diverges).
table1  Divergence-percentage grid over particle counts and Student-t
        tails for both filters; writes table1.csv.
crlb    Position-bound reference curve; writes crlb.csv.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.  Every
config key is checked against its domain when the config loads, so any
bad value exits 2 naming ``[section] key`` before a command starts, even
a key the command does not read; run and table1 also reject
process_noise = 0, which only crlb accepts.  A bound curve that is not
finite at some scan exits 1 and writes no CSV.  Outputs are byte-identical
across repeated invocations with the same config.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .bench import run_batch, scenario_crlb, table1_experiment
from .config import Config, ConfigError, load_config
from .tma import CrlbResult


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf"
        return f"{value:.10g}"
    return str(value)


def _write_csv(path: str, meta: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {meta}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _meta(cfg: Config) -> str:
    return f"config_hash={cfg.hash()} seed={cfg.base_seed()} version={__version__}"


def _finite_crlb(scenario, prior) -> CrlbResult:
    """The scenario's bound curve; a non-finite scan is a runtime failure."""
    result = scenario_crlb(scenario, prior)
    bad = [k + 1 for k, b in enumerate(result.position_bound) if not math.isfinite(b)]
    if bad:
        raise RuntimeError(
            f"position bound is not finite at scan {bad[0]} ({len(bad)} of "
            f"{scenario.scan_count} scans); no CSV written"
        )
    return result


def cmd_run(cfg: Config) -> int:
    scenario = cfg.scenario(filtering=True)
    batch_args = (
        scenario,
        cfg.filter_kind(),
        cfg.particles(),
        cfg.runs(),
        cfg.base_seed(),
        cfg.parallelism(),
        cfg.prior(),
        cfg.filter_options(),
    )
    # A bound that is not finite fails the command: find out before the batch
    # runs, but after every key has been checked.
    bound = _finite_crlb(scenario, cfg.prior()).position_bound
    batch = run_batch(*batch_args)
    outdir = cfg.output_directory()
    os.makedirs(outdir, exist_ok=True)
    meta = _meta(cfg)

    _write_csv(
        os.path.join(outdir, "runs.csv"),
        meta,
        ["run", "seed", "final_err_m", "divergent"],
        (
            (i, r.seed, float(r.pos_errors[-1]), int(r.divergent))
            for i, r in enumerate(batch.reports)
        ),
    )
    if batch.n_alive == 0:
        # The RMS curve averages over converged runs only; with none it is undefined.
        print(f"error: all {batch.n_runs} runs diverged; rms.csv not written", file=sys.stderr)
        return 1
    _write_csv(
        os.path.join(outdir, "rms.csv"),
        meta,
        ["scan", "time_s", "rms_m", "crlb_m", "n_alive_runs"],
        (
            (k + 1, k * scenario.T, float(batch.rms_m[k]), float(bound[k]), batch.n_alive)
            for k in range(scenario.scan_count)
        ),
    )
    print(
        f"{cfg.filter_kind()} n={cfg.particles()} runs={batch.n_runs}: "
        f"divergent {batch.divergence_pct:.1f}% "
        f"[{batch.wilson_lo_pct:.1f}, {batch.wilson_hi_pct:.1f}]; "
        f"final RMS {batch.rms_m[-1]:.1f} m over {batch.n_alive} runs"
    )
    return 0


def cmd_table1(cfg: Config) -> int:
    scenario = cfg.scenario(filtering=True)
    cells = table1_experiment(
        scenario,
        cfg.n_grid(),
        cfg.nu_grid(),
        cfg.runs(),
        cfg.base_seed(),
        cfg.parallelism(),
        cfg.prior(),
        cfg.filter_options(),
    )
    outdir = cfg.output_directory()
    os.makedirs(outdir, exist_ok=True)
    _write_csv(
        os.path.join(outdir, "table1.csv"),
        _meta(cfg),
        ["filter", "n", "nu", "runs", "divergent_pct", "wilson_lo", "wilson_hi"],
        (
            (
                c.filter_kind,
                c.n,
                c.nu,
                c.runs,
                c.divergent_pct,
                c.wilson_lo_pct,
                c.wilson_hi_pct,
            )
            for c in cells
        ),
    )
    for c in cells:
        print(
            f"{c.filter_kind:11s} n={c.n:<6d} nu={_fmt(c.nu):>4s}: "
            f"{c.divergent_pct:5.1f}% [{c.wilson_lo_pct:.1f}, {c.wilson_hi_pct:.1f}]"
        )
    return 0


def cmd_crlb(cfg: Config) -> int:
    scenario = cfg.scenario()
    result = _finite_crlb(scenario, cfg.prior())
    outdir = cfg.output_directory()
    os.makedirs(outdir, exist_ok=True)
    _write_csv(
        os.path.join(outdir, "crlb.csv"),
        _meta(cfg),
        ["scan", "time_s", "pos_bound_m"],
        (
            (k + 1, k * scenario.T, float(result.position_bound[k]))
            for k in range(scenario.scan_count)
        ),
    )
    print(f"crlb: scan 1 {result.position_bound[0]:.1f} m, final {result.position_bound[-1]:.1f} m")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posspf",
        description="Bearings-only tracking benchmark: possibility vs standard particle filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "Monte Carlo batch of one filter; writes rms.csv and runs.csv"),
        ("table1", "divergence grid over N and Student-t nu; writes table1.csv"),
        ("crlb", "position-bound reference curve; writes crlb.csv"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", default=None, help="config file (INI); defaults apply if omitted")
        cmd.add_argument(
            "--set",
            dest="overrides",
            metavar="SECTION.KEY=VALUE",
            action="append",
            default=[],
            help="override a single config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "table1":
            return cmd_table1(cfg)
        return cmd_crlb(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
