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
a key the command does not read, and counts beyond their budgets.
``main`` computes the position bound along the target's nominal track,
``scenario_crlb``, before any command starts; it raises when the bound is
not finite at some scan, so that case exits 1 and writes no CSV, on every
command.  Outputs are byte-identical across repeated invocations with the
same config.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import __version__
from .bench import run_batch, scenario_crlb, table1_experiment
from .config import Config, ConfigError, load_config


def _fmt(value) -> str:
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def _write_csv(cfg: Config, name: str, header: list[str], rows) -> None:
    """Write ``name`` into the output directory (made on first write) under the metadata line."""
    outdir = cfg.output_directory()
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={cfg.hash()} seed={cfg.base_seed()} version={__version__}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_run(cfg: Config, scenario, prior, bound) -> int:
    batch = run_batch(
        scenario,
        cfg.filter_kind(),
        cfg.particles(),
        cfg.runs(),
        cfg.base_seed(),
        cfg.parallelism(),
        prior,
        cfg.filter_options(),
    )
    _write_csv(
        cfg, "runs.csv", ["run", "seed", "final_err_m", "divergent"],
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
        cfg, "rms.csv", ["scan", "time_s", "rms_m", "crlb_m", "n_alive_runs"],
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


def cmd_table1(cfg: Config, scenario, prior, bound) -> int:
    cells = table1_experiment(
        scenario,
        cfg.n_grid(),
        cfg.nu_grid(),
        cfg.runs(),
        cfg.base_seed(),
        cfg.parallelism(),
        prior,
        cfg.filter_options(),
    )
    _write_csv(
        cfg, "table1.csv", ["filter", "n", "nu", "runs", "divergent_pct", "wilson_lo", "wilson_hi"],
        map(dataclasses.astuple, cells),  # the field order is the column order
    )
    for c in cells:
        print(
            f"{c.filter_kind:11s} n={c.n:<6d} nu={_fmt(c.nu):>4s}: "
            f"{c.divergent_pct:5.1f}% [{c.wilson_lo_pct:.1f}, {c.wilson_hi_pct:.1f}]"
        )
    return 0


def cmd_crlb(cfg: Config, scenario, prior, bound) -> int:
    _write_csv(
        cfg, "crlb.csv", ["scan", "time_s", "pos_bound_m"],
        ((k + 1, k * scenario.T, float(bound[k])) for k in range(scenario.scan_count)),
    )
    print(f"crlb: scan 1 {bound[0]:.1f} m, final {bound[-1]:.1f} m")
    return 0


# Command name -> (function, help text): the parser and the dispatch both read it.
COMMANDS = {
    "run": (cmd_run, "Monte Carlo batch of one filter; writes rms.csv and runs.csv"),
    "table1": (cmd_table1, "divergence grid over N and Student-t nu; writes table1.csv"),
    "crlb": (cmd_crlb, "position-bound reference curve; writes crlb.csv"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posspf",
        description="Bearings-only tracking benchmark: possibility vs standard particle filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
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
        # Scenario, prior, then bound, for every command before it runs or writes anything.
        scenario = cfg.scenario()
        prior = cfg.prior()
        return COMMANDS[args.command][0](cfg, scenario, prior, scenario_crlb(scenario, prior))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
