"""Run every workload untraced and traced, and print every metric with its unit.

    python3 perfbench/report.py [--seed 20240501] [--seconds 30]

Runs one workload at a time, each in a fresh interpreter, and prints one
table: end-to-end metrics, the outcome lines (divergence, final RMS,
failed runs, digests), then the per-layer metrics of the traced runs.
Exits 1 if any run fails its output checks.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(name, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    outcomes = json.loads(next(line for line in lines if line.startswith("outcomes "))[len("outcomes "):])
    failures = [line for line in lines if line.startswith("FAIL ")]
    return result, outcomes, failures


def table(title, columns):
    """Print rows of ``{workload: {metric: {"value", "unit"}}}`` side by side."""
    names = list(dict.fromkeys(m for col in columns.values() for m in col))
    print(f"\n{title}")
    print(f"{'metric':52s} {'unit':7s} " + " ".join(f"{w:>18s}" for w in columns))
    for m in names:
        unit = next(col[m]["unit"] for col in columns.values() if m in col)
        cells = []
        for col in columns.values():
            value = col.get(m, {}).get("value", "-")
            cells.append(f"{value:>18.6g}" if isinstance(value, (int, float)) else f"{value:>18s}")
        print(f"{m:52s} {unit:7s} " + " ".join(cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    ok = True
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per-layer (traced, fixed seed block)")):
        metrics, outcomes = {}, {}
        for name in workloads.WORKLOADS:
            result, outcomes[name], failures = run(name, args.seed, args.seconds, trace)
            metrics[name] = result["metrics"]
            for line in failures:
                print(f"{name}: {line}")
            ok = ok and result["correct"]
            outcomes[name]["attempted"] = {"value": result["attempted"], "unit": "count"}
            outcomes[name]["failed"] = {"value": result["failed"], "unit": "count"}
        table(title, metrics)
        table(f"outcomes, {title}", outcomes)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
