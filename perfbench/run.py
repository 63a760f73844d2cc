"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload mc-poss-n5000 --seed 20240501 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
several fresh interpreters), then a closed loop of library calls for
``--seconds`` seconds with one timer around ``run_single``.  ``--trace 1``
measures the per-layer metrics on a fixed seed block instead, so that call
counts and digests repeat exactly: an untraced pass, a traced pass with
every binding of ``tracer.BINDINGS`` wrapped, and for a pooled workload a
pooled pass.  Every report is checked, failing runs are listed, and the
last line of standard output is the result.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    # numpy's OpenBLAS starts one thread per core when it loads; every
    # process of the benchmark is single-threaded, so pin it before import.
    for var in THREAD_VARS:
        os.environ[var] = "1"

import argparse
import hashlib
import inspect
import json
import math
import multiprocessing
import platform
import resource
import statistics
import subprocess
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

import tracer as tr
import workloads

SETUP_PROBES = 5
MIN_TIMED_RUNS = 100  # so that at least ten runs lie beyond run_ms_p90
DIVERGENCE_M = 1000.0
HERE = os.path.dirname(os.path.abspath(__file__))


# -- wrappers used by untraced passes ------------------------------------------

def capture_batches(calls, original):
    """Record each ``run_batch`` call's arguments and result."""
    signature = inspect.signature(original)

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((signature.bind(*args, **kwargs).arguments, result))
        return result

    return capture


def time_runs(queue, original):
    """Send each ``run_single`` call's duration to ``queue``.

    Pool workers are forked after the patch, so they inherit it and the
    queue; the count check in ``end_to_end`` catches a start method that
    does not.
    """

    def timed(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        queue.put(perf_counter() - start)
        return result

    return timed


# -- passes --------------------------------------------------------------------

@contextmanager
def on_cpu(index):
    """Pin this process to one usable CPU, round robin.

    On a shared host each vCPU slows down and speeds up on its own, every few
    seconds.  Serial passes move to the next CPU at every batch, so that one
    run samples all of them instead of whichever it landed on.
    """
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[index % len(usable)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, usable)


@dataclass
class Batch:
    index: int
    calls: list                 # captured (arguments, BatchResult) pairs
    cells: list | None = None   # table1 cells of a grid batch
    error: str | None = None


@dataclass
class Pass:
    wall_s: float
    batches: list[Batch]
    run_s: list[float] = field(default_factory=list)   # duration of each run_single call


def warm_up(s, bench):
    """One untimed run per filter kind on a seed outside every pass."""
    n = s.n_grid[0] if s.workload.grid else s.particles
    for kind in s.filter_kinds:
        bench.run_single(s.scenario, kind, n, s.base_seed + workloads.WARMUP_OFFSET, s.prior, s.options)


def call_batch(s, bench, index, parallelism):
    seed = s.batch_seed(index)
    if s.workload.grid:
        return bench.table1_experiment(s.scenario, s.n_grid, s.nu_grid, s.batch_runs, seed,
                                       parallelism, s.prior, s.options)
    bench.run_batch(s.scenario, s.filter_kind, s.particles, s.batch_runs, seed, 1, s.prior, s.options)
    return None


def run_pass(s, bench, parallelism, min_batches, seconds=0.0, timed=False, tracer=None):
    """Closed loop of batches until ``seconds`` pass and ``min_batches`` are done."""
    warm_up(s, bench)
    calls: list = []
    queue = multiprocessing.SimpleQueue() if timed else None
    replacements = [(bench, "run_batch", partial(capture_batches, calls))]
    if timed:
        replacements.append((bench, "run_single", partial(time_runs, queue)))
    batches, run_s = [], []
    with tr.patched(replacements), tracer.installed() if tracer else nullcontext():
        start = perf_counter()
        while len(batches) < min_batches or perf_counter() - start < seconds:
            first = len(calls)
            cells, error = None, None
            try:
                with on_cpu(len(batches)) if parallelism == 1 else nullcontext():
                    cells = call_batch(s, bench, len(batches), parallelism)
            except Exception as exc:  # a raising library call is a failed batch, listed below
                error = f"{type(exc).__name__}: {exc}"
            batches.append(Batch(len(batches), calls[first:], cells, error))
            while timed and not queue.empty():
                run_s.append(queue.get())
        wall_s = perf_counter() - start
    if queue is not None:
        queue.close()
    return Pass(wall_s=wall_s, batches=batches, run_s=run_s)


# -- output checks ---------------------------------------------------------------

def report_problem(report, kind, particles, seed, scans):
    """Why a run's report is wrong, or None."""
    if (report.seed, report.filter_kind, report.particles) != (seed, kind, particles):
        return f"report is for seed {report.seed} {report.filter_kind} n={report.particles}"
    errors = np.asarray(report.pos_errors)
    if errors.shape != (scans,):
        return f"pos_errors shape {errors.shape}, expected ({scans},)"
    if not report.collapsed and not np.all(np.isfinite(errors)):
        return "non-finite position error in a run that did not collapse"
    if math.isnan(errors[-1]):
        return "NaN final error"
    if report.divergent != (report.collapsed or errors[-1] > DIVERGENCE_M):
        return f"divergent={report.divergent} but final error {errors[-1]!r} m, collapsed={report.collapsed}"
    return None


def batch_problem(s, result, cell):
    """Why a run_batch result (and its table1 cell) is inconsistent, or None."""
    if len(result.reports) != s.batch_runs:
        return f"{len(result.reports)} reports, expected {s.batch_runs}"
    if result.n_divergent != sum(r.divergent for r in result.reports):
        return "n_divergent disagrees with the reports' flags"
    if cell is not None and cell.divergent_pct != result.divergence_pct:
        return "table1 cell disagrees with its batch"
    return None


def expected_calls(s):
    """(filter kind, particle count) of each run_batch call one batch makes."""
    if s.workload.grid:
        return [(kind, n) for kind in s.filter_kinds for n in s.n_grid for _ in s.nu_grid]
    return [(s.filter_kind, s.particles)]


@dataclass
class Checked:
    attempted: int = 0
    reports: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0


def check_pass(s, p: Pass, checked: Checked | None = None) -> Checked:
    """Check every report of a pass; a run that raised or is wrong counts as failed."""
    checked = checked or Checked()
    scans = s.scenario.scan_count
    expected = expected_calls(s)
    for batch in p.batches:
        seed = s.batch_seed(batch.index)
        checked.attempted += s.runs_per_batch
        if batch.error is None and len(batch.calls) != len(expected):
            batch.error = f"{len(batch.calls)} run_batch calls, expected {len(expected)}"
        if batch.error is not None:
            checked.failed += s.runs_per_batch
            checked.failures.append(f"batch seeds {seed}..{seed + s.batch_runs - 1}: {batch.error}")
            continue
        for i, ((args, result), (kind, n)) in enumerate(zip(batch.calls, expected)):
            reports = result.reports
            label = f"{kind} n={n} nu={args['scenario'].true_noise.nu}"
            problem = batch_problem(s, result, batch.cells[i] if batch.cells else None)
            if problem is not None:
                checked.failed += s.batch_runs
                checked.failures.append(f"batch seeds {seed}..{seed + s.batch_runs - 1} {label}: {problem}")
            else:
                for j, r in enumerate(reports):
                    problem = report_problem(r, kind, n, seed + j, scans)
                    if problem is not None:
                        checked.failed += 1
                        checked.failures.append(f"seed {seed + j} {label}: {problem}")
            checked.reports.extend(reports)
    return checked


def block_reports(s, p: Pass):
    """Reports of the fixed seed block: the first ``block_batches`` batches."""
    return [r for batch in p.batches[: s.workload.block_batches]
            for _, result in batch.calls for r in result.reports]


def digest(reports) -> str:
    """Hash of each run's seed, filter, final error and divergent flag, in order."""
    h = hashlib.sha256()
    for r in reports:
        h.update(f"{r.seed} {r.filter_kind} {r.particles} {float(r.pos_errors[-1]).hex()} {int(r.divergent)}\n".encode())
    return h.hexdigest()[:16]


def divergence_pct(reports) -> float:
    return 100.0 * sum(r.divergent for r in reports) / len(reports)


def outcomes(reports, grid):
    """Run count, divergence and (serial workloads) final RMS error of non-divergent runs."""
    final = np.array([float(r.pos_errors[-1]) for r in reports])
    divergent = np.array([r.divergent for r in reports], dtype=bool)
    out = {"runs": (len(reports), "count"), "divergence_pct": (divergence_pct(reports), "%")}
    if not grid and (~divergent).any():
        out["final_rms_m"] = (float(np.sqrt(np.mean(final[~divergent] ** 2))), "m")
    return out


# -- environment and set-up --------------------------------------------------------

def environment(seed, loadavg):
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": loadavg,
        "seed": seed,
    }


def setup_seconds(name, seed) -> float:
    """Median set-up time over fresh interpreters, run one at a time."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, name, str(seed)], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- the two kinds of run ----------------------------------------------------------

def end_to_end(name, seed, seconds):
    s = workloads.setup(name, seed)
    bench = sys.modules["posspf.bench"]
    setup_s = setup_seconds(name, seed)
    min_batches = max(s.workload.block_batches, math.ceil(MIN_TIMED_RUNS / s.runs_per_batch))
    timed = run_pass(s, bench, s.parallelism, min_batches, seconds=seconds, timed=True)
    checked = check_pass(s, timed)
    if not timed.run_s:
        raise SystemExit("no run completed: " + "; ".join(checked.failures[:5]))
    problems = []
    if not any(b.error for b in timed.batches) and len(timed.run_s) != len(checked.reports):
        problems.append(f"{len(timed.run_s)} run timings for {len(checked.reports)} runs")
    if not s.workload.grid and timed.batches[0].error is None:
        first = timed.batches[0].calls[0][1].reports[0]
        again = bench.run_single(s.scenario, s.filter_kind, s.particles, first.seed, s.prior, s.options)
        if not np.array_equal(again.pos_errors, first.pos_errors, equal_nan=True):
            problems.append(f"re-running seed {first.seed} changed its pos_errors")
    run_ms = np.array(timed.run_s) * 1e3
    metrics = {
        "setup_s": (setup_s, "s"),
        "runs_per_s": (len(run_ms) / timed.wall_s, "1/s"),
        "run_ms_p50": (float(np.percentile(run_ms, 50)), "ms"),
        "run_ms_p90": (float(np.percentile(run_ms, 90)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = outcomes(checked.reports, s.workload.grid)
    info["failed_pct"] = (100.0 * checked.failed / checked.attempted, "%")
    info["batches"] = (len(timed.batches), "count")
    info["block_digest"] = (digest(block_reports(s, timed)), "sha256")
    return checked, problems, metrics, info


def per_layer(name, seed):
    workloads.import_posspf()
    bench = sys.modules["posspf.bench"]
    tracer = tr.Tracer()
    start = perf_counter()
    with tracer.installed():
        s = workloads.setup(name, seed)
    setup_wall = perf_counter() - start
    block = s.workload.block_batches
    untraced = run_pass(s, bench, 1, block)
    traced = run_pass(s, bench, 1, block, tracer=tracer)
    passes = {"untraced": untraced, "traced": traced}
    if s.parallelism > 1:
        passes["pooled"] = run_pass(s, bench, s.parallelism, block)
    checked = Checked()
    for p in passes.values():
        check_pass(s, p, checked)
    digests = {label: digest(block_reports(s, p)) for label, p in passes.items()}
    problems = [] if len(set(digests.values())) == 1 else [f"digests differ between passes: {digests}"]

    runs = len(block_reports(s, traced))
    metrics = tracer.layer_metrics(traced.wall_s + setup_wall)
    reference = passes.get("pooled", untraced)
    metrics["bench.parallel_efficiency"] = (
        (runs / reference.wall_s) / (s.parallelism * runs / traced.wall_s), "ratio")
    metrics["bench.divergence_pct"] = (divergence_pct(block_reports(s, traced)), "%")
    metrics["trace_overhead_pct"] = (100.0 * (traced.wall_s / untraced.wall_s - 1.0), "%")
    info = {f"digest_{label}": (d, "sha256") for label, d in digests.items()}
    info["failed_pct"] = (100.0 * checked.failed / checked.attempted, "%")
    return checked, problems, metrics, info


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.trace:
        checked, problems, metrics, info = per_layer(args.workload, args.seed)
    else:
        checked, problems, metrics, info = end_to_end(args.workload, args.seed, args.seconds)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed, loadavg)))
    for line in checked.failures + problems:
        print("FAIL " + line)
    print("outcomes " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in info.items()}))
    result = {
        "correct": checked.failed == 0 and not problems,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
