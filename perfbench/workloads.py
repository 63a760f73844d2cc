"""The benchmark's workloads and their set-up.

Each workload is a list of ``load_config`` overrides on the canonical
scenario plus the size of one library call ("batch"): a serial workload
calls ``run_batch`` on a few seeds at a time, the grid workload calls
``table1_experiment`` once per batch.  Batch ``b`` uses the seeds
``base_seed + b * batch_runs ...``, so a run is fixed by the base seed.

This module imports nothing from ``posspf`` at import time: ``setup``
does, so that set-up time covers the import.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 20240501
# Warm-up runs use a seed this far past the base seed, outside every pass.
WARMUP_OFFSET = 10**6


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]
    grid: bool          # table1_experiment batches instead of run_batch batches
    block_batches: int  # batches in the fixed seed block of traced runs and digests


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Water pouring and categorical sampling dominate: where possq work shows.
        Workload(
            "mc-poss-n5000",
            ("filter.kind=possibility", "filter.particles=5000", "experiment.runs=5",
             "experiment.parallelism=1"),
            grid=False,
            block_batches=6,
        ),
        # No possq calls: the predicted no-change workload for possq work.
        Workload(
            "mc-std-n5000-t3",
            ("filter.kind=standard", "filter.particles=5000", "experiment.runs=10",
             "scenario.noise=student-t", "scenario.noise_dof=3", "experiment.parallelism=1"),
            grid=False,
            block_batches=8,
        ),
        # Small N: per-scan Python cost and per-cell pool start dominate.
        Workload(
            "grid-n500-par2",
            ("experiment.n_grid=500", "experiment.nu_grid=3, inf", "experiment.runs=25",
             "experiment.parallelism=2"),
            grid=True,
            block_batches=2,
        ),
    )
}


def import_posspf():
    """Import ``posspf`` from this checkout's ``src``, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    posspf = importlib.import_module("posspf")
    if os.path.dirname(os.path.dirname(os.path.abspath(posspf.__file__))) != SRC:
        raise ImportError(f"posspf imported from {posspf.__file__}, not from {SRC}")
    importlib.import_module("posspf.config")
    return posspf


@dataclass(frozen=True)
class Setup:
    """Everything a pass needs, built from one workload and base seed."""

    workload: Workload
    base_seed: int
    scenario: object
    prior: object
    options: object
    filter_kind: str
    particles: int
    batch_runs: int
    parallelism: int
    n_grid: tuple[int, ...]
    nu_grid: tuple[float, ...]

    @property
    def filter_kinds(self) -> tuple[str, ...]:
        return ("standard", "possibility") if self.workload.grid else (self.filter_kind,)

    @property
    def runs_per_batch(self) -> int:
        if self.workload.grid:
            return self.batch_runs * len(self.filter_kinds) * len(self.n_grid) * len(self.nu_grid)
        return self.batch_runs

    def batch_seed(self, batch: int) -> int:
        return self.base_seed + batch * self.batch_runs


def setup(name: str, seed: int) -> Setup:
    """Import posspf, load the workload's config and build its inputs."""
    workload = WORKLOADS[name]
    posspf = import_posspf()
    cfg = posspf.config.load_config(None, [*workload.overrides, f"experiment.base_seed={seed}"])
    parallelism = cfg.parallelism()
    cores = len(os.sched_getaffinity(0))
    if parallelism > cores:
        raise SystemExit(f"{name}: parallelism {parallelism} exceeds the {cores} usable cores")
    return Setup(
        workload=workload,
        base_seed=cfg.base_seed(),
        scenario=cfg.scenario(),
        prior=cfg.prior(),
        options=cfg.filter_options(),
        filter_kind=cfg.filter_kind(),
        particles=cfg.particles(),
        batch_runs=cfg.runs(),
        parallelism=parallelism,
        n_grid=tuple(cfg.n_grid()),
        nu_grid=tuple(cfg.nu_grid()),
    )
