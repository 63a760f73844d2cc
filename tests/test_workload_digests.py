"""Digests of the benchmark's own paths: N = 5000, Student-t truth, the table1 grid.

``tests/test_golden.py`` pins ``run_single`` at N = 1, 2 and 500 on the
library scenario.  The benchmark in ``perfbench/`` builds its engagement
through the CLI config, whose defaults are that same library scenario bit
for bit, and runs other paths on it: N = 5000, Student-t ν = 3
measurements and a ``table1_experiment`` grid.  These tests build each
workload through ``load_config`` with the overrides of
``perfbench/workloads.py`` and hash the raw bytes of every report of its
first library call.  The digests were re-recorded when the knot defaults
became exact, on the change after commit 5a3af4d; like the golden
digests, they hold for the numpy build that recorded them.  The
``mc-std-n5000-t3`` and grid digests were re-recorded again on top of
commit 96f00aa, when the bootstrap init began returning its estimate as
``weights @ states``: only the bootstrap runs' scan-1 estimates and errors
moved (by at most 1.8e-11 m), and every grid cell is bit-identical.
Both were re-recorded once more when the bootstrap estimates became
``w @ states`` on the column-major set and the bearing likelihood began
subtracting the nearest whole number of turns from its residual:
``mc-std-n5000-t3`` 500a890c90d71b56 -> 35e1a100164bbcd9 and the grid
bbe1d61601758ff8 -> b6f0a09d6bd44e94.  Only bootstrap reports moved;
``mc-poss-n5000`` held.
"""

import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from posspf import bench
from posspf.config import load_config

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workload_overrides(name: str) -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    # Registered first: its dataclasses look their module up in sys.modules.
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return list(module.WORKLOADS[name].overrides)


def reports_digest(reports) -> str:
    digest = hashlib.sha256()
    for r in reports:
        digest.update(f"{r.seed} {r.filter_kind} {r.particles} {int(r.divergent)} {int(r.collapsed)}\n".encode())
        digest.update(r.pos_errors.tobytes())
        digest.update(r.estimate_track.tobytes())
    return digest.hexdigest()[:16]


# workload -> digest of the reports of its first run_batch call.
FIRST_BATCH = {
    "mc-poss-n5000": "5a7fcaffecb6aef8",
    "mc-std-n5000-t3": "35e1a100164bbcd9",
}

# Digest of every report of one serial table1 call, in run_batch call order,
# and of its cells.
GRID = "b6f0a09d6bd44e94"


@pytest.mark.parametrize("name", list(FIRST_BATCH))
def test_first_batch_of_serial_workload_is_bit_identical(name):
    cfg = load_config(None, _workload_overrides(name))
    batch = bench.run_batch(
        cfg.scenario(), cfg.filter_kind(), cfg.particles(), cfg.runs(), cfg.base_seed(),
        1, cfg.prior(), cfg.filter_options(),
    )
    assert len(batch.reports) == cfg.runs()
    assert reports_digest(batch.reports) == FIRST_BATCH[name]


def test_serial_table1_call_of_grid_workload_is_bit_identical(monkeypatch):
    cfg = load_config(None, _workload_overrides("grid-n500-par2"))
    batches = []
    original = bench.run_batch

    def capture(*args, **kwargs):
        batches.append(original(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(bench, "run_batch", capture)
    cells = bench.table1_experiment(
        cfg.scenario(), cfg.n_grid(), cfg.nu_grid(), cfg.runs(), cfg.base_seed(),
        1, cfg.prior(), cfg.filter_options(),
    )
    assert len(batches) == len(cells) == 2 * len(cfg.n_grid()) * len(cfg.nu_grid())
    digest = hashlib.sha256(reports_digest([r for b in batches for r in b.reports]).encode())
    for cell in cells:
        digest.update(repr(dataclasses.astuple(cell)).encode())
    assert digest.hexdigest()[:16] == GRID
