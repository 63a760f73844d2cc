"""Schema of the checked-in benchmark records, ``BENCH_*.json``.

Each file holds records of one harness command, one record per source
tree, taken on the same host.  A record keeps, for every workload that
``BENCHMARK.json`` declares, the ``env`` line and the last JSON line of
``perfbench/run.py --trace 0`` and of ``--trace 1``.  Only the names and
the structure are checked here, never a timing.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_at_least_one_record_file_is_checked_in():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_record_carries_every_declared_metric(path):
    bench = json.loads(path.read_text())
    assert bench["records"]
    workloads = [w["name"] for w in DECLARED["workloads"]]
    for record in bench["records"]:
        assert record["label"] and record["commit"]
        assert set(record["runs"]) == set(workloads)
        for name in workloads:
            for trace, declared in (("trace0", "end_to_end"), ("trace1", "per_layer")):
                run = record["runs"][name][trace]
                assert run["env"]["seed"] == bench["seed"]
                assert run["result"]["correct"] is True
                metrics = run["result"]["metrics"]
                for metric in DECLARED[declared]:
                    assert metrics[metric["name"]]["unit"] == metric["unit"], (record["label"], name, metric)
