"""Import hygiene: the library and its default runs load no scipy.

Importing scipy costs more than the rest of a run's set-up together, and
every Monte Carlo batch starts in a fresh process.  Only the max-entropy
proposal needs it, for four functions from ``scipy.special``: ``chdtrc``
and ``chdtri`` in its sampler, ``gammaincc`` and ``gammainccinv`` for its
water level.
Each check runs in a fresh interpreter, because this test process has
long since imported scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RUN_AND_LIST_SCIPY = """
import json, sys
import posspf, posspf.config, posspf.cli
from posspf.config import load_config

for overrides in {runs}:
    cfg = load_config(None, ["filter.particles=50", "scenario.scans=12", "scenario.observer_leg_scans=3", *overrides])
    posspf.run_single(cfg.scenario(), cfg.filter_kind(), cfg.particles(), 1, cfg.prior(), cfg.filter_options())
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(runs) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST_SCIPY.format(runs=runs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_and_default_runs_load_no_scipy():
    loaded = scipy_modules_after([["filter.kind=possibility", "filter.proposal=density"], ["filter.kind=standard"]])
    assert loaded == set()


def test_max_entropy_loads_scipy_special_and_not_stats():
    loaded = scipy_modules_after([["filter.kind=possibility", "filter.proposal=max-entropy"]])
    assert "scipy.special" in loaded
    assert not any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in loaded)
