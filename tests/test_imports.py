"""Import hygiene: set-up loads only what it runs.

Every Monte Carlo batch and every benchmark probe starts in a fresh
interpreter, so what ``import posspf`` and set-up load is paid on every
command.  Set-up (importing posspf, loading a config and building the
scenario, prior and filter options) loads none of the modules below; each
loads on the first call that needs it:

- scipy, about as costly as the rest of set-up together, only for the
  max-entropy proposal, which needs four functions from ``scipy.special``:
  ``chdtrc`` and ``chdtri`` in its sampler, ``gammaincc`` and
  ``gammainccinv`` for its water level;
- the process pool (``concurrent.futures`` and ``multiprocessing``) only
  when a batch starts more than one worker;
- ``hashlib`` only for ``Config.hash``, and ``configparser`` only for a
  config file.

Each check runs in a fresh interpreter, because this test process has
long since imported all of these through other tests.
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

# Set-up, then the three deferred imports on their first use.
SET_UP_THEN_LIST_DEFERRED = """
import json, sys
import posspf, posspf.config
from posspf.config import load_config

cfg = load_config(None, [])
cfg.scenario(), cfg.prior(), cfg.filter_options()
deferred = {"scipy", "concurrent", "multiprocessing", "hashlib", "configparser"}
loaded = sorted(m for m in sys.modules if m.split(".")[0] in deferred)

import os, tempfile
assert len(cfg.hash()) == 12
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "posspf.ini")
    with open(path, "w") as fh:
        fh.write("[filter]\\nparticles = 50\\n")
    assert load_config(path).particles() == 50
small = load_config(None, ["scenario.scans=12", "scenario.observer_leg_scans=3"])
pooled, serial = (posspf.run_batch(small.scenario(), "standard", 50, 2, 1, parallelism=p) for p in (2, 1))
assert [r.pos_errors.tolist() for r in pooled.reports] == [r.pos_errors.tolist() for r in serial.reports]
assert ("concurrent.futures.process" in sys.modules) == (len(os.sched_getaffinity(0)) > 1)
print(json.dumps(loaded))
"""


def last_line_in_fresh_interpreter(code: str):
    """Run ``code`` in a fresh interpreter on this checkout's ``src``; its last printed line, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def scipy_modules_after(runs) -> set[str]:
    return set(last_line_in_fresh_interpreter(RUN_AND_LIST_SCIPY.format(runs=runs)))


def test_import_and_default_runs_load_no_scipy():
    loaded = scipy_modules_after([["filter.kind=possibility", "filter.proposal=density"], ["filter.kind=standard"]])
    assert loaded == set()


def test_max_entropy_loads_scipy_special_and_not_stats():
    loaded = scipy_modules_after([["filter.kind=possibility", "filter.proposal=max-entropy"]])
    assert "scipy.special" in loaded
    assert not any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in loaded)


def test_set_up_loads_no_pool_hashlib_or_configparser_until_used():
    assert last_line_in_fresh_interpreter(SET_UP_THEN_LIST_DEFERRED) == []
