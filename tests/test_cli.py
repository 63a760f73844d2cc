"""Tests for the command-line front end and its CSV contract."""

import ast
import contextlib
import hashlib
import importlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from posspf.bench import Scenario, run_batch, scenario_crlb
from posspf.cli import main
from posspf.config import DEGREE, KEYS, KNOT, PARSERS, ConfigError, load_config
from posspf.filters import PossibilityPFOptions
from posspf.tma import PriorConfig, init_prior, prior_spread

ROOT = Path(__file__).resolve().parent.parent

FAST_RUN = [
    "--set", "experiment.runs=3",
    "--set", "filter.particles=150",
    "--set", "scenario.scans=12",
    "--set", "scenario.observer_leg_scans=3",
]


def read_lines(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_defaults_load_without_file():
    cfg = load_config(None)
    assert cfg.filter_kind() == "possibility"
    assert cfg.particles() == 5000
    scenario = cfg.scenario()
    assert scenario.scan_count == 40
    # the knot defaults are the SI canonical speeds exactly
    assert cfg.parsed["scenario"]["target_speed_kn"] * KNOT == 4.0


def test_config_defaults_are_the_library_defaults():
    """The default config is the library's canonical engagement, field for field and bit for bit."""
    cfg = load_config(None, [])
    got, want = cfg.scenario(), Scenario()
    assert got == want
    for name in ("observer", "nominal_track", "F"):  # derived from the compared fields
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert cfg.prior() == PriorConfig()
    assert cfg.filter_options() == PossibilityPFOptions()


# A valid value other than the default for each key that states the engagement.  The base
# draws Student-t noise, since under gaussian noise noise_dof is ignored (ROADMAP item 1).
ENGAGEMENT_BASE = ["scenario.noise=student-t", "scenario.noise_dof=3"]
ENGAGEMENT_CHANGES = {
    "scenario.scans": "41",
    "scenario.sample_time_s": "30",
    "scenario.target_range_km": "12",
    "scenario.target_bearing_deg": "10",
    "scenario.target_speed_kn": "5",
    "scenario.target_heading_deg": "150",
    "scenario.observer_speed_kn": "10",
    "scenario.observer_headings_deg": "60, 330",
    "scenario.observer_leg_scans": "7",
    "scenario.noise": "gaussian",
    "scenario.noise_sigma_deg": "2",
    "scenario.noise_dof": "5",
    "scenario.process_noise": "2e-3",
    "filter.sigma_deg": "2",
}


def test_engagement_changes_cover_every_scenario_key():
    assert {key for key in ENGAGEMENT_CHANGES if key.startswith("scenario.")} == {f"scenario.{key}" for key in KEYS["scenario"]}


@pytest.mark.parametrize("key", sorted(ENGAGEMENT_CHANGES))
def test_every_engagement_key_reaches_the_scenario(key):
    base = load_config(None, ENGAGEMENT_BASE).scenario()
    assert load_config(None, ENGAGEMENT_BASE + [f"{key}={ENGAGEMENT_CHANGES[key]}"]).scenario() != base


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="no-such-file.ini"):
        load_config(str(tmp_path / "no-such-file.ini"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[scenario]\nscans = 20\nwarp = 9\n", r"warp.*line 3"),
        ("[filter]\ninit_covariance = swapped\n", r"^\[filter\] init_covariance \(line 2\): unknown key$"),
        ("[scenario]\ndeterministic_target = true\n", r"^\[scenario\] deterministic_target \(line 2\): unknown key$"),
    ],
    ids=["never-a-key", "removed-key", "removed-boolean-key"],
)
def test_unknown_key_names_key_and_line(tmp_path, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[experiment]\nruns = many\n", r"\[experiment\] runs \(line 2\): expected an integer"),
        # configparser folds the indented line into observer_headings_deg: scans is set on line 2
        ("[scenario]\nscans = 1\nobserver_headings_deg = 70,\n  scans = 340\n", r"\[scenario\] scans \(line 2\): must be"),
        ("[scenario]\nscans: 1\n", r"\[scenario\] scans \(line 2\): must be"),
        ("[scenario]   # engagement\nscans = 1\n", r"\[scenario\] scans \(line 2\): must be"),
    ],
    ids=["integer", "continuation-line", "colon-delimiter", "commented-header"],
)
def test_bad_value_names_key(tmp_path, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))


def test_override_applies_and_validates():
    cfg = load_config(None, ["experiment.runs=7"])
    assert cfg.runs() == 7
    with pytest.raises(ConfigError, match="unknown override"):
        load_config(None, ["experiment.bogus=1"])
    with pytest.raises(ConfigError, match="^unknown override key filter.init_covariance$"):
        load_config(None, ["filter.init_covariance=swapped"])
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(None, ["nonsense"])


def test_config_hash_tracks_content():
    a = load_config(None)
    b = load_config(None, ["experiment.runs=7"])
    assert a.hash() != b.hash()
    assert a.hash() == load_config(None).hash()
    # Results do not depend on parallelism, so neither does the hash.
    assert a.hash() == load_config(None, ["experiment.parallelism=2"]).hash()


def _perfbench_workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


# config_hash headers of the defaults and of the benchmark's workloads: the
# default texts and the hashed form must not move, or every CSV header does.
PINNED_HASHES = {
    None: "b8df8a22b5f7",
    "mc-poss-n5000": "a5ffc98c7d78",
    "mc-std-n5000-t3": "3d93902a9d10",
    "grid-n500-par2": "d070d3567890",
}


@pytest.mark.parametrize("workload", PINNED_HASHES)
def test_config_hash_is_pinned(workload):
    if workload is None:
        assert load_config(None).hash() == PINNED_HASHES[None]
        return
    wl = _perfbench_workloads()
    overrides = [*wl.WORKLOADS[workload].overrides, f"experiment.base_seed={wl.DEFAULT_SEED}"]
    assert load_config(None, overrides).hash() == PINNED_HASHES[workload]
    assert load_config(None, list(wl.WORKLOADS[workload].overrides)).hash() == PINNED_HASHES[workload]


@pytest.mark.parametrize(
    "text, message",
    [
        ("[DEFAULT]\nscans = 3\n", r"unknown config section \[DEFAULT\]"),
        ("[DEFAULT]\nparticles = 7\n[scenario]\nscans = 20\n", r"unknown config section \[DEFAULT\]"),
    ],
)
def test_default_section_is_an_unknown_section(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))
    assert main(["crlb", "--config", str(path), "--set", f"output.directory={tmp_path / 'out'}"]) == 2
    assert "[DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_key_before_any_section_exits_2_as_a_syntax_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("scans = 20\n[scenario]\n")
    with pytest.raises(ConfigError, match="config syntax error"):
        load_config(str(path))
    assert main(["crlb", "--config", str(path), "--set", f"output.directory={tmp_path / 'out'}"]) == 2
    assert "config syntax error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_file_values_are_not_interpolated(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[output]\ndirectory = run-50%\n")
    assert load_config(str(path)).output_directory() == "run-50%"


def test_override_replaces_a_bad_file_value_and_its_line(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\nruns = many\nbase_seed = 3\n")
    assert load_config(str(path), ["experiment.runs=7"]).runs() == 7
    with pytest.raises(ConfigError, match=r"^\[experiment\] base_seed: must be at least 0"):
        load_config(str(path), ["experiment.runs=7", "experiment.base_seed=-1"])


def test_every_key_is_checked_even_by_commands_that_do_not_read_it(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["crlb", "--set", "experiment.nu_grid=nan", "--set", f"output.directory={out}"]) == 2
    assert "[experiment] nu_grid" in capsys.readouterr().err
    assert not out.exists()


def test_table_has_every_key_once():
    assert sum(len(rows) for rows in KEYS.values()) == 29
    assert {row.parser for rows in KEYS.values() for row in rows.values()} == set(PARSERS)
    cfg = load_config(None)
    assert {s: set(k) for s, k in cfg.values.items()} == {s: set(rows) for s, rows in KEYS.items()}


def readme_key_rows(text):
    return {line for line in text.splitlines() if line.startswith("| `[")}


def test_readme_lists_every_key_with_its_default_and_domain():
    expected = {
        f"| `[{section}] {key}` | `{row.default}` | {row.parser} | {row.domain.text} |"
        for section, rows in KEYS.items()
        for key, row in rows.items()
    }
    assert readme_key_rows((ROOT / "README.md").read_text()) == expected


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_ini_example_loads(tmp_path):
    (block,) = readme_blocks("ini")
    path = tmp_path / "example.ini"
    path.write_text(block)
    assert load_config(str(path)).runs() == 500


def run_python(*args, timeout=120):
    """Run ``python *args`` in a fresh interpreter that imports this checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def test_readme_python_example_imports_exist():
    """Every name the library example imports exists, and the block runs in a fresh interpreter."""
    (block,) = readme_blocks("python")
    imports = [node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom)]
    names = [(node.module, alias.name) for node in imports if node.module.split(".")[0] == "posspf" for alias in node.names]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    done = run_python("-c", block)
    assert done.returncode == 0, done.stderr


def test_help_lists_every_command_with_its_help(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal width
    for name, help_text in [
        ("run", "Monte Carlo batch of one filter; writes rms.csv and runs.csv"),
        ("table1", "divergence grid over N and Student-t nu; writes table1.csv"),
        ("crlb", "position-bound reference curve; writes crlb.csv"),
    ]:
        assert f"{name} {help_text}" in out


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------


def test_run_defaults_writes_both_csvs(tmp_path, capsys):
    code = main(["run", "--set", f"output.directory={tmp_path}"] + FAST_RUN)
    assert code == 0
    rms = read_lines(tmp_path / "rms.csv")
    runs = read_lines(tmp_path / "runs.csv")
    assert rms[0].startswith("# config_hash=")
    assert "seed=" in rms[0] and "version=" in rms[0]
    assert rms[1] == "scan,time_s,rms_m,crlb_m,n_alive_runs"
    assert len(rms) == 2 + 12
    assert runs[1] == "run,seed,final_err_m,divergent"
    assert len(runs) == 2 + 3


def test_run_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.ini")])
    assert code == 2
    assert "nope.ini" in capsys.readouterr().err


def test_run_bad_config_names_key(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("[filter]\nkind = wiener\n")
    code = main(["run", "--config", str(path), "--set", f"output.directory={tmp_path}"])
    assert code == 2
    assert "kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, override",
    [
        ("crlb", "filter.sigma_deg=nan"),
        ("crlb", "scenario.sample_time_s=inf"),
        ("run", "filter.proposal_inflation=nan"),
        ("run", "scenario.noise_sigma_deg=nan"),
        ("crlb", "filter.range_prior_km=nan"),
        ("run", "filter.range_prior_sigma_km=inf"),
        ("run", "filter.velocity_prior_sigma_kn=-1"),
    ],
)
def test_non_finite_input_exits_2_and_writes_no_csv(tmp_path, capsys, command, override):
    out = tmp_path / "out"
    code = main([command, "--set", override, "--set", f"output.directory={out}"] + FAST_RUN)
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# Zero noise leaves the key's domain.  A T**3 entry that underflows against
# T or overflows gives a process noise matrix with no Cholesky factor or no
# finite one, and so does an inflation of that matrix for the proposal.
PROPOSAL_SPREAD = r"\[filter\] proposal_inflation: .* spread that is not finite and positive definite"
DEGENERATE_PROCESS_NOISE = [
    ("scenario.process_noise=0", r"\[scenario\] process_noise: must be positive"),
    ("scenario.process_noise=0.0", r"\[scenario\] process_noise: must be positive"),
    ("scenario.process_noise=-0.0", r"\[scenario\] process_noise: must be positive"),
    ("scenario.sample_time_s=1e-300", r"\[scenario\] sample_time_s: .*; process_noise also shapes it"),
    ("scenario.sample_time_s=1e-150", r"\[scenario\] sample_time_s: .*; process_noise also shapes it"),
    ("scenario.sample_time_s=1e103", r"\[scenario\] sample_time_s: .*not finite.*; process_noise also shapes it"),
    ("filter.proposal_inflation=1.7976931348623157e308", PROPOSAL_SPREAD + r" \(spread matrix is not finite\)"),
    ("filter.proposal_inflation=5e-324", PROPOSAL_SPREAD + r" \(spread matrix is not positive definite\)"),
    # The process noise is finite; 1.5 times it, the default inflation, is not.
    ("scenario.process_noise=8e303", PROPOSAL_SPREAD + r".*; sample_time_s and process_noise also shape it"),
]


@pytest.mark.parametrize("command", ["run", "table1", "crlb"])
@pytest.mark.parametrize("override, message", DEGENERATE_PROCESS_NOISE)
def test_degenerate_process_noise_exits_2_on_every_command(tmp_path, capsys, command, override, message):
    out = tmp_path / "out"
    code = main([command, "--set", override, "--set", f"output.directory={out}"] + FAST_RUN)
    assert code == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, first_bad_scan",
    [
        # Prior scales whose squares overflow but whose ratio is in range.
        (["filter.range_prior_km=1e300", "filter.range_prior_sigma_km=1e300"], 1),
        (["filter.velocity_prior_sigma_kn=1e300"], 2),
    ],
)
def test_non_finite_bound_exits_1_naming_scan_and_writes_no_csv(tmp_path, capsys, overrides, first_bad_scan):
    out = tmp_path / "out"
    code = main(["crlb", "--set", f"output.directory={out}"] + [arg for item in overrides for arg in ("--set", item)])
    assert code == 1
    assert f"not finite at scan {first_bad_scan} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("q", ["1e16", "1e20", "1e300"])
def test_large_process_noise_gives_a_finite_bound(tmp_path, q):
    code = main(["crlb", "--set", f"scenario.process_noise={q}", "--set", f"output.directory={tmp_path}"])
    assert code == 0
    rows = [line.split(",") for line in read_lines(tmp_path / "crlb.csv")[2:]]
    assert len(rows) == 40 and all(math.isfinite(float(cell)) for row in rows for cell in row)


BAD_KEYS_OF_RUN_AND_TABLE1 = [
    ("experiment.base_seed=-1", "[experiment] base_seed"),
    ("scenario.target_range_km=0", "[scenario] target_range_km"),
    ("scenario.target_range_km=-0.0", "[scenario] target_range_km"),
    ("scenario.target_bearing_deg=nan", "[scenario] target_bearing_deg"),
    ("scenario.target_heading_deg=inf", "[scenario] target_heading_deg"),
    ("scenario.target_speed_kn=nan", "[scenario] target_speed_kn"),
    ("scenario.observer_speed_kn=inf", "[scenario] observer_speed_kn"),
    ("scenario.observer_headings_deg=70, nan", "[scenario] observer_headings_deg"),
    ("scenario.observer_headings_deg=-inf, 340", "[scenario] observer_headings_deg"),
]


@pytest.mark.parametrize(
    "command, override, key",
    [(command, *case) for case in BAD_KEYS_OF_RUN_AND_TABLE1 for command in ("run", "table1")]
    + [("table1", "experiment.nu_grid=3, nan", "[experiment] nu_grid")],
)
def test_bad_experiment_or_geometry_exits_2_naming_the_key(tmp_path, capsys, command, override, key):
    out = tmp_path / "out"
    small_grid = ["--set", "experiment.n_grid=100", "--set", "experiment.nu_grid=3"]
    code = main([command, "--set", f"output.directory={out}"] + FAST_RUN + small_grid + ["--set", override])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not out.exists()


def refuse_to_start(*args):
    raise AssertionError("a command started with a count over its budget")


@pytest.mark.parametrize(
    "command, override, key",
    [
        ("run", "filter.particles=100000000000000000000", "[filter] particles"),
        ("table1", "experiment.n_grid=1e300", "[experiment] n_grid"),
        ("table1", "experiment.n_grid=2000, 1000001", "[experiment] n_grid"),
        ("run", "scenario.scans=100000000000000000000", "[scenario] scans"),
        ("run", "experiment.runs=100000000000000000000", "[experiment] runs"),
    ],
)
def test_counts_over_budget_exit_2_naming_the_key(tmp_path, capsys, monkeypatch, command, override, key):
    # Stubs stand in for the batch and the grid, so a missing budget fails fast instead of allocating.
    monkeypatch.setattr("posspf.cli.run_batch", refuse_to_start)
    monkeypatch.setattr("posspf.cli.table1_experiment", refuse_to_start)
    out = tmp_path / "out"
    code = main([command, "--set", f"output.directory={out}", "--set", override])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not out.exists()


def test_counts_at_their_budget_load():
    cfg = load_config(None, ["filter.particles=1000000", "experiment.runs=1000000",
                             "scenario.scans=100000", "experiment.n_grid=1, 1000000"])
    assert (cfg.particles(), cfg.runs(), cfg.n_grid()) == (10**6, 10**6, [1, 10**6])
    assert cfg.parsed["scenario"]["scans"] == 10**5


def test_infinite_noise_dof_is_accepted(tmp_path):
    args = ["run", "--set", f"output.directory={tmp_path}", "--set", "scenario.noise=student-t"]
    assert main(args + ["--set", "scenario.noise_dof=inf"] + FAST_RUN) == 0


def test_run_checks_the_bound_before_the_batch_starts(tmp_path, capsys, monkeypatch):
    started = []
    monkeypatch.setattr("posspf.cli.run_batch", lambda *args: started.append(args))
    out = tmp_path / "out"
    code = main(["run", "--set", "filter.velocity_prior_sigma_kn=1e300", "--set", f"output.directory={out}"] + FAST_RUN)
    assert code == 1
    assert "not finite at scan 2 " in capsys.readouterr().err
    assert started == []
    assert not out.exists()


def test_table1_checks_the_bound_before_the_grid_starts(tmp_path, capsys, monkeypatch):
    started = []
    monkeypatch.setattr("posspf.cli.table1_experiment", lambda *args: started.append(args))
    out = tmp_path / "out"
    code = main(["table1", "--set", "filter.velocity_prior_sigma_kn=1e300", "--set", f"output.directory={out}"] + FAST_RUN)
    assert code == 1
    assert "not finite at scan 2 " in capsys.readouterr().err
    assert started == []
    assert not out.exists()


FUZZ_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e3, max_value=1e3),
)

# Counts are fuzzed over small values only: a large particle count, run
# count or parallelism would allocate memory or start processes.
SMALL_COUNTS = {
    "scans": ["-1", "0", "1", "2", "3", "12", "2.5", "nan", "x"],
    "observer_leg_scans": ["-1", "0", "1", "3", "12", "50", "1.5"],
    "particles": ["-1", "0", "1", "2", "50", "1e3", "x"],
    "runs": ["-1", "0", "1", "2", "1.0"],
    "parallelism": ["-1", "0", "1", "x"],
    "base_seed": ["-1", "0", "7", str(2**70), "1e3"],
    "n_grid": ["50", "1", "0", "2.5", "nan", "inf", "-3", "50, 20", ""],
}
WORDS = ["", "bogus", "gaussian", "student-t", "standard", "swapped", "max-entropy", "ignorance", "true", "off", "1"]


def key_values(section, key):
    row = KEYS[section][key]
    if key in SMALL_COUNTS:
        return st.sampled_from(SMALL_COUNTS[key])
    if row.parser == "a number":
        return FUZZ_VALUES.map(repr)
    if row.parser == "comma-separated numbers":
        return st.lists(FUZZ_VALUES, max_size=3).map(lambda xs: ", ".join(map(repr, xs)))
    return st.sampled_from([row.default, *WORDS])


FUZZED_KEYS = {
    f"{section}.{key}": key_values(section, key)
    for section, rows in KEYS.items()
    for key in rows
    if section != "output"  # the test owns the output directory
}
FUZZ_OVERRIDES = st.dictionaries(st.sampled_from(sorted(FUZZED_KEYS)), st.none(), min_size=1, max_size=3).flatmap(
    lambda keys: st.fixed_dictionaries({key: FUZZED_KEYS[key] for key in keys})
)
TINY = ["experiment.runs=2", "filter.particles=50", "scenario.scans=12", "scenario.observer_leg_scans=3",
        "experiment.parallelism=1", "experiment.n_grid=50", "experiment.nu_grid=3"]
# The documented runtime failures (README, exit codes).  The last is a prior
# spread whose mass overflows when max-entropy water-pours it.  A singular
# prior spread exits 2 at load (test_accepted_priors_factor_at_every_first_bearing).
RUNTIME_FAILURES = (
    "position bound is not finite at scan",
    "runs diverged",
    "the spread is too wide to water-pour",
)
# The observer drives north at exactly 2.5 m/s onto the stationary target, 10 km north, at scan 101.
TARGET_MEETS_OBSERVER = (
    ("scenario.scans", "102"),
    ("scenario.target_speed_kn", "0"),
    ("scenario.observer_speed_kn", "4.859611231101511"),
    ("scenario.observer_headings_deg", "0, 180"),
    ("scenario.observer_leg_scans", "101"),
)
FOUND_CASES = [
    ("scenario.sample_time_s", "inf"),
    ("scenario.target_speed_kn", "-1"),
    ("scenario.scans", "1"),
    ("scenario.observer_leg_scans", "0"),
]


def assert_finite_cells(out):
    for path in out.glob("*.csv"):
        lines = read_lines(path)
        header = lines[1].split(",")
        for line in lines[2:]:
            for name, cell in zip(header, line.split(",")):
                if name != "filter":  # nu = inf is the Gaussian limit, a value, not a failure
                    assert math.isfinite(float(cell)) or (name == "nu" and cell == "inf"), (path.name, line)


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["run", "table1", "crlb"]), overrides=FUZZ_OVERRIDES)
@example(command="crlb", overrides={"scenario.process_noise": "1e300"})
@example(command="table1", overrides={"scenario.noise": "student-t", "scenario.noise_dof": "1e-300"})
@example(command="run", overrides={"scenario.sample_time_s": "inf"})
@example(command="table1", overrides={"scenario.target_speed_kn": "-1"})
@example(command="crlb", overrides={"scenario.scans": "1"})
@example(command="run", overrides={"scenario.observer_leg_scans": "0"})
@example(command="run", overrides={"filter.range_prior_sigma_km": "1e+300"})
@example(command="run", overrides={"scenario.sample_time_s": "1e+300"})
@example(command="run", overrides={"scenario.observer_speed_kn": "1e+300"})
@example(command="table1", overrides={"filter.sigma_deg": "5e-324"})
@example(command="crlb", overrides={"scenario.target_range_km": "1e+306"})
@example(command="run", overrides={"filter.proposal": "max-entropy", "scenario.process_noise": "1e300"})
@example(command="run", overrides={"filter.proposal_inflation": "1.7976931348623157e308"})
@example(command="crlb", overrides={"scenario.observer_speed_kn": "1e307"})
@example(command="crlb", overrides=dict(TARGET_MEETS_OBSERVER))
@example(command="crlb", overrides={"scenario.target_speed_kn": "1e306", "scenario.scans": "40"})
def test_no_command_exits_0_with_a_non_finite_cell(command, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        args = [command, "--set", f"output.directory={out}"]
        for item in TINY + [f"{key}={value}" for key, value in overrides.items()]:
            args += ["--set", item]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(args)
        err = stderr.getvalue()
        if code == 0:
            assert_finite_cells(out)
        elif code == 1:
            assert any(message in err for message in RUNTIME_FAILURES), err
            assert not any((out / name).exists() for name in ("rms.csv", "table1.csv", "crlb.csv")), err
        else:
            assert code == 2
            assert re.search(r"\[(scenario|filter|experiment|output)\] [a-z_]+", err), err
            assert any(key.split(".")[1] in err for key in overrides), err
            assert not out.exists(), err


# Mass (2 pi)^2 * 1 m * 1 m * (0.01 kn)^2 = 0.00104.
MAX_ENTROPY_PRIOR_MASS_BELOW_1 = ["filter.proposal=max-entropy", "filter.range_prior_sigma_km=0.001",
                                  "filter.range_prior_km=1", "filter.sigma_deg=0.0573",
                                  "filter.velocity_prior_sigma_kn=0.01"]


@pytest.mark.parametrize("command", ["run", "table1", "crlb"])
@pytest.mark.parametrize(
    "overrides, key",
    [
        (["scenario.observer_speed_kn=1e307"], "[scenario] observer_headings_deg"),
        ([f"{key}={value}" for key, value in TARGET_MEETS_OBSERVER], "[scenario] observer_headings_deg"),
        (["scenario.target_speed_kn=1e306", "scenario.scans=40"], "[scenario] observer_headings_deg"),
        (["filter.proposal=max-entropy", "filter.proposal_inflation=1e-10"], "[filter] proposal_inflation"),
        (["filter.proposal=max-entropy", "scenario.process_noise=1e300"], "[filter] proposal_inflation"),
        (["filter.sigma_deg=1e-200"], "[filter] sigma_deg"),
        (MAX_ENTROPY_PRIOR_MASS_BELOW_1, "[filter] sigma_deg"),
    ],
    ids=["observer-track-overflows", "target-meets-observer", "target-track-overflows",
         "max-entropy-mass-below-1", "max-entropy-mass-overflows", "singular-prior", "max-entropy-prior-mass-below-1"],
)
def test_unusable_track_or_proposal_prints_only_the_config_error_line(tmp_path, command, overrides, key):
    """No numpy warning reaches stderr ahead of the config error, and nothing is written."""
    args = [command, "--set", f"output.directory={tmp_path / 'out'}"]
    for item in TINY + overrides:
        args += ["--set", item]
    done = run_python("-W", "default", "-c", "import sys; from posspf.cli import main; sys.exit(main(sys.argv[1:]))", *args)
    assert done.returncode == 2
    (line,) = done.stderr.splitlines()
    assert line.startswith(f"config error: {key}: "), done.stderr
    assert not (tmp_path / "out").exists()


def test_overflowing_process_noise_prints_only_the_error_line(tmp_path):
    """Distances too large to square are inf, silently: the runs diverge and no numpy warning is raised."""
    out = tmp_path / "out"
    args = ["run", "--set", "scenario.process_noise=1e300", "--set", "experiment.runs=2",
            "--set", "experiment.parallelism=1", "--set", "filter.particles=2000", "--set", f"output.directory={out}"]
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(args)
    assert code == 1
    assert stderr.getvalue() == "error: all 2 runs diverged; rms.csv not written\n"
    assert not (out / "rms.csv").exists()


# Prior spreads with no Cholesky factor at some first bearing, or one by luck (sigma_deg=1e-7).
SINGULAR_PRIORS = [
    ("filter.sigma_deg", "1e-200"),
    ("filter.sigma_deg", "1e-9"),
    ("filter.sigma_deg", "1e-7"),
    ("filter.range_prior_km", "1e-300"),
    ("filter.velocity_prior_sigma_kn", "1e-200"),
]


@pytest.mark.parametrize("command", ["run", "table1", "crlb"])
@pytest.mark.parametrize(
    "key, value",
    FOUND_CASES
    + [  # values that leave their domain only in SI units
        ("filter.sigma_deg", "5e-324"),
        ("scenario.noise_sigma_deg", "5e-324"),
        ("scenario.target_range_km", "1e306"),
        ("filter.range_prior_km", "1e306"),
        ("filter.range_prior_sigma_km", "1e306"),
    ]
    + SINGULAR_PRIORS,
)
def test_values_the_library_rejects_exit_2_naming_the_key(tmp_path, capsys, command, key, value):
    out = tmp_path / "out"
    code = main([command, "--set", f"output.directory={out}"] + FAST_RUN + ["--set", f"{key}={value}"])
    assert code == 2
    section, name = key.split(".")
    err = capsys.readouterr().err
    # The prior's one cross-key rule is named for sigma_deg and lists the other prior keys.
    assert err.startswith("config error: " + ("[filter] sigma_deg" if (key, value) in SINGULAR_PRIORS
                                              else f"[{section}] {name}"))
    assert name in err
    assert not out.exists()


@settings(max_examples=500, deadline=None)
@given(
    sigma_deg=st.floats(-100, 100).map(lambda e: 10.0**e),
    range_sigma_km=st.floats(-200, 100).map(lambda e: 10.0**e),
    ratio=st.floats(-9, 9).map(lambda e: 10.0**e),
    vel_kn=st.floats(-200, 150).map(lambda e: 10.0**e),
    z1=st.floats(-math.pi, math.pi),
)
def test_accepted_priors_factor_at_every_first_bearing(sigma_deg, range_sigma_km, ratio, vel_kn, z1):
    """Whenever the config accepts a prior, its spread has a Cholesky factor at any first bearing.

    The exponents keep every variance finite: a spread that overflows is the
    bound's to refuse, which every command computes before it runs a filter.
    """
    range_km = ratio * range_sigma_km / (sigma_deg * DEGREE)  # range_prior_km * sigma_deg / range_prior_sigma_km = ratio
    try:
        cfg = load_config(None, [f"filter.sigma_deg={sigma_deg!r}", f"filter.range_prior_km={range_km!r}",
                                 f"filter.range_prior_sigma_km={range_sigma_km!r}",
                                 f"filter.velocity_prior_sigma_kn={vel_kn!r}"])
        prior = cfg.prior()
    except ConfigError:
        assume(False)
    sigma = cfg.parsed["filter"]["sigma_deg"] * DEGREE
    assert np.isfinite(prior_spread(z1, sigma, prior)).all()
    init_prior(z1, (0.0, 0.0), sigma, prior)  # raises ValueError when the spread has no Cholesky factor


def test_fractional_particle_count_exits_2_naming_n_grid(tmp_path, capsys):
    code = main(["table1", "--set", "experiment.n_grid=2.7", "--set", f"output.directory={tmp_path}"])
    assert code == 2
    assert "[experiment] n_grid" in capsys.readouterr().err
    assert not (tmp_path / "table1.csv").exists()


def test_all_runs_divergent_exits_1_without_rms_csv(tmp_path, capsys):
    code = main(
        [
            "run",
            "--set", f"output.directory={tmp_path}",
            "--set", "experiment.runs=5",
            "--set", "filter.particles=500",
            "--set", "filter.proposal=max-entropy",
            "--set", "filter.transition_weighting=gaussian",
            "--set", "filter.map_peak_cut=0",
        ]
    )
    assert code == 1
    assert "all 5 runs diverged" in capsys.readouterr().err
    assert not (tmp_path / "rms.csv").exists()
    runs = read_lines(tmp_path / "runs.csv")
    assert len(runs) == 2 + 5 and all(line.endswith(",1") for line in runs[2:])
    for path in tmp_path.iterdir():
        assert "nan" not in path.read_text()


def test_run_unwritable_output_is_runtime_error(capsys):
    code = main(["run", "--set", "output.directory=/proc/not-writable"] + FAST_RUN)
    assert code == 1


def test_run_byte_identical_on_repeat(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--set", f"output.directory={out_a}"] + FAST_RUN) == 0
    assert main(["run", "--set", f"output.directory={out_b}"] + FAST_RUN) == 0
    assert (out_a / "rms.csv").read_bytes() == (out_b / "rms.csv").read_bytes()
    assert (out_a / "runs.csv").read_bytes() == (out_b / "runs.csv").read_bytes()


def test_run_standard_filter_kind(tmp_path):
    code = main(
        ["run", "--set", f"output.directory={tmp_path}", "--set", "filter.kind=standard"]
        + FAST_RUN
    )
    assert code == 0


# ---------------------------------------------------------------------------
# table1 command
# ---------------------------------------------------------------------------


def test_table1_grid_rows(tmp_path):
    code = main(
        [
            "table1",
            "--set", f"output.directory={tmp_path}",
            "--set", "experiment.runs=2",
            "--set", "experiment.n_grid=120",
            "--set", "experiment.nu_grid=3, inf",
            "--set", "scenario.scans=10",
            "--set", "scenario.observer_leg_scans=3",
        ]
    )
    assert code == 0
    lines = read_lines(tmp_path / "table1.csv")
    assert lines[1] == "filter,n,nu,runs,divergent_pct,wilson_lo,wilson_hi"
    assert len(lines) == 2 + 4  # 2 filters x 1 n x 2 nu
    assert any(",inf," in line for line in lines[2:])


def test_table1_single_run_percentages_are_all_or_nothing(tmp_path):
    code = main(
        [
            "table1",
            "--set", f"output.directory={tmp_path}",
            "--set", "experiment.runs=1",
            "--set", "experiment.n_grid=120",
            "--set", "experiment.nu_grid=3",
            "--set", "scenario.scans=10",
            "--set", "scenario.observer_leg_scans=3",
        ]
    )
    assert code == 0
    for line in read_lines(tmp_path / "table1.csv")[2:]:
        pct = float(line.split(",")[4])
        assert pct in (0.0, 100.0)


def test_table1_byte_identical_on_repeat(tmp_path):
    args = [
        "table1",
        "--set", "experiment.runs=2",
        "--set", "experiment.n_grid=100",
        "--set", "experiment.nu_grid=5",
        "--set", "scenario.scans=10",
        "--set", "scenario.observer_leg_scans=3",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--set", f"output.directory={out_a}"]) == 0
    assert main(args + ["--set", f"output.directory={out_b}"]) == 0
    assert (out_a / "table1.csv").read_bytes() == (out_b / "table1.csv").read_bytes()


# ---------------------------------------------------------------------------
# crlb command
# ---------------------------------------------------------------------------


def test_crlb_first_scan_is_prior_position_bound(tmp_path):
    code = main(["crlb", "--set", f"output.directory={tmp_path}"])
    assert code == 0
    lines = read_lines(tmp_path / "crlb.csv")
    assert lines[1] == "scan,time_s,pos_bound_m"
    first = lines[2].split(",")
    sigma = math.radians(1.0)
    expected = math.sqrt((10e3 * sigma) ** 2 + 3500.0**2)
    assert float(first[2]) == pytest.approx(expected, rel=1e-9)


def test_crlb_csv_is_finite_and_improves_after_manoeuvre(tmp_path):
    code = main(["crlb", "--set", f"output.directory={tmp_path}"])
    assert code == 0
    rows = [line.split(",") for line in read_lines(tmp_path / "crlb.csv")[2:]]
    bounds = np.array([float(r[2]) for r in rows])
    assert np.all(np.isfinite(bounds))
    manoeuvre_scan = 11  # first scan of the second observer leg (1-based)
    assert bounds[-1] < bounds[manoeuvre_scan - 1]


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

# Small configurations of every command and their output digests: the exit
# code, stdout, and each CSV after its metadata line (test_config_hash_is_pinned
# pins that line).  The digests were re-recorded when the knot defaults became
# exact, on the change after commit 5a3af4d; they hold for the numpy build that
# recorded them, so a different numpy or BLAS build may need them re-recorded.
REFERENCE_OUTPUTS = {
    "run-possibility": (["run", "filter.particles=500", "experiment.runs=10"], "25e64fe7d202e218"),
    "run-standard": (
        ["run", "filter.kind=standard", "filter.particles=500", "experiment.runs=10"], "2b28ac586a28c61c"
    ),
    "run-max-entropy-gaussian": (
        ["run", "filter.particles=200", "experiment.runs=5", "filter.proposal=max-entropy",
         "filter.transition_weighting=gaussian", "filter.map_peak_cut=0"],
        "2f706133f6b54714",
    ),
    "run-all-divergent": (["run", "filter.particles=1", "experiment.runs=3"], "c1bb3076042b6d9d"),
    "table1": (
        ["table1", "experiment.n_grid=200", "experiment.nu_grid=3, inf", "experiment.runs=5",
         "experiment.parallelism=2"],
        "ea729c1f4b8c1dc4",
    ),
    "crlb": (["crlb"], "1d2ad93f6c408d06"),
}


def output_digest(command, overrides, outdir, capsys):
    args = [command, "--set", f"output.directory={outdir}"]
    for item in overrides:
        args += ["--set", item]
    code = main(args)
    digest = hashlib.sha256(f"exit {code}\n".encode())
    digest.update(capsys.readouterr().out.encode())
    for path in sorted(outdir.glob("*.csv")):
        lines = path.read_text().splitlines(keepends=True)
        assert lines[0].startswith("# config_hash="), path.name
        digest.update(path.name.encode())
        digest.update("".join(lines[1:]).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("case", REFERENCE_OUTPUTS)
def test_command_outputs_match_reference_digest(tmp_path, capsys, case):
    (command, *overrides), expected = REFERENCE_OUTPUTS[case]
    assert output_digest(command, overrides, tmp_path, capsys) == expected


def test_cli_defaults_run_the_library_engagement(tmp_path):
    """``run`` and ``crlb`` on the defaults write what the library computes on its canonical engagement."""
    (command, *overrides), _ = REFERENCE_OUTPUTS["run-possibility"]
    assert main([command, "--set", f"output.directory={tmp_path}", *(a for o in overrides for a in ("--set", o))]) == 0
    assert main(["crlb", "--set", f"output.directory={tmp_path}"]) == 0

    def column(name):
        return [float.hex(float(line.split(",")[2])) for line in read_lines(tmp_path / name)[2:]]

    def as_written(values):
        return [float.hex(float(f"{v:.10g}")) for v in values]

    library = run_batch(Scenario(), "possibility", 500, 10, 20240501)
    assert column("runs.csv") == as_written(r.pos_errors[-1] for r in library.reports)
    assert column("crlb.csv") == as_written(scenario_crlb(Scenario()))
