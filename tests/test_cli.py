"""Tests for the command-line front end and its CSV contract."""

import math

import numpy as np
import pytest

from posspf.cli import main
from posspf.config import KNOT, ConfigError, load_config

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
    # knots round-trip close to the SI canonical speeds
    assert cfg.get_float("scenario", "target_speed_kn") * KNOT == pytest.approx(4.0, abs=1e-3)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="no-such-file.ini"):
        load_config(str(tmp_path / "no-such-file.ini"))


def test_unknown_key_names_key_and_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nscans = 20\nwarp = 9\n")
    with pytest.raises(ConfigError, match=r"warp.*line 3"):
        load_config(str(path))


def test_bad_value_names_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nruns = many\n")
    cfg = load_config(str(path))
    with pytest.raises(ConfigError, match=r"\[experiment\] runs"):
        cfg.runs()


def test_override_applies_and_validates():
    cfg = load_config(None, ["experiment.runs=7"])
    assert cfg.runs() == 7
    with pytest.raises(ConfigError, match="unknown override"):
        load_config(None, ["experiment.bogus=1"])
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(None, ["nonsense"])


def test_config_hash_tracks_content():
    a = load_config(None)
    b = load_config(None, ["experiment.runs=7"])
    assert a.hash() != b.hash()
    assert a.hash() == load_config(None).hash()


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


def test_crlb_curve_finite_and_improves_after_manoeuvre(tmp_path):
    code = main(["crlb", "--set", f"output.directory={tmp_path}"])
    assert code == 0
    rows = [line.split(",") for line in read_lines(tmp_path / "crlb.csv")[2:]]
    bounds = np.array([float(r[2]) for r in rows])
    assert np.all(np.isfinite(bounds))
    manoeuvre_scan = 11  # first scan of the second observer leg (1-based)
    assert bounds[-1] < bounds[manoeuvre_scan - 1]
