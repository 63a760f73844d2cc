"""Tests for scenario generation, measurement synthesis, and the MC harness."""

import dataclasses
import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from posspf import bench
from posspf.bench import (
    FILTER_POSSIBILITY,
    FILTER_STANDARD,
    NoiseModel,
    build_canonical_scenario,
    is_divergent,
    nominal_target_track,
    run_batch,
    run_single,
    sample_target_track,
    scenario_crlb,
    synthesize_measurements,
    table1_experiment,
    wilson_interval,
)
from posspf.tma import PriorConfig, bearings_of

DEG = math.pi / 180.0


# ---------------------------------------------------------------------------
# canonical scenario
# ---------------------------------------------------------------------------


def test_canonical_defaults():
    s = build_canonical_scenario()
    assert s.scan_count == 40
    assert s.T == 40.0
    assert len(s.observer) == 40
    assert s.true_noise.nu == math.inf
    assert s.true_noise.sigma == pytest.approx(1.0 * DEG)


def test_canonical_initial_bearing_is_zero():
    s = build_canonical_scenario()
    rel = nominal_target_track(s) - s.observer
    assert bearings_of(rel[:1])[0] == pytest.approx(0.0, abs=1e-12)


def test_minimal_valid_scenario():
    s = build_canonical_scenario(scan_count=2, observer_leg_scans=1)
    assert s.scan_count == 2


def test_scenario_without_manoeuvre_rejected():
    with pytest.raises(ValueError, match="manoeuvre"):
        build_canonical_scenario(scan_count=2)


def test_unknown_override_rejected():
    with pytest.raises(TypeError, match="warp_factor"):
        build_canonical_scenario(warp_factor=9)


def test_scan_count_is_the_observer_length():
    s = build_canonical_scenario(scan_count=7, observer_leg_scans=3)
    assert s.scan_count == len(s.observer) == 7
    shorter = dataclasses.replace(s, observer=s.observer[:5])
    assert shorter.scan_count == len(shorter.observer) == 5


@pytest.mark.parametrize("shape, message", [((1, 4), "at least 2 scans"), ((3, 3), "shape")])
def test_scenario_rejects_observer_shapes(shape, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(build_canonical_scenario(), observer=np.zeros(shape))


def test_scenario_rejects_non_finite_observer():
    s = build_canonical_scenario()
    observer = s.observer.copy()
    observer[3, 1] = math.nan
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(s, observer=observer)


@pytest.mark.parametrize("target_init", [np.zeros(3), np.zeros((1, 4)), np.zeros(5)])
def test_scenario_rejects_target_init_shapes(target_init):
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        dataclasses.replace(build_canonical_scenario(), target_init=target_init)


def test_scenario_stores_target_init_as_a_float_array():
    s = dataclasses.replace(build_canonical_scenario(), target_init=[0, 1, 10000, -2])
    assert s.target_init.dtype == np.float64
    np.testing.assert_array_equal(s.target_init, [0.0, 1.0, 1e4, -2.0])


def test_scenario_rejects_inconsistent_observer_positions():
    states = np.zeros((3, 4))
    states[:, 1] = 2.0  # vx = 2 but positions never move
    with pytest.raises(ValueError, match="inconsistent"):
        dataclasses.replace(build_canonical_scenario(), observer=states)


def test_invalid_override_values_rejected():
    with pytest.raises(ValueError):
        build_canonical_scenario(scan_count=1)
    with pytest.raises(ValueError):
        build_canonical_scenario(T=-1.0)
    with pytest.raises(ValueError):
        build_canonical_scenario(noise_sigma_deg=0.0)


# ---------------------------------------------------------------------------
# noise and measurement synthesis
# ---------------------------------------------------------------------------


def test_measurements_equal_true_bearings_in_small_noise_limit():
    s = build_canonical_scenario(noise_sigma_deg=1e-12, deterministic_target=True)
    rel = nominal_target_track(s) - s.observer
    z = synthesize_measurements(s, np.random.default_rng(0), nominal_target_track(s))
    np.testing.assert_allclose(z, bearings_of(rel), atol=1e-10)


def test_gaussian_noise_sample_std():
    model = NoiseModel(1.0 * DEG)
    draws = model.sample(np.random.default_rng(1), 100_000)
    assert draws.std() == pytest.approx(1.0 * DEG, abs=0.02 * DEG)


def test_default_noise_is_exactly_scaled_standard_normal():
    sigma = 1.0 * DEG
    draws = NoiseModel(sigma).sample(np.random.default_rng(7), 1000)
    np.testing.assert_array_equal(draws, sigma * np.random.default_rng(7).standard_normal(1000))


@pytest.mark.parametrize("nu", [0.0, -1.0, math.nan])
def test_noise_model_rejects_non_positive_dof(nu):
    with pytest.raises(ValueError, match="degrees of freedom"):
        NoiseModel(1.0 * DEG, nu)


def test_student_t_heavy_tails_widen_spread():
    sigma = 1.0 * DEG
    t3 = NoiseModel(sigma, nu=3.0)
    draws = t3.sample(np.random.default_rng(8), 200_000)
    # Student-t with nu=3 has std sigma*sqrt(3), visibly above the Gaussian.
    assert draws.std() > 1.5 * sigma


def test_target_track_process_noise_toggle():
    s = build_canonical_scenario()
    nominal = nominal_target_track(s)
    noisy = sample_target_track(s, np.random.default_rng(3))
    assert not np.allclose(noisy, nominal)
    sd = dataclasses.replace(s, deterministic_target=True)
    np.testing.assert_array_equal(sample_target_track(sd, np.random.default_rng(3)), nominal)


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------


def test_near_noise_free_run_converges():
    s = build_canonical_scenario(noise_sigma_deg=0.05, deterministic_target=True)
    report = run_single(s, FILTER_POSSIBILITY, 2000, 42)
    assert report.pos_errors[-1] < 500.0
    assert not report.divergent
    report_std = run_single(s, FILTER_STANDARD, 2000, 42)
    assert report_std.pos_errors[-1] < 500.0


def test_same_seed_reproduces_report_exactly():
    s = build_canonical_scenario()
    a = run_single(s, FILTER_POSSIBILITY, 300, 5)
    b = run_single(s, FILTER_POSSIBILITY, 300, 5)
    np.testing.assert_array_equal(a.estimate_track, b.estimate_track)
    np.testing.assert_array_equal(a.pos_errors, b.pos_errors)
    assert a.divergent == b.divergent


def test_both_filters_share_measurements_at_same_seed():
    s = build_canonical_scenario()
    a = run_single(s, FILTER_POSSIBILITY, 100, 5)
    b = run_single(s, FILTER_STANDARD, 100, 5)
    # identical truth: identical error normalisation target at scan 1 scale
    assert a.pos_errors[0] != b.pos_errors[0]  # estimators differ ...
    assert a.seed == b.seed


def test_divergence_threshold_is_strict():
    assert not is_divergent(1000.0)
    assert is_divergent(1000.0000001)
    assert not is_divergent(999.9)


@pytest.mark.parametrize(
    "final_error, divergent", [(math.nan, True), (math.inf, True), (1000.0, False), (1000.1, True)]
)
def test_non_finite_final_error_is_divergent(final_error, divergent):
    assert is_divergent(final_error) is divergent


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_error_at_any_scan_is_divergent(bad):
    assert not is_divergent([3e3, 20.0, 5.0])
    assert is_divergent([3e3, bad, 5.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_first_bearing_makes_a_divergent_run_not_a_crash():
    # Student-t draws with a vanishing dof overflow: every bearing is NaN.
    s = build_canonical_scenario(scan_count=6, observer_leg_scans=2, noise_nu=1e-300)
    for kind in (FILTER_POSSIBILITY, FILTER_STANDARD):
        report = run_single(s, kind, 30, 1)
        assert report.divergent


@pytest.mark.parametrize(
    "override",
    [
        {"T": math.inf},
        {"T": math.nan},
        {"q": -1e-3},
        {"q": math.nan},
        {"q": math.inf},
        {"filter_sigma_deg": math.nan},
        {"noise_sigma_deg": math.nan},
        {"noise_sigma_deg": math.inf},
        {"noise_nu": math.nan},
        {"initial_range_m": 0.0},
        {"initial_range_m": math.inf},
        {"initial_bearing_deg": math.nan},
        {"target_heading_deg": math.inf},
        {"target_speed": math.nan},
        {"observer_speed": math.inf},
        {"observer_headings_deg": (70.0, math.nan)},
    ],
)
def test_non_finite_scenario_values_rejected(override):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            build_canonical_scenario(**override)


def test_report_metadata_fields():
    s = build_canonical_scenario()
    report = run_single(s, FILTER_POSSIBILITY, 50, 11)
    assert report.particles == 50
    assert report.filter_kind == FILTER_POSSIBILITY


def test_unknown_filter_kind_rejected():
    s = build_canonical_scenario()
    with pytest.raises(ValueError):
        run_single(s, "ekf", 10, 0)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


def test_batch_of_one_equals_single_run():
    s = build_canonical_scenario()
    batch = run_batch(s, FILTER_STANDARD, 200, 1, 77)
    single = run_single(s, FILTER_STANDARD, 200, 77)
    np.testing.assert_array_equal(batch.reports[0].pos_errors, single.pos_errors)
    if not single.divergent:
        np.testing.assert_allclose(batch.rms_m, single.pos_errors)


def test_batch_rms_matches_definition():
    s = build_canonical_scenario()
    batch = run_batch(s, FILTER_STANDARD, 200, 6, 100)
    alive = np.array([r.pos_errors for r in batch.reports if not r.divergent])
    np.testing.assert_allclose(batch.rms_m, np.sqrt((alive**2).mean(axis=0)))


def test_batch_parallelism_does_not_change_results():
    s = build_canonical_scenario()
    serial = run_batch(s, FILTER_POSSIBILITY, 150, 4, 55, parallelism=1)
    parallel = run_batch(s, FILTER_POSSIBILITY, 150, 4, 55, parallelism=2)
    np.testing.assert_array_equal(serial.rms_m, parallel.rms_m)
    assert serial.divergence_pct == parallel.divergence_pct
    for a, b in zip(serial.reports, parallel.reports):
        np.testing.assert_array_equal(a.estimate_track, b.estimate_track)


def test_batch_workers_call_the_module_level_run_single(monkeypatch):
    """A patch of ``bench.run_single`` made before the pool forks is what the workers run.

    The benchmark harness times runs this way, so the pool must look the
    function up by name in each worker and never pickle it.
    """
    if len(os.sched_getaffinity(0)) < 2 or multiprocessing.get_start_method() != "fork":
        pytest.skip("needs two usable cores and the fork start method")
    original = bench.run_single

    def tagging(*args):
        report = original(*args)
        report.worker_pid = os.getpid()
        return report

    monkeypatch.setattr(bench, "run_single", tagging)
    s = build_canonical_scenario(scan_count=6, observer_leg_scans=2)
    batch = run_batch(s, FILTER_STANDARD, 20, 4, 3, parallelism=2)
    pids = [getattr(r, "worker_pid", None) for r in batch.reports]
    assert None not in pids and os.getpid() not in pids


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and shutdowns, starts no process."""

    started: list[int] = []
    stopped: list[int] = []

    def __init__(self, max_workers):
        SerialPool.started.append(max_workers)
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        SerialPool.stopped.append(self.max_workers)
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "parallelism, runs, cores, workers",
    [(10**6, 2, 64, 2), (10**6, 5, 3, 3), (2, 5, 3, 2), (3, 3, 1, None), (1, 4, 8, None)],
)
def test_batch_starts_at_most_one_worker_per_run_and_core(monkeypatch, parallelism, runs, cores, workers):
    monkeypatch.setattr("posspf.bench.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("posspf.bench.os.sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(SerialPool, "started", [])
    s = build_canonical_scenario(scan_count=6, observer_leg_scans=2)
    batch = run_batch(s, FILTER_STANDARD, 20, runs, 3, parallelism=parallelism)
    assert SerialPool.started == ([] if workers is None else [workers])
    serial = run_batch(s, FILTER_STANDARD, 20, runs, 3, parallelism=1)
    for a, b in zip(batch.reports, serial.reports):
        np.testing.assert_array_equal(a.pos_errors, b.pos_errors)


@pytest.fixture
def two_cores_serial_pool(monkeypatch):
    monkeypatch.setattr("posspf.bench.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("posspf.bench.os.sched_getaffinity", lambda pid: set(range(2)))
    monkeypatch.setattr(SerialPool, "started", [])
    monkeypatch.setattr(SerialPool, "stopped", [])


@pytest.mark.parametrize("parallelism, pools", [(2, [2, 2]), (1, [])])
def test_table1_starts_one_pool_per_call(two_cores_serial_pool, parallelism, pools):
    s = build_canonical_scenario(scan_count=6, observer_leg_scans=2)
    for _ in range(2):
        cells = table1_experiment(s, [20, 30], [3.0, math.inf], 3, 5, parallelism=parallelism)
        assert len(cells) == 8
    assert SerialPool.started == SerialPool.stopped == pools


def test_table1_shuts_its_pool_down_when_a_cell_raises(two_cores_serial_pool, monkeypatch):
    original = bench.run_batch
    calls = []

    def second_cell_raises(*args, **kwargs):
        calls.append(kwargs["pool"])
        if len(calls) == 2:
            raise RuntimeError("cell failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "run_batch", second_cell_raises)
    s = build_canonical_scenario(scan_count=6, observer_leg_scans=2)
    with pytest.raises(RuntimeError, match="cell failed"):
        table1_experiment(s, [20], [3.0, math.inf], 3, 5, parallelism=2)
    assert calls[0] is calls[1] and SerialPool.started == SerialPool.stopped == [2]


def test_table1_shared_pool_gives_the_serial_cells(monkeypatch):
    if len(os.sched_getaffinity(0)) < 2 or multiprocessing.get_start_method() != "fork":
        pytest.skip("needs two usable cores and the fork start method")
    original = bench.run_batch
    reports = {1: [], 2: []}

    def capture(*args, **kwargs):
        batch = original(*args, **kwargs)
        reports[args[5]].extend(batch.reports)
        return batch

    monkeypatch.setattr(bench, "run_batch", capture)
    s = build_canonical_scenario(scan_count=6, observer_leg_scans=2)
    pooled = table1_experiment(s, [20, 30], [3.0, math.inf], 4, 5, parallelism=2)
    serial = table1_experiment(s, [20, 30], [3.0, math.inf], 4, 5, parallelism=1)
    assert pooled == serial
    assert len(reports[2]) == len(reports[1]) == 32
    for a, b in zip(reports[2], reports[1]):
        np.testing.assert_array_equal(a.estimate_track, b.estimate_track)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 200)
    assert lo == 0.0
    assert 0.0 < hi < 0.03
    lo, hi = wilson_interval(100, 200)
    assert lo < 0.5 < hi


def test_table1_grid_shape_and_fields():
    s = build_canonical_scenario()
    cells = table1_experiment(s, n_grid=[100], nu_grid=[3.0, math.inf], runs=3, base_seed=9)
    assert len(cells) == 4  # 2 filters x 1 particle count x 2 tails
    kinds = {(c.filter_kind, c.nu) for c in cells}
    assert (FILTER_POSSIBILITY, 3.0) in kinds and (FILTER_STANDARD, math.inf) in kinds
    for c in cells:
        assert 0.0 <= c.wilson_lo_pct <= c.divergent_pct <= c.wilson_hi_pct <= 100.0
        assert c.runs == 3


def test_divergence_monotone_in_tail_dof():
    """Heavier tails (smaller nu) may not significantly reduce divergence.

    One-sided two-proportion check at 95% on >= 200 runs per cell.
    """
    s = build_canonical_scenario()
    runs = 200
    cells = table1_experiment(s, n_grid=[400], nu_grid=[3.0, 8.0, math.inf], runs=runs, base_seed=31)
    for kind in (FILTER_POSSIBILITY, FILTER_STANDARD):
        pcts = [c.divergent_pct / 100.0 for c in cells if c.filter_kind == kind]
        for heavier, lighter in zip(pcts, pcts[1:]):
            pooled = 0.5 * (heavier + lighter)
            se = math.sqrt(max(2 * pooled * (1 - pooled) / runs, 1e-12))
            z = (lighter - heavier) / se
            assert z < 1.645, f"{kind}: divergence rose significantly with lighter tails"


# ---------------------------------------------------------------------------
# reference curve
# ---------------------------------------------------------------------------


def test_scenario_crlb_first_scan_matches_prior():
    s = build_canonical_scenario()
    result = scenario_crlb(s)
    cross = (10e3 * s.filter_sigma) ** 2
    expected_scan1 = math.sqrt(cross + 3.5e3**2)
    assert result.position_bound[0] == pytest.approx(expected_scan1, rel=1e-9)
    assert np.all(np.isfinite(result.position_bound))


@pytest.mark.parametrize(
    "scenario, prior",
    [
        (build_canonical_scenario(), PriorConfig(range_sigma=1e300)),
        (build_canonical_scenario(filter_sigma_deg=1e300), PriorConfig()),
    ],
)
def test_scenario_crlb_raises_naming_the_first_non_finite_scan(recwarn, scenario, prior):
    with pytest.raises(ValueError, match=r"^position bound is not finite at scan 1 \(40 of 40 scans\)$"):
        scenario_crlb(scenario, prior)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_scenario_crlb_uses_every_prior_field():
    s = build_canonical_scenario()
    prior = PriorConfig(range_mean=12e3, range_sigma=2e3, vel_sigma=(1.0, 3.0), covariance_form="swapped")
    scan1 = scenario_crlb(s, prior).bounds[0]
    # Due north, the swapped form puts the range variance on x and the cross-range variance on y.
    np.testing.assert_allclose(np.diag(scan1), [2e3**2, 1.0, (12e3 * s.filter_sigma) ** 2, 9.0], rtol=1e-9)
