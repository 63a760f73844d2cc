"""Tests for scenario generation, measurement synthesis, and the MC harness."""

import dataclasses
import math
import multiprocessing
import os
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posspf import bench
from posspf.bench import (
    FILTER_POSSIBILITY,
    FILTER_STANDARD,
    NoiseModel,
    ProcessNoiseError,
    Scenario,
    is_divergent,
    run_batch,
    run_single,
    sample_target_track,
    scenario_crlb,
    synthesize_measurements,
    table1_experiment,
    wilson_interval,
)
from posspf.filters import possibility_pf_init, standard_pf_init
from posspf.tma import PriorConfig, bearings_of, init_prior

DEG = math.pi / 180.0


# ---------------------------------------------------------------------------
# canonical scenario
# ---------------------------------------------------------------------------


def test_canonical_defaults():
    s = Scenario()
    assert s.scan_count == 40
    assert s.T == 40.0
    assert len(s.observer) == 40
    assert s.true_noise.nu == math.inf
    assert s.true_noise.sigma == pytest.approx(1.0 * DEG)


def test_canonical_initial_bearing_is_zero():
    s = Scenario()
    rel = s.nominal_track - s.observer
    assert bearings_of(rel[:1])[0] == pytest.approx(0.0, abs=1e-12)


def test_minimal_valid_scenario():
    s = Scenario(scan_count=2, observer_leg_scans=1)
    assert s.scan_count == 2


def test_scenario_without_manoeuvre_rejected():
    with pytest.raises(ValueError, match="manoeuvre"):
        Scenario(scan_count=2)


def test_unknown_override_rejected():
    with pytest.raises(TypeError, match="warp_factor"):
        Scenario(warp_factor=9)


def test_scan_count_is_the_observer_length():
    s = Scenario(scan_count=7, observer_leg_scans=3)
    assert s.scan_count == len(s.observer) == 7
    shorter = dataclasses.replace(s, scan_count=5)
    assert shorter.scan_count == len(shorter.observer) == 5
    np.testing.assert_array_equal(shorter.observer, s.observer[:5])


def test_scenario_derives_its_tracks_from_its_parameters():
    s = Scenario(scan_count=5, T=10.0, observer_speed=2.0, observer_headings=(0.0, math.pi / 2), observer_leg_scans=2,
                 initial_range=5e3, initial_bearing=math.pi / 2, target_speed=3.0, target_heading=math.pi)
    # North for two scans, then east; each position integrates the previous scan's velocity.
    np.testing.assert_allclose(
        s.observer,
        [[0, 0, 0, 2], [0, 0, 20, 2], [0, 2, 40, 0], [20, 2, 40, 0], [40, 2, 40, 0]],
        atol=1e-12,
    )
    # East of the observer, then south at 3 m/s: each state moves by F, the constant-velocity step.
    np.testing.assert_allclose(
        s.nominal_track,
        [[5e3, 0, 0, -3], [5e3, 0, -30, -3], [5e3, 0, -60, -3], [5e3, 0, -90, -3], [5e3, 0, -120, -3]],
        atol=1e-9,
    )
    np.testing.assert_array_equal(s.F, [[1, 10, 0, 0], [0, 1, 0, 0], [0, 0, 1, 10], [0, 0, 0, 1]])


def test_scenario_rejects_non_finite_observer():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="observer states must be finite"):
            Scenario(observer_speed=1e307)


@pytest.mark.parametrize(
    "overrides, message",
    [
        # North at 100 m a scan onto the stationary target 10 km north: they meet at scan 101.
        (dict(scan_count=102, target_speed=0.0, observer_speed=2.5, observer_headings=(0.0, math.pi),
              observer_leg_scans=101), r"^target range is zero at scan 101, where its bearing gradient is undefined$"),
        (dict(target_speed=5e305), r"^target states relative to the observer must be finite$"),
        # A range that underflows when squared is as undefined as an exact zero.
        (dict(initial_range=1e-200, target_speed=0.0), r"^target range is zero at scan 1, "),
    ],
    ids=["target-meets-observer", "target-track-overflows", "target-range-underflows"],
)
def test_scenario_refuses_a_target_track_with_no_nominal_bearing(overrides, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            Scenario(**overrides)


def test_invalid_override_values_rejected():
    with pytest.raises(ValueError):
        Scenario(scan_count=1)
    with pytest.raises(ValueError, match="sampling interval"):
        Scenario(T=-1.0)
    with pytest.raises(ValueError, match="sampling interval"):
        Scenario(T=0.0)
    with pytest.raises(ValueError, match="sampling interval"):
        Scenario(T=math.nan)


# ---------------------------------------------------------------------------
# noise and measurement synthesis
# ---------------------------------------------------------------------------


def test_measurements_equal_true_bearings_in_small_noise_limit():
    s = Scenario(true_noise=NoiseModel(math.radians(1e-12)))
    rel = s.nominal_track - s.observer
    z = synthesize_measurements(s, np.random.default_rng(0), s.nominal_track)
    np.testing.assert_allclose(z, bearings_of(rel), atol=1e-10)


def test_gaussian_noise_sample_std():
    model = NoiseModel(1.0 * DEG)
    draws = model.sample(np.random.default_rng(1), 100_000)
    assert draws.std() == pytest.approx(1.0 * DEG, abs=0.02 * DEG)


def test_default_noise_is_exactly_scaled_standard_normal():
    sigma = 1.0 * DEG
    draws = NoiseModel(sigma).sample(np.random.default_rng(7), 1000)
    np.testing.assert_array_equal(draws, sigma * np.random.default_rng(7).standard_normal(1000))


@pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, 0.01])
def test_noise_model_rejects_non_positive_dof(nu):
    with pytest.raises(ValueError, match="degrees of freedom"):
        NoiseModel(1.0 * DEG, nu)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
def test_noise_model_rejects_a_sigma_that_is_not_positive_and_finite(sigma):
    with pytest.raises(ValueError, match="noise sigma must be positive and finite"):
        NoiseModel(sigma)


def test_student_t_heavy_tails_widen_spread():
    sigma = 1.0 * DEG
    t3 = NoiseModel(sigma, nu=3.0)
    draws = t3.sample(np.random.default_rng(8), 200_000)
    # Student-t with nu=3 has std sigma*sqrt(3), visibly above the Gaussian.
    assert draws.std() > 1.5 * sigma


def test_sampled_target_track_carries_process_noise():
    s = Scenario()
    nominal = s.nominal_track
    noisy = sample_target_track(s, np.random.default_rng(3))
    assert not np.allclose(noisy, nominal)
    with pytest.raises(ValueError, match="process noise intensity must be positive"):
        dataclasses.replace(s, q=0.0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    T=st.floats(0.5, 300.0),
    q=st.floats(1e-6, 10.0),
    scan_count=st.integers(2, 45),
)
def test_sampled_target_track_equals_the_per_scan_reference(seed, T, q, scan_count):
    """Every scan's move equals one deviation(rng, 1) row bit for bit, and the stream ends where it did."""
    s = Scenario(scan_count=scan_count, T=T, q=q, observer_leg_scans=1)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    reference = np.empty((scan_count, 4))
    reference[0] = s.nominal_track[0]
    for k in range(1, scan_count):
        reference[k] = s.F @ reference[k - 1] + s.process_noise.deviation(reference_rng, 1)[0]
    assert (sample_target_track(s, rng) == reference).all()
    assert rng.random() == reference_rng.random()


@pytest.mark.parametrize(
    "overrides", [{}, {"T": 17.0, "observer_speed": 5.3, "scan_count": 9, "observer_leg_scans": 2}, {"T": 123.4}]
)
def test_scenario_observer_offsets_are_the_per_scan_row_products(overrides):
    for s in (Scenario(**overrides), dataclasses.replace(Scenario(), **overrides)):
        assert s.observer_offsets.shape == (s.scan_count - 1, 4)
        for k in range(1, s.scan_count):
            assert (s.observer_offsets[k - 1] == s.F @ s.observer[k - 1] - s.observer[k]).all()


def test_scenario_builds_its_process_noise_once():
    s = Scenario(T=30.0, q=2e-3)
    # The white-acceleration block, q times (T^3/3, T^2/2; T^2/2, T), on each axis.
    T = np.float64(30.0)
    block = 2e-3 * np.array([[T**3 / 3.0, T**2 / 2.0], [T**2 / 2.0, T]])
    np.testing.assert_array_equal(s.process_noise.mean, np.zeros(4))
    np.testing.assert_array_equal(s.process_noise.spread, np.kron(np.eye(2), block))
    assert s == dataclasses.replace(s)  # compared by its inputs, not the derived noise


@pytest.mark.parametrize("T, message", [(1e103, "not finite"), (1e-300, "not positive definite")])
def test_scenario_refuses_a_process_noise_matrix_with_no_finite_factor(T, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProcessNoiseError, match=f"process noise matrix is not finite and positive definite: .*{message}"):
            Scenario(T=T)


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------


def test_near_noise_free_run_converges():
    s = Scenario(true_noise=NoiseModel(math.radians(0.05)))
    report = run_single(s, FILTER_POSSIBILITY, 2000, 42)
    assert report.pos_errors[-1] < 500.0
    assert not report.divergent
    report_std = run_single(s, FILTER_STANDARD, 2000, 42)
    assert report_std.pos_errors[-1] < 500.0


def test_same_seed_reproduces_report_exactly():
    s = Scenario()
    a = run_single(s, FILTER_POSSIBILITY, 300, 5)
    b = run_single(s, FILTER_POSSIBILITY, 300, 5)
    np.testing.assert_array_equal(a.estimate_track, b.estimate_track)
    np.testing.assert_array_equal(a.pos_errors, b.pos_errors)
    assert a.divergent == b.divergent


def test_both_filters_share_measurements_at_same_seed():
    s = Scenario()
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


def test_collapse_makes_a_divergent_run_not_a_crash(monkeypatch):
    # Every particle is impossible at the first update: both filters collapse.
    monkeypatch.setattr(bench, "bearing_log_likelihood", lambda states, z, sigma: np.full(len(states), -np.inf))
    s = Scenario(scan_count=6, observer_leg_scans=2)
    for kind in (FILTER_POSSIBILITY, FILTER_STANDARD):
        report = run_single(s, kind, 30, 1)
        assert report.collapsed and report.divergent
        assert np.isfinite(report.pos_errors[0])
        assert np.all(report.pos_errors[1:] == np.inf)


@pytest.mark.parametrize(
    "override",
    [
        {"T": math.inf},
        {"T": math.nan},
        {"q": -1e-3},
        {"q": math.nan},
        {"q": math.inf},
        {"filter_sigma": math.nan},
        {"initial_range": 0.0},
        {"initial_range": math.inf},
        {"initial_bearing": math.nan},
        {"target_heading": math.inf},
        {"target_speed": math.nan},
        {"observer_speed": math.inf},
        {"observer_headings": (1.2, math.nan)},
        {"observer_headings": (1.2,)},
    ],
)
def test_non_finite_scenario_values_rejected(override):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            Scenario(**override)


def test_report_metadata_fields():
    s = Scenario()
    report = run_single(s, FILTER_POSSIBILITY, 50, 11)
    assert report.particles == 50
    assert report.filter_kind == FILTER_POSSIBILITY


def test_run_report_survives_pickle_and_replace_unchanged():
    report = run_single(Scenario(scan_count=6, observer_leg_scans=2), FILTER_POSSIBILITY, 20, 4)
    assert not hasattr(report, "__dict__")  # slots: no per-report dict
    for copy in (pickle.loads(pickle.dumps(report)), dataclasses.replace(report)):
        assert type(copy) is bench.RunReport
        for f in dataclasses.fields(report):
            ours, theirs = getattr(report, f.name), getattr(copy, f.name)
            assert ours.tobytes() == theirs.tobytes() if isinstance(ours, np.ndarray) else ours == theirs


def test_unknown_filter_kind_rejected():
    s = Scenario()
    with pytest.raises(ValueError):
        run_single(s, "ekf", 10, 0)


SMALL = Scenario(scan_count=6, observer_leg_scans=2)
PRIOR = init_prior(0.0, (0.0, 7.5), DEG)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: run_single(SMALL, FILTER_POSSIBILITY, 20.7, 1), "n"),
        (lambda: run_single(SMALL, FILTER_STANDARD, np.float64(2.5), 1), "n"),
        (lambda: run_single(SMALL, FILTER_STANDARD, math.nan, 1), "n"),
        (lambda: run_single(SMALL, FILTER_STANDARD, "20", 1), "n"),
        (lambda: standard_pf_init(PRIOR, 2.5, None), "n"),
        (lambda: possibility_pf_init(PRIOR, 2.5, None), "n"),
        (lambda: run_batch(SMALL, FILTER_STANDARD, 20, 2.5, 1), "runs"),
        (lambda: run_batch(SMALL, FILTER_STANDARD, 20, 2, 1, parallelism=1.5), "parallelism"),
        (lambda: table1_experiment(SMALL, [20.7], [3], 2, 1), "n_grid entry"),
        (lambda: table1_experiment(SMALL, [20, 20.7], [3], 2, 1), "n_grid entry"),
        (lambda: table1_experiment(SMALL, [20], [3], 2.5, 1), "runs"),
        (lambda: Scenario(scan_count=40.9), "scan_count"),
        (lambda: Scenario(observer_leg_scans=2.5), "observer_leg_scans"),
    ],
    ids=["run_single", "run_single-numpy", "run_single-nan", "run_single-text", "standard_pf_init",
         "possibility_pf_init", "run_batch-runs", "run_batch-parallelism", "table1-n", "table1-second-n",
         "table1-runs", "scan_count", "observer_leg_scans"],
)
def test_fractional_counts_are_rejected_before_any_draw(monkeypatch, call, name):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking its counts")

    # The filters' rng is None above: using it fails as a draw would.
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number of at least \d, got "):
        call()


def test_whole_float_counts_run_as_ints():
    report = run_single(SMALL, FILTER_STANDARD, 20.0, 1)
    assert report.particles == 20 and type(report.particles) is int
    cells = table1_experiment(SMALL, [np.float64(20.0)], [3], 2, 1)
    assert [(c.n, type(c.n)) for c in cells] == [(20, int), (20, int)]


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


def test_batch_of_one_equals_single_run():
    s = Scenario()
    batch = run_batch(s, FILTER_STANDARD, 200, 1, 77)
    single = run_single(s, FILTER_STANDARD, 200, 77)
    np.testing.assert_array_equal(batch.reports[0].pos_errors, single.pos_errors)
    if not single.divergent:
        np.testing.assert_allclose(batch.rms_m, single.pos_errors)


def test_batch_rms_matches_definition():
    s = Scenario()
    batch = run_batch(s, FILTER_STANDARD, 200, 6, 100)
    alive = np.array([r.pos_errors for r in batch.reports if not r.divergent])
    np.testing.assert_allclose(batch.rms_m, np.sqrt((alive**2).mean(axis=0)))


def test_batch_counts_derive_from_the_reports():
    s = Scenario(scan_count=6, observer_leg_scans=2)
    batch = run_batch(s, FILTER_POSSIBILITY, 20, 5, 3)
    assert [f.name for f in dataclasses.fields(batch)] == ["reports", "rms_m"]
    n_div = sum(r.divergent for r in batch.reports)
    lo, hi = wilson_interval(n_div, 5)
    assert (batch.n_runs, batch.n_divergent, batch.n_alive) == (5, n_div, 5 - n_div)
    assert (batch.divergence_pct, batch.wilson_lo_pct, batch.wilson_hi_pct) == (100.0 * n_div / 5, 100.0 * lo, 100.0 * hi)


def test_batch_parallelism_does_not_change_results():
    s = Scenario()
    serial = run_batch(s, FILTER_POSSIBILITY, 150, 4, 55, parallelism=1)
    parallel = run_batch(s, FILTER_POSSIBILITY, 150, 4, 55, parallelism=2)
    np.testing.assert_array_equal(serial.rms_m, parallel.rms_m)
    assert serial.divergence_pct == parallel.divergence_pct
    for a, b in zip(serial.reports, parallel.reports):
        np.testing.assert_array_equal(a.estimate_track, b.estimate_track)


class TaggedReport(bench.RunReport):
    """A run report that can also carry the pid of the process that made it."""


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
        tagged = TaggedReport(*(getattr(report, f.name) for f in dataclasses.fields(report)))
        tagged.worker_pid = os.getpid()
        return tagged

    monkeypatch.setattr(bench, "run_single", tagging)
    s = Scenario(scan_count=6, observer_leg_scans=2)
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
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("posspf.bench.os.sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(SerialPool, "started", [])
    s = Scenario(scan_count=6, observer_leg_scans=2)
    batch = run_batch(s, FILTER_STANDARD, 20, runs, 3, parallelism=parallelism)
    assert SerialPool.started == ([] if workers is None else [workers])
    serial = run_batch(s, FILTER_STANDARD, 20, runs, 3, parallelism=1)
    for a, b in zip(batch.reports, serial.reports):
        np.testing.assert_array_equal(a.pos_errors, b.pos_errors)


@pytest.fixture
def two_cores_serial_pool(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("posspf.bench.os.sched_getaffinity", lambda pid: set(range(2)))
    monkeypatch.setattr(SerialPool, "started", [])
    monkeypatch.setattr(SerialPool, "stopped", [])


@pytest.mark.parametrize("parallelism, pools", [(2, [2, 2]), (1, [])])
def test_table1_starts_one_pool_per_call(two_cores_serial_pool, parallelism, pools):
    s = Scenario(scan_count=6, observer_leg_scans=2)
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
    s = Scenario(scan_count=6, observer_leg_scans=2)
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
    s = Scenario(scan_count=6, observer_leg_scans=2)
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


@pytest.mark.parametrize(
    "successes, trials, message",
    [(5, 3, "successes"), (-1, 10, "successes"), (11, 10, "successes"), (0, 0, "trials"), (0, -1, "trials")],
)
def test_wilson_interval_rejects_invalid_counts(successes, trials, message):
    with pytest.raises(ValueError, match=message):
        wilson_interval(successes, trials)


def test_table1_grid_shape_and_fields():
    s = Scenario()
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
    s = Scenario()
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
    s = Scenario()
    bound = scenario_crlb(s)
    cross = (10e3 * s.filter_sigma) ** 2
    expected_scan1 = math.sqrt(cross + 3.5e3**2)
    assert isinstance(bound, np.ndarray) and bound.shape == (s.scan_count,)
    assert bound[0] == pytest.approx(expected_scan1, rel=1e-9)
    assert np.all(np.isfinite(bound))


def test_scenario_crlb_bounds_the_filters_noise_model_not_the_truths():
    s = Scenario()
    for truth in (NoiseModel(math.radians(2.0)), NoiseModel(math.radians(1.0), 3.0)):
        assert (scenario_crlb(dataclasses.replace(s, true_noise=truth)) == scenario_crlb(s)).all()
    assert not (scenario_crlb(dataclasses.replace(s, filter_sigma=math.radians(2.0))) == scenario_crlb(s)).any()


@pytest.mark.parametrize(
    "scenario, prior",
    [
        (Scenario(), PriorConfig(range_sigma=1e300)),
        (Scenario(filter_sigma=math.radians(1e300)), PriorConfig()),
    ],
)
def test_scenario_crlb_raises_naming_the_first_non_finite_scan(recwarn, scenario, prior):
    with pytest.raises(ValueError, match=r"^position bound is not finite at scan 1 \(40 of 40 scans\)$"):
        scenario_crlb(scenario, prior)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

