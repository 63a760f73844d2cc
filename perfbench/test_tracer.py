"""The tracer restores every binding, passes results through and counts calls exactly.

    python -m pytest -q perfbench/test_tracer.py
"""

import numpy as np
import pytest

import tracer as tr
import workloads

posspf = workloads.import_posspf()
bench = posspf.bench
N = 100


def _bindings():
    return {(owner, attr): vars(tr.resolve(owner))[attr] for _, owner, attr, _ in tr.BINDINGS}


def _inputs():
    cfg = posspf.config.load_config(None, [])
    return cfg.scenario(), cfg.prior(), cfg.filter_options()


def test_bindings_restored_even_when_the_pass_raises():
    before = _bindings()
    tracer = tr.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(_bindings()[key] is not fn for key, fn in before.items())
            raise RuntimeError("abort the pass")
    after = _bindings()
    assert all(after[key] is fn for key, fn in before.items())


def test_counts_are_exact_and_results_unchanged():
    scenario, prior, options = _inputs()
    steps = scenario.scan_count - 1
    plain_poss = bench.run_batch(scenario, "possibility", N, 2, 7, 1, prior, options)
    plain_std = bench.run_single(scenario, "standard", N, 7, prior, options)

    tracer = tr.Tracer()
    with tracer.installed():
        posspf.config.load_config(None, [])
        poss = bench.run_batch(scenario, "possibility", N, 2, 7, 1, prior, options)
        std = bench.run_single(scenario, "standard", N, 7, prior, options)

    assert not any(r.collapsed for r in poss.reports) and not std.collapsed
    for traced, plain in zip(poss.reports + [std], plain_poss.reports + [plain_std]):
        np.testing.assert_array_equal(traced.pos_errors, plain.pos_errors)

    calls = {name: len(times) for name, times in tracer.self_times().items()}
    expected = {
        "config.load_config": 1,
        "bench.run_batch": 1,
        "bench.run_single": 3,
        "bench.sample_target_track": 3,
        "bench.synthesize_measurements": 3,
        "tma.init_prior": 3,
        "tma.bearing_log_likelihood": 3 * steps,
        "filters.possibility_pf_init": 2,
        "filters.possibility_pf_step": 2 * steps,
        "filters.peak_set_representative": 2 * (1 + steps),
        "filters.propose": 2 * steps,
        "filters.possibility_pf_resample": 2 * steps,
        "possq.water_pour_discrete": 2 * steps,
        "possq.sample_discrete": 2 * steps,
        "filters.standard_pf_init": 1,
        "filters.standard_pf_step": steps,
        "filters.sample_model": steps,
        "filters.systematic_resample": steps,
    }
    assert set(expected) == set(tr.LAYER_NAMES)
    assert {name: calls.get(name, 0) for name in tr.LAYER_NAMES} == expected
    assert tracer.counts["bench.particle_scans"] == 3 * N * scenario.scan_count
    assert len(tracer.samples["possq.sample_discrete.distinct_ratio"]) == 2 * steps
    assert len(tracer.samples["filters.systematic_resample.ess_ratio"]) == steps
    assert all(end >= start for _, start, end, _ in tracer.spans)
    assert all(t >= 0.0 for times in tracer.self_times().values() for t in times)


def test_collapse_passes_through_and_is_counted():
    options = posspf.filters.PossibilityPFOptions()
    transition = posspf.filters.LinearGaussianTransition(np.eye(4), np.eye(4))
    ps = posspf.filters.ParticleSet(np.zeros((N, 4)), np.ones(N))
    rng = np.random.default_rng(0)

    def impossible(states, z):
        return np.full(states.shape[0], -np.inf)

    tracer = tr.Tracer()
    with tracer.installed():
        with pytest.raises(posspf.filters.AllWeightsZero):
            bench.possibility_pf_step(ps, transition, impossible, 0.0, rng, 1, options)
    assert tracer.counts["filters.collapses"] == 1
    assert [span[0] for span in tracer.spans] == ["filters.possibility_pf_step", "filters.propose"]
