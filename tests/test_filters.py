"""Tests for the possibility and standard particle filters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posspf.filters import (
    AllWeightsZero,
    LinearGaussianTransition,
    ParticleSet,
    PossibilityPFOptions,
    peak_set_representative,
    possibility_pf_init,
    possibility_pf_resample,
    possibility_pf_step,
    standard_pf_init,
    standard_pf_step,
    systematic_resample,
)
from posspf.possq import GaussianPossibility, water_pour_continuous
from posspf.tma import init_prior, process_noise_matrix, transition_matrix

from _toy import (
    kalman_track,
    run_possibility_toy,
    run_standard_toy,
    simulate,
    toy_log_likelihood,
)

DEG = math.pi / 180.0

# The textbook recursion: max-entropy support, Gaussian transition
# weighting, no inflation and the raw arg-max estimate.
TEXTBOOK_OPTIONS = PossibilityPFOptions(
    proposal="max-entropy",
    transition_weighting="gaussian",
    proposal_inflation=1.0,
    map_peak_cut=0.0,
)
ALL_OPTION_SETS = [PossibilityPFOptions(), TEXTBOOK_OPTIONS]


# ---------------------------------------------------------------------------
# initialisation
# ---------------------------------------------------------------------------


def test_init_single_particle_has_weight_one():
    prior = GaussianPossibility([0.0], [[1.0]])
    ps = possibility_pf_init(prior, 1, np.random.default_rng(0))
    assert ps.weights[0] == 1.0


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_init_position_mean_near_prior_mean(options):
    prior = init_prior(0.1, (2.0, 1.0), DEG)
    n = 10_000
    ps = possibility_pf_init(prior, n, np.random.default_rng(3), options)
    se = ps.states.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(ps.states.mean(axis=0) - prior.mean) < 3 * se)


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_init_weights_in_range_with_unit_max(options):
    prior = init_prior(0.0, (0.0, 0.0), DEG)
    ps = possibility_pf_init(prior, 500, np.random.default_rng(1), options)
    assert ps.weights.max() == 1.0
    assert np.all(ps.weights > 0)
    assert np.all(ps.weights <= 1.0)


def _assert_same_stream(draw, reference, seed=5):
    """Two draws from one seeded stream equal the reference expression, bit for bit."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        np.testing.assert_array_equal(draw(rng), reference(ref_rng))


def test_draws_consume_the_reference_rng_stream():
    # The references are the inline expressions the samplers replaced; run
    # outputs depend on every draw staying bit-identical to them.
    n = 257
    prior = init_prior(0.1, (2.0, 1.0), DEG)
    prior_chol = np.linalg.cholesky(prior.spread)
    F, Q = transition_matrix(40.0), process_noise_matrix(40.0, 1e-3)
    offset = np.array([0.0, -0.3, 0.0, 0.2])
    transition = LinearGaussianTransition(F, Q, offset)
    states = prior.mean + 100.0 * np.random.default_rng(1).standard_normal((n, 4))
    means = states @ F.T + offset

    def gaussian(mean, chol):
        return lambda rng: mean + rng.standard_normal((n, 4)) @ chol.T

    _assert_same_stream(lambda rng: possibility_pf_init(prior, n, rng).states, gaussian(prior.mean, prior_chol))
    _assert_same_stream(lambda rng: standard_pf_init(prior, n, rng).states, gaussian(prior.mean, prior_chol))
    for inflation in (1.0, 1.5):
        options = PossibilityPFOptions(proposal="density", proposal_inflation=inflation)
        _assert_same_stream(
            lambda rng: transition.propose(states, rng, options),
            gaussian(means, np.linalg.cholesky(Q * inflation)),
        )
    options = PossibilityPFOptions(proposal="max-entropy")
    poured = water_pour_continuous(GaussianPossibility(np.zeros(4), Q * options.proposal_inflation))
    _assert_same_stream(
        lambda rng: transition.propose(states, rng, options),
        lambda rng: means + poured.sample(rng, n),
    )
    _assert_same_stream(lambda rng: transition.sample_model(states, rng), gaussian(means, np.linalg.cholesky(Q)))


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.just(1), st.integers(min_value=1, max_value=300)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=4),
    proposal=st.sampled_from(["density", "max-entropy"]),
    inflation=st.sampled_from([1.0, 1.5, 2.0]),
)
def test_propagation_equals_broadcast_means_plus_sample(n, seed, offset, proposal, inflation):
    # The reference is the textbook expression: the means broadcast the
    # offset over the rows, then the proposal's sample (mean zero) is added.
    F, Q = transition_matrix(40.0), process_noise_matrix(40.0, 1e-3)
    offset = np.asarray(offset)
    transition = LinearGaussianTransition(F, Q, offset)
    states = np.random.default_rng(seed).uniform(-2e4, 2e4, (n, 4))
    means = states @ F.T + offset
    options = PossibilityPFOptions(proposal=proposal, proposal_inflation=inflation)
    density = GaussianPossibility(np.zeros(4), Q * inflation)
    source = water_pour_continuous(density) if proposal == "max-entropy" else density
    _assert_same_stream(lambda rng: transition.propose(states, rng, options), lambda rng: means + source.sample(rng, n))
    noise = GaussianPossibility(np.zeros(4), Q)
    _assert_same_stream(lambda rng: transition.sample_model(states, rng), lambda rng: means + noise.sample(rng, n))


def test_init_rejects_zero_particles():
    with pytest.raises(ValueError):
        possibility_pf_init(GaussianPossibility([0.0], [[1.0]]), 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# stepping, degenerate cases
# ---------------------------------------------------------------------------


def test_single_particle_tracks_deterministic_propagation():
    """Zero-spread limit with flat likelihood: MAP follows A x + b."""
    scale = 1e6
    min_var = 1.0 / (2.0 * math.pi)  # smallest spread the pour admits in 1-D
    transition = LinearGaussianTransition([[2.0]], [[min_var]], offset=[-3.0])
    flat = lambda states, z: np.zeros(states.shape[0])
    ps = ParticleSet(np.array([[scale]]), np.array([1.0]))
    rng = np.random.default_rng(2)
    ps, record = possibility_pf_step(ps, transition, flat, 0.0, rng, 1, TEXTBOOK_OPTIONS)
    deterministic = 2.0 * scale - 3.0
    assert record.estimate[0] == pytest.approx(deterministic, abs=6 * math.sqrt(min_var))
    assert ps.weights[0] == 1.0


@pytest.mark.parametrize(
    "knob",
    [
        {"proposal_inflation": math.nan},
        {"proposal_inflation": math.inf},
        {"proposal_inflation": 0.0},
        {"map_peak_cut": math.nan},
        {"map_peak_cut": math.inf},
        {"map_peak_cut": -0.1},
    ],
)
def test_non_finite_options_rejected(knob):
    with pytest.raises(ValueError):
        PossibilityPFOptions(**knob)


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_single_particle_weight_stays_one(options):
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    ps = ParticleSet(np.array([[0.0]]), np.array([1.0]))
    rng = np.random.default_rng(4)
    for k in range(1, 6):
        ps, record = possibility_pf_step(
            ps, transition, lambda s, z: -0.5 * (z - s[:, 0]) ** 2, 0.3, rng, k, options
        )
        assert ps.weights[0] == 1.0
        assert record.estimate[0] == ps.states[0, 0]


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_max_weight_exactly_one_after_every_step(options):
    rng = np.random.default_rng(8)
    truth, z = simulate(np.random.default_rng(21), 8)
    prior = GaussianPossibility([z[0]], [[1.0]])
    ps = possibility_pf_init(prior, 300, rng, options)
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    for k in range(1, 8):
        ps, _ = possibility_pf_step(ps, transition, toy_log_likelihood, z[k], rng, k, options)
        assert ps.weights.max() == 1.0
        assert np.all(ps.weights >= 0)


def test_standard_weights_sum_to_one_after_every_step():
    rng = np.random.default_rng(9)
    truth, z = simulate(np.random.default_rng(22), 8)
    prior = GaussianPossibility([z[0]], [[1.0]])
    ps = standard_pf_init(prior, 300, rng)
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    for k in range(1, 8):
        ps, _ = standard_pf_step(ps, transition, toy_log_likelihood, z[k], rng, k)
        assert ps.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_standard_single_particle_estimate_is_the_particle():
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    ps = ParticleSet(np.array([[5.0]]), np.array([1.0]))
    rng = np.random.default_rng(10)
    ps, record = standard_pf_step(ps, transition, lambda s, z: np.zeros(1), 0.0, rng, 1)
    assert record.estimate[0] == ps.states[0, 0]


# ---------------------------------------------------------------------------
# MAP membership and resampling support
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_map_estimate_is_a_predicted_particle(options):
    truth, z = simulate(np.random.default_rng(30), 6)
    prior = GaussianPossibility([z[0]], [[1.0]])
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    ps = possibility_pf_init(prior, 200, np.random.default_rng(31), options)
    for k in range(1, 6):
        # Replay the prediction with an identically seeded stream, then step.
        replay_rng = np.random.default_rng((77, k))
        predicted = transition.propose(ps.states, replay_rng, options)
        step_rng = np.random.default_rng((77, k))
        ps, record = possibility_pf_step(ps, transition, toy_log_likelihood, z[k], step_rng, k, options)
        assert any(np.array_equal(record.estimate, row) for row in predicted)


def test_peak_set_representative_tie_breaks_to_first_index():
    states = np.array([[0.0], [1.0], [2.0]])
    log_w = np.array([0.0, 0.0, -5.0])
    assert peak_set_representative(states, log_w, 0.0) == 0


def test_resampling_only_draws_positive_weight_particles():
    predicted = np.arange(10.0).reshape(-1, 1)
    weights = np.array([1.0, 0.0, 0.5, 0.0, 0.2, 0.0, 0.0, 0.3, 0.0, 0.1])
    ps = possibility_pf_resample(predicted, weights, np.random.default_rng(12))
    dead_states = predicted[weights == 0.0][:, 0]
    assert not np.any(np.isin(ps.states[:, 0], dead_states))
    assert np.all(ps.weights > 0)
    assert ps.weights.max() == 1.0


def test_systematic_resample_uniform_weights_is_identity_permutation():
    n = 64
    idx = systematic_resample(np.full(n, 1.0 / n), np.random.default_rng(13))
    np.testing.assert_array_equal(np.sort(idx), np.arange(n))


def test_all_weights_zero_raises():
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    ps = ParticleSet(np.zeros((5, 1)), np.full(5, 1.0))
    dead = lambda states, z: np.full(states.shape[0], -np.inf)
    with pytest.raises(AllWeightsZero):
        possibility_pf_step(ps, transition, dead, 0.0, np.random.default_rng(14), 1)
    with pytest.raises(AllWeightsZero):
        standard_pf_step(ps, transition, dead, 0.0, np.random.default_rng(15), 1)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_fixed_seed_reproduces_map_track(options):
    truth, z = simulate(np.random.default_rng(40), 10)
    first = run_possibility_toy(z, 400, 123, options)
    second = run_possibility_toy(z, 400, 123, options)
    np.testing.assert_array_equal(first, second)


# ---------------------------------------------------------------------------
# linear-Gaussian oracle (light version; the strict gate lives in acceptance)
# ---------------------------------------------------------------------------


def test_toy_filters_track_kalman_posterior():
    errors_poss, errors_std = [], []
    for seed in range(5):
        truth, z = simulate(np.random.default_rng(100 + seed), 10)
        means, variances = kalman_track(z)
        errors_poss.append(run_possibility_toy(z, 2000, seed) - means)
        errors_std.append(run_standard_toy(z, 2000, seed) - means)
    sigma = np.sqrt(variances)
    assert np.mean(np.abs(np.array(errors_poss))) < 0.5 * sigma.mean()
    assert np.mean(np.abs(np.array(errors_std))) < 0.1 * sigma.mean()


def test_sample_density_insensitivity_of_map_track():
    """Doubling the particle count moves the MAP only within Monte Carlo noise."""
    per_seed_error = {1000: [], 2000: []}
    for seed in range(50):
        truth, z = simulate(np.random.default_rng(200 + seed), 10)
        means, _ = kalman_track(z)
        for n in (1000, 2000):
            track = run_possibility_toy(z, n, (seed, n))
            per_seed_error[n].append(np.mean(np.abs(track - means)))
    stats = {}
    for n, vals in per_seed_error.items():
        vals = np.array(vals)
        half = 1.96 * vals.std(ddof=1) / math.sqrt(len(vals))
        stats[n] = (vals.mean() - half, vals.mean() + half)
    lo_small, hi_small = stats[1000]
    lo_big, hi_big = stats[2000]
    assert lo_small <= hi_big and lo_big <= hi_small, f"CIs disjoint: {stats}"
