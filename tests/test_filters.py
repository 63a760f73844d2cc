"""Tests for the possibility and standard particle filters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posspf.bench import (
    FILTER_POSSIBILITY,
    FILTER_STANDARD,
    Scenario,
    run_single,
    sample_target_track,
    synthesize_measurements,
)
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
from posspf.possq import GaussianPossibility, sample_discrete, water_pour_continuous, water_pour_discrete
from posspf.tma import init_prior

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
    ps, _ = possibility_pf_init(prior, 1, np.random.default_rng(0))
    assert ps.weights[0] == 1.0


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_init_position_mean_near_prior_mean(options):
    prior = init_prior(0.1, (2.0, 1.0), DEG)
    n = 10_000
    ps, _ = possibility_pf_init(prior, n, np.random.default_rng(3), options)
    se = ps.states.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(ps.states.mean(axis=0) - prior.mean) < 3 * se)


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_init_weights_in_range_with_unit_max(options):
    prior = init_prior(0.0, (0.0, 0.0), DEG)
    ps, _ = possibility_pf_init(prior, 500, np.random.default_rng(1), options)
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
    motion = Scenario(T=40.0, q=1e-3)
    F, Q = motion.F, motion.process_noise.spread
    offset = np.array([0.0, -0.3, 0.0, 0.2])
    transition = LinearGaussianTransition(F, Q, offset)
    states = prior.mean + 100.0 * np.random.default_rng(1).standard_normal((n, 4))
    means = states @ F.T + offset

    def gaussian(mean, chol):
        return lambda rng: mean + rng.standard_normal((n, 4)) @ chol.T

    _assert_same_stream(lambda rng: possibility_pf_init(prior, n, rng)[0].states, gaussian(prior.mean, prior_chol))
    _assert_same_stream(lambda rng: standard_pf_init(prior, n, rng)[0].states, gaussian(prior.mean, prior_chol))
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
        lambda rng: means + poured.deviation(rng, n),
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
    # offset over the rows, then the proposal's zero-mean deviation is added.
    motion = Scenario(T=40.0, q=1e-3)
    F, Q = motion.F, motion.process_noise.spread
    offset = np.asarray(offset)
    transition = LinearGaussianTransition(F, Q, offset)
    states = np.random.default_rng(seed).uniform(-2e4, 2e4, (n, 4))
    means = states @ F.T + offset
    options = PossibilityPFOptions(proposal=proposal, proposal_inflation=inflation)
    density = GaussianPossibility(np.zeros(4), Q * inflation)
    source = water_pour_continuous(density) if proposal == "max-entropy" else density
    _assert_same_stream(lambda rng: transition.propose(states, rng, options), lambda rng: means + source.deviation(rng, n))
    noise = GaussianPossibility(np.zeros(4), Q)
    _assert_same_stream(lambda rng: transition.sample_model(states, rng), lambda rng: means + noise.deviation(rng, n))


def test_transition_draws_alike_from_a_spread_matrix_and_from_its_gaussian_possibility():
    # run_single passes Scenario.process_noise; most callers pass its spread matrix.
    motion = Scenario()
    offset = np.array([0.0, -0.3, 0.0, 0.2])
    states = np.random.default_rng(3).uniform(-2e4, 2e4, (300, 4))
    options = [PossibilityPFOptions(), PossibilityPFOptions(proposal="max-entropy", proposal_inflation=2.0)]

    def draws(spread):
        transition = LinearGaussianTransition(motion.F, spread, offset)
        # One stream through every draw: a proposal per options set, then the model.
        return lambda rng: [transition.propose(states, rng, o) for o in options] + [transition.sample_model(states, rng)]

    _assert_same_stream(draws(motion.process_noise), draws(motion.process_noise.spread))


@pytest.mark.parametrize("n", [1, 2, 3, 500])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_means_equal_the_row_major_product_bit_for_bit(n, layout):
    # means computes (A @ x.T).T, which must equal x @ A.T for either layout of x.
    motion = Scenario(T=40.0, q=1e-3)
    F, Q = motion.F, motion.process_noise.spread
    offset = np.array([3.5, -0.3, -7.25, 0.2])
    states = np.asarray(np.random.default_rng(n).uniform(-2e4, 2e4, (n, 4)), order=layout)
    expected = np.ascontiguousarray(states) @ F.T + offset
    np.testing.assert_array_equal(LinearGaussianTransition(F, Q, offset).means(states), expected)


@pytest.mark.parametrize("n", [1, 2, 3, 500])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_bootstrap_sets_are_column_major_and_estimates_sum_a_row_major_copy(n, layout):
    # The sets keep each coordinate contiguous.  The estimate w @ states sums
    # in memory order, so it sums a row-major copy to keep its bits.
    prior = init_prior(0.1, (2.0, 1.0), DEG)
    motion = Scenario(T=40.0, q=1e-3)
    transition = LinearGaussianTransition(motion.F, motion.process_noise.spread)
    ps, estimate = standard_pf_init(prior, n, np.random.default_rng(n))
    assert ps.states.flags.f_contiguous
    np.testing.assert_array_equal(estimate, ps.weights @ np.ascontiguousarray(ps.states))

    ps = ParticleSet(np.asarray(ps.states, order=layout), ps.weights)
    moved = transition.sample_model(ps.states, np.random.default_rng(1))
    assert moved.flags.f_contiguous
    log_likelihood = lambda states, z: -0.5 * ((states[:, 0] - z) / 1e3) ** 2
    stepped, estimate = standard_pf_step(ps, transition, log_likelihood, 50.0, np.random.default_rng(1), 1)
    assert stepped.states.flags.f_contiguous
    # The step's weights, replayed on the same draws.
    log_w = np.log(ps.weights) + log_likelihood(moved, 50.0)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    np.testing.assert_array_equal(estimate, w @ np.ascontiguousarray(moved))


@pytest.mark.parametrize("proposal", ["density", "max-entropy"])
def test_possibility_init_estimate_at_zero_cut_is_the_arg_max_particle(proposal):
    prior = init_prior(0.1, (2.0, 1.0), DEG)
    options = PossibilityPFOptions(proposal=proposal, map_peak_cut=0.0)
    ps, estimate = possibility_pf_init(prior, 500, np.random.default_rng(6), options)
    j = np.argmax(ps.weights)
    assert ps.weights[j] == 1.0
    np.testing.assert_array_equal(estimate, ps.states[j])


@pytest.mark.parametrize("cut", [0.5, 2.0])
def test_possibility_init_estimate_is_a_near_peak_particle(cut):
    prior = init_prior(0.1, (2.0, 1.0), DEG)
    ps, estimate = possibility_pf_init(prior, 500, np.random.default_rng(7), PossibilityPFOptions(map_peak_cut=cut))
    (rows,) = np.nonzero((ps.states == estimate).all(axis=1))
    assert rows.size and np.all(ps.weights[rows] >= math.exp(-cut))


def test_bootstrap_init_estimate_is_the_weighted_mean_bit_for_bit():
    prior = init_prior(0.1, (2.0, 1.0), DEG)
    ps, estimate = standard_pf_init(prior, 500, np.random.default_rng(8))
    np.testing.assert_array_equal(estimate, ps.weights @ np.ascontiguousarray(ps.states))


@pytest.mark.parametrize("kind", [FILTER_POSSIBILITY, FILTER_STANDARD])
def test_run_single_first_estimate_is_the_init_estimate(kind):
    scenario = Scenario(scan_count=4, observer_leg_scans=2)
    seed, n = 11, 300
    rng_world = np.random.default_rng((seed, 0))
    z = synthesize_measurements(scenario, rng_world, sample_target_track(scenario, rng_world))
    prior = init_prior(z[0], scenario.observer[0, [1, 3]], scenario.filter_sigma)
    init = possibility_pf_init if kind == FILTER_POSSIBILITY else standard_pf_init
    _, estimate = init(prior, n, np.random.default_rng((seed, 1)))
    np.testing.assert_array_equal(run_single(scenario, kind, n, seed).estimate_track[0], estimate[::2])


def test_particle_set_rejects_a_count_mismatch():
    with pytest.raises(ValueError, match="particle count"):
        ParticleSet(np.zeros((3, 2)), np.ones(2))


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
    ps, estimate = possibility_pf_step(ps, transition, flat, 0.0, rng, 1, TEXTBOOK_OPTIONS)
    deterministic = 2.0 * scale - 3.0
    assert estimate[0] == pytest.approx(deterministic, abs=6 * math.sqrt(min_var))
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
        {"proposal": "uniform"},
        {"transition_weighting": "uniform"},
    ],
)
def test_invalid_options_rejected(knob):
    with pytest.raises(ValueError):
        PossibilityPFOptions(**knob)


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_single_particle_weight_stays_one(options):
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    ps = ParticleSet(np.array([[0.0]]), np.array([1.0]))
    rng = np.random.default_rng(4)
    for k in range(1, 6):
        ps, estimate = possibility_pf_step(
            ps, transition, lambda s, z: -0.5 * (z - s[:, 0]) ** 2, 0.3, rng, k, options
        )
        assert ps.weights[0] == 1.0
        assert estimate[0] == ps.states[0, 0]


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_max_weight_exactly_one_after_every_step(options):
    rng = np.random.default_rng(8)
    truth, z = simulate(np.random.default_rng(21), 8)
    prior = GaussianPossibility([z[0]], [[1.0]])
    ps, _ = possibility_pf_init(prior, 300, rng, options)
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    for k in range(1, 8):
        ps, _ = possibility_pf_step(ps, transition, toy_log_likelihood, z[k], rng, k, options)
        assert ps.weights.max() == 1.0
        assert np.all(ps.weights >= 0)


def test_standard_weights_sum_to_one_after_every_step():
    rng = np.random.default_rng(9)
    truth, z = simulate(np.random.default_rng(22), 8)
    prior = GaussianPossibility([z[0]], [[1.0]])
    ps, _ = standard_pf_init(prior, 300, rng)
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    for k in range(1, 8):
        ps, _ = standard_pf_step(ps, transition, toy_log_likelihood, z[k], rng, k)
        assert ps.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_standard_single_particle_estimate_is_the_particle():
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    ps = ParticleSet(np.array([[5.0]]), np.array([1.0]))
    rng = np.random.default_rng(10)
    ps, estimate = standard_pf_step(ps, transition, lambda s, z: np.zeros(1), 0.0, rng, 1)
    assert estimate[0] == ps.states[0, 0]


# ---------------------------------------------------------------------------
# MAP membership and resampling support
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("options", ALL_OPTION_SETS)
def test_map_estimate_is_a_predicted_particle(options):
    truth, z = simulate(np.random.default_rng(30), 6)
    prior = GaussianPossibility([z[0]], [[1.0]])
    transition = LinearGaussianTransition([[1.0]], [[1.0]])
    ps, _ = possibility_pf_init(prior, 200, np.random.default_rng(31), options)
    for k in range(1, 6):
        # Replay the prediction with an identically seeded stream, then step.
        replay_rng = np.random.default_rng((77, k))
        predicted = transition.propose(ps.states, replay_rng, options)
        step_rng = np.random.default_rng((77, k))
        ps, estimate = possibility_pf_step(ps, transition, toy_log_likelihood, z[k], step_rng, k, options)
        assert any(np.array_equal(estimate, row) for row in predicted)


def test_peak_set_representative_tie_breaks_to_first_index():
    states = np.array([[0.0], [1.0], [2.0]])
    log_w = np.array([0.0, 0.0, -5.0])
    assert peak_set_representative(states, log_w, 0.0) == 0


def test_peak_set_representative_at_zero_cut_picks_the_most_central_tied_particle():
    # At cut 0 the set is the tied peak {0, 1, 1.1}; its barycentre 0.7 is closest to 1.
    states = np.array([[0.0], [1.0], [1.1]])
    assert peak_set_representative(states, np.zeros(3), 0.0) == 1


def _barycentre_index(states, norm_log_weights, cut):
    """The index that peak_set_representative's barycentre computation picks, for a set of any size."""
    selected = np.flatnonzero(norm_log_weights >= -cut)
    sub = states[selected]
    wsub = np.exp(norm_log_weights[selected])
    with np.errstate(all="ignore"):  # an inf row makes the barycentre inf or NaN
        barycentre = (wsub[:, None] * sub).sum(axis=0) / wsub.sum()
        dist = np.linalg.norm(sub - barycentre, axis=1)
    return int(selected[np.argmin(dist)])


@pytest.mark.parametrize(
    "row", [[3.0, -1.0, 2.0, 0.5], [np.inf, 0.0, 1.0, 0.0], [-np.inf, np.inf, 0.0, 0.0], [1e300, 1e300, -1e300, 0.0]]
)
def test_a_single_member_peak_set_gives_the_barycentre_index(row):
    states = np.random.default_rng(5).standard_normal((6, 4))
    states[2] = row
    log_w = np.full(6, -3.0)
    log_w[2] = 0.0
    for cut in (0.0, 0.5, 2.9):
        assert peak_set_representative(states, log_w, cut) == _barycentre_index(states, log_w, cut) == 2
    one = states[2:3]
    assert peak_set_representative(one, np.zeros(1), 0.5) == _barycentre_index(one, np.zeros(1), 0.5) == 0


def test_resampling_only_draws_positive_weight_particles():
    predicted = np.arange(10.0).reshape(-1, 1)
    weights = np.array([1.0, 0.0, 0.5, 0.0, 0.2, 0.0, 0.0, 0.3, 0.0, 0.1])
    ps = possibility_pf_resample(predicted, weights, np.random.default_rng(12))
    dead_states = predicted[weights == 0.0][:, 0]
    assert not np.any(np.isin(ps.states[:, 0], dead_states))
    assert np.all(ps.weights > 0)
    assert ps.weights.max() == 1.0


class LastPositionRng:
    """A generator whose every uniform draw is the largest double below 1."""

    def random(self, size=None):
        u = 1.0 - 2.0**-53
        return u if size is None else np.full(size, u)


def _zero_tailed_weights(rng):
    """Random weights with unit peak whose last one to three are zero."""
    alive = int(rng.integers(1, 40))
    w = rng.random(alive + int(rng.integers(1, 4)))
    w[alive:] = 0.0
    w[rng.integers(alive)] = 1.0
    return w


# A uniform at or past the rounded total lands in [cum[-2], 1): the last cell
# that raised the total takes it, not the zero-weight cells after it.  Guarding
# the last cell alone drew a zero-weight particle for 151 and 73 of these 200 vectors.
def test_systematic_resample_never_draws_a_zero_weight_particle_from_the_rounding_gap():
    rng = np.random.default_rng(20240501)
    for _ in range(200):
        w = _zero_tailed_weights(rng)
        w /= w.sum()
        assert (w[systematic_resample(w, LastPositionRng())] > 0).all()


def test_sample_discrete_never_draws_a_zero_pmf_cell_from_the_rounding_gap():
    rng = np.random.default_rng(20240502)
    for _ in range(200):
        pmf = water_pour_discrete(_zero_tailed_weights(rng))
        assert (pmf[sample_discrete(pmf, LastPositionRng(), 5)] > 0).all()


@pytest.mark.parametrize(
    "weights",
    [np.zeros(4), np.array([0.5, np.nan, 0.5]), np.array([0.5, np.inf, 0.5])],
    ids=["zero", "nan", "inf"],
)
@pytest.mark.parametrize(
    "resample",
    [systematic_resample, lambda w, rng: sample_discrete(w, rng, 6)],
    ids=["systematic", "discrete"],
)
def test_resamplers_refuse_weights_without_a_positive_finite_total(resample, weights):
    # Any index drawn from such weights would name a zero-weight or non-finite cell.
    with pytest.raises(ValueError, match="total"):
        resample(weights, np.random.default_rng(0))


def test_systematic_resample_uniform_weights_is_identity_permutation():
    n = 64
    idx = systematic_resample(np.full(n, 1.0 / n), np.random.default_rng(13))
    np.testing.assert_array_equal(np.sort(idx), np.arange(n))


@pytest.mark.parametrize("n", [2, 7, 5000])
def test_systematic_resample_keeps_a_last_position_rounding_to_1_in_range(n):
    """(r + n - 1) / n rounds to 1.0 here, past every cumulative weight but the last."""
    idx = systematic_resample(np.full(n, 1.0 / n), LastPositionRng())
    assert (1.0 - 2.0**-53 + n - 1) / n == 1.0
    assert idx.min() >= 0 and idx[-1] == n - 1
    assert np.all(np.diff(idx) >= 0)


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
