"""Tests for the bearings-only problem definition."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posspf.bench import build_canonical_scenario, nominal_target_track
from posspf.filters import LinearGaussianTransition
from posspf.possq import GaussianPossibility
from posspf.tma import (
    PriorConfig,
    bearing_jacobian,
    bearing_log_likelihood,
    bearings_of,
    crlb_curve,
    init_prior,
    process_noise_matrix,
    transition_matrix,
    wrap_angle,
)

DEG = math.pi / 180.0


def _bearing(state) -> float:
    """Bearing of one relative state through the vectorised function."""
    return float(bearings_of(np.array([state], dtype=float))[0])


def _likelihood(state, z: float, sigma: float) -> float:
    """Bearing likelihood of one relative state through the vectorised log-likelihood."""
    return math.exp(bearing_log_likelihood(np.array([state], dtype=float), z, sigma)[0])


# ---------------------------------------------------------------------------
# dynamics matrices
# ---------------------------------------------------------------------------


def test_transition_matrix_T40():
    F = transition_matrix(40.0)
    expected = np.array(
        [[1, 40, 0, 0], [0, 1, 0, 0], [0, 0, 1, 40], [0, 0, 0, 1]], dtype=float
    )
    np.testing.assert_array_equal(F, expected)


def test_transition_matrix_unit_step():
    F = transition_matrix(1.0)
    np.testing.assert_array_equal(F[:2, :2], [[1, 1], [0, 1]])


def test_transition_matrix_linearity_at_zero():
    np.testing.assert_array_equal(transition_matrix(40.0) @ np.zeros(4), np.zeros(4))


def test_process_noise_block_T1_q1():
    Q = process_noise_matrix(1.0, 1.0)
    block = np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]])
    np.testing.assert_allclose(Q[:2, :2], block)
    np.testing.assert_allclose(Q[2:, 2:], block)
    np.testing.assert_array_equal(Q[:2, 2:], np.zeros((2, 2)))


def test_process_noise_block_T40_small_q():
    # Direct arithmetic: q*T^3/3, q*T^2/2, q*T for T=40, q=1e-6.
    Q = process_noise_matrix(40.0, 1e-6)
    np.testing.assert_allclose(
        Q[:2, :2], [[0.021333333333333333, 8e-4], [8e-4, 4e-5]], rtol=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(
    T=st.floats(min_value=0.1, max_value=100.0),
    q=st.floats(min_value=1e-9, max_value=10.0),
)
def test_process_noise_is_positive_definite(T, q):
    np.linalg.cholesky(process_noise_matrix(T, q))


def test_process_noise_rejects_nonpositive_q():
    with pytest.raises(ValueError):
        process_noise_matrix(40.0, 0.0)


# ---------------------------------------------------------------------------
# observer manoeuvres
# ---------------------------------------------------------------------------


def test_canonical_observer_turns_change_velocity_only():
    # The observer's move beyond constant velocity, obs[k] - F @ obs[k-1],
    # is what run_single takes off the relative state's transition.
    scenario = build_canonical_scenario()
    obs = scenario.observer
    F = transition_matrix(scenario.T)
    turns = [
        k
        for k in range(1, scenario.scan_count)
        if not np.allclose(obs[k, [1, 3]], obs[k - 1, [1, 3]])
    ]
    assert turns, "canonical scenario must contain a manoeuvre"
    for k in turns:
        U = obs[k] - F @ obs[k - 1]
        np.testing.assert_allclose(U[[0, 2]], [0.0, 0.0], atol=1e-9)
        assert np.linalg.norm(U[[1, 3]]) > 0


# ---------------------------------------------------------------------------
# bearings
# ---------------------------------------------------------------------------


def test_bearing_due_north_is_zero():
    assert _bearing([0.0, 0.0, 10e3, 0.0]) == 0.0


def test_bearing_due_east_is_half_pi():
    assert _bearing([10e3, 0.0, 0.0, 0.0]) == pytest.approx(math.pi / 2)


def test_bearing_third_quadrant():
    assert _bearing([-1.0, 0.0, -1.0, 0.0]) == pytest.approx(-3 * math.pi / 4)


def test_bearing_at_origin_raises():
    with pytest.raises(ValueError, match="bearing undefined at zero range"):
        _bearing([0.0, 0.0, 0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(min_value=-1e5, max_value=1e5),
    y=st.floats(min_value=-1e5, max_value=1e5),
    k=st.floats(min_value=1e-3, max_value=1e3),
)
def test_bearing_scale_invariance(x, y, k):
    if abs(x) < 1e-6 and abs(y) < 1e-6:
        return
    assert _bearing([k * x, 0.0, k * y, 0.0]) == pytest.approx(
        _bearing([x, 0.0, y, 0.0]), abs=1e-12
    )


# ---------------------------------------------------------------------------
# transition possibility and likelihood
# ---------------------------------------------------------------------------


def test_transition_possibility_zero_state():
    T, q = 40.0, 1e-3
    F = transition_matrix(T)
    Q = process_noise_matrix(T, q)
    transition = LinearGaussianTransition(F, Q)
    np.testing.assert_array_equal(transition.means(np.zeros((1, 4))), np.zeros((1, 4)))
    np.testing.assert_array_equal(transition.noise.spread, Q)


def test_transition_possibility_peak_at_own_mean():
    F = transition_matrix(40.0)
    Q = process_noise_matrix(40.0, 1e-3)
    transition = LinearGaussianTransition(F, Q, [-0.1, 0.0, 0.2, 0.0])
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert transition.log_possibility_of_move(transition.means(x), x)[0] == 0.0


def test_transition_possibility_canonical_second_scan():
    scenario = build_canonical_scenario()
    track = nominal_target_track(scenario)
    rel = track - scenario.observer
    F = transition_matrix(scenario.T)
    Q = process_noise_matrix(scenario.T, scenario.q)
    offset = F @ scenario.observer[0] - scenario.observer[1]
    predicted = LinearGaussianTransition(F, Q, offset).means(rel[:1])[0]
    np.testing.assert_allclose(predicted, rel[1], atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=4, max_size=4))
def test_transition_mean_is_linear(state):
    F = transition_matrix(40.0)
    Q = process_noise_matrix(40.0, 1e-3)
    x = np.array([state])
    transition = LinearGaussianTransition(F, Q)
    double = transition.means(2 * x)
    single = transition.means(x)
    np.testing.assert_allclose(double, 2 * single, atol=1e-9)


def test_likelihood_peak_at_true_bearing():
    state = [3e3, 0.0, 4e3, 0.0]
    z = _bearing(state)
    assert _likelihood(state, z, 1.0 * DEG) == 1.0


def test_likelihood_one_sigma_residual():
    state = [0.0, 0.0, 10e3, 0.0]
    sigma = 1.0 * DEG
    assert _likelihood(state, sigma, sigma) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_likelihood_wraps_two_pi():
    state = [5e3, 0.0, 5e3, 0.0]
    z = _bearing(state) + 2 * math.pi
    assert _likelihood(state, z, 1.0 * DEG) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    z=st.floats(min_value=-math.pi, max_value=math.pi),
    turns=st.integers(min_value=-3, max_value=3),
)
def test_likelihood_two_pi_periodic(z, turns):
    state = [2e3, 0.0, 7e3, 0.0]
    sigma = 1.0 * DEG
    assert _likelihood(state, z + 2 * math.pi * turns, sigma) == pytest.approx(
        _likelihood(state, z, sigma), rel=1e-9
    )


def test_log_likelihood_matches_scalar():
    states = np.array([[1e3, 0.0, 9e3, 0.0], [-2e3, 1.0, 5e3, -1.0]])
    sigma = 1.0 * DEG
    z = 0.05
    logs = bearing_log_likelihood(states, z, sigma)
    for (x, _, y, _), lv in zip(states, logs):
        res = wrap_angle(z - math.atan2(x, y))
        assert lv == pytest.approx(-0.5 * (res / sigma) ** 2, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(min_value=-100.0, max_value=100.0),
    y=st.floats(min_value=-1e5, max_value=-1e3),
    offset=st.floats(min_value=-3 * DEG, max_value=3 * DEG),
)
@example(x=-0.0, y=-5e3, offset=0.0)
def test_bearing_and_likelihood_across_the_wrap_due_south(x, y, offset):
    # A target due south of the observer sits on the +-pi seam of the bearing.
    state = np.array([[x, 0.0, y, 0.0]])
    beta = bearings_of(state)[0]
    assert -math.pi < beta <= math.pi
    assert abs(wrap_angle(beta - math.pi)) == pytest.approx(math.atan(abs(x) / -y), abs=1e-12)
    z = wrap_angle(beta + offset)
    sigma = 1.0 * DEG
    assert bearing_log_likelihood(state, z, sigma)[0] == pytest.approx(
        -0.5 * (offset / sigma) ** 2, abs=1e-9
    )


SEAM_ANGLES = [math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0), 0.0, -0.0]
# x on both sides of due south (and due north) down to signed zeros, so
# bearings reach both ends of (-pi, pi] and residuals come near +-2pi.
SEAM_X = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-9, -1e-9]),
    st.floats(min_value=-1e5, max_value=1e5),
)
SEAM_Y = st.one_of(st.sampled_from([-5e3, 5e3, 0.0, -0.0]), st.floats(min_value=-1e5, max_value=1e5))


@settings(max_examples=400, deadline=None)
@given(
    z=st.one_of(
        st.sampled_from(SEAM_ANGLES),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=-10.0, max_value=10.0),
    ),
    points=st.lists(st.tuples(SEAM_X, SEAM_Y).filter(lambda p: p != (0.0, 0.0)), min_size=1, max_size=12),
)
def test_log_likelihood_wrap_equals_wrap_angle(z, points):
    states = np.array([[x, 0.0, y, 0.0] for x, y in points])
    sigma = 1.0 * DEG
    expected = -0.5 * (wrap_angle(z - bearings_of(states)) / sigma) ** 2
    assert np.array_equal(bearing_log_likelihood(states, z, sigma), expected)


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # maps into (-pi, pi]
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)


# ---------------------------------------------------------------------------
# initial prior
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scale",
    [{"range_mean": math.nan}, {"range_sigma": math.inf}, {"sigma": math.nan}, {"vel_sigma": (2.6, 0.0)}],
)
def test_init_prior_rejects_non_finite_scales(scale):
    fields = dict(scale)
    sigma = fields.pop("sigma", DEG)
    with pytest.raises(ValueError, match="positive and finite"):
        init_prior(0.0, (0.0, 7.5), sigma, PriorConfig(**fields))


@pytest.mark.parametrize("vel_sigma", [(2.6,), (2.6, 2.6, 2.6), ((2.6, 2.6),), 2.6])
def test_prior_config_requires_exactly_two_velocity_sigmas(vel_sigma):
    with pytest.raises(ValueError, match="exactly two"):
        PriorConfig(vel_sigma=vel_sigma)


def test_prior_config_stores_velocity_sigmas_as_floats():
    prior = PriorConfig(vel_sigma=np.array([1, 3]))
    assert prior.vel_sigma == (1.0, 3.0)
    assert all(type(v) is float for v in prior.vel_sigma)


def test_prior_config_rejects_unknown_covariance_form():
    with pytest.raises(ValueError, match="covariance form"):
        PriorConfig(covariance_form="diagonal")


def test_init_prior_due_north_consistent_orientation():
    prior = init_prior(0.0, (2.0, 1.0), DEG)
    np.testing.assert_allclose(prior.mean, [0.0, -2.0, 10e3, -1.0])
    cross_var = (10e3 * 1.0 * DEG) ** 2
    assert prior.spread[0, 0] == pytest.approx(cross_var, rel=1e-9)
    assert prior.spread[2, 2] == pytest.approx(3.5e3**2, rel=1e-9)
    assert prior.spread[0, 2] == pytest.approx(0.0, abs=1e-6)


def test_init_prior_due_north_swapped_form_swaps_axes():
    prior = init_prior(0.0, (0.0, 0.0), DEG, PriorConfig(covariance_form="swapped"))
    cross_var = (10e3 * 1.0 * DEG) ** 2
    assert prior.spread[0, 0] == pytest.approx(3.5e3**2, rel=1e-9)
    assert prior.spread[2, 2] == pytest.approx(cross_var, rel=1e-9)


def test_init_prior_quarter_turn_swaps_both_forms():
    for form in ("consistent", "swapped"):
        at_zero = init_prior(0.0, (0.0, 0.0), DEG, PriorConfig(covariance_form=form))
        at_quarter = init_prior(math.pi / 2, (0.0, 0.0), DEG, PriorConfig(covariance_form=form))
        assert at_quarter.spread[0, 0] == pytest.approx(at_zero.spread[2, 2], rel=1e-9)
        assert at_quarter.spread[2, 2] == pytest.approx(at_zero.spread[0, 0], rel=1e-9)


def test_init_prior_orientation_against_polar_monte_carlo():
    """Position covariance matches sampling range and bearing separately."""
    rng = np.random.default_rng(7)
    n = 100_000
    z1 = 0.3
    ranges = 10e3 + 3.5e3 * rng.standard_normal(n)
    bearings = z1 + 1.0 * DEG * rng.standard_normal(n)
    xy = np.column_stack([ranges * np.sin(bearings), ranges * np.cos(bearings)])
    sample_cov = np.cov(xy.T)
    prior = init_prior(z1, (0.0, 0.0), DEG)
    pos_cov = prior.spread[np.ix_([0, 2], [0, 2])]
    np.testing.assert_allclose(sample_cov, pos_cov, rtol=0.05)


@settings(max_examples=40, deadline=None)
@given(
    z1=st.floats(min_value=-math.pi, max_value=math.pi),
    form=st.sampled_from(["consistent", "swapped"]),
)
def test_init_prior_spread_is_positive_definite(z1, form):
    prior = init_prior(z1, (1.0, -1.0), DEG, PriorConfig(covariance_form=form))
    np.linalg.cholesky(prior.spread)


# ---------------------------------------------------------------------------
# Cramer-Rao bound
# ---------------------------------------------------------------------------


def test_crlb_first_scan_is_prior_spread():
    scenario = build_canonical_scenario()
    rel = nominal_target_track(scenario) - scenario.observer
    prior = init_prior(0.0, scenario.observer[0, [1, 3]], scenario.filter_sigma)
    result = crlb_curve(rel, scenario.T, scenario.q, scenario.filter_sigma, prior)
    np.testing.assert_allclose(result.bounds[0], prior.spread)


def test_bearing_jacobian_due_north():
    H = bearing_jacobian(np.array([0.0, 0.0, 10e3, 0.0]))
    np.testing.assert_allclose(H, [1e-4, 0.0, 0.0, 0.0], atol=1e-15)


def test_crlb_canonical_curve_finite_and_improving():
    scenario = build_canonical_scenario()
    rel = nominal_target_track(scenario) - scenario.observer
    prior = init_prior(0.0, scenario.observer[0, [1, 3]], scenario.filter_sigma)
    result = crlb_curve(rel, scenario.T, scenario.q, scenario.filter_sigma, prior)
    assert np.all(np.isfinite(result.position_bound))
    # Range becomes observable at the first manoeuvre (scan 11): the bound
    # shrinks monotonically while information dominates the q-diffusion floor,
    # and the final bound sits far below every first-leg value.
    first_turn = 10
    information_phase = result.position_bound[first_turn : first_turn + 10]
    assert np.all(np.diff(information_phase) < 0)
    assert result.position_bound[-1] < 0.1 * result.position_bound[:first_turn].min()


def crlb_information_form(true_relative, T, q, sigma, prior):
    """Reference: the information recursion J_k = [F J^-1 F' + Q]^-1 + H'H / sigma^2."""
    F = transition_matrix(T)
    Q = process_noise_matrix(T, q) if q > 0 else np.zeros((4, 4))
    J = np.linalg.inv(prior.spread)
    bounds = [prior.spread]
    for k in range(1, true_relative.shape[0]):
        J = np.linalg.inv(F @ np.linalg.inv(J) @ F.T + Q)
        H = bearing_jacobian(true_relative[k])
        J = J + np.outer(H, H) / sigma**2
        bounds.append(np.linalg.inv(J))
    return np.array(bounds)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([0.0, 1e-6, 1e-3, 1e-1, 1.0]),
    bearing=st.floats(min_value=-180.0, max_value=180.0),
    heading=st.floats(min_value=0.0, max_value=360.0),
    speed=st.floats(min_value=0.0, max_value=10.0),
    range_m=st.floats(min_value=3e3, max_value=30e3),
    sigma_deg=st.floats(min_value=0.2, max_value=3.0),
    form=st.sampled_from(["consistent", "swapped"]),
)
def test_crlb_covariance_form_equals_information_form(q, bearing, heading, speed, range_m, sigma_deg, form):
    scenario = build_canonical_scenario(
        q=q, initial_bearing_deg=bearing, target_heading_deg=heading, target_speed=speed,
        initial_range_m=range_m, filter_sigma_deg=sigma_deg,
    )
    rel = nominal_target_track(scenario) - scenario.observer
    prior = init_prior(bearings_of(rel[:1])[0], scenario.observer[0, [1, 3]], scenario.filter_sigma,
                       PriorConfig(covariance_form=form))
    result = crlb_curve(rel, scenario.T, scenario.q, scenario.filter_sigma, prior)
    reference = crlb_information_form(rel, scenario.T, scenario.q, scenario.filter_sigma, prior)
    np.testing.assert_allclose(result.position_bound, np.sqrt(reference[:, 0, 0] + reference[:, 2, 2]), rtol=1e-9)
    for bound, ref in zip(result.bounds, reference):
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        np.testing.assert_allclose(bound / scale, ref / scale, rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(exponent=st.floats(min_value=-3.0, max_value=300.0))
@example(exponent=16.0)
@example(exponent=20.0)
@example(exponent=300.0)
def test_crlb_stays_finite_for_any_process_noise_up_to_1e300(exponent):
    scenario = build_canonical_scenario(q=10.0**exponent)
    rel = nominal_target_track(scenario) - scenario.observer
    prior = init_prior(0.0, scenario.observer[0, [1, 3]], scenario.filter_sigma)
    result = crlb_curve(rel, scenario.T, scenario.q, scenario.filter_sigma, prior)
    assert np.all(np.isfinite(result.bounds)) and np.all(np.isfinite(result.position_bound))


def test_crlb_bounds_are_positive_definite_every_scan():
    scenario = build_canonical_scenario()
    rel = nominal_target_track(scenario) - scenario.observer
    prior = init_prior(0.0, scenario.observer[0, [1, 3]], scenario.filter_sigma)
    result = crlb_curve(rel, scenario.T, scenario.q, scenario.filter_sigma, prior)
    for bound in result.bounds:
        np.linalg.cholesky(bound + bound.T)  # symmetrise against roundoff
