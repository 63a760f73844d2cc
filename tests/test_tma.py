"""Tests for the bearings-only problem definition."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posspf.bench import NoiseModel, Scenario, scenario_crlb
from posspf.filters import LinearGaussianTransition
from posspf.possq import GaussianPossibility
from posspf.tma import (
    PriorConfig,
    bearing_jacobian,
    bearing_log_likelihood,
    bearings_of,
    init_prior,
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
# the motion model, which Scenario derives from T and q
# ---------------------------------------------------------------------------


def test_transition_matrix_T40():
    F = Scenario(T=40.0).F
    expected = np.array(
        [[1, 40, 0, 0], [0, 1, 0, 0], [0, 0, 1, 40], [0, 0, 0, 1]], dtype=float
    )
    np.testing.assert_array_equal(F, expected)


def test_transition_matrix_unit_step():
    F = Scenario(T=1.0).F
    np.testing.assert_array_equal(F[:2, :2], [[1, 1], [0, 1]])
    np.testing.assert_array_equal(F[2:, 2:], [[1, 1], [0, 1]])


def test_process_noise_block_T1_q1():
    Q = Scenario(T=1.0, q=1.0).process_noise.spread
    block = np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]])
    np.testing.assert_allclose(Q[:2, :2], block)
    np.testing.assert_allclose(Q[2:, 2:], block)
    np.testing.assert_array_equal(Q[:2, 2:], np.zeros((2, 2)))


def test_process_noise_block_T40_small_q():
    # Direct arithmetic: q*T^3/3, q*T^2/2, q*T for T=40, q=1e-6.
    Q = Scenario(T=40.0, q=1e-6).process_noise.spread
    np.testing.assert_allclose(
        Q[:2, :2], [[0.021333333333333333, 8e-4], [8e-4, 4e-5]], rtol=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(
    T=st.floats(min_value=0.1, max_value=100.0),
    q=st.floats(min_value=1e-9, max_value=10.0),
)
def test_process_noise_is_positive_definite(T, q):
    np.linalg.cholesky(Scenario(T=T, q=q).process_noise.spread)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "name, message", [("T", "sampling interval"), ("q", "process noise intensity")], ids=["T", "q"]
)
def test_scenario_rejects_a_non_positive_or_non_finite_T_or_q(name, message, bad):
    with pytest.raises(ValueError, match=f"^{message} must be positive and finite$"):
        Scenario(**{name: bad})


# ---------------------------------------------------------------------------
# observer manoeuvres
# ---------------------------------------------------------------------------


def test_canonical_observer_turns_change_velocity_only():
    # The observer's move beyond constant velocity, obs[k] - F @ obs[k-1],
    # is what run_single takes off the relative state's transition.
    scenario = Scenario()
    obs = scenario.observer
    F = scenario.F
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
    motion = Scenario(T=40.0, q=1e-3)
    F, Q = motion.F, motion.process_noise.spread
    transition = LinearGaussianTransition(F, Q)
    np.testing.assert_array_equal(transition.means(np.zeros((1, 4))), np.zeros((1, 4)))
    np.testing.assert_array_equal(transition.noise.spread, Q)


def test_transition_possibility_peak_at_own_mean():
    motion = Scenario(T=40.0, q=1e-3)
    F, Q = motion.F, motion.process_noise.spread
    transition = LinearGaussianTransition(F, Q, [-0.1, 0.0, 0.2, 0.0])
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert transition.log_possibility_of_move(transition.means(x), x)[0] == 0.0


def test_transition_possibility_canonical_second_scan():
    scenario = Scenario()
    rel = scenario.nominal_track - scenario.observer
    F, Q = scenario.F, scenario.process_noise.spread
    offset = F @ scenario.observer[0] - scenario.observer[1]
    predicted = LinearGaussianTransition(F, Q, offset).means(rel[:1])[0]
    np.testing.assert_allclose(predicted, rel[1], atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=4, max_size=4))
def test_transition_mean_is_linear(state):
    motion = Scenario(T=40.0, q=1e-3)
    F, Q = motion.F, motion.process_noise.spread
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
def test_log_likelihood_wrap_is_exact_in_range_and_matches_wrap_angle_elsewhere(z, points):
    states = np.array([[x, 0.0, y, 0.0] for x, y in points])
    res = z - bearings_of(states)
    in_range = np.abs(res) <= math.pi
    sigma = 1.0 * DEG
    expected = -0.5 * (res / sigma) ** 2
    assert np.array_equal(bearing_log_likelihood(states, z, sigma)[in_range], expected[in_range])
    # At sigma = 1 the log-likelihood is -res**2 / 2, so its residual's size is recoverable to
    # half an ulp; elsewhere it must match wrap_angle's to a few ulps of 2pi.
    wrapped = np.sqrt(-2.0 * bearing_log_likelihood(states, z, 1.0))
    np.testing.assert_allclose(
        wrapped[~in_range], np.abs(wrap_angle(res[~in_range])), rtol=0.0, atol=4 * np.spacing(2 * math.pi)
    )


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # maps into (-pi, pi]
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)


# ---------------------------------------------------------------------------
# initial prior
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scale",
    [{"range_mean": math.nan}, {"range_sigma": math.inf}, {"sigma": math.nan}, {"vel_sigma": 0.0}],
)
def test_init_prior_rejects_non_finite_scales(scale):
    fields = dict(scale)
    sigma = fields.pop("sigma", DEG)
    with pytest.raises(ValueError, match="positive and finite"):
        init_prior(0.0, (0.0, 7.5), sigma, PriorConfig(**fields))


def test_init_prior_due_north_consistent_orientation():
    prior = init_prior(0.0, (2.0, 1.0), DEG)
    np.testing.assert_allclose(prior.mean, [0.0, -2.0, 10e3, -1.0])
    cross_var = (10e3 * 1.0 * DEG) ** 2
    assert prior.spread[0, 0] == pytest.approx(cross_var, rel=1e-9)
    assert prior.spread[2, 2] == pytest.approx(3.5e3**2, rel=1e-9)
    assert prior.spread[0, 2] == pytest.approx(0.0, abs=1e-6)


def test_init_prior_quarter_turn_swaps_axes():
    at_zero = init_prior(0.0, (0.0, 0.0), DEG)
    at_quarter = init_prior(math.pi / 2, (0.0, 0.0), DEG)
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
@given(z1=st.floats(min_value=-math.pi, max_value=math.pi))
def test_init_prior_spread_is_positive_definite(z1):
    prior = init_prior(z1, (1.0, -1.0), DEG)
    np.linalg.cholesky(prior.spread)


@pytest.mark.parametrize("sigma", [1e300, np.float64(1e300)], ids=["float", "float64"])
def test_init_prior_refuses_a_spread_that_overflows_without_warning(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="spread matrix is not finite"):
            init_prior(0.0, (0.0, 0.0), sigma)


# ---------------------------------------------------------------------------
# Cramer-Rao bound
# ---------------------------------------------------------------------------


def test_bearing_jacobian_due_north():
    H = bearing_jacobian(np.array([0.0, 0.0, 10e3, 0.0]))
    np.testing.assert_allclose(H, [1e-4, 0.0, 0.0, 0.0], atol=1e-15)


def test_bearing_jacobian_at_zero_range_raises():
    with pytest.raises(ValueError, match="zero range"):
        bearing_jacobian(np.array([0.0, 3.0, 0.0, -1.0]))


def test_crlb_canonical_curve_finite_and_improving():
    bound = scenario_crlb(Scenario())
    assert np.all(np.isfinite(bound))
    # Range becomes observable at the first manoeuvre (scan 11): the bound
    # shrinks monotonically while information dominates the q-diffusion floor,
    # and the final bound sits far below every first-leg value.
    first_turn = 10
    information_phase = bound[first_turn : first_turn + 10]
    assert np.all(np.diff(information_phase) < 0)
    assert bound[-1] < 0.1 * bound[:first_turn].min()


def crlb_information_form(true_relative, scenario, prior):
    """Reference: the information recursion J_k = [F J^-1 F' + Q]^-1 + H'H / sigma^2."""
    F, Q, sigma = scenario.F, scenario.process_noise.spread, scenario.filter_noise.sigma
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
    q=st.sampled_from([1e-6, 1e-3, 1e-1, 1.0]),
    bearing=st.floats(min_value=-180.0, max_value=180.0),
    heading=st.floats(min_value=0.0, max_value=360.0),
    speed=st.floats(min_value=0.0, max_value=10.0),
    range_m=st.floats(min_value=3e3, max_value=30e3),
    sigma_deg=st.floats(min_value=0.2, max_value=3.0),
    range_mean=st.floats(min_value=3e3, max_value=30e3),
    range_sigma=st.floats(min_value=0.5e3, max_value=10e3),
    vel_sigma=st.floats(min_value=0.5, max_value=10.0),
)
def test_crlb_equals_information_form(q, bearing, heading, speed, range_m, sigma_deg, range_mean, range_sigma, vel_sigma):
    # Every prior field moves the per-scan bound: the range fields from scan 1, vel_sigma from scan 2 on.
    scenario = Scenario(
        q=q, initial_bearing=math.radians(bearing), target_heading=math.radians(heading), target_speed=speed,
        initial_range=range_m, filter_noise=NoiseModel(math.radians(sigma_deg)),
    )
    prior_config = PriorConfig(range_mean, range_sigma, vel_sigma)
    rel = scenario.nominal_track - scenario.observer
    prior = init_prior(bearings_of(rel[:1])[0], scenario.observer[0, [1, 3]], scenario.filter_noise.sigma, prior_config)
    reference = crlb_information_form(rel, scenario, prior)
    np.testing.assert_allclose(
        scenario_crlb(scenario, prior_config), np.sqrt(reference[:, 0, 0] + reference[:, 2, 2]), rtol=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(exponent=st.floats(min_value=-3.0, max_value=300.0))
@example(exponent=16.0)
@example(exponent=20.0)
@example(exponent=300.0)
def test_crlb_stays_finite_for_any_process_noise_up_to_1e300(exponent):
    assert np.all(np.isfinite(scenario_crlb(Scenario(q=10.0**exponent))))
