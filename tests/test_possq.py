"""Tests for Gaussian possibilities and the water-pouring constructions.

Expected values for the continuous water level were frozen from an
independent oracle: bisection on adaptive quadrature of the clipped
possibility function (no use of the closed-form mass the implementation
relies on).
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from posspf import possq
from posspf.possq import (
    GaussianPossibility,
    WaterPouredDensity,
    sample_discrete,
    water_pour_continuous,
    water_pour_discrete,
)

# Frozen by the quadrature-bisection oracle below (d=1, sigma=1).
LEVEL_1D_SIGMA1 = 0.22844582141248715


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def value(pi: GaussianPossibility, point) -> float:
    """Possibility value of a single point."""
    return math.exp(pi.log_eval([point])[0])


def test_eval_at_mean_is_exactly_one():
    pi = GaussianPossibility([0.0, 0.0], np.eye(2))
    assert value(pi, [0.0, 0.0]) == 1.0


def test_eval_1d_analytic():
    pi = GaussianPossibility([0.0], [[1.0]])
    assert value(pi, [2.0]) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_eval_diagonal_analytic():
    pi = GaussianPossibility([1.0, 1.0], np.diag([4.0, 1.0]))
    assert value(pi, [3.0, 1.0]) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_eval_dimension_mismatch():
    pi = GaussianPossibility([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        pi.log_eval([1.0, 2.0, 3.0])


def test_spread_must_be_positive_definite():
    with pytest.raises(ValueError):
        GaussianPossibility([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


def test_eval_vectorised_matches_scalar():
    pi = GaussianPossibility([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
    pts = np.array([[0.0, 0.0], [1.0, -1.0], [3.0, 2.0]])
    vec = pi.log_eval(pts)
    for row, log_value in zip(pts, vec):
        assert pi.log_eval(row)[0] == pytest.approx(log_value, rel=1e-12)


# ---------------------------------------------------------------------------
# continuous water pouring
# ---------------------------------------------------------------------------


def clipped_mass_quad_1d(sigma: float, level: float) -> float:
    """Independent oracle: adaptive quadrature of min(pi, level) in 1-D."""
    edge = sigma * math.sqrt(-2.0 * math.log(level)) if level < 1.0 else 0.0
    f = lambda x: min(math.exp(-0.5 * (x / sigma) ** 2), level)
    left = integrate.quad(f, -np.inf, -edge)[0]
    mid = integrate.quad(f, -edge, edge)[0] if edge > 0 else 0.0
    right = integrate.quad(f, edge, np.inf)[0]
    return left + mid + right


def level_by_quadrature_bisection(sigma: float) -> float:
    lo, hi = 1e-300, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if clipped_mass_quad_1d(sigma, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_water_level_1d_matches_frozen_oracle():
    poured = water_pour_continuous(GaussianPossibility([0.0], [[1.0]]))
    assert poured.level == pytest.approx(LEVEL_1D_SIGMA1, abs=1e-9)
    assert poured.plateau_radius == pytest.approx(math.sqrt(-2 * math.log(poured.level)), rel=1e-12)
    assert clipped_mass_quad_1d(1.0, poured.level) == pytest.approx(1.0, abs=1e-6)


def test_water_level_1d_oracle_recomputes():
    # The frozen constant really is what the independent oracle produces.
    assert level_by_quadrature_bisection(1.0) == pytest.approx(LEVEL_1D_SIGMA1, abs=1e-10)


def test_water_level_boundary_sigma():
    sigma = 1.0 / math.sqrt(2.0 * math.pi)
    poured = water_pour_continuous(GaussianPossibility([0.0], [[sigma**2]]))
    assert poured.level == 1.0
    assert poured.plateau_radius == 0.0
    assert poured.plateau_mass == 0.0


def test_water_level_2d_quadrature():
    pi = GaussianPossibility([0.0, 0.0], np.diag([4.0, 4.0]))
    poured = water_pour_continuous(pi)
    f = lambda y, x: min(math.exp(-0.5 * (x * x + y * y) / 4.0), poured.level)
    mass, _ = integrate.dblquad(f, -30, 30, -30, 30, epsabs=1e-9, epsrel=1e-9)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_too_concentrated_raises_with_unit_advice():
    with pytest.raises(ValueError, match="[Rr]escale"):
        water_pour_continuous(GaussianPossibility([0.0], [[0.01]]))


def clip_mass(level: float, pi: GaussianPossibility) -> float:
    """Integral of min(pi, level): the plateau slab plus the Gaussian-shaped tail.

    The plateau is level * V_d * r^d * sqrt(det P) with r^2 = -2 ln(level),
    the tail total * Pr[chi2_d > r^2]; the library sums them in closed form.
    """
    if level >= 1.0:
        return pi.total_mass
    d = pi.dim
    r_sq = -2.0 * math.log(level)
    unit_ball_vol = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return level * unit_ball_vol * r_sq ** (d / 2.0) * np.prod(np.diag(pi.chol)) + pi.total_mass * special.chdtrc(d, r_sq)


def isotropic_with_mass(d: int, total: float) -> GaussianPossibility:
    """The d-dimensional possibility c * I whose total mass is ``total``."""
    c = (total / (2.0 * math.pi) ** (d / 2.0)) ** (2.0 / d)
    return GaussianPossibility(np.zeros(d), np.eye(d) * c)


@pytest.mark.parametrize("d, top", [(1, 150), (2, 300), (3, 300), (4, 300)])
def test_water_level_clips_to_unit_mass_by_the_plateau_plus_tail_formula(d, top):
    # d = 1 stops at 1e150: a larger 1-D mass needs a spread that overflows.
    for total in [10.0**e for e in range(top + 1)] + [1.0 + 1e-12, 2.5, 3.7e48, 1.3e56, 1.7e60]:
        pi = isotropic_with_mass(d, total)
        poured = water_pour_continuous(pi)
        tail = pi.total_mass * special.chdtrc(d, poured.plateau_radius**2)
        assert abs(clip_mass(poured.level, pi) - 1.0) <= 1e-12, total
        assert abs(poured.plateau_mass + tail - 1.0) <= 1e-12, total


def test_water_level_of_a_non_finite_mass_raises_value_error():
    pi = GaussianPossibility(np.zeros(4), np.eye(4) * 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the determinant overflows without a warning
        assert pi.total_mass == math.inf
    with pytest.raises(ValueError, match="mass inf is not finite"):
        water_pour_continuous(pi)


@settings(max_examples=25, deadline=None)
@given(
    sigma=st.floats(min_value=0.5, max_value=5.0),
    x=st.floats(min_value=-10.0, max_value=10.0),
)
def test_dominance_everywhere(sigma, x):
    # The sampled density is the level inside the plateau radius and pi outside.
    pi = GaussianPossibility([0.0], [[sigma**2]])
    poured = water_pour_continuous(pi)
    on_plateau = -2.0 * pi.log_eval([x])[0] <= poured.plateau_radius**2
    density = poured.level if on_plateau else value(pi, [x])
    assert density <= value(pi, [x]) + 1e-15


@settings(max_examples=10, deadline=None)
@given(sigma=st.floats(min_value=0.45, max_value=4.0))
def test_normalisation_property_1d(sigma):
    poured = water_pour_continuous(GaussianPossibility([0.0], [[sigma**2]]))
    assert clipped_mass_quad_1d(sigma, poured.level) == pytest.approx(1.0, abs=1e-6)


def same_bits(a, b) -> bool:
    """``a == b`` with the sign of zero, or both NaN."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=0.0, allow_infinity=True))
@example(x=0.0)
@example(x=-0.0)
@example(x=5e-324)
@example(x=1e300)
@example(x=math.inf)
def test_chdtrc_is_the_chi2_survival_function_bit_for_bit(d, x):
    """possq calls scipy.special.chdtrc, the function scipy.stats.chi2.sf calls.

    The one known difference is x < 0: chdtrc gives nan and stats gives 1.
    possq never reaches it: the plateau radius is sqrt(2u) with u >= 0.
    """
    assert same_bits(special.chdtrc(d, x), stats.chi2.sf(x, d))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(max_examples=200, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=1.0))
@example(q=0.0)
@example(q=5e-324)
@example(q=1.0 - 2.0**-53)
@example(q=1.0)
def test_chdtri_is_the_chi2_inverse_survival_function_bit_for_bit(d, q):
    """possq calls scipy.special.chdtri, the function scipy.stats.chi2.isf calls."""
    assert same_bits(special.chdtri(d, q), stats.chi2.isf(q, d))


# ---------------------------------------------------------------------------
# sampling the water-poured density
# ---------------------------------------------------------------------------


def poured_cdf_1d(x, mu, sigma, level, radius):
    """Analytic CDF of min(pi, level) in 1-D, assembled from the level."""
    scale = math.sqrt(2.0 * math.pi) * sigma
    lo_edge = mu - radius * sigma
    hi_edge = mu + radius * sigma
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    low = x <= lo_edge
    high = x > hi_edge
    mid = ~(low | high)
    out[low] = scale * stats.norm.cdf((x[low] - mu) / sigma)
    out[mid] = scale * stats.norm.cdf(-radius) + level * (x[mid] - lo_edge)
    out[high] = 1.0 - scale * stats.norm.cdf(-(x[high] - mu) / sigma)
    return out


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (2.0, 0.7), (-1.0, 2.5)])
def test_sampler_ks_against_analytic_cdf(mu, sigma):
    poured = water_pour_continuous(GaussianPossibility([mu], [[sigma**2]]))
    rng = np.random.default_rng(1234)
    n = 100_000
    samples = poured.sample(rng, n)[:, 0]
    result = stats.kstest(samples, lambda x: poured_cdf_1d(x, mu, sigma, poured.level, poured.plateau_radius))
    critical_1pct = 1.62762 / math.sqrt(n)
    assert result.statistic < critical_1pct


def test_sampler_plateau_mass_one_stays_inside_ellipsoid():
    pi = GaussianPossibility([1.0, -2.0], np.diag([2.0, 3.0]))
    degenerate = WaterPouredDensity(pi, level=0.2, plateau_radius=1.5, plateau_mass=1.0)
    rng = np.random.default_rng(5)
    samples = degenerate.sample(rng, 5000)
    assert np.all(-2.0 * pi.log_eval(samples) <= 1.5**2 + 1e-12)


def test_sampler_boundary_level_one_is_gaussian_shaped():
    sigma = 1.0 / math.sqrt(2.0 * math.pi)
    poured = water_pour_continuous(GaussianPossibility([0.0], [[sigma**2]]))
    rng = np.random.default_rng(11)
    samples = poured.sample(rng, 50_000)[:, 0]
    assert abs(samples.mean()) < 4 * sigma / math.sqrt(50_000)
    assert samples.std() == pytest.approx(sigma, rel=0.02)


def test_sampler_mean_symmetric_2d():
    pi = GaussianPossibility([3.0, -1.0], np.diag([4.0, 9.0]))
    poured = water_pour_continuous(pi)
    rng = np.random.default_rng(99)
    n = 100_000
    samples = poured.sample(rng, n)
    se = samples.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(samples.mean(axis=0) - pi.mean) < 4 * se)


@pytest.mark.parametrize("n", [1, 2, 3, 500])
def test_deviation_equals_the_row_major_product_bit_for_bit(n):
    # deviation computes (L @ g.T).T, which must equal g @ L.T on the same draws.
    spread = np.array([[4.0, 1.0, 0.5, 0.0], [1.0, 3.0, 0.0, 0.2], [0.5, 0.0, 2.0, 0.1], [0.0, 0.2, 0.1, 1.5]])
    pi = GaussianPossibility(np.zeros(4), 1e4 * spread)
    expected = np.random.default_rng(n).standard_normal((n, 4)) @ pi.chol.T
    np.testing.assert_array_equal(pi.deviation(np.random.default_rng(n), n), expected)


def test_sample_water_poured_function_shape():
    poured = water_pour_continuous(GaussianPossibility([0.0, 0.0], np.eye(2) * 2.0))
    out = poured.sample(np.random.default_rng(0), 7)
    assert out.shape == (7, 2)


# ---------------------------------------------------------------------------
# discrete water pouring
# ---------------------------------------------------------------------------


def level_by_sum_bisection(weights):
    """Independent oracle: bisection on sum(min(w, level)) = 1."""
    w = np.asarray(weights, dtype=float)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.minimum(w, mid).sum() < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def level_by_segment_scan(weights) -> float:
    """Reference level: a Python scan over the sorted weights' segments.

    Takes the first segment whose candidate level lies within both of its
    bounds (1e-15 slack on each side), testing the lower bound that the
    closed form in ``water_pour_discrete`` leaves out.
    """
    ws = np.sort(np.asarray(weights, dtype=float))
    n = ws.shape[0]
    prefix = np.concatenate(([0.0], np.cumsum(ws)))
    for i in range(n):
        cand = (1.0 - prefix[i]) / (n - i)
        low = ws[i - 1] if i > 0 else 0.0
        if low - 1e-15 <= cand <= ws[i] + 1e-15:
            return float(cand)
    raise AssertionError("no segment qualifies")


def unit_peak_weights(chi2, scale):
    """exp(-scale * chi2) weights with the minimum chi2 mapped to exactly 1."""
    chi2 = np.asarray(chi2, dtype=float)
    return np.exp(-scale * (chi2 - chi2.min()))


def test_discrete_two_units():
    pmf = water_pour_discrete([1.0, 1.0])
    assert pmf.max() == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(pmf, [0.5, 0.5])


def test_discrete_one_small_weight():
    pmf = water_pour_discrete([1.0, 0.2])
    assert pmf.max() == pytest.approx(level_by_sum_bisection([1.0, 0.2]), abs=1e-12)
    np.testing.assert_allclose(pmf, [0.8, 0.2], atol=1e-12)


def test_discrete_clipping_to_uniform():
    pmf = water_pour_discrete([1.0, 0.6, 0.6])
    assert pmf.max() == pytest.approx(1.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(pmf, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_discrete_zero_weights_keep_zero_mass():
    pmf = water_pour_discrete([1.0, 0.0, 0.3])
    assert pmf[1] == 0.0
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_discrete_errors():
    with pytest.raises(ValueError, match="weight vector is empty"):
        water_pour_discrete([])
    with pytest.raises(ValueError, match=r"weights must be finite and within \[0, 1\]"):
        water_pour_discrete([1.0, 1.5])
    with pytest.raises(ValueError, match=r"weights must be finite and within \[0, 1\]"):
        water_pour_discrete([1.0, -0.1])
    with pytest.raises(ValueError, match="max weight must be exactly 1, got"):
        water_pour_discrete([0.9, 0.5])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=5),
)
def test_discrete_matches_bisection_oracle(weights, unit_pos):
    w = np.asarray(weights)
    w[unit_pos % len(w)] = 1.0
    pmf = water_pour_discrete(w)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pmf[w > 0] > 0)
    oracle = level_by_sum_bisection(w)
    np.testing.assert_allclose(pmf, np.minimum(w, oracle), atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=7),
)
def test_discrete_tie_heavy_weights_with_zeros(weights, unit_pos):
    w = np.asarray(weights)
    w[unit_pos % len(w)] = 1.0
    pmf = water_pour_discrete(w)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pmf <= w)
    assert np.all(pmf[w == 0.0] == 0.0)
    assert pmf.max() == pytest.approx(level_by_sum_bisection(w), abs=1e-12)


def test_discrete_weights_summing_below_one_raise():
    # The max passes the 1e-12 unit check, but the weights sum to less
    # than 1, so no pmf dominated by them can sum to 1.
    with pytest.raises(ValueError, match="sum to"):
        water_pour_discrete([1.0 - 1e-13, 0.0])
    with pytest.raises(ValueError, match="sum to"):
        water_pour_discrete([1.0 - 5e-13])


# m copies of 1/m - delta: once one copy is set to 1, the first candidate
# level 1/m sits delta above the other m - 1 weights, on either side of the
# 1e-15 slack.
NEAR_BOUNDARY_WEIGHTS = st.builds(
    lambda m, delta: [1.0 / m - delta] * m,
    st.integers(min_value=2, max_value=40),
    st.sampled_from([0.0, 1e-17, 1e-16, 5e-16, 1e-15, 2e-15, 1e-12, 1e-9]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
        st.lists(st.sampled_from([0.0, 1e-300, 0.125, 0.25, 0.5, 1.0]), min_size=1, max_size=40),
        NEAR_BOUNDARY_WEIGHTS,
    ),
    st.integers(min_value=0, max_value=39),
)
def test_discrete_closed_form_equals_segment_scan(weights, unit_pos):
    w = np.asarray(weights)
    w[unit_pos % len(w)] = 1.0
    pmf = water_pour_discrete(w)
    level = level_by_segment_scan(w)
    assert pmf.max() == level
    assert np.array_equal(pmf, np.minimum(w, level))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from([1e-3, 0.5, 5.0, 50.0, 500.0]),
    dof=st.sampled_from([1, 4, 10]),
    ties=st.booleans(),
)
def test_discrete_closed_form_equals_segment_scan_filter_weights(n, seed, scale, dof, ties):
    # Normalised exp(-k * chi2) weights as the filter builds them, from
    # nearly flat (k = 1e-3) to a dynamic range far below 1e-300 (zeros).
    chi2 = np.random.default_rng(seed).chisquare(dof, n)
    if ties:
        chi2 = np.round(chi2)
    w = unit_peak_weights(chi2, scale)
    pmf = water_pour_discrete(w)
    level = level_by_segment_scan(w)
    assert pmf.max() == level
    assert np.array_equal(pmf, np.minimum(w, level))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=6),
    st.randoms(use_true_random=False),
)
def test_discrete_permutation_equivariance(weights, rnd):
    w = np.asarray(weights)
    w[0] = 1.0
    perm = np.arange(len(w))
    rnd.shuffle(perm)
    direct = water_pour_discrete(w[perm])
    permuted = water_pour_discrete(w)[perm]
    np.testing.assert_allclose(direct, permuted, atol=1e-15)


# ---------------------------------------------------------------------------
# categorical sampling
# ---------------------------------------------------------------------------


def test_sample_discrete_degenerate():
    pmf = water_pour_discrete([1.0])
    idx = sample_discrete(pmf, np.random.default_rng(0), 1000)
    assert np.all(idx == 0)


def test_sample_discrete_even_frequencies():
    pmf = water_pour_discrete([1.0, 1.0])
    idx = sample_discrete(pmf, np.random.default_rng(42), 100_000)
    freq = np.bincount(idx, minlength=2) / 100_000
    np.testing.assert_allclose(freq, [0.5, 0.5], atol=0.01)


def test_sample_discrete_skewed_frequencies():
    pmf = water_pour_discrete([1.0, 0.2])
    idx = sample_discrete(pmf, np.random.default_rng(43), 100_000)
    freq = np.bincount(idx, minlength=2) / 100_000
    np.testing.assert_allclose(freq, [0.8, 0.2], atol=0.01)


@pytest.mark.parametrize("n, count", [(1, 7), (3, 1000), (5000, 5000)])
def test_sample_discrete_equals_unsorted_search_on_same_stream(n, count):
    rng = np.random.default_rng(20240501 + n)
    pmf = water_pour_discrete(unit_peak_weights(rng.chisquare(4, n), 2.0))
    sample_rng = np.random.default_rng(7)
    idx = sample_discrete(pmf, sample_rng, count)
    cum = np.cumsum(pmf)
    cum[-1] = 1.0
    reference_rng = np.random.default_rng(7)
    expected = np.searchsorted(cum, reference_rng.random(count), side="right")
    assert idx.dtype == expected.dtype
    assert np.array_equal(idx, expected)
    # Both consumed the same number of draws from the stream.
    assert sample_rng.random() == reference_rng.random()


class FixedUniforms:
    """Stands in for a generator whose next ``random(count)`` returns given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, count):
        assert count == self.u.shape[0]
        return self.u


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(
        st.one_of(st.sampled_from([0.0, 2.0**-20, 0.125, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        min_size=1,
        max_size=30,
    ),
    unit_pos=st.integers(min_value=0, max_value=29),
    # u = (top * 2**36 + low) / 2**52 is exact, with top as its top 16 bits:
    # a few tops shared by many uniforms, in arbitrary order.
    tops=st.lists(st.integers(min_value=0, max_value=65535), min_size=1, max_size=4),
    lows=st.lists(st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2**36 - 1)),
                  min_size=1, max_size=200),
    on_cells=st.booleans(),
)
def test_sample_discrete_equals_unsorted_search(weights, unit_pos, tops, lows, on_cells):
    w = np.asarray(weights)
    w[unit_pos % len(w)] = 1.0
    pmf = water_pour_discrete(w)
    cum = np.cumsum(pmf)
    cum[-1] = 1.0
    u = np.array([(tops[i % len(tops)] * 2.0**36 + low) / 2.0**52 for i, low in lows])
    if on_cells:
        # Uniforms exactly on cell boundaries exercise side="right".
        u = np.concatenate((u, cum[cum < 1.0], [0.0]))
    # Every count takes the sorted search here, the path that ties can break.
    with mock.patch.object(possq, "_SORTED_SEARCH_MIN", 0):
        idx = sample_discrete(pmf, FixedUniforms(u), u.shape[0])
    expected = np.searchsorted(cum, u, side="right")
    assert idx.dtype == expected.dtype
    assert np.array_equal(idx, expected)
