"""Gaussian possibility distributions and max-entropy (water-pouring) constructions.

A possibility distribution assigns each state a degree of possibility in
(0, 1], with supremum exactly 1.  The Gaussian family used here is the
unnormalised bell shape exp(-0.5 * (x-mu)' P^-1 (x-mu)).

Sampling support points for such a distribution requires an ordinary
probability density.  The least-informative density dominated by the
possibility function is obtained by the "water pouring" construction:
clip the possibility function at a level lambda chosen so that the result
integrates (or sums, in the discrete case) to one.  This module provides
the continuous construction for the Gaussian family, the exact discrete
construction for weight vectors, and exact samplers for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class TooConcentrated(ValueError):
    """The possibility function encloses less than unit mass.

    No probability density dominated by it can integrate to one.  Raised
    by :func:`water_pour_continuous`; rescale the state units (or widen
    the spread) so that (2*pi)^(d/2) * sqrt(det P) >= 1.
    """


class EmptyInput(ValueError):
    """An operation received an empty weight vector."""


class WeightsOutOfRange(ValueError):
    """Weights must lie in [0, 1]."""


class NoUnitWeight(ValueError):
    """The maximum weight must be exactly 1 and the weights must sum to at least 1."""


class GaussianPossibility:
    """Gaussian-shaped possibility function with peak value 1 at its mean.

    Parameters
    ----------
    mean : array_like, shape (d,)
        Location of the peak.
    spread : array_like, shape (d, d)
        Symmetric positive-definite shape matrix (the analogue of a
        covariance).  Checked by Cholesky factorisation at construction.
    """

    __slots__ = ("mean", "spread", "chol", "sqrt_det")

    def __init__(self, mean, spread):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.spread = np.atleast_2d(np.asarray(spread, dtype=float))
        d = self.mean.shape[0]
        if self.spread.shape != (d, d):
            raise ValueError(
                f"spread must be {d}x{d} to match the mean, got {self.spread.shape}"
            )
        try:
            self.chol = np.linalg.cholesky(self.spread)
        except np.linalg.LinAlgError as exc:
            raise ValueError("spread matrix is not positive definite") from exc
        self.sqrt_det = float(np.prod(np.diag(self.chol)))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def total_mass(self) -> float:
        """Integral of the possibility function over the whole space."""
        return (2.0 * math.pi) ** (self.dim / 2.0) * self.sqrt_det

    def mahalanobis_sq(self, x) -> np.ndarray:
        """Squared Mahalanobis distances of the rows of x, shape (n,), from the mean."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got {pts.shape[1]}")
        dev = np.linalg.solve(self.chol, (pts - self.mean).T)
        return np.einsum("ij,ij->j", dev, dev)

    def log_eval(self, x) -> np.ndarray:
        """Log possibility values, -0.5 * mahalanobis_sq; 0 exactly at the mean."""
        return -0.5 * self.mahalanobis_sq(x)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` points from the Gaussian density of this shape, shape (size, d)."""
        return self.mean + self.deviation(rng, size)

    def deviation(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The draws of :meth:`sample` before the mean is added, shape (size, d), column-major."""
        # (L @ g.T).T equals g @ L.T bit for bit, for row- and column-major g.
        return (self.chol @ rng.standard_normal((int(size), self.dim)).T).T


@dataclass(frozen=True)
class WaterPouredDensity:
    """Probability density min(pi(x), level) for a Gaussian possibility pi.

    ``plateau_radius`` is the Mahalanobis radius of the clipped region and
    ``plateau_mass`` the probability of falling inside it.  The density is
    everywhere dominated by the source possibility function.
    """

    source: GaussianPossibility
    level: float
    plateau_radius: float
    plateau_mass: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` exact samples, shape (size, d)."""
        return self.source.mean + self.deviation(rng, size)

    def deviation(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The draws of :meth:`sample` before the source mean is added, shape (size, d).

        Composition method: with probability ``plateau_mass`` draw uniformly
        inside the plateau ellipsoid, otherwise draw from the Gaussian-shaped
        tail (squared radius from a chi-square conditioned beyond the plateau,
        inverted through the survival function for tail accuracy).
        """
        d = self.source.dim
        n = int(size)
        u = rng.random(n)
        on_plateau = u < self.plateau_mass
        k = int(on_plateau.sum())

        g = rng.standard_normal((n, d))
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0.0] = 1.0
        directions = g / norms[:, None]

        radii = np.empty(n)
        if k:
            radii[on_plateau] = self.plateau_radius * rng.random(k) ** (1.0 / d)
        m = n - k
        if m:
            # Local import: scipy is needed only by the max-entropy proposal.
            from scipy.special import chdtrc, chdtri

            sf_r = chdtrc(d, self.plateau_radius**2)
            t = chdtri(d, rng.random(m) * sf_r)
            radii[~on_plateau] = np.sqrt(t)

        # (L @ x.T).T equals x @ L.T bit for bit, for row- and column-major x.
        return (self.source.chol @ (radii[:, None] * directions).T).T


@dataclass(frozen=True)
class DiscreteWaterPour:
    """Max-entropy pmf dominated by a discrete weight vector.

    ``pmf[j] = min(weights[j], level)`` with the level chosen so the pmf
    sums to one.  Support equals the support of the input weights.
    """

    level: float
    pmf: np.ndarray


def _clip_mass(lam: float, pi: GaussianPossibility, unit_ball_vol: float) -> float:
    """Integral of min(pi, lam): plateau slab plus Gaussian-shaped tail."""
    if lam >= 1.0:
        return pi.total_mass
    # Local import: scipy is needed only by the max-entropy proposal.
    from scipy.special import chdtrc

    r_sq = -2.0 * math.log(lam)
    d = pi.dim
    plateau = lam * unit_ball_vol * r_sq ** (d / 2.0) * pi.sqrt_det
    tail = pi.total_mass * chdtrc(d, r_sq)
    return plateau + tail


def water_pour_continuous(pi: GaussianPossibility) -> WaterPouredDensity:
    """Clip a Gaussian possibility at the level whose clipped mass is one.

    The clip level is found by bisection on the closed-form mass
    M(lambda) = lambda * V_d * r^d * sqrt(det P) + total * Pr[chi2_d > r^2],
    r = sqrt(-2 ln lambda), which is continuous and strictly increasing.

    Raises
    ------
    TooConcentrated
        If the possibility function integrates to less than 1, in which
        case no dominated probability density exists.
    """
    total = pi.total_mass
    if total < 1.0 - 1e-9:
        raise TooConcentrated(
            f"possibility mass {total:.6g} < 1; no dominated density integrates to 1. "
            "Rescale the state units so (2*pi)^(d/2)*sqrt(det P) >= 1."
        )
    if total <= 1.0:
        # Boundary: the possibility function itself integrates to one.
        return WaterPouredDensity(pi, level=1.0, plateau_radius=0.0, plateau_mass=0.0)

    d = pi.dim
    unit_ball_vol = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)

    lo, hi = 1e-300, 1.0
    m_lo = _clip_mass(lo, pi, unit_ball_vol)
    m_hi = _clip_mass(hi, pi, unit_ball_vol)
    assert m_lo < 1.0 <= m_hi, "clip mass must bracket 1 (monotone in the level)"
    lam = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m_mid = _clip_mass(mid, pi, unit_ball_vol)
        # Strict monotonicity of M(lambda) keeps the bracket valid.
        assert m_lo <= m_mid <= m_hi + 1e-9
        if abs(m_mid - 1.0) <= 1e-12:
            lam = mid
            break
        if m_mid < 1.0:
            lo, m_lo = mid, m_mid
        else:
            hi, m_hi = mid, m_mid
        lam = 0.5 * (lo + hi)

    r = math.sqrt(max(-2.0 * math.log(lam), 0.0))
    plateau_mass = lam * unit_ball_vol * r**d * pi.sqrt_det
    return WaterPouredDensity(pi, level=lam, plateau_radius=r, plateau_mass=min(plateau_mass, 1.0))


def water_pour_discrete(weights) -> DiscreteWaterPour:
    """Exact discrete water pouring: pmf[j] = min(w[j], level), sum = 1.

    The level solves sum_j min(w_j, level) = 1.  With the weights sorted
    ascending (ws) and prefix sums prefix[i] = ws[0] + ... + ws[i-1], the
    candidate level with i weights below it is (1 - prefix[i]) / (n - i).
    All n candidates are computed at once and the level is the first one
    that does not exceed its own segment's top, cand[i] <= ws[i] (within
    1e-15).  That test is monotone in i, because
    (n - i) * ws[i] + prefix[i] = sum_j min(w_j, ws[i]) grows with i, so
    the first passing candidate also lies above the segment below it.
    This is the unique maximum-entropy pmf under the constraints
    sum(p) = 1 and p <= w.

    Weights must lie in [0, 1] with max exactly 1 (zero weights are kept at
    zero in the pmf, preserving equal support).  Weights whose sum falls
    short of 1 admit no dominated pmf and raise :class:`NoUnitWeight`.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    n = w.shape[0]
    if n == 0:
        raise EmptyInput("weight vector is empty")
    ws = np.sort(w)  # NaNs sort last
    top = ws[-1]
    if not (ws[0] >= 0.0 and top <= 1.0):  # NaN fails both comparisons
        raise WeightsOutOfRange("weights must be finite and within [0, 1]")
    if abs(top - 1.0) > 1e-12:
        raise NoUnitWeight(f"max weight must be exactly 1, got {top!r}")

    cum = np.cumsum(ws)  # prefix[i + 1]
    cand = np.empty(n)
    cand[0] = 1.0
    np.subtract(1.0, cum[:-1], out=cand[1:])
    cand /= np.arange(n, 0, -1)
    fits = cand <= ws + 1e-15
    i = int(np.argmax(fits))
    if not fits[i]:
        raise NoUnitWeight(
            f"weights sum to {cum[-1]:.17g}, less than 1; no pmf dominated by them sums to 1"
        )
    level = cand[i]
    pmf = np.minimum(w, level)
    return DiscreteWaterPour(level=float(level), pmf=pmf)


# Fewer uniforms than this are searched as drawn: sorting them costs more
# than it saves.
_SORTED_SEARCH_MIN = 768


def sample_discrete(pour: DiscreteWaterPour, rng: np.random.Generator, count: int) -> np.ndarray:
    """Inverse-CDF categorical sampling: ``count`` independent indices.

    Draws ``count`` uniforms in one call.  From ``_SORTED_SEARCH_MIN``
    uniforms on, it searches the cumulative pmf with the uniforms in
    ascending order of their top 16 bits (each search then starts near the
    previous result) and scatters each index back to its uniform's
    position.  Indices and random stream are those of searching the
    unsorted uniforms.
    """
    cum = np.cumsum(pour.pmf)
    cum[-1] = 1.0  # guard against rounding in the last cell
    u = rng.random(int(count))
    if u.shape[0] < _SORTED_SEARCH_MIN:
        return np.searchsorted(cum, u, side="right")
    # A radix sort on the top 16 bits orders the uniforms well enough for
    # the search to benefit; each search result does not depend on the order.
    order = np.argsort((u * 65536.0).astype(np.uint16), kind="stable")
    idx = np.empty(u.shape[0], dtype=np.intp)
    idx[order] = np.searchsorted(cum, np.take(u, order), side="right")
    return idx
