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
from scipy import stats


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
    """The maximum weight must be exactly 1."""


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
        return self.mean + rng.standard_normal((int(size), self.dim)) @ self.chol.T


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
        """Draw ``size`` exact samples, shape (size, d).

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
            sf_r = stats.chi2.sf(self.plateau_radius**2, d)
            t = stats.chi2.isf(rng.random(m) * sf_r, d)
            radii[~on_plateau] = np.sqrt(t)

        return self.source.mean + (radii[:, None] * directions) @ self.source.chol.T


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
    r_sq = -2.0 * math.log(lam)
    d = pi.dim
    plateau = lam * unit_ball_vol * r_sq ** (d / 2.0) * pi.sqrt_det
    tail = pi.total_mass * stats.chi2.sf(r_sq, d)
    return plateau + tail


def water_pour_continuous(pi: GaussianPossibility, tol: float = 1e-12) -> WaterPouredDensity:
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
        if abs(m_mid - 1.0) <= tol:
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

    The level solves sum_j min(w_j, level) = 1 exactly by sorting the
    weights and scanning the piecewise-linear segments.  This is the unique
    maximum-entropy pmf under the constraints sum(p) = 1 and p <= w.

    Weights must lie in [0, 1] with max exactly 1 (zero weights are kept at
    zero in the pmf, preserving equal support).
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    n = w.shape[0]
    if n == 0:
        raise EmptyInput("weight vector is empty")
    if np.any(w < 0.0) or np.any(w > 1.0) or not np.all(np.isfinite(w)):
        raise WeightsOutOfRange("weights must be finite and within [0, 1]")
    if abs(w.max() - 1.0) > 1e-12:
        raise NoUnitWeight(f"max weight must be exactly 1, got {w.max()!r}")

    ws = np.sort(w)
    prefix = np.concatenate(([0.0], np.cumsum(ws)))
    level = 1.0
    for i in range(n):
        # Candidate level on the segment [ws[i-1], ws[i]]: i weights lie below.
        cand = (1.0 - prefix[i]) / (n - i)
        low = ws[i - 1] if i > 0 else 0.0
        if low - 1e-15 <= cand <= ws[i] + 1e-15:
            level = cand
            break
    pmf = np.minimum(w, level)
    return DiscreteWaterPour(level=float(level), pmf=pmf)


def sample_discrete(pour: DiscreteWaterPour, rng: np.random.Generator, count: int) -> np.ndarray:
    """Inverse-CDF categorical sampling: ``count`` independent indices."""
    cum = np.cumsum(pour.pmf)
    cum[-1] = 1.0  # guard against rounding in the last cell
    return np.searchsorted(cum, rng.random(int(count)), side="right")

