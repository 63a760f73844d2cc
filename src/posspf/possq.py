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

    __slots__ = ("mean", "spread", "chol")

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

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def total_mass(self) -> float:
        """Integral of the possibility function, (2*pi)^(d/2) * sqrt(det P); inf if that overflows."""
        with np.errstate(over="ignore"):
            return (2.0 * math.pi) ** (self.dim / 2.0) * float(np.prod(np.diag(self.chol)))

    def log_eval(self, x) -> np.ndarray:
        """Log possibility values of the rows of x, shape (n,), 0 exactly at the mean.

        Each is -0.5 times the squared Mahalanobis distance from the mean.
        """
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got {pts.shape[1]}")
        dev = np.linalg.solve(self.chol, (pts - self.mean).T)
        return -0.5 * np.einsum("ij,ij->j", dev, dev)

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


def water_pour_continuous(pi: GaussianPossibility) -> WaterPouredDensity:
    """Clip a Gaussian possibility at the level whose clipped mass is one.

    With u = -ln(lambda), r^2 = 2u and Q(a, u) the regularised upper
    incomplete gamma function, the clipped mass is the plateau
    lambda * V_d * r^d * sqrt(det P) = total * u^(d/2) e^(-u) / Gamma(d/2 + 1)
    plus the tail total * Q(d/2, u).  By the recurrence of Q they sum to
    M(lambda) = total * Q(d/2 + 1, u), so the level is closed-form for any
    finite total mass: u = Q^-1(d/2 + 1, 1/total).  The plateau mass is
    1 - total * Q(d/2, u), one minus the tail.

    Raises
    ------
    ValueError
        If the possibility function integrates to less than 1, in which
        case no dominated probability density exists (rescale the state
        units), or if the total mass is not finite (the spread overflows).
    """
    total = pi.total_mass
    if not math.isfinite(total):
        raise ValueError(f"possibility mass {total} is not finite: the spread is too wide to water-pour")
    if total < 1.0 - 1e-9:
        raise ValueError(
            f"possibility mass {total:.6g} < 1; no dominated density integrates to 1. "
            "Rescale the state units so (2*pi)^(d/2)*sqrt(det P) >= 1."
        )
    # Local import: scipy is needed only by the max-entropy proposal.
    from scipy.special import gammaincc, gammainccinv

    half_d = pi.dim / 2.0
    u = float(gammainccinv(half_d + 1.0, min(1.0 / total, 1.0)))
    plateau_mass = 1.0 - total * float(gammaincc(half_d, u)) if u > 0.0 else 0.0
    return WaterPouredDensity(pi, level=math.exp(-u), plateau_radius=math.sqrt(2.0 * u), plateau_mass=plateau_mass)


def water_pour_discrete(weights) -> np.ndarray:
    """Exact discrete water pouring: the pmf min(w[j], level), which sums to 1.

    The level solves sum_j min(w_j, level) = 1.  With the weights sorted
    ascending (ws) and prefix sums prefix[i] = ws[0] + ... + ws[i-1], the
    candidate level with i weights below it is (1 - prefix[i]) / (n - i).
    All n candidates are computed at once and the level is the first one
    that does not exceed its own segment's top, cand[i] <= ws[i] (within
    1e-15).  That test is monotone in i, because
    (n - i) * ws[i] + prefix[i] = sum_j min(w_j, ws[i]) grows with i, so
    the first passing candidate also lies above the segment below it.
    This is the unique maximum-entropy pmf under the constraints
    sum(p) = 1 and p <= w.  With a top weight of exactly 1 the level is
    the pmf's maximum.

    Weights must lie in [0, 1] with max exactly 1 (zero weights are kept at
    zero in the pmf, preserving equal support).  Weights whose sum falls
    short of 1 admit no dominated pmf; that and any other invalid weight
    vector raise ``ValueError``.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    n = w.shape[0]
    if n == 0:
        raise ValueError("weight vector is empty")
    ws = np.sort(w)  # NaNs sort last
    top = ws[-1]
    if not (ws[0] >= 0.0 and top <= 1.0):  # NaN fails both comparisons
        raise ValueError("weights must be finite and within [0, 1]")
    if abs(top - 1.0) > 1e-12:
        raise ValueError(f"max weight must be exactly 1, got {top!r}")

    cum = np.cumsum(ws)  # prefix[i + 1]
    cand = np.empty(n)
    cand[0] = 1.0
    np.subtract(1.0, cum[:-1], out=cand[1:])
    cand /= np.arange(n, 0, -1)
    fits = cand <= ws + 1e-15
    i = int(np.argmax(fits))
    if not fits[i]:
        raise ValueError(
            f"weights sum to {cum[-1]:.17g}, less than 1; no pmf dominated by them sums to 1"
        )
    return np.minimum(w, cand[i])


# Fewer uniforms than this are searched as drawn: sorting them costs more
# than it saves.
_SORTED_SEARCH_MIN = 768


def sample_discrete(pmf: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """Inverse-CDF categorical sampling: ``count`` independent indices.

    Draws ``count`` uniforms in one call.  From ``_SORTED_SEARCH_MIN``
    uniforms on, it searches the cumulative pmf with the uniforms in
    ascending order of their top 16 bits (each search then starts near the
    previous result) and scatters each index back to its uniform's
    position.  Indices and random stream are those of searching the
    unsorted uniforms.
    """
    cum = np.cumsum(pmf)
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
