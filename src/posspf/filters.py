"""Possibility particle filter and a standard bootstrap particle filter.

Both filters are generic over a linear-Gaussian transition model and a
log-likelihood callable; they differ in weight semantics:

* The possibility filter keeps weights in (0, 1] with max exactly 1 after
  every step.  Weights are running products of per-scan possibility
  factors (likelihood, and optionally the transition possibility of the
  drawn move), resampling uses the discrete water pouring of the
  normalised weights and carries the resampled weights forward, and the
  point estimate is a maximum-possibility particle.
* The standard filter is a plain SIR bootstrap: probability weights that
  sum to 1, systematic resampling every scan, and the weighted-mean
  (MMSE) point estimate.

All weight arithmetic runs in the log domain and is normalised against
the per-scan peak, so sharply peaked likelihoods cannot underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .possq import (
    GaussianPossibility,
    sample_discrete,
    water_pour_continuous,
    water_pour_discrete,
    whole_count,
)


# The choices of PossibilityPFOptions.proposal and .transition_weighting.
PROPOSALS = ("density", "max-entropy")
TRANSITION_WEIGHTINGS = ("ignorance", "gaussian")


class AllWeightsZero(RuntimeError):
    """Every particle weight underflowed to zero; the filter has collapsed."""


@dataclass
class ParticleSet:
    """Weighted particles: states (n, d) and weights (n,).

    Possibility convention: weights in [0, 1] with max exactly 1.
    Probability convention (standard filter): weights sum to 1.
    """

    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if self.states.shape[0] != self.weights.shape[0]:
            raise ValueError("states and weights disagree on particle count")


@dataclass(frozen=True)
class PossibilityPFOptions:
    """Policy knobs of the possibility particle filter.

    proposal
        "density": draw moves from the Gaussian density with the
        transition's mean and (inflated) spread.  "max-entropy": draw from
        the water-poured density of the transition possibility.  Support
        placement does not change the sup-based weight semantics, so both
        are valid; "density" concentrates support where weights are
        non-negligible and is the practical default.
    transition_weighting
        "ignorance": treat the one-scan move as fully possible (vacuous
        transition possibility; weights accumulate likelihood factors
        only).  "gaussian": multiply by the Gaussian transition
        possibility of the drawn move, as in the textbook recursion.
    proposal_inflation
        Spread multiplier for the proposal only; widens support without
        touching weights.
    map_peak_cut
        Log-width of the near-peak set used for the point estimate.  The
        estimate is the member of {w >= exp(-cut) * max} closest to that
        set's weighted barycentre (still an actual particle).  At 0 the set
        holds the particles of peak weight: the arg-max when the peak is
        unique, else the most central of the tied particles.
    """

    proposal: str = "density"
    transition_weighting: str = "ignorance"
    proposal_inflation: float = 1.5
    map_peak_cut: float = 0.5

    def __post_init__(self):
        if self.proposal not in PROPOSALS:
            raise ValueError(f"unknown proposal {self.proposal!r}")
        if self.transition_weighting not in TRANSITION_WEIGHTINGS:
            raise ValueError(f"unknown transition weighting {self.transition_weighting!r}")
        if not 0 < self.proposal_inflation < np.inf:
            raise ValueError("proposal inflation must be positive and finite")
        if not 0 <= self.map_peak_cut < np.inf:
            raise ValueError("map peak cut must be nonnegative and finite")

    def proposal_sampler(self, noise: GaussianPossibility):
        """What a scan's moves are drawn from: ``noise`` inflated by ``proposal_inflation``, as ``proposal`` says.

        Raises ValueError when that spread is not finite and positive
        definite, or when max-entropy cannot water-pour it.
        """
        return _support_sampler(noise.inflated(self.proposal_inflation), self)


def _support_sampler(pi: GaussianPossibility, options: PossibilityPFOptions):
    """What ``options.proposal`` draws support from for ``pi``: its density or its water-poured density."""
    return water_pour_continuous(pi) if options.proposal == "max-entropy" else pi


class LinearGaussianTransition:
    """Transition whose possibility is Gaussian with mean A x + b, fixed spread.

    ``noise`` is the zero-mean Gaussian possibility of the move (``spread`` if
    that is one).  Proposals (the inflated Gaussian or its water-poured density)
    are built once per (proposal, inflation) and reused when ``offset`` is
    reassigned per scan.
    """

    def __init__(self, matrix, spread, offset=None):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        d = self.matrix.shape[0]
        self.noise = spread if isinstance(spread, GaussianPossibility) else GaussianPossibility(np.zeros(d), spread)
        self.offset = np.zeros(d) if offset is None else np.atleast_1d(np.asarray(offset, dtype=float))
        self._proposals: dict = {}

    def means(self, states: np.ndarray) -> np.ndarray:
        """A x + b for each row x of ``states``, shape (n, d), column-major."""
        # (A @ x.T).T equals x @ A.T bit for bit, for row- and column-major x,
        # and costs less; the offset then runs along rows n elements long.
        means = self.matrix @ states.T
        means += self.offset[:, None]
        return means.T

    def propose(self, states: np.ndarray, rng: np.random.Generator, options: PossibilityPFOptions) -> np.ndarray:
        """Draw one successor support point per particle."""
        key = (options.proposal, options.proposal_inflation)
        if key not in self._proposals:
            self._proposals[key] = options.proposal_sampler(self.noise)
        # Proposals are zero-mean: a sample is the means plus the deviation.
        proposed = self.means(states)
        proposed += self._proposals[key].deviation(rng, states.shape[0])
        return proposed

    def log_possibility_of_move(self, proposed: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Log Gaussian transition possibility of each drawn move."""
        return self.noise.log_eval(proposed - self.means(states))

    def sample_model(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Probabilistic propagation through the un-inflated Gaussian model, column-major."""
        moved = self.means(states)
        moved += self.noise.deviation(rng, states.shape[0])
        return moved


def _log_weights(weights: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(weights)


def _finite_peak(log_w: np.ndarray, scan_index: int) -> float:
    """Largest log weight; raises :class:`AllWeightsZero` if it is not finite."""
    peak = log_w.max()
    if not math.isfinite(peak):
        raise AllWeightsZero(f"peak log-weight {peak} at scan {scan_index}")
    return peak


def peak_set_representative(states: np.ndarray, norm_log_weights: np.ndarray, cut: float) -> int:
    """Index of the maximum-possibility representative particle.

    The near-peak set {log w >= -cut} is collapsed to its single most
    central member: the particle closest to the set's weighted barycentre,
    the first such on a tie.  With ``cut == 0`` and a unique peak this is
    the arg-max.
    """
    selected = (norm_log_weights >= -cut).nonzero()[0]
    if selected.shape[0] == 1:  # a set of one is its own most central member
        return int(selected[0])
    sub = states.take(selected, axis=0)
    wsub = np.exp(norm_log_weights.take(selected))
    barycentre = (wsub[:, None] * sub).sum(axis=0) / wsub.sum()
    d = sub - barycentre
    # What np.linalg.norm(axis=1) computes, without its overhead.  A distance
    # too large to square is inf, which the argmin handles.
    with np.errstate(over="ignore"):
        d *= d
        dist = np.sqrt(np.add.reduce(d, axis=1))
    return int(selected[dist.argmin()])


def possibility_pf_init(
    prior: GaussianPossibility,
    n: int,
    rng: np.random.Generator,
    options: PossibilityPFOptions = PossibilityPFOptions(),
) -> tuple[ParticleSet, np.ndarray]:
    """Draw initial support points and weight them by the prior possibility.

    Weights are the prior possibility values at the samples, divided by
    their maximum (max weight exactly 1).  Returns the set and its point
    estimate, as :func:`possibility_pf_step` does.  Raises
    :class:`AllWeightsZero` when that maximum is not finite, e.g. for a
    NaN first bearing.
    """
    n = whole_count("n", n)
    states = prior.mean + _support_sampler(prior, options).deviation(rng, n)
    log_w = prior.log_eval(states)
    log_w -= _finite_peak(log_w, 0)
    j = peak_set_representative(states, log_w, options.map_peak_cut)
    return ParticleSet(states, np.exp(log_w, out=log_w)), states[j]


def possibility_pf_resample(
    predicted: np.ndarray,
    norm_weights: np.ndarray,
    rng: np.random.Generator,
) -> ParticleSet:
    """Water-poured resampling; carries the resampled weights, max renormalised to 1."""
    pmf = water_pour_discrete(norm_weights)
    idx = sample_discrete(pmf, rng, predicted.shape[0])
    carried = norm_weights.take(idx)
    carried /= carried.max()
    # Gathered along the contiguous rows of predicted.T: the set stays
    # column-major, which a row gather would make several times slower.
    return ParticleSet(predicted.T.take(idx, axis=1).T, carried)


def possibility_pf_step(
    ps: ParticleSet,
    transition: LinearGaussianTransition,
    log_likelihood,
    z,
    rng: np.random.Generator,
    scan_index: int,
    options: PossibilityPFOptions = PossibilityPFOptions(),
) -> tuple[ParticleSet, np.ndarray]:
    """One prediction/update/resampling cycle of the possibility filter.

    Returns the resampled set and the point estimate, a particle of the
    predicted set (see :func:`peak_set_representative`).  Raises
    :class:`AllWeightsZero` when the peak weight is no longer a positive
    finite number (filter collapse; callers report the run as divergent).
    """
    predicted = transition.propose(ps.states, rng, options)
    log_w = _log_weights(ps.weights)
    if options.transition_weighting == "gaussian":
        log_w += transition.log_possibility_of_move(predicted, ps.states)
    log_w += log_likelihood(predicted, z)
    log_w -= _finite_peak(log_w, scan_index)
    j = peak_set_representative(predicted, log_w, options.map_peak_cut)
    return possibility_pf_resample(predicted, np.exp(log_w, out=log_w), rng), predicted[j]


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling indices for probability weights summing to 1.

    A position at or past the rounded total, up to 1.0, picks the last
    particle that raised the total (the first cell at it), never a
    zero-weight one.  Raises ValueError unless the total is positive and
    finite; negative weights are the caller's to rule out.
    """
    n = weights.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    cum = weights.cumsum()
    if not 0.0 < cum[-1] < np.inf:
        raise ValueError(f"weights total {cum[-1]!r}; it must be positive and finite")
    cum[cum.searchsorted(cum[-1]) if weights[-1] == 0.0 else -1 :] = np.inf
    return cum.searchsorted(positions, side="right")


def _weighted_mean(w: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The bootstrap estimate: the ``w``-weighted mean of the rows of ``states``."""
    # The product sums in memory order.  On column-major states w @ states
    # differs in the last bits in about 3 of 4 random sets; of ten
    # formulations tried, only the row-major product kept them in 400 of 400.
    return w @ np.ascontiguousarray(states)


def standard_pf_init(prior: GaussianPossibility, n: int, rng: np.random.Generator) -> tuple[ParticleSet, np.ndarray]:
    """Bootstrap initialisation: Gaussian prior samples, uniform weights.

    Returns the column-major set and its weighted-mean estimate, as
    :func:`standard_pf_step` does.
    """
    n = whole_count("n", n)
    states = prior.mean + prior.deviation(rng, n)
    weights = np.full(n, 1.0 / n)
    return ParticleSet(states, weights), _weighted_mean(weights, states)


def standard_pf_step(
    ps: ParticleSet,
    transition: LinearGaussianTransition,
    log_likelihood,
    z,
    rng: np.random.Generator,
    scan_index: int,
) -> tuple[ParticleSet, np.ndarray]:
    """One SIR cycle: propagate through the model, weight, resample systematically.

    Returns the resampled set and the weighted-mean (MMSE) estimate.
    """
    states = transition.sample_model(ps.states, rng)
    log_w = _log_weights(ps.weights)
    log_w += log_likelihood(states, z)
    log_w -= _finite_peak(log_w, scan_index)
    w = np.exp(log_w, out=log_w)
    w /= w.sum()
    idx = systematic_resample(w, rng)
    n = states.shape[0]
    # Gathered column-major, as possibility_pf_resample does.
    return ParticleSet(states.T.take(idx, axis=1).T, np.full(n, 1.0 / n)), _weighted_mean(w, states)
