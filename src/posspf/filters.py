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

from dataclasses import dataclass

import numpy as np

from .possq import (
    GaussianPossibility,
    sample_discrete,
    water_pour_continuous,
    water_pour_discrete,
)


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
        set's weighted barycentre (still an actual particle).  0 reduces
        to the raw arg-max particle.
    """

    proposal: str = "density"
    transition_weighting: str = "ignorance"
    proposal_inflation: float = 1.5
    map_peak_cut: float = 0.5

    def __post_init__(self):
        if self.proposal not in ("density", "max-entropy"):
            raise ValueError(f"unknown proposal {self.proposal!r}")
        if self.transition_weighting not in ("ignorance", "gaussian"):
            raise ValueError(f"unknown transition weighting {self.transition_weighting!r}")
        if not 0 < self.proposal_inflation < np.inf:
            raise ValueError("proposal inflation must be positive and finite")
        if not 0 <= self.map_peak_cut < np.inf:
            raise ValueError("map peak cut must be nonnegative and finite")


class LinearGaussianTransition:
    """Transition whose possibility is Gaussian with mean A x + b, fixed spread.

    ``noise`` is the zero-mean Gaussian possibility of the move.  Proposals
    (the inflated Gaussian or its water-poured density) are built once per
    (proposal, inflation) and reused when ``offset`` is reassigned per scan.
    """

    def __init__(self, matrix, spread, offset=None):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        d = self.matrix.shape[0]
        self.noise = GaussianPossibility(np.zeros(d), spread)
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
            proposal = GaussianPossibility(self.noise.mean, self.noise.spread * options.proposal_inflation)
            if options.proposal == "max-entropy":
                proposal = water_pour_continuous(proposal)
            self._proposals[key] = proposal
        # Proposals are zero-mean, so adding the deviation to the means is
        # adding their sample.
        proposed = self.means(states)
        proposed += self._proposals[key].deviation(rng, states.shape[0])
        return proposed

    def log_possibility_of_move(self, proposed: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Log Gaussian transition possibility of each drawn move."""
        return self.noise.log_eval(proposed - self.means(states))

    def sample_model(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Probabilistic propagation through the un-inflated Gaussian model, row-major.

        Row-major because the bootstrap estimate ``w @ states`` sums in
        memory order: on column-major states its bits differ.
        """
        moved = self.means(states)
        moved += self.noise.deviation(rng, states.shape[0])
        return np.ascontiguousarray(moved)


def _log_weights(weights: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(weights)


def _finite_peak(log_w: np.ndarray, scan_index: int) -> float:
    """Largest log weight; raises :class:`AllWeightsZero` if it is not finite."""
    peak = log_w.max()
    if not np.isfinite(peak):
        raise AllWeightsZero(f"peak log-weight {peak} at scan {scan_index}")
    return peak


def peak_set_representative(states: np.ndarray, norm_log_weights: np.ndarray, cut: float) -> int:
    """Index of the maximum-possibility representative particle.

    With ``cut == 0`` this is the first arg-max of the weights.  Otherwise
    the near-peak set {log w >= -cut} is collapsed to its single most
    central member: the particle closest to the set's weighted barycentre.
    """
    if cut <= 0.0:
        return int(np.argmax(norm_log_weights))
    selected = np.flatnonzero(norm_log_weights >= -cut)
    sub = states.take(selected, axis=0)
    wsub = np.exp(norm_log_weights.take(selected))
    barycentre = (wsub[:, None] * sub).sum(axis=0) / wsub.sum()
    d = sub - barycentre
    d *= d
    # What np.linalg.norm(axis=1) computes, without its overhead.
    return int(selected[np.argmin(np.sqrt(np.add.reduce(d, axis=1)))])


def possibility_pf_init(
    prior: GaussianPossibility,
    n: int,
    rng: np.random.Generator,
    options: PossibilityPFOptions = PossibilityPFOptions(),
) -> ParticleSet:
    """Draw initial support points and weight them by the prior possibility.

    Weights are the prior possibility values at the samples, divided by
    their maximum (max weight exactly 1).  Raises :class:`AllWeightsZero`
    when that maximum is not finite, e.g. for a NaN first bearing.
    """
    if n < 1:
        raise ValueError("particle count must be at least 1")
    source = water_pour_continuous(prior) if options.proposal == "max-entropy" else prior
    states = source.sample(rng, n)
    log_w = prior.log_eval(states)
    log_w -= _finite_peak(log_w, 0)
    return ParticleSet(states, np.exp(log_w, out=log_w))


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
    """Systematic resampling indices for probability weights summing to 1."""
    n = weights.shape[0]
    positions = (rng.random() + np.arange(n)) / n
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return np.searchsorted(cum, positions, side="right")


def standard_pf_init(prior: GaussianPossibility, n: int, rng: np.random.Generator) -> ParticleSet:
    """Bootstrap initialisation: Gaussian prior samples, uniform weights.

    The samples are row-major, as :meth:`LinearGaussianTransition.sample_model`
    explains.
    """
    if n < 1:
        raise ValueError("particle count must be at least 1")
    return ParticleSet(np.ascontiguousarray(prior.sample(rng, n)), np.full(n, 1.0 / n))


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
    return ParticleSet(states.take(idx, axis=0), np.full(n, 1.0 / n)), w @ states
