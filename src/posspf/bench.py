"""Scenario generation, measurement synthesis, Monte Carlo experiments, and
the reference bound.

A scenario fixes the observer trajectory, the target's nominal track and
motion model, the true measurement-noise generator, and the noise model
the filters assume.  ``scenario_crlb`` is the recursive Cramer-Rao
position bound along the nominal track, the benchmark's reference curve.
Runs are seeded end to end: a run's truth, measurements, and filter
randomness are pure functions of (scenario, filter kind, particle count,
seed), and batch aggregates are independent of the parallelism degree.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .filters import (
    AllWeightsZero,
    LinearGaussianTransition,
    PossibilityPFOptions,
    peak_set_representative,  # unused here; perfbench/tracer.py binds this name (ROADMAP item 9)
    possibility_pf_init,
    possibility_pf_step,
    standard_pf_init,
    standard_pf_step,
)
from .possq import GaussianPossibility, whole_count
from .tma import (
    PriorConfig,
    bearing_jacobian,
    bearing_log_likelihood,
    bearings_of,
    init_prior,
    prior_spread,
    wrap_angle,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

DIVERGENCE_THRESHOLD_M = 1000.0

# Smallest Student-t dof accepted.  Below about 0.05 a chi-square draw can
# underflow to 0 and make a bearing infinite; at 0.2 the chance per draw is
# about (2.5e-324)**0.1 / Gamma(1.1) = 5e-33.
MIN_NOISE_DOF = 0.2

FILTER_POSSIBILITY = "possibility"
FILTER_STANDARD = "standard"
FILTER_KINDS = (FILTER_POSSIBILITY, FILTER_STANDARD)


def is_divergent(errors_m) -> bool:
    """A run diverges unless every position error is finite and the final one is at most the threshold."""
    errors_m = np.atleast_1d(errors_m)
    return not (np.isfinite(errors_m).all() and errors_m[-1] <= DIVERGENCE_THRESHOLD_M)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion, as fractions."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, trials = {trials}], got {successes!r}")
    z = 1.959963984540054  # the 97.5% standard normal quantile
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise generator: zero-mean Student-t, Gaussian at ``nu = inf``.

    Student-t draws are Gaussian over the square root of a scaled
    chi-square; ``nu = inf`` draws the Gaussian alone.  ``nu`` is at least
    ``MIN_NOISE_DOF``.
    """

    sigma: float
    nu: float = math.inf

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("noise sigma must be positive and finite")
        if not self.nu >= MIN_NOISE_DOF:
            raise ValueError(f"noise degrees of freedom must be at least {MIN_NOISE_DOF} (inf is Gaussian)")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        draws = self.sigma * rng.standard_normal(size)
        if math.isfinite(self.nu):
            draws = draws / np.sqrt(rng.chisquare(self.nu, size) / self.nu)
        return draws


class ProcessNoiseError(ValueError):
    """A process noise matrix that is not finite and positive definite in floating point."""


@dataclass(frozen=True)
class Scenario:
    """The bearings-only engagement, in SI units: metres, seconds and radians.

    Headings and the initial bearing are clockwise from north.  By default
    the target starts 10 km due north doing 4 m/s on heading 140 degrees,
    and the observer zigzags at 7.5 m/s between headings 70 and 340
    degrees, changing leg every ``observer_leg_scans`` scans and holding
    its last heading.  ``T`` is the sampling interval and ``q`` the
    process-noise intensity in m^2/s^3.  Each value is checked once, and
    the known observer state per scan, shape (scans, 4), the
    constant-velocity transition ``F``, the target's noise-free track,
    shape (scans, 4), the offsets that the observer's moves add to the
    relative state's, shape (scans - 1, 4), and one scan's
    white-acceleration process noise derive from them.  The
    target track must stay finite relative to the observer and never meet
    it, so that every nominal bearing is defined.
    """

    scan_count: int = 40
    T: float = 40.0
    initial_range: float = 10e3
    initial_bearing: float = 0.0
    target_speed: float = 4.0
    target_heading: float = math.radians(140.0)
    observer_speed: float = 7.5
    observer_headings: tuple[float, ...] = tuple(map(math.radians, (70.0, 340.0, 70.0, 340.0)))
    observer_leg_scans: int = 10
    q: float = 1e-3
    true_noise: NoiseModel = NoiseModel(math.radians(1.0))
    filter_sigma: float = math.radians(1.0)
    observer: np.ndarray = field(init=False, repr=False, compare=False)
    F: np.ndarray = field(init=False, repr=False, compare=False)
    nominal_track: np.ndarray = field(init=False, repr=False, compare=False)
    # Row k - 1 is F @ observer[k - 1] - observer[k]: how the relative state's move into scan k is offset.
    observer_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    # One scan's zero-mean move, for the truth and the filters alike.
    process_noise: GaussianPossibility = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scan_count = whole_count("scan_count", self.scan_count, 2)
        leg_scans = whole_count("observer_leg_scans", self.observer_leg_scans)
        # numpy's scalar keeps an overflowing bound inf, where a Python float's ** raises.
        sigma = np.float64(self.filter_sigma)
        if not 0 < self.T < math.inf:
            raise ValueError("sampling interval must be positive and finite")
        if not 0 < self.q < math.inf:
            raise ValueError("process noise intensity must be positive and finite")
        if not 0 < self.initial_range < math.inf:
            raise ValueError("initial range must be positive and finite")
        if not 0 < sigma < math.inf:
            raise ValueError("filter sigma must be positive and finite")
        if not (0 <= self.observer_speed < math.inf and 0 <= self.target_speed < math.inf):
            raise ValueError("speeds must be nonnegative and finite")
        if not all(map(math.isfinite, (self.initial_bearing, self.target_heading, *self.observer_headings))):
            raise ValueError("headings and the initial bearing must be finite")
        if len(self.observer_headings) < 2:
            raise ValueError("observer needs at least two legs to manoeuvre")
        # Constant velocity per axis, and white acceleration of intensity q over one scan.
        F = np.eye(4)
        F[0, 1] = F[2, 3] = self.T
        T = np.float64(self.T)  # its ** gives inf where a Python float's raises OverflowError
        try:
            with np.errstate(over="ignore"):  # an overflowing T**3 entry is refused as not finite
                Q = np.zeros((4, 4))
                Q[:2, :2] = Q[2:, 2:] = self.q * np.array([[T**3 / 3.0, T**2 / 2.0], [T**2 / 2.0, T]])
                noise = GaussianPossibility(np.zeros(4), Q)
        except ValueError as exc:
            raise ProcessNoiseError(f"process noise matrix is not finite and positive definite: {exc}") from exc

        # Piecewise constant velocity: each scan's position integrates the
        # previous scan's velocity over T.
        obs = np.zeros((scan_count, 4))
        pos = np.zeros(2)
        with np.errstate(over="ignore", invalid="ignore"):  # a track that overflows is refused as not finite
            for k in range(scan_count):
                leg = min(k // leg_scans, len(self.observer_headings) - 1)
                v = _east_north(self.observer_speed, self.observer_headings[leg])
                obs[k] = [pos[0], v[0], pos[1], v[1]]
                pos = pos + self.T * v
        if not np.all(np.isfinite(obs)):
            raise ValueError("observer states must be finite")
        velocities = obs[:, [1, 3]]
        if np.allclose(velocities, velocities[0]):
            raise ValueError("observer must manoeuvre at least once (range observability)")

        tgt_pos = _east_north(self.initial_range, self.initial_bearing)
        tgt_vel = _east_north(self.target_speed, self.target_heading)
        track = np.empty((scan_count, 4))
        track[0] = [tgt_pos[0], tgt_vel[0], tgt_pos[1], tgt_vel[1]]
        with np.errstate(over="ignore", invalid="ignore"):  # a track that overflows is refused as not finite
            for k in range(1, scan_count):
                track[k] = F @ track[k - 1]
            rel = track - obs
            # The squared range as the bound's bearing gradient computes it: 0 also where it underflows.
            met = np.flatnonzero(rel[:, 0] * rel[:, 0] + rel[:, 2] * rel[:, 2] == 0.0)
        if not np.all(np.isfinite(rel)):
            raise ValueError("target states relative to the observer must be finite")
        if met.size:
            raise ValueError(f"target range is zero at scan {met[0] + 1}, where its bearing gradient is undefined")
        # A stack of row products, as README's bit-identity note says; a flat product gives other last bits.
        offsets = (F @ obs[:-1, :, None])[:, :, 0] - obs[1:]

        object.__setattr__(self, "scan_count", scan_count)
        object.__setattr__(self, "filter_sigma", sigma)
        object.__setattr__(self, "observer", obs)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "nominal_track", track)
        object.__setattr__(self, "observer_offsets", offsets)
        object.__setattr__(self, "process_noise", noise)


def _east_north(length: float, angle: float) -> np.ndarray:
    """East and north components of ``length`` along ``angle``, clockwise from north."""
    return length * np.array([np.sin(angle), np.cos(angle)])


def sample_target_track(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Target trajectory realisation with process noise, from the nominal track's first state."""
    F = scenario.F
    track = np.empty((scenario.scan_count, 4))
    track[0] = scenario.nominal_track[0]
    # One draw for every scan, the stream of one deviation(rng, 1) per scan, and
    # each scan's move its own row of a stacked product (README, bit identity).
    moves = (scenario.process_noise.chol @ rng.standard_normal((scenario.scan_count - 1, 4, 1)))[:, :, 0]
    for k in range(1, scenario.scan_count):
        track[k] = F @ track[k - 1] + moves[k - 1]
    return track


def synthesize_measurements(scenario: Scenario, rng: np.random.Generator, target_track: np.ndarray) -> np.ndarray:
    """Noisy bearings of a target track, wrapped to (-pi, pi]."""
    rel = target_track - scenario.observer
    true_bearings = bearings_of(rel)
    noise = scenario.true_noise.sample(rng, scenario.scan_count)
    return wrap_angle(true_bearings + noise)


@dataclass(slots=True)
class RunReport:
    """Outcome of one seeded run of one filter."""

    seed: int
    filter_kind: str
    particles: int
    estimate_track: np.ndarray  # (scans, 2) position estimates
    pos_errors: np.ndarray      # (scans,) metres
    divergent: bool
    collapsed: bool


def run_single(
    scenario: Scenario,
    filter_kind: str,
    n: int,
    seed: int,
    prior: PriorConfig = PriorConfig(),
    options: PossibilityPFOptions = PossibilityPFOptions(),
) -> RunReport:
    """Simulate one engagement and run one filter over it.

    The world (truth and measurements) is drawn from stream (seed, 0) and
    the filter from stream (seed, 1), so both filters see identical
    measurements at the same seed.
    """
    if filter_kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {filter_kind!r}")
    n = whole_count("n", n)
    rng_world = np.random.default_rng((seed, 0))
    rng_filter = np.random.default_rng((seed, 1))

    target = sample_target_track(scenario, rng_world)
    rel = target - scenario.observer
    z = synthesize_measurements(scenario, rng_world, target)

    prior_poss = init_prior(z[0], scenario.observer[0, [1, 3]], scenario.filter_sigma, prior)
    transition = LinearGaussianTransition(scenario.F, scenario.process_noise)
    # Looked up per run, so a patched module attribute is the one bound.
    log_lik = partial(bearing_log_likelihood, sigma=scenario.filter_sigma)

    track = np.full((scenario.scan_count, 2), np.nan)
    collapsed = False
    if filter_kind == FILTER_POSSIBILITY:
        init, step = partial(possibility_pf_init, options=options), partial(possibility_pf_step, options=options)
    else:
        init, step = standard_pf_init, standard_pf_step
    try:
        ps, estimate = init(prior_poss, n, rng_filter)
        track[0] = estimate[::2]
        for k in range(1, scenario.scan_count):
            # The relative state moves by F, less the observer's own move.
            transition.offset = scenario.observer_offsets[k - 1]
            ps, estimate = step(ps, transition, log_lik, z[k], rng_filter, k)
            track[k] = estimate[::2]
    except AllWeightsZero:
        collapsed = True

    with np.errstate(over="ignore"):  # an error too large to square is inf: divergent
        pos_errors = np.linalg.norm(track - rel[:, [0, 2]], axis=1)
    if collapsed:
        pos_errors = np.where(np.isnan(pos_errors), np.inf, pos_errors)
    return RunReport(
        seed=seed,
        filter_kind=filter_kind,
        particles=n,
        estimate_track=track,
        pos_errors=pos_errors,
        divergent=is_divergent(pos_errors),
        collapsed=collapsed,
    )


@dataclass
class BatchResult:
    """Aggregates over a batch of seeded runs of one filter.

    Only the reports and the RMS curve are stored; the counts and the
    divergence percentage with its Wilson interval derive from the reports.
    """

    reports: list[RunReport]
    rms_m: np.ndarray          # per-scan RMS position error over non-divergent runs

    @property
    def n_runs(self) -> int:
        return len(self.reports)

    @property
    def n_divergent(self) -> int:
        return sum(r.divergent for r in self.reports)

    @property
    def n_alive(self) -> int:
        return self.n_runs - self.n_divergent

    @property
    def divergence_pct(self) -> float:
        return 100.0 * self.n_divergent / self.n_runs

    @property
    def wilson_lo_pct(self) -> float:
        return 100.0 * wilson_interval(self.n_divergent, self.n_runs)[0]

    @property
    def wilson_hi_pct(self) -> float:
        return 100.0 * wilson_interval(self.n_divergent, self.n_runs)[1]


# Not a partial of run_single: a worker looks run_single up, so a pre-fork patch runs and is never pickled.
def _run_single_args(args) -> RunReport:
    return run_single(*args)


def _workers(parallelism: int, runs: int) -> int:
    """Worker processes for ``runs`` runs: at most ``parallelism``, one per run and usable core."""
    return min(whole_count("parallelism", parallelism), runs, len(os.sched_getaffinity(0)))


def run_batch(
    scenario: Scenario,
    filter_kind: str,
    n: int,
    runs: int,
    base_seed: int,
    parallelism: int = 1,
    prior: PriorConfig = PriorConfig(),
    options: PossibilityPFOptions = PossibilityPFOptions(),
    *,
    pool: Executor | None = None,
) -> BatchResult:
    """Independent seeded runs (base_seed + index) and their aggregates.

    Divergent runs are excluded from the RMS curve; the divergence
    percentage carries a Wilson 95% interval.  At most ``parallelism``
    worker processes run, and no more than there are runs or usable cores;
    results do not depend on their number.  When more than one would run,
    the runs go to ``pool``, or to a pool opened and shut down here.
    """
    runs = whole_count("runs", runs)
    arglist = [(scenario, filter_kind, n, base_seed + i, prior, options) for i in range(runs)]
    workers = _workers(parallelism, runs)
    if workers > 1:
        # Imported here: the pool's modules cost a serial command's set-up about 20 ms.
        from concurrent.futures import ProcessPoolExecutor

        with nullcontext(pool) if pool is not None else ProcessPoolExecutor(max_workers=workers) as executor:
            reports = list(executor.map(_run_single_args, arglist, chunksize=max(1, runs // (4 * workers))))
    else:
        reports = [_run_single_args(a) for a in arglist]

    alive = [r.pos_errors for r in reports if not r.divergent]
    if alive:
        rms = np.sqrt(np.mean(np.square(np.array(alive)), axis=0))
    else:
        rms = np.full(scenario.scan_count, np.nan)
    return BatchResult(reports=reports, rms_m=rms)


@dataclass(frozen=True)
class Table1Cell:
    """Divergence percentage of one (filter, particle count, tail weight) cell."""

    filter_kind: str
    n: int
    nu: float
    runs: int
    divergent_pct: float
    wilson_lo_pct: float
    wilson_hi_pct: float


def table1_experiment(
    scenario: Scenario,
    n_grid,
    nu_grid,
    runs: int,
    base_seed: int,
    parallelism: int = 1,
    prior: PriorConfig = PriorConfig(),
    options: PossibilityPFOptions = PossibilityPFOptions(),
) -> list[Table1Cell]:
    """Divergence-percentage grid over particle counts and Student-t tails.

    Every cell reuses the same seed block, so all cells (and both filters)
    see identical measurement randomness per run index: cell differences
    are paired, not seed noise.  Each cell is one ``run_batch`` call; they
    share one worker pool, which is shut down before this returns or raises.
    """
    n_grid = [whole_count("n_grid entry", n) for n in n_grid]
    noises = [NoiseModel(scenario.true_noise.sigma, float(nu)) for nu in nu_grid]
    workers = _workers(parallelism, whole_count("runs", runs))
    cells = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # as in run_batch, only when a pool starts
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for filter_kind, n, noise in itertools.product((FILTER_STANDARD, FILTER_POSSIBILITY), n_grid, noises):
            noisy = dataclasses.replace(scenario, true_noise=noise)
            batch = run_batch(noisy, filter_kind, n, runs, base_seed, parallelism, prior, options, pool=pool)
            cells.append(
                Table1Cell(
                    filter_kind=filter_kind,
                    n=n,
                    nu=noise.nu,
                    runs=runs,
                    divergent_pct=batch.divergence_pct,
                    wilson_lo_pct=batch.wilson_lo_pct,
                    wilson_hi_pct=batch.wilson_hi_pct,
                )
            )
    return cells


def scenario_crlb(scenario: Scenario, prior: PriorConfig = PriorConfig()) -> np.ndarray:
    """RMS position bound per scan, in metres, along the nominal track.

    The bound is for the noise model the filters assume, Gaussian with
    ``scenario.filter_sigma``, not for ``scenario.true_noise``: a truth
    with another scale or a Student-t tail leaves it unchanged.

    Covariance form of the recursive Cramer-Rao bound
    J_k = [F J_{k-1}^-1 F' + Q]^-1 + H_k' H_k / sigma^2 (Tichavsky, Muravchik
    & Nehorai 1998): predict P = F P F' + Q, then a scalar-gain Joseph-form
    update with H_k the bearing gradient at the nominal relative state.  P_1
    is the prior's spread at the first nominal bearing.  Nothing is
    inverted, so large finite q stays finite.

    Raises ValueError naming the first scan whose bound is not finite, as
    when a spread overflows.
    """
    rel = scenario.nominal_track - scenario.observer
    F, Q, sigma = scenario.F, scenario.process_noise.spread, scenario.filter_sigma
    bound = np.empty(scenario.scan_count)
    with np.errstate(over="ignore", invalid="ignore"):
        P = prior_spread(bearings_of(rel[:1])[0], sigma, prior)
        bound[0] = np.sqrt(P[0, 0] + P[2, 2])
        for k in range(1, scenario.scan_count):
            P = F @ P @ F.T + Q
            H = bearing_jacobian(rel[k])
            PH = P @ H
            gain = PH / (H @ PH + sigma**2)
            A = np.eye(4) - np.outer(gain, H)
            P = A @ P @ A.T + sigma**2 * np.outer(gain, gain)
            bound[k] = np.sqrt(P[0, 0] + P[2, 2])
    bad = np.flatnonzero(~np.isfinite(bound))
    if bad.size:
        raise ValueError(
            f"position bound is not finite at scan {bad[0] + 1} ({bad.size} of {scenario.scan_count} scans)"
        )
    return bound
