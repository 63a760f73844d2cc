"""Scenario generation, measurement synthesis, and Monte Carlo experiments.

A scenario fixes the observer trajectory, the target's initial state and
motion model, the true measurement-noise generator, and the noise model
the filters assume.  Runs are seeded end to end: a run's truth,
measurements, and filter randomness are pure functions of (scenario,
filter kind, particle count, seed), and batch aggregates are independent
of the parallelism degree.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .filters import (
    AllWeightsZero,
    LinearGaussianTransition,
    PossibilityPFOptions,
    peak_set_representative,
    possibility_pf_init,
    possibility_pf_step,
    standard_pf_init,
    standard_pf_step,
)
from .possq import GaussianPossibility
from .tma import (
    PriorConfig,
    bearing_log_likelihood,
    bearings_of,
    crlb_curve,
    init_prior,
    process_noise_matrix,
    transition_matrix,
    wrap_angle,
)

DIVERGENCE_THRESHOLD_M = 1000.0

FILTER_POSSIBILITY = "possibility"
FILTER_STANDARD = "standard"


def is_divergent(errors_m) -> bool:
    """A run diverges unless every position error is finite and the final one is at most the threshold."""
    errors_m = np.atleast_1d(errors_m)
    return not (np.isfinite(errors_m).all() and errors_m[-1] <= DIVERGENCE_THRESHOLD_M)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion, as fractions."""
    if trials <= 0:
        raise ValueError("trials must be positive")
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
    chi-square; ``nu = inf`` draws the Gaussian alone.
    """

    sigma: float
    nu: float = math.inf

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("noise sigma must be positive and finite")
        if not self.nu > 0:
            raise ValueError("noise degrees of freedom must be positive (inf is Gaussian)")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        draws = self.sigma * rng.standard_normal(size)
        if math.isfinite(self.nu):
            draws = draws / np.sqrt(rng.chisquare(self.nu, size) / self.nu)
        return draws


@dataclass(frozen=True)
class Scenario:
    """One simulated engagement: observer, target, CV dynamics, noise models.

    ``observer`` holds the known observer state per scan, shape (scans, 4),
    with piecewise constant velocity: positions must integrate each scan's
    own velocity over ``T`` (impulsive velocity changes at scan boundaries
    are allowed).  ``T`` is the sampling interval in seconds and ``q`` the
    process-noise intensity in m^2/s^3.
    """

    T: float
    observer: np.ndarray
    target_init: np.ndarray
    q: float
    true_noise: NoiseModel
    filter_sigma: float
    deterministic_target: bool = False

    @property
    def scan_count(self) -> int:
        return len(self.observer)

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError("sampling interval must be positive and finite")
        obs = np.asarray(self.observer, dtype=float)
        object.__setattr__(self, "observer", obs)
        if obs.ndim != 2 or obs.shape[1] != 4:
            raise ValueError("observer states must have shape (scans, 4)")
        if obs.shape[0] < 2:
            raise ValueError("observer trajectory needs at least 2 scans")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observer states must be finite")
        gaps_x = obs[1:, 0] - obs[:-1, 0] - self.T * obs[:-1, 1]
        gaps_y = obs[1:, 2] - obs[:-1, 2] - self.T * obs[:-1, 3]
        scale = max(1.0, np.abs(obs[:, [0, 2]]).max())
        if np.abs(gaps_x).max() > 1e-9 * scale or np.abs(gaps_y).max() > 1e-9 * scale:
            raise ValueError("observer positions inconsistent with piecewise-CV motion")
        if not 0 <= self.q < math.inf:
            raise ValueError("process noise intensity must be nonnegative and finite")
        if not 0 < self.filter_sigma < math.inf:
            raise ValueError("filter sigma must be positive and finite")
        target = np.asarray(self.target_init, dtype=float)
        object.__setattr__(self, "target_init", target)
        if target.shape != (4,):
            raise ValueError(f"target initial state must have shape (4,), got {target.shape}")
        if not np.all(np.isfinite(target)):
            raise ValueError("target initial state must be finite")
        velocities = obs[:, [1, 3]]
        if np.allclose(velocities, velocities[0]):
            raise ValueError("observer must manoeuvre at least once (range observability)")


def _heading_velocity(speed: float, heading_deg: float) -> np.ndarray:
    h = np.deg2rad(heading_deg)
    return speed * np.array([np.sin(h), np.cos(h)])


def build_canonical_scenario(
    *,
    scan_count: int = 40,
    T: float = 40.0,
    initial_range_m: float = 10e3,
    initial_bearing_deg: float = 0.0,
    target_speed: float = 4.0,
    target_heading_deg: float = 140.0,
    observer_speed: float = 7.5,
    observer_headings_deg: tuple[float, ...] = (70.0, 340.0, 70.0, 340.0),
    observer_leg_scans: int = 10,
    q: float = 1e-3,
    noise_sigma_deg: float = 1.0,
    noise_nu: float = math.inf,
    filter_sigma_deg: float = 1.0,
    deterministic_target: bool = False,
) -> Scenario:
    """Canonical bearings-only engagement; every default can be overridden.

    By default the target starts 10 km due north doing 4 m/s on heading
    140, and the observer zigzags at 7.5 m/s between headings 70 and 340
    every 10 scans.  ``noise_nu = inf`` is Gaussian bearing noise.
    """
    # Checked before the track is built, where a non-finite value would
    # reach numpy arithmetic ahead of Scenario's own checks.
    if not 0 < T < math.inf:
        raise ValueError("sampling interval must be positive and finite")
    if not 0 < initial_range_m < math.inf:
        raise ValueError("initial range must be positive and finite")
    if observer_leg_scans < 1:
        raise ValueError("observer_leg_scans must be at least 1")
    if not (0 <= observer_speed < math.inf and 0 <= target_speed < math.inf):
        raise ValueError("speeds must be nonnegative and finite")
    if not all(map(math.isfinite, (initial_bearing_deg, target_heading_deg, *observer_headings_deg))):
        raise ValueError("headings and the initial bearing must be finite")
    if len(observer_headings_deg) < 2:
        raise ValueError("observer needs at least two legs to manoeuvre")

    obs = np.zeros((int(scan_count), 4))
    pos = np.zeros(2)
    for k in range(len(obs)):
        leg = min(k // observer_leg_scans, len(observer_headings_deg) - 1)
        v = _heading_velocity(observer_speed, observer_headings_deg[leg])
        obs[k] = [pos[0], v[0], pos[1], v[1]]
        pos = pos + T * v

    beta = np.deg2rad(initial_bearing_deg)
    tgt_pos = initial_range_m * np.array([np.sin(beta), np.cos(beta)])
    tgt_vel = _heading_velocity(target_speed, target_heading_deg)

    return Scenario(
        T=float(T),
        observer=obs,
        target_init=np.array([tgt_pos[0], tgt_vel[0], tgt_pos[1], tgt_vel[1]]),
        q=float(q),
        true_noise=NoiseModel(np.deg2rad(noise_sigma_deg), float(noise_nu)),
        filter_sigma=np.deg2rad(filter_sigma_deg),
        deterministic_target=bool(deterministic_target),
    )


def nominal_target_track(scenario: Scenario) -> np.ndarray:
    """Noise-free constant-velocity target trajectory, shape (scans, 4)."""
    F = transition_matrix(scenario.T)
    track = np.empty((scenario.scan_count, 4))
    track[0] = scenario.target_init
    for k in range(1, scenario.scan_count):
        track[k] = F @ track[k - 1]
    return track


def sample_target_track(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Target trajectory realisation; adds process noise unless deterministic."""
    if scenario.deterministic_target or scenario.q == 0:
        return nominal_target_track(scenario)
    F = transition_matrix(scenario.T)
    noise = GaussianPossibility(np.zeros(4), process_noise_matrix(scenario.T, scenario.q))
    track = np.empty((scenario.scan_count, 4))
    track[0] = scenario.target_init
    for k in range(1, scenario.scan_count):
        track[k] = F @ track[k - 1] + noise.sample(rng, 1)[0]
    return track


def synthesize_measurements(scenario: Scenario, rng: np.random.Generator, target_track: np.ndarray) -> np.ndarray:
    """Noisy bearings of a target track, wrapped to (-pi, pi]."""
    rel = target_track - scenario.observer
    true_bearings = bearings_of(rel)
    noise = scenario.true_noise.sample(rng, scenario.scan_count)
    return wrap_angle(true_bearings + noise)


@dataclass
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
    if filter_kind not in (FILTER_POSSIBILITY, FILTER_STANDARD):
        raise ValueError(f"unknown filter kind {filter_kind!r}")
    rng_world = np.random.default_rng((seed, 0))
    rng_filter = np.random.default_rng((seed, 1))

    target = sample_target_track(scenario, rng_world)
    rel = target - scenario.observer
    z = synthesize_measurements(scenario, rng_world, target)

    obs = scenario.observer
    prior_poss = init_prior(z[0], obs[0, [1, 3]], scenario.filter_sigma, prior)
    F = transition_matrix(scenario.T)
    transition = LinearGaussianTransition(F, process_noise_matrix(scenario.T, scenario.q))
    # Looked up per run, so a patched module attribute is the one bound.
    log_lik = partial(bearing_log_likelihood, sigma=scenario.filter_sigma)

    track = np.full((scenario.scan_count, 2), np.nan)
    collapsed = False
    try:
        if filter_kind == FILTER_POSSIBILITY:
            ps = possibility_pf_init(prior_poss, n, rng_filter, options)
            with np.errstate(divide="ignore"):
                j0 = peak_set_representative(ps.states, np.log(ps.weights), options.map_peak_cut)
            track[0] = ps.states[j0][[0, 2]]
            step = partial(possibility_pf_step, options=options)
        else:
            ps = standard_pf_init(prior_poss, n, rng_filter)
            track[0] = ps.weights @ ps.states[:, [0, 2]]
            step = standard_pf_step

        for k in range(1, scenario.scan_count):
            # The relative state moves by F, less the observer's own move.
            transition.offset = F @ obs[k - 1] - obs[k]
            ps, estimate = step(ps, transition, log_lik, z[k], rng_filter, k)
            track[k] = estimate[::2]
    except AllWeightsZero:
        collapsed = True

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
    """Aggregates over a batch of seeded runs of one filter."""

    reports: list[RunReport]
    rms_m: np.ndarray          # per-scan RMS position error over non-divergent runs
    n_runs: int
    n_divergent: int
    divergence_pct: float
    wilson_lo_pct: float
    wilson_hi_pct: float

    @property
    def n_alive(self) -> int:
        return self.n_runs - self.n_divergent


# Not a partial of run_single: a worker looks run_single up, so a pre-fork patch runs and is never pickled.
def _run_single_args(args) -> RunReport:
    return run_single(*args)


def _workers(parallelism: int, runs: int) -> int:
    """Worker processes for ``runs`` runs: at most ``parallelism``, one per run and usable core."""
    return min(parallelism, runs, len(os.sched_getaffinity(0)))


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
    if runs < 1:
        raise ValueError("need at least one run")
    arglist = [(scenario, filter_kind, n, base_seed + i, prior, options) for i in range(runs)]
    workers = _workers(parallelism, runs)
    if workers > 1:
        with nullcontext(pool) if pool is not None else ProcessPoolExecutor(max_workers=workers) as executor:
            reports = list(executor.map(_run_single_args, arglist, chunksize=max(1, runs // (4 * workers))))
    else:
        reports = [_run_single_args(a) for a in arglist]

    alive = [r.pos_errors for r in reports if not r.divergent]
    if alive:
        rms = np.sqrt(np.mean(np.square(np.array(alive)), axis=0))
    else:
        rms = np.full(scenario.scan_count, np.nan)
    n_div = sum(r.divergent for r in reports)
    lo, hi = wilson_interval(n_div, runs)
    return BatchResult(
        reports=reports,
        rms_m=rms,
        n_runs=runs,
        n_divergent=n_div,
        divergence_pct=100.0 * n_div / runs,
        wilson_lo_pct=100.0 * lo,
        wilson_hi_pct=100.0 * hi,
    )


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
    cells = []
    workers = _workers(parallelism, runs)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for filter_kind, n, nu in itertools.product((FILTER_STANDARD, FILTER_POSSIBILITY), n_grid, nu_grid):
            n, nu = int(n), float(nu)
            noisy = dataclasses.replace(scenario, true_noise=NoiseModel(scenario.true_noise.sigma, nu))
            batch = run_batch(noisy, filter_kind, n, runs, base_seed, parallelism, prior, options, pool=pool)
            cells.append(
                Table1Cell(
                    filter_kind=filter_kind,
                    n=n,
                    nu=nu,
                    runs=runs,
                    divergent_pct=batch.divergence_pct,
                    wilson_lo_pct=batch.wilson_lo_pct,
                    wilson_hi_pct=batch.wilson_hi_pct,
                )
            )
    return cells


def scenario_crlb(scenario: Scenario, prior: PriorConfig = PriorConfig()):
    """Position-bound curve along the nominal trajectory, from the prior spread.

    Raises ValueError naming the first scan whose bound is not finite, as
    when a spread overflows.
    """
    rel = nominal_target_track(scenario) - scenario.observer
    z1 = bearings_of(rel[:1])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        prior_poss = init_prior(z1, scenario.observer[0, [1, 3]], scenario.filter_sigma, prior)
        result = crlb_curve(rel, scenario.T, scenario.q, scenario.filter_sigma, prior_poss)
    bad = np.flatnonzero(~np.isfinite(result.position_bound))
    if bad.size:
        raise ValueError(
            f"position bound is not finite at scan {bad[0] + 1} ({bad.size} of {scenario.scan_count} scans)"
        )
    return result
