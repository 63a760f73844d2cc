"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Expected values come from independent oracles computed inside this module:
quadrature bisection and SLSQP maximum entropy for the water pouring,
analytic CDFs for the sampler, and a Kalman filter for the linear-Gaussian
toy problem.  Monte Carlo criteria run on the canonical scenario with the
fixed base seed below; tolerances are pinned in the assertions.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from posspf.bench import (
    FILTER_POSSIBILITY,
    FILTER_STANDARD,
    build_canonical_scenario,
    run_batch,
    scenario_crlb,
    wilson_interval,
)
from posspf.cli import main as cli_main
from posspf.filters import (
    LinearGaussianTransition,
    possibility_pf_init,
    possibility_pf_step,
    standard_pf_init,
    standard_pf_step,
)
from posspf.possq import (
    GaussianPossibility,
    water_pour_continuous,
    water_pour_discrete,
)
from posspf.tma import bearing_log_likelihood, bearings_of, init_prior

from _toy import kalman_track, run_possibility_toy, run_standard_toy, simulate

BASE_SEED = 20240501
DEG = math.pi / 180.0


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# criterion 1: discrete water pouring vs two independent oracles
# ---------------------------------------------------------------------------


def _level_by_bisection(w):
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.minimum(w, mid).sum() < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _maxent_pmf(w):
    def neg_entropy(p):
        return float(np.sum(p * np.log(np.maximum(p, 1e-300))))

    result = optimize.minimize(
        neg_entropy,
        w / w.sum(),
        method="SLSQP",
        bounds=[(1e-12, wi) for wi in w],
        constraints=[{"type": "eq", "fun": lambda p: p.sum() - 1.0}],
        options={"maxiter": 500, "ftol": 1e-16},
    )
    return result.x


@pytest.mark.filterwarnings("ignore:Values in x were outside bounds")
def test_criterion_1_discrete_oracle_equivalence():
    rng = np.random.default_rng(BASE_SEED)
    worst_bisect = 0.0
    worst_maxent = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 7))
        w = rng.uniform(1e-4, 1.0, size)
        w[rng.integers(0, size)] = 1.0
        pmf = water_pour_discrete(w)
        oracle = np.minimum(w, _level_by_bisection(w))
        worst_bisect = max(worst_bisect, float(np.abs(pmf - oracle).max()))
        worst_maxent = max(worst_maxent, float(np.abs(pmf - _maxent_pmf(w)).max()))
    ok = worst_bisect <= 1e-6 and worst_maxent <= 1e-6
    report(
        1,
        "discrete water-pouring oracle equivalence",
        ok,
        f"worst |diff| vs bisection {worst_bisect:.2e}, vs max-entropy {worst_maxent:.2e} (tol 1e-6)",
    )
    assert worst_bisect <= 1e-6
    assert worst_maxent <= 1e-6


# ---------------------------------------------------------------------------
# criterion 2: continuous water level by quadrature
# ---------------------------------------------------------------------------


def _quad_clipped_mass(pi: GaussianPossibility, level: float) -> float:
    if pi.dim == 1:
        sigma = math.sqrt(pi.spread[0, 0])
        mu = pi.mean[0]
        edge = sigma * math.sqrt(-2.0 * math.log(level)) if level < 1.0 else 0.0
        f = lambda x: min(math.exp(-0.5 * ((x - mu) / sigma) ** 2), level)
        left = integrate.quad(f, -np.inf, mu - edge)[0]
        mid = integrate.quad(f, mu - edge, mu + edge)[0] if edge > 0 else 0.0
        right = integrate.quad(f, mu + edge, np.inf)[0]
        return left + mid + right
    radius = math.sqrt(-2.0 * math.log(level)) if level < 1.0 else 0.0
    half_width = (radius + 7.0) * math.sqrt(np.linalg.eigvalsh(pi.spread).max())
    # Closed-form quadratic form of the inverse spread, so the oracle does not
    # call the code under test at every quadrature node.
    inv = np.linalg.inv(pi.spread)
    a, b, c = float(inv[0, 0]), float(inv[0, 1] + inv[1, 0]), float(inv[1, 1])
    mx, my = float(pi.mean[0]), float(pi.mean[1])

    def f(y, x):
        dx, dy = x - mx, y - my
        return min(math.exp(-0.5 * (a * dx * dx + b * dx * dy + c * dy * dy)), level)

    mass, _ = integrate.dblquad(
        f,
        pi.mean[0] - half_width,
        pi.mean[0] + half_width,
        pi.mean[1] - half_width,
        pi.mean[1] + half_width,
        epsabs=1e-9,
        epsrel=1e-9,
    )
    return mass


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_2_continuous_water_level():
    rng = np.random.default_rng(BASE_SEED + 1)
    worst = 0.0
    for case in range(10):
        if case % 2 == 0:
            sigma = rng.uniform(0.45, 3.0)
            pi = GaussianPossibility([rng.uniform(-2, 2)], [[sigma**2]])
        else:
            a = rng.uniform(0.6, 2.0, size=(2, 2))
            spread = a @ a.T + 0.5 * np.eye(2)
            pi = GaussianPossibility(rng.uniform(-2, 2, size=2), spread)
        assert pi.total_mass >= 1.0
        poured = water_pour_continuous(pi)
        mass = _quad_clipped_mass(pi, poured.level)
        worst = max(worst, abs(mass - 1.0))
    ok = worst <= 1e-6
    report(2, "continuous water level", ok, f"worst |quadrature mass - 1| = {worst:.2e} (tol 1e-6)")
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# criterion 3: sampler exactness (KS at the 1% level)
# ---------------------------------------------------------------------------


def _poured_cdf_1d(x, mu, sigma, level, radius):
    scale = math.sqrt(2.0 * math.pi) * sigma
    lo_edge, hi_edge = mu - radius * sigma, mu + radius * sigma
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    low = x <= lo_edge
    high = x > hi_edge
    mid = ~(low | high)
    out[low] = scale * stats.norm.cdf((x[low] - mu) / sigma)
    out[mid] = scale * stats.norm.cdf(-radius) + level * (x[mid] - lo_edge)
    out[high] = 1.0 - scale * stats.norm.cdf(-(x[high] - mu) / sigma)
    return out


def test_criterion_3_sampler_exactness():
    n = 100_000
    critical = 1.62762 / math.sqrt(n)  # 1% Kolmogorov critical value
    stats_seen = []
    for i, (mu, sigma) in enumerate([(0.0, 1.0), (1.5, 0.6), (-2.0, 2.0)]):
        poured = water_pour_continuous(GaussianPossibility([mu], [[sigma**2]]))
        samples = poured.sample(np.random.default_rng(BASE_SEED + 10 + i), n)[:, 0]
        ks = stats.kstest(
            samples, lambda x: _poured_cdf_1d(x, mu, sigma, poured.level, poured.plateau_radius)
        )
        stats_seen.append(ks.statistic)
    ok = all(s < critical for s in stats_seen)
    report(
        3,
        "sampler exactness",
        ok,
        f"KS statistics {[f'{s:.5f}' for s in stats_seen]} vs 1% critical {critical:.5f}",
    )
    assert all(s < critical for s in stats_seen)


# ---------------------------------------------------------------------------
# criterion 4: linear-Gaussian Kalman oracle
# ---------------------------------------------------------------------------


def test_criterion_4_linear_gaussian_oracle():
    n = 10_000
    scans = 10
    seeds = 20
    poss_err = np.zeros((seeds, scans))
    std_err = np.zeros((seeds, scans))
    variances = None
    for s in range(seeds):
        _, z = simulate(np.random.default_rng(BASE_SEED + 100 + s), scans)
        means, variances = kalman_track(z)
        poss_err[s] = run_possibility_toy(z, n, (BASE_SEED, s, 1)) - means
        std_err[s] = run_standard_toy(z, n, (BASE_SEED, s, 2)) - means
    tol = 3.0 * np.sqrt(variances) / math.sqrt(n)
    poss_avg = np.abs(poss_err.mean(axis=0))
    std_avg = np.abs(std_err.mean(axis=0))
    poss_ok = bool(np.all(poss_avg <= tol))
    std_ok = bool(np.all(std_avg <= tol))
    report(
        4,
        "linear-Gaussian oracle",
        poss_ok and std_ok,
        f"possibility max avg|err|/tol = {(poss_avg / tol).max():.2f} ({'ok' if poss_ok else 'exceeds'}), "
        f"standard max avg|err|/tol = {(std_avg / tol).max():.2f} ({'ok' if std_ok else 'exceeds'}); "
        f"n={n}, {seeds} seeds",
    )
    assert std_ok, "standard-PF mean track deviates from the Kalman oracle"
    assert poss_ok, "possibility-PF MAP track deviates from the Kalman oracle"


# ---------------------------------------------------------------------------
# criteria 5-7: canonical-scenario Monte Carlo
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def canonical():
    return build_canonical_scenario()


def test_criterion_5_matched_model_parity(canonical):
    bound = float(scenario_crlb(canonical).position_bound[-1])
    poss = run_batch(canonical, FILTER_POSSIBILITY, 5000, 100, BASE_SEED, parallelism=4)
    std = run_batch(canonical, FILTER_STANDARD, 5000, 100, BASE_SEED, parallelism=4)
    rms_p, rms_s = float(poss.rms_m[-1]), float(std.rms_m[-1])
    parity = abs(rms_p - rms_s) / rms_s <= 0.20
    above = rms_p >= 0.95 * bound and rms_s >= 0.95 * bound
    below = rms_p <= 3.0 * bound and rms_s <= 3.0 * bound
    # Post-observability dominance (supplementary; the range becomes
    # observable at the first manoeuvre, scan 11).
    crlb = scenario_crlb(canonical).position_bound
    dominance = bool(np.all(poss.rms_m[10:] >= 0.95 * crlb[10:]))
    ok = parity and above and below
    report(
        5,
        "matched-model parity",
        ok,
        f"final RMS possibility {rms_p:.0f} m, standard {rms_s:.0f} m "
        f"(ratio {rms_p / rms_s:.2f}, tol 1.20), bound {bound:.0f} m "
        f"(poss {rms_p / bound:.2f}x, std {rms_s / bound:.2f}x, need 0.95-3.0); "
        f"divergent {poss.divergence_pct:.0f}%/{std.divergence_pct:.0f}%; "
        f"post-manoeuvre per-scan dominance {'holds' if dominance else 'violated'}",
    )
    assert parity, f"final RMS ratio {rms_p / rms_s:.3f} outside 20% parity"
    assert above, "an RMS fell below 0.95x the position bound"
    assert below, "an RMS exceeded 3x the position bound"


def test_criterion_6_mismatch_robustness_ordering(canonical):
    import dataclasses

    from posspf.bench import NoiseModel

    mismatched = dataclasses.replace(
        canonical,
        true_noise=NoiseModel(canonical.true_noise.sigma, nu=3.0),
    )
    runs = 200
    poss = run_batch(mismatched, FILTER_POSSIBILITY, 2000, runs, BASE_SEED, parallelism=4)
    std = run_batch(mismatched, FILTER_STANDARD, 2000, runs, BASE_SEED, parallelism=4)
    gap = std.divergence_pct - poss.divergence_pct

    wilson_separated = poss.wilson_hi_pct < std.wilson_lo_pct
    # Runs are paired (same seeds give both filters identical measurements),
    # so the one-sided test is an exact McNemar binomial on discordant runs.
    poss_div = np.array([r.divergent for r in poss.reports])
    std_div = np.array([r.divergent for r in std.reports])
    only_std = int(np.sum(std_div & ~poss_div))
    only_poss = int(np.sum(poss_div & ~std_div))
    discordant = only_std + only_poss
    p_one_sided = (
        float(stats.binom.sf(only_std - 1, discordant, 0.5)) if discordant else 1.0
    )
    significant = wilson_separated or p_one_sided < 0.05
    ok = gap >= 5.0 and significant
    report(
        6,
        "mismatch robustness ordering",
        ok,
        f"divergence possibility {poss.divergence_pct:.1f}% "
        f"[{poss.wilson_lo_pct:.1f}, {poss.wilson_hi_pct:.1f}] vs standard {std.divergence_pct:.1f}% "
        f"[{std.wilson_lo_pct:.1f}, {std.wilson_hi_pct:.1f}]; gap {gap:.1f} pp (need >= 5), "
        f"paired one-sided p = {p_one_sided:.4f} (std-only {only_std}, poss-only {only_poss})",
    )
    assert gap >= 5.0, f"divergence gap {gap:.1f} pp below 5 pp"
    assert significant, "ordering not significant at the 95% level"


def test_criterion_7_mild_mismatch_robustness(canonical):
    poss = run_batch(canonical, FILTER_POSSIBILITY, 2000, 200, BASE_SEED, parallelism=4)
    ok = poss.divergence_pct <= 2.0
    report(
        7,
        "mild-mismatch robustness",
        ok,
        f"possibility-PF divergence {poss.divergence_pct:.1f}% "
        f"[{poss.wilson_lo_pct:.1f}, {poss.wilson_hi_pct:.1f}] at N=2000, Gaussian noise (tol 2%)",
    )
    assert poss.divergence_pct <= 2.0


# ---------------------------------------------------------------------------
# criterion 8: invariant suite
# ---------------------------------------------------------------------------


def test_criterion_8_invariant_suite(canonical, tmp_path):
    from posspf.bench import nominal_target_track, synthesize_measurements
    from posspf.filters import PossibilityPFOptions
    from posspf.tma import process_noise_matrix, transition_matrix

    failures = []

    # (a, b, c) weight conventions and MAP membership on the canonical problem
    scenario = build_canonical_scenario(scan_count=10, observer_leg_scans=3)
    rng_world = np.random.default_rng((3, 0))
    z = synthesize_measurements(scenario, rng_world, nominal_target_track(scenario))
    sigma = scenario.filter_sigma
    prior = init_prior(z[0], scenario.observer[0, [1, 3]], sigma=sigma)
    F = transition_matrix(scenario.T)
    Q = process_noise_matrix(scenario.T, scenario.q)
    transition = LinearGaussianTransition(F, Q)
    log_lik = lambda states, meas: bearing_log_likelihood(states, meas, sigma)
    options = PossibilityPFOptions()

    ps = possibility_pf_init(prior, 400, np.random.default_rng((3, 1)), options)
    ps_std = standard_pf_init(prior, 400, np.random.default_rng((3, 2)))
    if ps.weights.max() != 1.0:
        failures.append("possibility init max weight != 1")
    for k in range(1, scenario.scan_count):
        transition.offset = F @ scenario.observer[k - 1] - scenario.observer[k]
        replay = np.random.default_rng((3, 10, k))
        predicted = transition.propose(ps.states, replay, options)
        ps, estimate = possibility_pf_step(
            ps, transition, log_lik, z[k], np.random.default_rng((3, 10, k)), k, options
        )
        if ps.weights.max() != 1.0:
            failures.append(f"possibility max weight != 1 at scan {k}")
        if not any(np.array_equal(estimate, row) for row in predicted):
            failures.append(f"MAP estimate not a predicted particle at scan {k}")
        ps_std, _ = standard_pf_step(
            ps_std, transition, log_lik, z[k], np.random.default_rng((3, 11, k)), k
        )
        if abs(ps_std.weights.sum() - 1.0) > 1e-12:
            failures.append(f"standard weights do not sum to 1 at scan {k}")

    # (d) seed determinism: byte-identical CSVs from two CLI invocations.
    # Some of these runs converge, so both exit 0 and rms.csv is written
    # (the CLI writes no rms.csv and exits 1 when every run diverges).
    args = [
        "run",
        "--set", "experiment.runs=3",
        "--set", "filter.particles=150",
        "--set", "scenario.scans=12",
        "--set", "scenario.observer_leg_scans=3",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    codes = [cli_main(args + ["--set", f"output.directory={out}"]) for out in (out_a, out_b)]
    if codes != [0, 0]:
        failures.append(f"CLI exit codes {codes}, expected 0")
    for name in ("rms.csv", "runs.csv"):
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            failures.append(f"{name} not byte-identical across reruns")

    # (e) bearing scale invariance
    rng = np.random.default_rng(17)
    for _ in range(200):
        x, y = rng.uniform(-1e5, 1e5, 2)
        if abs(x) < 1.0 and abs(y) < 1.0:
            continue
        k = rng.uniform(1e-3, 1e3)
        scaled, unscaled = bearings_of(np.array([[k * x, 0.0, k * y, 0.0], [x, 0.0, y, 0.0]]))
        if not math.isclose(scaled, unscaled, abs_tol=1e-12):
            failures.append("bearing scale invariance violated")
            break

    # (f) likelihood 2-pi wrap identity
    state = np.array([[4e3, 0.0, 6e3, 0.0]])
    z0 = bearings_of(state)[0] + 0.5 * DEG
    for turns in (-2, -1, 1, 2):
        if not math.isclose(
            math.exp(bearing_log_likelihood(state, z0 + 2 * math.pi * turns, sigma)[0]),
            math.exp(bearing_log_likelihood(state, z0, sigma)[0]),
            rel_tol=1e-9,
        ):
            failures.append("likelihood not 2-pi periodic")
            break

    ok = not failures
    report(8, "invariant suite", ok, "all invariants hold" if ok else "; ".join(failures))
    assert not failures, failures
