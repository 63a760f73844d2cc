"""Shared 1-D linear-Gaussian toy problem with a Kalman-filter oracle.

Scalar position x, random-walk transition with variance q, direct
observation with noise variance r^2.  Both particle filters are run from
the scan-1 posterior (the prior conjugately updated with the first
measurement), mirroring the bearings-only pipeline where the first
measurement shapes the initial distribution.  As in ``run_single``, each
filter is one ``init`` call, whose estimate is the scan-1 one, followed by
one ``step`` per later scan, through the same scan loop.
"""

from functools import partial

import numpy as np

from posspf.filters import (
    LinearGaussianTransition,
    PossibilityPFOptions,
    possibility_pf_init,
    possibility_pf_step,
    standard_pf_init,
    standard_pf_step,
)
from posspf.possq import GaussianPossibility

M0, P0 = 0.0, 1.0
Q = 1.0
R = 0.5


def simulate(rng, scans):
    """Truth and measurements from the matched linear-Gaussian model."""
    x = M0 + np.sqrt(P0) * rng.standard_normal()
    truth, meas = [], []
    for k in range(scans):
        if k > 0:
            x = x + np.sqrt(Q) * rng.standard_normal()
        truth.append(x)
        meas.append(x + R * rng.standard_normal())
    return np.array(truth), np.array(meas)


def scan1_posterior(z1):
    gain = P0 / (P0 + R**2)
    return M0 + gain * (z1 - M0), (1 - gain) * P0


def kalman_track(z):
    """Posterior mean and variance per scan, scan 1 included."""
    mean, var = scan1_posterior(z[0])
    means, variances = [mean], [var]
    for k in range(1, len(z)):
        var = var + Q
        gain = var / (var + R**2)
        mean = mean + gain * (z[k] - mean)
        var = (1 - gain) * var
        means.append(mean)
        variances.append(var)
    return np.array(means), np.array(variances)


def toy_log_likelihood(states, z):
    return -0.5 * ((z - states[:, 0]) / R) ** 2


def _run_toy(init, step, z, n, seed):
    """Estimate track of one filter's (init, step) pair on the toy problem."""
    rng = np.random.default_rng(seed)
    mean1, var1 = scan1_posterior(z[0])
    ps, estimate = init(GaussianPossibility([mean1], [[var1]]), n, rng)
    track = [estimate[0]]
    transition = LinearGaussianTransition([[1.0]], [[Q]])
    for k in range(1, len(z)):
        ps, estimate = step(ps, transition, toy_log_likelihood, z[k], rng, k)
        track.append(estimate[0])
    return np.array(track)


def run_possibility_toy(z, n, seed, options=PossibilityPFOptions()):
    """MAP track of the possibility filter on the toy problem."""
    init, step = partial(possibility_pf_init, options=options), partial(possibility_pf_step, options=options)
    return _run_toy(init, step, z, n, seed)


def run_standard_toy(z, n, seed):
    """MMSE track of the bootstrap filter on the toy problem."""
    return _run_toy(standard_pf_init, standard_pf_step, z, n, seed)
