"""Bearings-only target-motion-analysis measurement model and prior.

The bearing measurement with its likelihood and gradient, and the prior
built from the first bearing.  The motion model, the transition ``F`` and
the process noise, is derived by ``bench.Scenario``.

State vectors are ordered (x, vx, y, vy) with x east and y north, in SI
units (metres, seconds, radians).  Bearings are measured clockwise from
north: h(state) = atan2(x, y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .possq import GaussianPossibility


def wrap_angle(angle):
    """Wrap angles into (-pi, pi]."""
    a = np.asarray(angle, dtype=float)
    return -((-a + np.pi) % (2.0 * np.pi) - np.pi)


def bearings_of(states: np.ndarray) -> np.ndarray:
    """Bearings of an (n, 4) array of relative states, radians clockwise from north."""
    x, y = states[:, 0], states[:, 2]
    # Counting nonzero x is the cheaper test and almost always passes on its own.
    if np.count_nonzero(x) < x.shape[0] and np.any((x == 0.0) & (y == 0.0)):
        raise ValueError("bearing undefined at zero range")
    beta = np.arctan2(x, y)
    # atan2(-0.0, y < 0) is -pi; report the seam as +pi, as wrap_angle does.
    beta[beta == -np.pi] = np.pi
    return beta


def bearing_log_likelihood(states: np.ndarray, z: float, sigma: float) -> np.ndarray:
    """Log of the Gaussian-shaped bearing likelihood, residual wrapped to [-pi, pi].

    The shape is even, so the sign of a residual at +-pi does not matter.
    """
    res = bearings_of(np.atleast_2d(states))
    np.subtract(z, res, out=res)
    # Less the nearest whole number of turns: exact wherever |z - beta| <= pi.
    res -= (2.0 * np.pi) * np.rint(res / (2.0 * np.pi))
    res /= sigma
    res *= res
    res *= -0.5
    return res


@dataclass(frozen=True)
class PriorConfig:
    """Parameters of the measurement-based initial prior, in SI units."""

    range_mean: float = 10e3
    range_sigma: float = 3.5e3
    vel_sigma: float = 2.6  # per axis

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.range_mean, self.range_sigma, self.vel_sigma)):
            raise ValueError("prior scale parameters must be positive and finite")


def prior_spread(z1: float, sigma: float, prior: PriorConfig = PriorConfig()) -> np.ndarray:
    """Spread of the :func:`init_prior` prior: its position block combines the
    range variance along the line of sight with the cross-range variance
    (range_mean * sigma)^2, ``sigma`` being the bearing noise scale.
    """
    if not 0 < sigma < np.inf:
        raise ValueError("bearing sigma must be positive and finite")

    s, c = np.sin(z1), np.cos(z1)
    # numpy's ** gives inf (which GaussianPossibility and the bound refuse) where a
    # Python float's raises OverflowError; both call the same pow, so the bits agree.
    with np.errstate(over="ignore", invalid="ignore"):
        range_var = np.float64(prior.range_sigma) ** 2
        cross_var = (prior.range_mean * np.float64(sigma)) ** 2
        var_x = range_var * s * s + cross_var * c * c
        var_y = range_var * c * c + cross_var * s * s
        cov_xy = (range_var - cross_var) * s * c
        vel_var = np.float64(prior.vel_sigma) ** 2
    P = np.diag([var_x, vel_var, var_y, vel_var])
    P[0, 2] = P[2, 0] = cov_xy
    return P


def init_prior(
    z1: float,
    observer_vel: tuple[float, float],
    sigma: float,
    prior: PriorConfig = PriorConfig(),
) -> GaussianPossibility:
    """Prior over the relative state built from the first bearing measurement.

    Mean: target placed at range ``prior.range_mean`` along the measured
    bearing, relative velocity equal to minus the observer velocity.  Spread:
    :func:`prior_spread`.
    """
    mean = [prior.range_mean * np.sin(z1), -observer_vel[0], prior.range_mean * np.cos(z1), -observer_vel[1]]
    return GaussianPossibility(mean, prior_spread(z1, sigma, prior))


def bearing_jacobian(rel_state: np.ndarray) -> np.ndarray:
    """Gradient of the bearing w.r.t. the relative state at a given point."""
    x, y = rel_state[0], rel_state[2]
    r_sq = x * x + y * y
    if r_sq == 0.0:
        raise ValueError("bearing gradient undefined at zero range")
    return np.array([y / r_sq, 0.0, -x / r_sq, 0.0])
