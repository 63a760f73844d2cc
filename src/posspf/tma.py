"""Bearings-only target-motion-analysis problem definition.

Relative-state constant-velocity dynamics, the bearing measurement and its
likelihood, measurement-based prior construction, and the recursive
Cramer-Rao position bound used as the benchmark reference curve.

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
    wrapped = -((-a + np.pi) % (2.0 * np.pi) - np.pi)
    return float(wrapped) if np.isscalar(angle) or wrapped.ndim == 0 else wrapped


def transition_matrix(T: float) -> np.ndarray:
    """Constant-velocity transition matrix, block diagonal per axis."""
    if T <= 0:
        raise ValueError("sampling interval must be positive")
    F = np.eye(4)
    F[0, 1] = T
    F[2, 3] = T
    return F


def process_noise_matrix(T: float, q: float) -> np.ndarray:
    """White-acceleration process noise matrix, intensity q in m^2/s^3."""
    if T <= 0:
        raise ValueError("sampling interval must be positive")
    if q <= 0:
        raise ValueError("process noise intensity must be positive for filtering")
    T = np.float64(T)  # its ** gives inf where a Python float's raises OverflowError
    block = q * np.array([[T**3 / 3.0, T**2 / 2.0], [T**2 / 2.0, T]])
    Q = np.zeros((4, 4))
    Q[:2, :2] = block
    Q[2:, 2:] = block
    return Q


def bearings_of(states: np.ndarray) -> np.ndarray:
    """Bearings of an (n, 4) array of relative states, radians clockwise from north."""
    x, y = states[:, 0], states[:, 2]
    # x.all() is the cheaper test and almost always passes on its own.
    if not x.all() and np.any((x == 0.0) & (y == 0.0)):
        raise ValueError("bearing undefined at zero range")
    beta = np.arctan2(x, y)
    # atan2(-0.0, y < 0) is -pi; report the seam as +pi, as wrap_angle does.
    beta[beta == -np.pi] = np.pi
    return beta


def bearing_log_likelihood(states: np.ndarray, z: float, sigma: float) -> np.ndarray:
    """Log of the Gaussian-shaped bearing likelihood, residual wrapped to (-pi, pi]."""
    res = bearings_of(np.atleast_2d(states))
    np.subtract(z, res, out=res)
    if -np.pi <= z <= np.pi:
        # Here res lies in [-2pi, 2pi), so t = pi - res lies in (-pi, 3pi].
        # On that range fmod(t, 2pi) is exact and % adds 2pi only to a
        # negative t, so one shift gives wrap_angle's (pi - res) % 2pi bit
        # for bit, and pi minus it is wrap_angle(res) up to the sign of zero.
        t = np.subtract(np.pi, res, out=res)
        below, above = t < 0.0, t >= 2.0 * np.pi
        np.add(t, 2.0 * np.pi, out=t, where=below)
        np.subtract(t, 2.0 * np.pi, out=t, where=above)
        res = np.subtract(np.pi, t, out=t)
    else:
        res = wrap_angle(res)
    res /= sigma
    res *= res
    res *= -0.5
    return res


@dataclass(frozen=True)
class PriorConfig:
    """Parameters of the measurement-based initial prior, in SI units.

    ``covariance_form="consistent"`` orients the range variance along the
    line of sight; ``"swapped"`` swaps the two position variances while
    keeping the same cross term.
    """

    range_mean: float = 10e3
    range_sigma: float = 3.5e3
    vel_sigma: tuple[float, float] = (2.6, 2.6)
    covariance_form: str = "consistent"

    def __post_init__(self):
        vel_sigma = np.asarray(self.vel_sigma, dtype=float)
        if vel_sigma.shape != (2,):
            raise ValueError(f"vel_sigma must hold exactly two values (x, y), got shape {vel_sigma.shape}")
        object.__setattr__(self, "vel_sigma", tuple(vel_sigma.tolist()))
        if not all(0 < v < np.inf for v in (self.range_mean, self.range_sigma, *self.vel_sigma)):
            raise ValueError("prior scale parameters must be positive and finite")
        if self.covariance_form not in ("consistent", "swapped"):
            raise ValueError(f"unknown covariance form {self.covariance_form!r}")


def init_prior(
    z1: float,
    observer_vel: tuple[float, float],
    sigma: float,
    prior: PriorConfig = PriorConfig(),
) -> GaussianPossibility:
    """Prior over the relative state built from the first bearing measurement.

    Mean: target placed at range ``prior.range_mean`` along the measured
    bearing, relative velocity equal to minus the observer velocity.  The
    position covariance combines the range variance along the line of sight
    with the cross-range variance (range_mean * sigma)^2, ``sigma`` being the
    bearing noise scale; see :class:`PriorConfig` for the swapped form.
    """
    if not 0 < sigma < np.inf:
        raise ValueError("bearing sigma must be positive and finite")

    s, c = np.sin(z1), np.cos(z1)
    mean = np.array([prior.range_mean * s, -observer_vel[0], prior.range_mean * c, -observer_vel[1]])

    # numpy's ** gives inf (which the bound reports) where a Python float's
    # raises OverflowError; both call the same pow, so the bits agree.
    range_var = np.float64(prior.range_sigma) ** 2
    cross_var = (prior.range_mean * sigma) ** 2
    if prior.covariance_form == "consistent":
        var_x = range_var * s * s + cross_var * c * c
        var_y = range_var * c * c + cross_var * s * s
    else:
        var_x = range_var * c * c + cross_var * s * s
        var_y = range_var * s * s + cross_var * c * c
    cov_xy = (range_var - cross_var) * s * c

    vx, vy = map(np.float64, prior.vel_sigma)
    P = np.diag([var_x, vx**2, var_y, vy**2])
    P[0, 2] = P[2, 0] = cov_xy
    return GaussianPossibility(mean, P)


def bearing_jacobian(rel_state: np.ndarray) -> np.ndarray:
    """Gradient of the bearing w.r.t. the relative state at a given point."""
    x, y = rel_state[0], rel_state[2]
    r_sq = x * x + y * y
    if r_sq == 0.0:
        raise ValueError("bearing gradient undefined at zero range")
    return np.array([y / r_sq, 0.0, -x / r_sq, 0.0])


@dataclass
class CrlbResult:
    """Per-scan bound matrices and the RMS position bound curve."""

    bounds: np.ndarray          # (scans, 4, 4)
    position_bound: np.ndarray  # (scans,) metres


def crlb_curve(
    true_relative: np.ndarray,
    T: float,
    q: float,
    sigma: float,
    prior: GaussianPossibility,
) -> CrlbResult:
    """Recursive Cramer-Rao bound along a known relative trajectory.

    Covariance form of the information recursion
    J_k = [F J_{k-1}^-1 F' + Q]^-1 + H_k' H_k / sigma^2 (Tichavsky, Muravchik
    & Nehorai 1998): predict P = F P F' + Q, then a scalar-gain Joseph-form
    update with H_k the bearing gradient at the true relative state.  P_1 is
    the prior spread.  Nothing is inverted, so large finite q stays finite.
    """
    F = transition_matrix(T)
    Q = process_noise_matrix(T, q) if q > 0 else np.zeros((4, 4))
    bounds = np.empty((true_relative.shape[0], 4, 4))
    bounds[0] = P = prior.spread
    for k in range(1, len(bounds)):
        P = F @ P @ F.T + Q
        H = bearing_jacobian(true_relative[k])
        PH = P @ H
        gain = PH / (H @ PH + sigma**2)
        A = np.eye(4) - np.outer(gain, H)
        bounds[k] = P = A @ P @ A.T + sigma**2 * np.outer(gain, gain)
    position_bound = np.sqrt(bounds[:, 0, 0] + bounds[:, 2, 2])
    return CrlbResult(bounds=bounds, position_bound=position_bound)
