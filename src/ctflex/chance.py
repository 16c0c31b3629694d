"""Gaussian chance-constraint machinery.

Uncertain inputs enter the constraint system as additive zero-mean Gaussian
offsets u.  The dependent variables y follow them through the equality
system B y + F u = 0, so eliminating y makes every inequality's
u-dependence explicit; a row required to hold with probability 1-alpha is
then tightened by the alpha-quantile of its induced Gaussian slack.
Row-wise (individual) chance constraints only — no joint guarantees are
attempted.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

__all__ = [
    "SingularSystemError", "norm_quantile", "gaussian_margin", "propagate",
]


class SingularSystemError(ValueError):
    """The dependent-variable equality system is not invertible."""


# standard normal inverse CDF (Wichura's AS241, accurate to ~1e-16)
norm_quantile = NormalDist().inv_cdf


def gaussian_margin(alpha: float, g: np.ndarray, sigma2: np.ndarray) -> float:
    """z_{1-alpha} * std of g @ u for independent N(0, sigma2) sources."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha {alpha} outside (0, 0.5]")
    var = float(np.dot(np.asarray(g) ** 2, np.asarray(sigma2)))
    return norm_quantile(1.0 - alpha) * math.sqrt(max(var, 0.0))


def propagate(b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Response of the dependent variables to the offsets.

    Eliminating y from ``b y + f u = 0`` (b square and invertible) gives
    y = -inv(b) f u; returns -inv(b) f, one row per dependent variable.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise SingularSystemError(f"dependent system is not square: {b.shape}")
    try:
        return np.linalg.solve(b, -np.asarray(f, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"dependent system is singular: {exc}") from exc

