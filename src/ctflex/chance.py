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
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "UncertainRow", "SingularSystemError",
    "norm_quantile", "gaussian_margin", "propagate", "monte_carlo_check",
]


class SingularSystemError(ValueError):
    """The dependent-variable equality system is not invertible."""


# standard normal inverse CDF (Wichura's AS241, accurate to ~1e-16)
norm_quantile = NormalDist().inv_cdf


@dataclass(frozen=True)
class UncertainRow:
    """One inequality ``lhs + g @ u <= rhs`` with its u-dependence explicit:
    g is the effective uncertainty row after dependent-variable
    elimination."""

    g: np.ndarray
    rhs: float
    name: str = ""


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


def monte_carlo_check(nominal_lhs, rows: list[UncertainRow], sigma2,
                      n_samples: int = 100_000, seed: int = 0,
                      tol: float = 1e-9) -> np.ndarray:
    """Empirical violation rate of each original row under sampled offsets.

    ``nominal_lhs[i]`` is the value of row i's deterministic part at the
    candidate solution; under a sampled u the row's value moves by
    g_i @ u, and a violation is a value beyond rhs + tol.
    """
    nominal_lhs = np.asarray(nominal_lhs, dtype=float)
    sigma = np.sqrt(np.asarray(sigma2, dtype=float))
    g = np.stack([r.g for r in rows])
    rhs = np.array([r.rhs for r in rows])
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 1.0, size=(n_samples, len(sigma))) * sigma
    shift = u @ g.T
    violated = nominal_lhs[None, :] + shift > rhs[None, :] + tol
    return violated.mean(axis=0)
