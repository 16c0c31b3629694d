"""Bernstein-polynomial trajectory calculus on a uniform period grid.

A continuous-time signal over [t1, t1 + M*T] is stored as one coefficient
vector per period in the Bernstein basis of fixed degree n (cubic by
default).  The basis has three properties this package leans on:

* convex hull: the curve lies between the min and max coefficient, so a
  bound on every coefficient is a sufficient condition for the bound to
  hold for all t in the period;
* exact integration: the integral over one period is T/(n+1) times the
  coefficient sum;
* closed-form derivative/antiderivative with degree shift by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CtTrajectory",
    "basis_matrix",
    "fit",
]


def _binom(n: int, k: int) -> float:
    return float(math.comb(n, k))


def basis_matrix(degree: int, s) -> np.ndarray:
    """Bernstein basis values C(n,i) s^i (1-s)^(n-i) at local coordinates s.

    Returns an array of shape (len(s), degree+1); rows sum to one.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    i = np.arange(degree + 1)
    comb = np.array([_binom(degree, k) for k in i])
    return comb * s[:, None] ** i * (1.0 - s[:, None]) ** (degree - i)


@dataclass(frozen=True, eq=False)
class CtTrajectory:
    """Piecewise-polynomial signal in per-period Bernstein coefficients.

    ``coeffs`` has shape (n_periods, degree+1).  Period indices are
    0-based.  At interior period boundaries the left period wins, so the
    value at t1 + (m+1)*T is the last coefficient of period m.
    """

    t1: float
    period: float
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2 or c.shape[1] < 1:
            raise ValueError("coeffs must be a 2-D (n_periods, degree+1) array")
        if self.period <= 0:
            raise ValueError("period length must be positive")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def n_periods(self) -> int:
        return self.coeffs.shape[0]

    @property
    def t2(self) -> float:
        return self.t1 + self.n_periods * self.period

    def _locate(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map times to (period index, local coordinate s in [0, 1])."""
        rel = (t - self.t1) / self.period
        eps = 1e-12 * max(1.0, self.n_periods)
        if np.any(rel < -eps) or np.any(rel > self.n_periods + eps):
            raise ValueError(
                f"time outside horizon [{self.t1}, {self.t2}]"
            )
        rel = np.clip(rel, 0.0, self.n_periods)
        idx = np.floor(rel).astype(int)
        s = rel - idx
        # exact boundary points belong to the left period
        on_boundary = (s == 0.0) & (idx > 0)
        idx = np.where(on_boundary, idx - 1, idx)
        s = np.where(on_boundary, 1.0, s)
        idx = np.minimum(idx, self.n_periods - 1)
        return idx, s

    def evaluate(self, t):
        """Evaluate the trajectory at scalar or array times within the horizon."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx, s = self._locate(t_arr)
        basis = basis_matrix(self.degree, s)
        vals = np.einsum("ij,ij->i", self.coeffs[idx], basis)
        return float(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals

    def integrate_period(self, m: int) -> float:
        """Exact integral over period m: T/(n+1) times the coefficient sum."""
        if not 0 <= m < self.n_periods:
            raise IndexError(f"period index {m} outside 0..{self.n_periods - 1}")
        return self.period * float(np.sum(self.coeffs[m])) / (self.degree + 1)

    def integral(self) -> float:
        """Integral over the full horizon."""
        return self.period * float(np.sum(self.coeffs)) / (self.degree + 1)

    def derivative(self) -> "CtTrajectory":
        """Degree n-1 trajectory of the time derivative (per period)."""
        n = self.degree
        if n < 1:
            raise ValueError("cannot differentiate a degree-0 trajectory")
        d = n * np.diff(self.coeffs, axis=1) / self.period
        return CtTrajectory(self.t1, self.period, d)

    def antiderivative(self, initial: float = 0.0) -> "CtTrajectory":
        """Degree n+1 running integral, continuous across period boundaries."""
        n = self.degree
        out = np.zeros((self.n_periods, n + 2))
        running = float(initial)
        step = self.period / (n + 1)
        for m in range(self.n_periods):
            out[m, 0] = running
            out[m, 1:] = running + step * np.cumsum(self.coeffs[m])
            running = out[m, -1]
        return CtTrajectory(self.t1, self.period, out)


def fit(times, values, period: float, t1: float, n_periods: int,
        degree: int = 3) -> tuple[CtTrajectory, float]:
    """Least-squares Bernstein fit of sampled data, one piece per period.

    For degree >= 1, C0 continuity at interior boundaries is enforced by
    sharing the boundary coefficient between adjacent periods; degree 0
    fits are independent period means.  Returns the trajectory and the
    residual 2-norm.

    Raises ValueError if any period holds fewer than degree+1 samples.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-D arrays of equal length")
    horizon = n_periods * period
    if np.any(t < t1 - 1e-9) or np.any(t > t1 + horizon + 1e-9):
        raise ValueError("samples outside the horizon")
    rel = np.clip((t - t1) / period, 0.0, n_periods)
    idx = np.minimum(np.floor(rel).astype(int), n_periods - 1)
    s = rel - idx

    counts = np.bincount(idx, minlength=n_periods)
    if np.any(counts < degree + 1):
        short = int(np.argmin(counts))
        raise ValueError(
            f"period {short} has {counts[short]} samples; "
            f"need at least {degree + 1} for a degree-{degree} fit"
        )

    basis = basis_matrix(degree, s)
    if degree >= 1:
        # column map: coefficient i of period p -> p*degree + i, which makes
        # the last coefficient of p and the first of p+1 the same unknown
        n_cols = n_periods * degree + 1
        a = np.zeros((len(t), n_cols))
        for i in range(degree + 1):
            np.add.at(a, (np.arange(len(t)), idx * degree + i), basis[:, i])
        sol, _, rank, _ = np.linalg.lstsq(a, v, rcond=None)
        if rank < n_cols:
            raise ValueError("fit is underdetermined (rank-deficient sample set)")
        coeffs = np.empty((n_periods, degree + 1))
        for p in range(n_periods):
            coeffs[p] = sol[p * degree: p * degree + degree + 1]
        residual = float(np.linalg.norm(a @ sol - v))
    else:
        coeffs = np.empty((n_periods, degree + 1))
        residual_sq = 0.0
        for p in range(n_periods):
            mask = idx == p
            a_p = basis[mask]
            sol, _, rank, _ = np.linalg.lstsq(a_p, v[mask], rcond=None)
            if rank < degree + 1:
                raise ValueError(f"period {p} fit is underdetermined")
            coeffs[p] = sol
            residual_sq += float(np.sum((a_p @ sol - v[mask]) ** 2))
        residual = math.sqrt(residual_sq)
    return CtTrajectory(t1, period, coeffs), residual

