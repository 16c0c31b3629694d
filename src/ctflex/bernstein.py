"""Bernstein-polynomial trajectory calculus on a uniform period grid.

A continuous-time signal over [t1, t1 + M*T] is stored as one coefficient
vector per period in the Bernstein basis of fixed degree n (cubic by
default).  The transcription leans on three properties of the basis:

* convex hull: the curve lies between the min and max coefficient, so a
  bound on every coefficient is a sufficient condition for the bound to
  hold for all t in the period;
* exact integration: the integral over one period is T/(n+1) times the
  coefficient sum, which is the objective of every direction;
* closed-form running integral: the degree n+1 antiderivative has
  coefficients a_0 = initial and a_{j+1} = a_j + T/(n+1) c_j, which is how
  the storage rows carry the state of energy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "basis_matrix",
    "fit",
    "locate",
    "place_samples",
]

# how far outside [t1, t2] a sample time may lie and still count, at the
# nearer end of the horizon
SAMPLE_TOL = 1e-9


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


def locate(t: np.ndarray, t1: float, period: float,
           n_periods: int) -> tuple[np.ndarray, np.ndarray]:
    """Map times to (period index, local coordinate s in [0, 1]) on the
    grid of ``n_periods`` periods of length ``period`` from ``t1``.  An
    exact interior boundary point belongs to the left period.  A time up
    to 1e-12 * n_periods periods outside the grid counts at the nearer end;
    one further outside, or NaN, is a ValueError."""
    rel = (t - t1) / period
    eps = 1e-12 * max(1.0, n_periods)
    if not np.all((rel >= -eps) & (rel <= n_periods + eps)):
        raise ValueError(
            f"time outside horizon [{t1}, {t1 + n_periods * period}]"
        )
    rel = np.clip(rel, 0.0, n_periods)
    idx = np.floor(rel).astype(int)
    s = rel - idx
    on_boundary = (s == 0.0) & (idx > 0)
    idx = np.where(on_boundary, idx - 1, idx)
    s = np.where(on_boundary, 1.0, s)
    idx = np.minimum(idx, n_periods - 1)
    return idx, s


def place_samples(t, t1: float, period: float,
                  n_periods: int) -> tuple[np.ndarray, np.ndarray]:
    """(period index, local coordinate s) of each sample time as ``fit``
    places it on the grid of ``n_periods`` periods from ``t1``: a sample
    on an interior boundary opens the right period, t2 closes the last
    one, and a sample up to SAMPLE_TOL outside [t1, t2] counts at the
    nearer end.  A sample further outside gets period index -1."""
    t = np.asarray(t, dtype=float)
    inside = (t >= t1 - SAMPLE_TOL) \
        & (t <= t1 + n_periods * period + SAMPLE_TOL)
    rel = np.clip((np.where(inside, t, t1) - t1) / period, 0.0, n_periods)
    idx = np.minimum(np.floor(rel).astype(int), n_periods - 1)
    return np.where(inside, idx, -1), rel - idx


def fit(times, values, period: float, t1: float, n_periods: int,
        degree: int = 3) -> np.ndarray:
    """Least-squares Bernstein fit of sampled data, one piece per period.

    For degree >= 1, C0 continuity at interior boundaries is enforced by
    sharing the boundary coefficient between adjacent periods; degree 0
    fits are independent period means.  Returns the read-only
    (n_periods, degree+1) coefficient array.

    Raises ValueError if any period holds fewer than degree+1 samples.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-D arrays of equal length")
    idx, s = place_samples(t, t1, period, n_periods)
    if np.any(idx < 0):
        raise ValueError("samples outside the horizon")

    counts = np.bincount(idx, minlength=n_periods)
    if np.any(counts < degree + 1):
        short = int(np.argmin(counts))
        raise ValueError(
            f"period {short} has {counts[short]} samples; "
            f"need at least {degree + 1} for a degree-{degree} fit"
        )

    basis = basis_matrix(degree, s)
    coeffs = np.empty((n_periods, degree + 1))
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
        for p in range(n_periods):
            coeffs[p] = sol[p * degree: p * degree + degree + 1]
    else:
        for p in range(n_periods):
            mask = idx == p
            sol, _, rank, _ = np.linalg.lstsq(basis[mask], v[mask], rcond=None)
            if rank < degree + 1:
                raise ValueError(f"period {p} fit is underdetermined")
            coeffs[p] = sol
    coeffs.setflags(write=False)
    return coeffs

