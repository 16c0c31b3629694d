"""Bernstein trajectory calculus tests.

Covers exact examples (basis sums, endpoint rules, closed-form integrals
and running integrals), oracle comparisons (adaptive quadrature, dense least squares),
and the properties the transcription leans on: convex-hull containment,
partition of unity, affine reproduction, and the running integral that
differentiates back to its trajectory.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ctflex.bernstein import (
    CtTrajectory, basis_matrix, fit,
)
from ctflex.engine import _objective
from oracles import antiderivative

RNG = np.random.default_rng(20240817)


def make(coeffs, t1=0.0, period=1.0):
    return CtTrajectory(t1, period, np.atleast_2d(np.asarray(coeffs, float)))


# -- evaluate -----------------------------------------------------------------

def test_constant_reproduction():
    traj = make([3.5, 3.5, 3.5, 3.5])
    for t in np.linspace(0, 1, 17):
        assert traj.evaluate(t) == pytest.approx(3.5, abs=1e-14)


def test_endpoint_equals_last_coefficient():
    traj = make([0.0, 0.0, 0.0, 1.0])
    assert traj.evaluate(1.0) == pytest.approx(1.0, abs=1e-14)


def test_midpoint_basis_sum():
    # (0*1 + 1*3 + 2*3 + 3*1) / 8
    traj = make([0.0, 1.0, 2.0, 3.0])
    assert traj.evaluate(0.5) == pytest.approx(1.5, abs=1e-14)


def test_interior_boundary_uses_left_period():
    traj = CtTrajectory(0.0, 1.0, np.array([[0., 0., 0., 2.], [5., 5., 5., 5.]]))
    assert traj.evaluate(1.0) == pytest.approx(2.0)
    assert traj.evaluate(1.0 + 1e-12) == pytest.approx(5.0, abs=1e-9)


def test_evaluate_outside_horizon_raises():
    traj = make([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        traj.evaluate(1.5)
    with pytest.raises(ValueError):
        traj.evaluate(-0.5)


# -- integration ----------------------------------------------------------------
# a direction's objective integrates S0 by the coefficient-sum rule


def test_integral_constant_one():
    assert _objective(np.ones((1, 4)), 2.0, 4) == pytest.approx(2.0, abs=1e-14)


def test_integral_cubic_tail():
    # 4 * integral of s^3 over [0, 1] = 1
    tail = np.array([[0.0, 0.0, 0.0, 4.0]])
    assert _objective(tail, 1.0, 4) == pytest.approx(1.0, abs=1e-14)
    assert _objective(np.zeros((1, 4)), 1.0, 4) == 0.0


def test_integration_matches_quadrature():
    for _ in range(50):
        coeffs = RNG.normal(size=(3, 4))
        period = float(RNG.uniform(0.5, 3.0))
        traj = CtTrajectory(0.0, period, coeffs)
        for m in range(3):
            ref, _ = quad(traj.evaluate, m * period, (m + 1) * period,
                          epsabs=1e-12, epsrel=1e-12)
            assert _objective(coeffs[m:m + 1], period, 4) == pytest.approx(
                ref, rel=1e-9, abs=1e-12)


# -- antiderivative oracle -----------------------------------------------------

def test_antiderivative_of_one_is_time():
    anti = antiderivative(make([1.0, 1.0, 1.0, 1.0]), 0.0)
    assert np.allclose(anti.coeffs, [[0.0, 0.25, 0.5, 0.75, 1.0]])
    for t in np.linspace(0, 1, 9):
        assert anti.evaluate(t) == pytest.approx(t, abs=1e-12)


def test_antiderivative_of_zero_is_initial():
    anti = antiderivative(make([0.0, 0.0, 0.0, 0.0]), 7.0)
    assert np.allclose(anti.coeffs, 7.0)


def test_antiderivative_two_periods_additive():
    traj = CtTrajectory(0.0, 1.0, np.ones((2, 4)))
    anti = antiderivative(traj, 0.0)
    assert anti.evaluate(2.0) == pytest.approx(2.0, abs=1e-12)


def test_derivative_antiderivative_roundtrip():
    coeffs = RNG.normal(size=(3, 4))
    traj = CtTrajectory(0.0, 0.7, coeffs)
    # the derivative of a degree-n trajectory has coefficients n diff(c) / T
    anti = antiderivative(traj, 1.3)
    back = anti.degree * np.diff(anti.coeffs, axis=1) / anti.period
    assert np.allclose(back, traj.coeffs, atol=1e-12)


def test_antiderivative_matches_quadrature():
    coeffs = RNG.normal(size=(2, 4))
    traj = CtTrajectory(0.0, 1.0, coeffs)
    anti = antiderivative(traj, 0.5)
    for t in np.linspace(0.05, 1.95, 20):
        ref, _ = quad(traj.evaluate, 0.0, t, epsabs=1e-12, epsrel=1e-12,
                      limit=200, points=[1.0] if t > 1.0 else None)
        assert anti.evaluate(t) == pytest.approx(0.5 + ref, abs=1e-9)


# -- fit ----------------------------------------------------------------------

def test_fit_constant_exact():
    t = np.linspace(0, 2, 40)
    traj, resid = fit(t, np.full_like(t, 5.0), 1.0, 0.0, 2)
    assert np.allclose(traj.coeffs, 5.0, atol=1e-10)
    assert resid < 1e-10


def test_fit_affine_exact():
    t = np.linspace(0, 3, 60)
    v = 2.0 * t - 1.0
    traj, resid = fit(t, v, 1.0, 0.0, 3)
    assert resid < 1e-9
    for x in np.linspace(0, 3, 31):
        assert traj.evaluate(x) == pytest.approx(2 * x - 1, abs=1e-9)


def test_fit_sine_beats_dense_oracle():
    # residual no worse than an unconstrained dense per-period cubic fit
    t = np.linspace(0, 1, 16, endpoint=False)
    v = np.sin(2 * math.pi * t)
    traj, resid = fit(t, v, 1.0, 0.0, 1)
    a = basis_matrix(3, t)
    dense, res_dense, *_ = np.linalg.lstsq(a, v, rcond=None)
    oracle = math.sqrt(float(res_dense[0])) if len(res_dense) else 0.0
    assert resid == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_fit_c0_continuity():
    t = np.linspace(0, 2, 64)
    v = np.sin(1.7 * t) + 0.1 * RNG.normal(size=t.shape)
    traj, _ = fit(t, v, 1.0, 0.0, 2)
    assert traj.coeffs[0, -1] == pytest.approx(traj.coeffs[1, 0], abs=1e-12)


def test_fit_underdetermined_period_raises():
    t = np.array([0.1, 0.2, 0.3, 0.4, 1.5])  # second period has 1 sample
    with pytest.raises(ValueError, match="period 1"):
        fit(t, np.ones_like(t), 1.0, 0.0, 2)


def test_fit_degree_zero_is_period_mean():
    t = np.linspace(0, 1, 8, endpoint=False)
    v = np.arange(8.0)
    traj, _ = fit(t, v, 1.0, 0.0, 1, degree=0)
    assert traj.coeffs[0, 0] == pytest.approx(v.mean())


# -- properties ---------------------------------------------------------------

def test_partition_of_unity():
    for degree in (0, 1, 3, 4):
        s = RNG.random(200)
        sums = basis_matrix(degree, s).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_convex_hull_containment():
    for _ in range(100):
        coeffs = RNG.normal(size=(1, 4)) * RNG.uniform(0.1, 10)
        traj = CtTrajectory(0.0, 1.0, coeffs)
        lo, hi = coeffs.min(), coeffs.max()
        t = RNG.random(1000)
        vals = traj.evaluate(t)
        assert np.all(vals >= lo - 1e-12)
        assert np.all(vals <= hi + 1e-12)


def test_affine_reproduction():
    a, b, period = 2.7, -1.1, 3.0
    nodes = np.array([b, b + a * period / 3, b + 2 * a * period / 3,
                      b + a * period])
    traj = CtTrajectory(0.0, period, nodes[None, :])
    for t in np.linspace(0, period, 101):
        assert abs(traj.evaluate(t) - (a * t + b)) <= 1e-12 * max(
            1.0, abs(a * t + b))


def test_equality_lowering_is_pointwise_equality():
    c1 = RNG.normal(size=(1, 4))
    t = RNG.random(500)
    a = CtTrajectory(0.0, 1.0, c1)
    b = CtTrajectory(0.0, 1.0, c1.copy())
    assert np.allclose(a.evaluate(t), b.evaluate(t), atol=0.0)
