"""Bernstein trajectory calculus tests.

Covers exact examples (basis sums, endpoint rules, closed-form integrals
and running integrals), oracle comparisons (adaptive quadrature, dense least squares),
and the properties the transcription leans on: convex-hull containment,
partition of unity, affine reproduction, and the running integral that
differentiates back to its trajectory.  The point-evaluation rules are
checked on ``FlexTube.radii`` with one slice, the evaluator that commands
run; the rest use the test oracle ``evaluate``.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ctflex.bernstein import basis_matrix, fit
from ctflex.engine import FlexTube, Slice, _objective
from oracles import antiderivative, evaluate

RNG = np.random.default_rng(20240817)


def radius(coeffs, t, t1=0.0, period=1.0):
    """The radius at t of a tube whose one slice has ``coeffs``."""
    coeffs = np.atleast_2d(np.asarray(coeffs, float))
    tube = FlexTube((Slice(0.0, "optimal", coeffs, 0.0),), t1, period,
                    len(coeffs))
    return float(tube.radii(t)[0])


# -- evaluate -----------------------------------------------------------------

def test_constant_reproduction():
    for t in np.linspace(0, 1, 17):
        assert radius([3.5, 3.5, 3.5, 3.5], t) == pytest.approx(3.5, abs=1e-14)


def test_endpoint_equals_last_coefficient():
    assert radius([0.0, 0.0, 0.0, 1.0], 1.0) == pytest.approx(1.0, abs=1e-14)


def test_midpoint_basis_sum():
    # (0*1 + 1*3 + 2*3 + 3*1) / 8
    assert radius([0.0, 1.0, 2.0, 3.0], 0.5) == pytest.approx(1.5, abs=1e-14)


def test_interior_boundary_uses_left_period():
    coeffs = [[0., 0., 0., 2.], [5., 5., 5., 5.]]
    assert radius(coeffs, 1.0) == pytest.approx(2.0)
    assert radius(coeffs, 1.0 + 1e-12) == pytest.approx(5.0, abs=1e-9)


def test_evaluate_outside_horizon_raises():
    with pytest.raises(ValueError):
        radius([1.0, 1.0, 1.0, 1.0], 1.5)
    with pytest.raises(ValueError):
        radius([1.0, 1.0, 1.0, 1.0], -0.5)


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
        for m in range(3):
            ref, _ = quad(lambda t: evaluate(coeffs, 0.0, period, t),
                          m * period, (m + 1) * period,
                          epsabs=1e-12, epsrel=1e-12)
            assert _objective(coeffs[m:m + 1], period, 4) == pytest.approx(
                ref, rel=1e-9, abs=1e-12)


# -- antiderivative oracle -----------------------------------------------------

def test_antiderivative_of_one_is_time():
    anti = antiderivative([[1.0, 1.0, 1.0, 1.0]], 1.0, 0.0)
    assert np.allclose(anti, [[0.0, 0.25, 0.5, 0.75, 1.0]])
    for t in np.linspace(0, 1, 9):
        assert evaluate(anti, 0.0, 1.0, t) == pytest.approx(t, abs=1e-12)


def test_antiderivative_of_zero_is_initial():
    anti = antiderivative([[0.0, 0.0, 0.0, 0.0]], 1.0, 7.0)
    assert np.allclose(anti, 7.0)


def test_antiderivative_two_periods_additive():
    anti = antiderivative(np.ones((2, 4)), 1.0, 0.0)
    assert evaluate(anti, 0.0, 1.0, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_derivative_antiderivative_roundtrip():
    coeffs = RNG.normal(size=(3, 4))
    period = 0.7
    # the derivative of a degree-n trajectory has coefficients n diff(c) / T
    anti = antiderivative(coeffs, period, 1.3)
    degree = anti.shape[1] - 1
    back = degree * np.diff(anti, axis=1) / period
    assert np.allclose(back, coeffs, atol=1e-12)


def test_antiderivative_matches_quadrature():
    coeffs = RNG.normal(size=(2, 4))
    anti = antiderivative(coeffs, 1.0, 0.5)
    for t in np.linspace(0.05, 1.95, 20):
        ref, _ = quad(lambda x: evaluate(coeffs, 0.0, 1.0, x), 0.0, t,
                      epsabs=1e-12, epsrel=1e-12,
                      limit=200, points=[1.0] if t > 1.0 else None)
        assert evaluate(anti, 0.0, 1.0, t) == pytest.approx(0.5 + ref,
                                                           abs=1e-9)


# -- fit ----------------------------------------------------------------------

def residual(coeffs, t, v, t1=0.0, period=1.0):
    """2-norm of the fitted trajectory's misfit at the samples."""
    return float(np.linalg.norm(evaluate(coeffs, t1, period, t) - v))


def test_fit_constant_exact():
    t = np.linspace(0, 2, 40)
    v = np.full_like(t, 5.0)
    coeffs = fit(t, v, 1.0, 0.0, 2)
    assert np.allclose(coeffs, 5.0, atol=1e-10)
    assert residual(coeffs, t, v) < 1e-10


def test_fit_affine_exact():
    t = np.linspace(0, 3, 60)
    v = 2.0 * t - 1.0
    coeffs = fit(t, v, 1.0, 0.0, 3)
    assert residual(coeffs, t, v) < 1e-9
    for x in np.linspace(0, 3, 31):
        assert evaluate(coeffs, 0.0, 1.0, x) == pytest.approx(2 * x - 1,
                                                             abs=1e-9)


def test_fit_sine_beats_dense_oracle():
    # residual no worse than an unconstrained dense per-period cubic fit
    t = np.linspace(0, 1, 16, endpoint=False)
    v = np.sin(2 * math.pi * t)
    coeffs = fit(t, v, 1.0, 0.0, 1)
    a = basis_matrix(3, t)
    dense, res_dense, *_ = np.linalg.lstsq(a, v, rcond=None)
    oracle = math.sqrt(float(res_dense[0])) if len(res_dense) else 0.0
    assert residual(coeffs, t, v) == pytest.approx(oracle, rel=1e-9,
                                                   abs=1e-12)


@pytest.mark.parametrize("degree", [0, 3])
def test_fit_returns_read_only_coefficients(degree):
    # fitted profiles are shared across a pool's workers
    t = np.linspace(0, 2, 40)
    coeffs = fit(t, np.sin(t), 1.0, 0.0, 2, degree=degree)
    assert coeffs.shape == (2, degree + 1)
    with pytest.raises(ValueError, match="read-only"):
        coeffs[0, 0] = 1.0


def test_fit_c0_continuity():
    t = np.linspace(0, 2, 64)
    v = np.sin(1.7 * t) + 0.1 * RNG.normal(size=t.shape)
    coeffs = fit(t, v, 1.0, 0.0, 2)
    assert coeffs[0, -1] == pytest.approx(coeffs[1, 0], abs=1e-12)


def test_fit_underdetermined_period_raises():
    t = np.array([0.1, 0.2, 0.3, 0.4, 1.5])  # second period has 1 sample
    with pytest.raises(ValueError, match="period 1"):
        fit(t, np.ones_like(t), 1.0, 0.0, 2)


def test_fit_degree_zero_is_period_mean():
    t = np.linspace(0, 1, 8, endpoint=False)
    v = np.arange(8.0)
    coeffs = fit(t, v, 1.0, 0.0, 1, degree=0)
    assert coeffs[0, 0] == pytest.approx(v.mean())


# -- properties ---------------------------------------------------------------

def test_partition_of_unity():
    for degree in (0, 1, 3, 4):
        s = RNG.random(200)
        sums = basis_matrix(degree, s).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_convex_hull_containment():
    for _ in range(100):
        coeffs = RNG.normal(size=(1, 4)) * RNG.uniform(0.1, 10)
        lo, hi = coeffs.min(), coeffs.max()
        t = RNG.random(1000)
        vals = evaluate(coeffs, 0.0, 1.0, t)
        assert np.all(vals >= lo - 1e-12)
        assert np.all(vals <= hi + 1e-12)


def test_affine_reproduction():
    a, b, period = 2.7, -1.1, 3.0
    nodes = np.array([b, b + a * period / 3, b + 2 * a * period / 3,
                      b + a * period])
    for t in np.linspace(0, period, 101):
        value = evaluate(nodes[None, :], 0.0, period, t)
        assert abs(value - (a * t + b)) <= 1e-12 * max(
            1.0, abs(a * t + b))


def test_equality_lowering_is_pointwise_equality():
    c1 = RNG.normal(size=(1, 4))
    t = RNG.random(500)
    assert np.allclose(evaluate(c1, 0.0, 1.0, t),
                       evaluate(c1.copy(), 0.0, 1.0, t), atol=0.0)
