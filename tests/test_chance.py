"""Chance-constraint machinery tests.

The normal quantile is compared against scipy's ndtri and pinned bit for
bit at the margins' alpha values; dependent-variable elimination against a
dense inverse on random small systems;
margins against closed forms and monotonicity; and criterion 3's Monte
Carlo oracle (``oracles.monte_carlo_check``) against its own statistical
guarantees.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from ctflex.chance import (
    SingularSystemError, gaussian_margin, norm_quantile, propagate,
)
from oracles import monte_carlo_check

RNG = np.random.default_rng(321)


def test_quantile_matches_scipy():
    ps = np.concatenate([np.linspace(1e-12, 1 - 1e-12, 2001),
                         [1e-15, 1 - 1e-15, 0.5]])
    for p in ps:
        assert norm_quantile(float(p)) == pytest.approx(
            float(ndtri(p)), abs=1e-8)


@pytest.mark.parametrize("alpha, z", [
    (0.01, 2.3263478740408408),
    (0.05, 1.6448536269514715),
    (0.1, 1.2815515655446008),
    (0.2, 0.8416212335729144),
])
def test_margin_quantile_bits_pinned(alpha, z):
    # every chance margin scales this z; a quantile that differs in the
    # last bit would change the emitted model
    assert gaussian_margin(alpha, [1.0], [1.0]) == z


def test_margin_alpha_half_is_zero():
    assert gaussian_margin(0.5, np.array([1.0, 2.0]),
                           np.array([1.0, 1.0])) == pytest.approx(0.0)


def test_margin_zero_variance_is_zero():
    assert gaussian_margin(0.1, np.array([3.0]), np.array([0.0])) == 0.0


def test_margin_single_source_closed_form():
    # z_{0.9} ~ 1.2816
    got = gaussian_margin(0.1, np.array([1.0]), np.array([1.0]))
    assert got == pytest.approx(1.2815515655, abs=1e-8)


def test_margin_monotone_in_alpha_and_sigma():
    g = np.array([1.0, -2.0])
    alphas = np.linspace(0.01, 0.5, 25)
    margins = [gaussian_margin(a, g, np.array([0.5, 0.25])) for a in alphas]
    assert all(a >= b - 1e-12 for a, b in zip(margins, margins[1:]))
    sigmas = np.linspace(0.0, 2.0, 30)
    margins = [gaussian_margin(0.1, g, np.array([s, 0.3])) for s in sigmas]
    assert all(b >= a - 1e-12 for a, b in zip(margins, margins[1:]))


def test_propagate_no_uncertainty_in_equalities():
    # F = 0: the dependent variables do not respond
    assert np.array_equal(propagate(np.eye(2), np.zeros((2, 3))),
                          np.zeros((2, 3)))


def test_propagate_substitution():
    # equality y - u = 0 -> y responds one to one
    assert propagate(np.array([[1.0]]), np.array([[-1.0]])).tolist() == \
        [[1.0]]


def test_propagate_matches_dense_elimination_oracle():
    for _ in range(25):
        n_y, n_u = 5, 4
        b = RNG.normal(size=(n_y, n_y)) + 3 * np.eye(n_y)
        f = RNG.normal(size=(n_y, n_u))
        oracle = -np.linalg.inv(b) @ f
        assert np.allclose(propagate(b, f), oracle, atol=1e-9)


def test_propagate_singular_rejected():
    with pytest.raises(SingularSystemError):
        propagate(np.zeros((2, 2)), np.zeros((2, 1)))
    with pytest.raises(SingularSystemError):
        propagate(np.zeros((2, 3)), np.zeros((2, 1)))


def test_monte_carlo_tight_row_rate_near_alpha():
    # solution exactly on the tightened boundary of a single-source row
    alpha, sigma2 = 0.1, 1.0
    margin = gaussian_margin(alpha, np.array([1.0]), np.array([sigma2]))
    # value - u <= 0, nominal value = -margin
    rates = monte_carlo_check([-margin], [[-1.0]], [0.0], [sigma2],
                              n_samples=100_000, seed=3)
    assert rates[0] <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / 100_000)
    assert rates[0] >= alpha - 3 * math.sqrt(alpha * (1 - alpha) / 100_000)


def test_monte_carlo_zero_variance_zero_rate():
    rates = monte_carlo_check([0.999999], [[1.0]], [1.0], [0.0],
                              n_samples=1000)
    assert rates[0] == 0.0


def test_monte_carlo_six_sigma_slack_zero_rate():
    sigma2 = 0.25
    slack = 6.0 * math.sqrt(sigma2) * 2.0
    rates = monte_carlo_check([-slack], [[2.0]], [0.0], [sigma2],
                              n_samples=100_000, seed=5)
    assert rates[0] == 0.0


def test_monte_carlo_safety_bound_many_rows():
    # every margin-tightened row keeps its empirical rate near or below alpha
    alpha = 0.1
    n_src = 6
    sigma2 = RNG.uniform(0.1, 2.0, n_src)
    g = RNG.normal(size=(40, n_src))
    lhs = [-gaussian_margin(alpha, row, sigma2) for row in g]
    rates = monte_carlo_check(lhs, g, np.zeros(40), sigma2,
                              n_samples=100_000, seed=11)
    bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / 100_000)
    assert np.all(rates <= bound)
