"""MILP container and HiGHS solve tests: builder contracts, enumeration-oracle
checks of small integer programs, determinism, post-solve checks, and the
LP text dump."""

import io
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp

from ctflex import milp
from ctflex.milp import (
    FrozenProblemError, MilpProblem, SolveOptions, solve, write_lp,
)


def test_bounded_variable_maximize():
    p = MilpProblem()
    x = p.add_variable(0.0, 3.0)
    p.set_objective({x: 1.0})
    sol = solve(p.freeze())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)


def test_infeasible_bounds_detected():
    p = MilpProblem()
    x = p.add_variable(0.0, 10.0)
    p.add_constraint({x: 1.0}, ">=", 1.0)
    p.add_constraint({x: 1.0}, "<=", 0.0)
    p.set_objective({x: 1.0})
    sol = solve(p.freeze())
    assert sol.status == "infeasible"
    assert sol.values is None


def test_unbounded_detected():
    p = MilpProblem()
    x = p.add_variable(0.0, np.inf)
    p.set_objective({x: 1.0})
    assert solve(p.freeze()).status == "unbounded"


def test_knapsack_matches_enumeration():
    values = [4.0, 5.0, 6.0]
    weights = [2.0, 3.0, 4.0]
    cap = 5.0
    best = max(
        (sum(v for v, pick in zip(values, picks) if pick)
         for picks in itertools.product((0, 1), repeat=3)
         if sum(w for w, pick in zip(weights, picks) if pick) <= cap),
    )
    p = MilpProblem()
    xs = [p.add_variable(binary=True) for _ in range(3)]
    p.add_constraint([(x, w) for x, w in zip(xs, weights)], "<=", cap)
    p.set_objective({x: v for x, v in zip(xs, values)})
    sol = solve(p.freeze())
    assert sol.objective == pytest.approx(best)
    assert best == 9.0


def test_lp_relaxation_matches_closed_form_vertex():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> vertex (1.6, 1.2)
    p = MilpProblem()
    x = p.add_variable(0.0, np.inf)
    y = p.add_variable(0.0, np.inf)
    p.add_constraint({x: 1.0, y: 2.0}, "<=", 4.0)
    p.add_constraint({x: 3.0, y: 1.0}, "<=", 6.0)
    p.set_objective({x: 1.0, y: 1.0})
    sol = solve(p.freeze())
    assert sol.objective == pytest.approx(2.8, abs=1e-9)
    assert sol.values == pytest.approx([1.6, 1.2], abs=1e-8)


def test_repeat_solve_is_deterministic():
    rng = np.random.default_rng(7)
    p = MilpProblem()
    xs = [p.add_variable(binary=True) for _ in range(12)]
    w = rng.uniform(1, 5, 12)
    v = rng.uniform(1, 5, 12)
    p.add_constraint([(x, wi) for x, wi in zip(xs, w)], "<=", 12.0)
    p.set_objective({x: vi for x, vi in zip(xs, v)})
    p.freeze()
    a = solve(p, SolveOptions(seed=0))
    b = solve(p, SolveOptions(seed=0))
    assert a.objective == pytest.approx(b.objective, abs=1e-9)
    assert np.allclose(a.values, b.values)


def test_mutation_after_freeze():
    p = MilpProblem()
    p.add_variable()
    p.freeze()
    with pytest.raises(FrozenProblemError):
        p.add_variable()
    with pytest.raises(FrozenProblemError):
        p.add_constraint({0: 1.0}, "<=", 1.0)


def test_unknown_handles_rejected():
    p = MilpProblem()
    with pytest.raises(IndexError):
        p.add_constraint({3: 1.0}, "<=", 1.0)


def _stubbed_options(monkeypatch, seed=0):
    """Options the backend hands scipy on the first solve and on the
    presolve-off retry of a stubbed infeasible verdict."""
    calls = []

    def fake_milp(c, **kw):
        calls.append(kw["options"])
        return SimpleNamespace(status=2, x=None, message="stub")

    monkeypatch.setattr(milp, "_scipy_milp", fake_milp)
    p = MilpProblem()
    x = p.add_variable(0.0, 1.0)
    p.set_objective({x: 1.0})
    sol = solve(p.freeze(), SolveOptions(seed=seed))
    # an infeasible verdict is re-checked with presolve off
    assert sol.status == "infeasible"
    assert [o["presolve"] for o in calls] == [True, False]
    return calls


def test_seed_reaches_highs_on_both_solves(monkeypatch):
    calls = _stubbed_options(monkeypatch, seed=7)
    assert [o["random_seed"] for o in calls] == [7, 7]
    for name in ("mip_heuristic_run_rins",
                 "mip_heuristic_run_root_reduced_cost"):
        assert [o[name] for o in calls] == [False, False]


def test_installed_highs_accepts_every_option(monkeypatch):
    calls = _stubbed_options(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for opts in calls:
            res = scipy_milp([-1.0, -1.0], integrality=[1, 0],
                             bounds=Bounds(0.0, 1.0),
                             constraints=LinearConstraint([[1.0, 1.0]],
                                                          -np.inf, 1.5),
                             options=opts)
            assert res.status == 0
    messages = [str(w.message) for w in caught]
    # scipy lists the options it hands HiGHS verbatim as a set, which is
    # expected; HiGHS names each key it rejects as a one-entry dict
    rejected = [name for name in calls[0] for msg in messages
                if f"Unrecognized options detected: {{'{name}': " in msg]
    assert rejected == [], messages


def test_check_solution_reports_violations():
    p = MilpProblem()
    x = p.add_variable(0.0, 1.0, binary=True)
    y = p.add_variable(0.0, 2.0)
    p.add_constraint({x: 1.0, y: 1.0}, "<=", 1.5, name="capacity")
    report = p.check_solution([0.4, 2.5])
    assert any("not integral" in r for r in report)
    assert any("capacity" in r for r in report)
    assert any("outside" in r for r in report)
    assert p.check_solution([1.0, 0.5]) == []


def test_write_lp_stable():
    p = MilpProblem(name="demo")
    x = p.add_variable(0.0, 1.0, name="x")
    y = p.add_variable(binary=True, name="flag")
    p.add_constraint({x: 1.0, y: -2.0}, "<=", 0.5, name="link")
    p.set_objective({x: 1.0, y: 3.0})
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_lp(p, buf1)
    write_lp(p, buf2)
    text = buf1.getvalue()
    assert text == buf2.getvalue()
    assert "Maximize" in text and "link:" in text and "Binaries" in text


def test_solve_requires_freeze():
    p = MilpProblem()
    p.add_variable()
    with pytest.raises(ValueError, match="freeze"):
        solve(p)
