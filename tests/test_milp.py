"""MILP container and HiGHS solve tests: builder contracts, enumeration-oracle
checks of small integer programs, SOS-1 fallback equivalence and layout,
determinism, and the LP text dump."""

import io
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp

from ctflex import milp
from ctflex.milp import (
    FrozenProblemError, MilpProblem, SolveOptions, solve, sos_fallback,
    write_lp,
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
    with pytest.raises(IndexError):
        p.add_sos([0])


def test_sos1_selects_best_member():
    # enumeration over the two one-hot patterns: lam2 = 1 wins
    p = MilpProblem()
    l1 = p.add_variable(0.0, 1.0)
    l2 = p.add_variable(0.0, 1.0)
    p.add_constraint({l1: 1.0, l2: 1.0}, "==", 1.0)
    p.add_sos([l1, l2])
    p.set_objective({l1: 1.0, l2: 2.0})
    sol = solve(p.freeze())
    assert sol.objective == pytest.approx(2.0)
    assert sol.values[l2] == pytest.approx(1.0)
    assert p.check_solution(sol.values) == []


def _random_sos_problem(rng):
    p = MilpProblem()
    xs = [p.add_variable(0.0, float(rng.uniform(0.5, 2.0))) for _ in range(4)]
    p.add_constraint([(x, 1.0) for x in xs], "<=", 2.5)
    p.add_sos(xs)
    p.set_objective({x: float(c) for x, c in zip(xs, rng.uniform(0.1, 1, 4))})
    return p.freeze(), xs


def _enumerate_sos_optimum(problem, xs):
    """Brute-force over support patterns; each pattern leaves an LP solved
    exactly (here: greedy on a single knapsack row)."""
    patterns = [(i,) for i in range(len(xs))] + [()]
    best = 0.0
    ubs = [problem.variable_bounds(x)[1] for x in xs]
    c = [problem._objective.get(x, 0.0) for x in xs]
    for pattern in patterns:
        order = sorted(pattern, key=lambda i: -c[i])
        room = 2.5
        val = 0.0
        for i in order:
            take = min(ubs[i], room)
            val += c[i] * take
            room -= take
        best = max(best, val)
    return best


def test_sos_fallback_preserves_optimum():
    rng = np.random.default_rng(12)
    for _ in range(8):
        problem, xs = _random_sos_problem(rng)
        oracle = _enumerate_sos_optimum(problem, xs)
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(oracle, abs=1e-7)
        assert problem.check_solution(sol.values, tol=1e-7) == []


def test_sos_fallback_empty_is_identity():
    p = MilpProblem()
    x = p.add_variable(0.0, 1.0)
    p.set_objective({x: 1.0})
    fb = sos_fallback(p)
    assert fb.n_variables == p.n_variables
    assert fb.n_constraints == p.n_constraints


def test_sos_fallback_unbounded_member_rejected():
    p = MilpProblem()
    x = p.add_variable(0.0, np.inf)
    y = p.add_variable(0.0, 1.0)
    p.add_sos([x, y])
    with pytest.raises(ValueError, match="unbounded"):
        sos_fallback(p)


def test_sos_fallback_lp_layout():
    # HiGHS numbers its columns and rows in this order: the flag binaries
    # after the original variables, then the cardinality row, then one
    # upper and one lower big-M row per member (named by the flag's index)
    p = MilpProblem(name="pick3")
    x = p.add_variable(0.0, 1.0, name="x")
    y = p.add_variable(-1.0, 2.0, name="y")
    z = p.add_variable(0.0, 3.0, name="z")
    p.add_constraint({x: 1.0, y: 1.0, z: 1.0}, "<=", 2.5, name="total")
    p.add_sos([x, y, z], name="g")
    p.set_objective({x: 1.0, y: 2.0, z: 0.5})
    p.freeze()
    buf = io.StringIO()
    write_lp(p, buf)
    assert " g: S1:: x:1.0 y:2.0 z:3.0\n" in buf.getvalue()
    buf = io.StringIO()
    write_lp(sos_fallback(p), buf)
    assert buf.getvalue() == (
        "\\ pick3\n"
        "Maximize\n"
        " obj: + 1.0 x + 2.0 y + 0.5 z\n"
        "Subject To\n"
        " total: + 1.0 x + 1.0 y + 1.0 z <= 2.5\n"
        " g_card: + 1.0 g_b0 + 1.0 g_b1 + 1.0 g_b2 <= 1.0\n"
        " g_ub3: + 1.0 x - 1.0 g_b0 <= 0.0\n"
        " g_lb3: + 1.0 x >= 0.0\n"
        " g_ub4: + 1.0 y - 2.0 g_b1 <= 0.0\n"
        " g_lb4: + 1.0 y + 1.0 g_b1 >= 0.0\n"
        " g_ub5: + 1.0 z - 3.0 g_b2 <= 0.0\n"
        " g_lb5: + 1.0 z >= 0.0\n"
        "Bounds\n"
        " 0.0 <= x <= 1.0\n"
        " -1.0 <= y <= 2.0\n"
        " 0.0 <= z <= 3.0\n"
        " 0.0 <= g_b0 <= 1.0\n"
        " 0.0 <= g_b1 <= 1.0\n"
        " 0.0 <= g_b2 <= 1.0\n"
        "Binaries\n"
        " g_b0\n"
        " g_b1\n"
        " g_b2\n"
        "End\n")


def test_solution_restricted_to_original_variables():
    p = MilpProblem()
    xs = [p.add_variable(0.0, 1.0) for _ in range(3)]
    p.add_sos(xs)
    p.set_objective({xs[1]: 1.0})
    sol = solve(p.freeze())
    assert len(sol.values) == 3


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
    p.add_sos([x], name="pick")
    p.set_objective({x: 1.0, y: 3.0})
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_lp(p, buf1)
    write_lp(p, buf2)
    text = buf1.getvalue()
    assert text == buf2.getvalue()
    assert "Maximize" in text and "link:" in text and "Binaries" in text
    assert "SOS" in text


def test_solve_requires_freeze():
    p = MilpProblem()
    p.add_variable()
    with pytest.raises(ValueError, match="freeze"):
        solve(p)
