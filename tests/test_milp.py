"""MILP container and HiGHS solve tests: builder contracts, enumeration-oracle
checks of small integer programs, determinism, post-solve checks, and the
LP text dump."""

import hashlib
import importlib.machinery
import importlib.util
import io
import itertools
import json
import math
import re
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph
from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp
from scipy.optimize._highspy import _core as highs_core

from ctflex import cli, engine, milp
from ctflex.blocks import _cos_sin
from ctflex.instances import twelve_node
from ctflex.milp import MilpProblem, SolveOptions, solve, write_lp


def test_bounded_variable_maximize():
    p = MilpProblem()
    x = p.add_variable(0.0, 3.0)
    p.set_objective({x: 1.0})
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)


def test_infeasible_bounds_detected():
    p = MilpProblem()
    x = p.add_variable(0.0, 10.0)
    p.add_constraint({x: 1.0}, ">=", 1.0)
    p.add_constraint({x: 1.0}, "<=", 0.0)
    p.set_objective({x: 1.0})
    sol = solve(p)
    assert sol.status == "infeasible"
    assert sol.values is None


def test_unbounded_detected():
    p = MilpProblem()
    x = p.add_variable(0.0, np.inf)
    p.set_objective({x: 1.0})
    assert solve(p).status == "unbounded"


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
    sol = solve(p)
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
    sol = solve(p)
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
    a = solve(p, SolveOptions(seed=0))
    b = solve(p, SolveOptions(seed=0))
    assert a.objective == pytest.approx(b.objective, abs=1e-9)
    assert np.allclose(a.values, b.values)


def test_unknown_handles_rejected():
    p = MilpProblem()
    with pytest.raises(IndexError):
        p.add_constraint({3: 1.0}, "<=", 1.0)


def test_seed_outside_highs_range_rejected():
    SolveOptions(seed=2147483647)
    for seed in (-1, 2147483648):
        with pytest.raises(ValueError, match="seed"):
            SolveOptions(seed=seed)


def test_non_integer_seed_rejected():
    # HiGHS would refuse it only once a solve starts
    with pytest.raises(ValueError, match="seed 1.5 is not an integer"):
        SolveOptions(seed=1.5)
    with pytest.raises(ValueError, match="seed True is not an integer"):
        SolveOptions(seed=True)
    SolveOptions(seed=np.int64(3))      # numpy integers pass


@pytest.mark.parametrize("field, value", [
    ("mip_gap", None), ("time_limit", "5"), ("time_limit", True),
    ("mip_gap", False)])
def test_solver_limit_that_is_not_a_number_rejected(field, value):
    # a bool is not a limit: time_limit=True would have HiGHS stop at 1 s
    with pytest.raises(ValueError, match=re.escape(
            f"{field} {value!r} is not a number")):
        SolveOptions(**{field: value})
    SolveOptions(**{field: np.float64(0.5)})    # numpy numbers pass
    SolveOptions(**{field: np.int64(5)})


@pytest.mark.parametrize("field", ["mip_gap", "time_limit"])
def test_negative_or_nan_solver_limit_rejected(field):
    SolveOptions(**{field: 0.0})
    for value in (-1.0, -1e-12, math.nan):
        with pytest.raises(ValueError, match=field):
            SolveOptions(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("mip_gap", math.nan), ("time_limit", math.nan), ("time_limit", -1.0)])
def test_solve_refuses_bad_settings_before_highs(monkeypatch, field, value):
    calls = []
    monkeypatch.setattr(milp, "_run_highs",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match=field):
        solve(_knapsack(), SolveOptions(**{field: value}))
    assert calls == []


# the real HiGHS call, kept before any test replaces it
_run_highs = milp._run_highs


def _stubbed_options(monkeypatch, seed=0):
    """Options the backend hands HiGHS on the first solve and on the
    presolve-off retry of a stubbed infeasible verdict."""
    calls = []

    def fake_highs(*arrays, start=None):
        calls.append(arrays[-1])
        return "infeasible", None

    monkeypatch.setattr(milp, "_run_highs", fake_highs)
    p = MilpProblem()
    x = p.add_variable(0.0, 1.0)
    p.set_objective({x: 1.0})
    sol = solve(p, SolveOptions(seed=seed))
    # an infeasible verdict is re-checked with presolve off
    assert sol.status == "infeasible"
    assert [o["presolve"] for o in calls] == ["on", "off"]
    return calls


def _read_back(options: dict, name: str):
    """The value of option ``name`` in a HiGHS instance set up with
    ``options``."""
    status, value = milp._highs(options).getOptionValue(name)
    assert status == highs_core.HighsStatus.kOk
    return value


def test_seed_reaches_highs_on_both_solves(monkeypatch):
    calls = _stubbed_options(monkeypatch, seed=7)
    assert [o["random_seed"] for o in calls] == [7, 7]
    assert [_read_back(o, "random_seed") for o in calls] == [7, 7]
    for name in ("mip_heuristic_run_rins",
                 "mip_heuristic_run_root_reduced_cost"):
        assert [o[name] for o in calls] == [False, False]
    assert [_read_back(o, "mip_allow_restart") for o in calls] == \
        [False, False]


def test_installed_highs_accepts_every_option(monkeypatch):
    calls = _stubbed_options(monkeypatch)
    for opts in calls:
        # _highs raises BackendError on any option HiGHS does not take
        for name, value in opts.items():
            assert _read_back(opts, name) == value, name
        a = sparse.csc_matrix([[1.0, 1.0]])
        status, x = _run_highs(
            np.array([-1.0, -1.0]), np.array([1, 0]), np.zeros(2),
            np.ones(2), (a.indptr, a.indices, a.data), a.shape,
            np.array([-np.inf]), np.array([1.5]), opts)
        assert status == "optimal" and x.tolist() == [1.0, 0.5]


@pytest.mark.parametrize("name, value", [
    ("mip_allow_restrat", False),               # misspelled
    ("mip_feasibility_tolerance", -1.0),        # out of range
    ("mip_heuristic_run_rins", 0.5),            # of the wrong type
])
def test_rejected_option_raises(monkeypatch, name, value):
    monkeypatch.setitem(milp.ScipyHighsBackend.OPTIONS, name, value)
    p = MilpProblem()
    x = p.add_variable(0.0, 1.0)
    p.add_constraint({x: 1.0}, "<=", 1.0)
    p.set_objective({x: 1.0})
    with pytest.raises(milp.BackendError, match=f"option {name} = "):
        solve(p)


def test_missing_highs_extension_is_a_backend_failure(monkeypatch, tmp_path,
                                                     capsys):
    # a scipy package without the extension where scipy >= 1.15 keeps it
    searched = tmp_path / "scipy" / "optimize" / "_highspy"
    searched.mkdir(parents=True)
    find_spec = importlib.util.find_spec

    def no_extension(name, *args):
        if name != "scipy":
            return find_spec(name, *args)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path / "scipy")]
        return spec

    monkeypatch.setattr(importlib.util, "find_spec", no_extension)
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    with pytest.raises(milp.BackendError, match=f"not in {searched}$"):
        milp.load_solver()
    assert cli.main(["assess", "builtin:three-node", "--directions", "2",
                     "--workers", "1", "--out", str(tmp_path / "out")]) == 4
    assert str(searched) in capsys.readouterr().err
    assert "scipy.optimize._highspy._core" not in sys.modules


def test_highs_stdout_is_logged_not_printed(tmp_path, fresh_python):
    # the bundled HiGHS prints some messages straight to file descriptor 1,
    # past Python's sys.stdout; a stubbed run does the same, raw and
    # through C's buffered printf, the latter after HiGHS's own run so that
    # nothing in HiGHS flushes it
    out = fresh_python(f"""
import ctypes, json, logging, os
from ctflex import cli, milp

printf = ctypes.CDLL(None).printf
highs = milp._highs
runs = []

class Printing:
    def __init__(self, real):
        self.real = real

    def __getattr__(self, name):
        return getattr(self.real, name)

    def run(self):
        runs.append(len(runs))
        os.write(1, b"raw line\\n")
        status = self.real.run()
        printf(b"printf line %d\\n", len(runs))
        return status

class Records(logging.Handler):
    def emit(self, record):
        messages.append(record.getMessage())

messages = []
milp._highs = lambda options: Printing(highs(options))
logging.getLogger("ctflex.milp").addHandler(Records())
code = cli.main(["assess", "builtin:three-node", "--directions", "2",
                 "--workers", "1", "--out", {str(tmp_path)!r}])
print(json.dumps([code, len(runs), messages]))
""")
    wrote, result = out.splitlines()
    assert wrote.startswith("wrote ")
    code, n_runs, messages = json.loads(result)
    assert code == 0 and n_runs >= 2
    assert messages == [message for n in range(1, n_runs + 1)
                        for message in ("HiGHS: raw line",
                                        f"HiGHS: printf line {n}")]


def _spied_highs(monkeypatch, answer=None):
    """Record every HiGHS call the backend makes, with the arrays, options
    and start it passes and the (status, values) it gets back;
    ``answer(call number, *arrays, options)`` replaces the real solve when
    given."""
    calls = []

    def spy(c, integrality, lb, ub, a, shape, lo, hi, options, start=None):
        calls.append(SimpleNamespace(c=c, integrality=integrality, lb=lb,
                                     ub=ub, a=a, shape=shape, lo=lo, hi=hi,
                                     options=options, start=start))
        args = (c, integrality, lb, ub, a, shape, lo, hi, options)
        calls[-1].result = (_run_highs(*args, start=start) if answer is None
                            else answer(len(calls), *args))
        return calls[-1].result

    monkeypatch.setattr(milp, "_run_highs", spy)
    return calls


def _matrix(call):
    """The constraint matrix of a recorded HiGHS call, from its CSC
    arrays."""
    indptr, indices, data = call.a
    return sparse.csc_matrix((data, indices, indptr), shape=call.shape)


def _dense_rows(call):
    return _matrix(call).toarray(), call.lo, call.hi


def test_disjoint_knapsacks_solved_apart(monkeypatch):
    # two knapsacks whose columns and rows interleave: A owns the even
    # columns and rows 0 and 2, B the odd columns and rows 1 and 3
    values_a, weights_a = [4.0, 5.0, 6.0], [2.0, 3.0, 4.0]
    values_b, weights_b = [3.0, 7.0, 2.0, 6.0], [1.0, 4.0, 2.0, 3.0]
    p = MilpProblem()
    xs, ys = [], []
    for k in range(4):
        if k < 3:
            xs.append(p.add_variable(binary=True))
        ys.append(p.add_variable(binary=True))
    p.add_constraint(dict(zip(xs, weights_a)), "<=", 5.0)
    p.add_constraint(dict(zip(ys, weights_b)), "<=", 6.0)
    p.add_constraint({xs[0]: 1.0, xs[2]: 1.0}, "<=", 1.0)
    p.add_constraint({ys[1]: 1.0, ys[3]: 1.0}, "<=", 1.0)
    p.set_objective({**dict(zip(xs, values_a)), **dict(zip(ys, values_b))})
    best = max(p.objective_value(pick)
               for pick in itertools.product((0.0, 1.0), repeat=7)
               if p.check_solution(pick) == [])

    calls = _spied_highs(monkeypatch)
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(best)
    assert p.check_solution(sol.values) == []

    assert len(calls) == 2
    first, second = calls
    assert first.c.tolist() == [-v for v in values_a]
    assert second.c.tolist() == [-v for v in values_b]
    a, lo, hi = _dense_rows(first)
    assert a.tolist() == [weights_a, [1.0, 0.0, 1.0]]
    assert lo.tolist() == [-np.inf, -np.inf] and hi.tolist() == [5.0, 1.0]
    a, lo, hi = _dense_rows(second)
    assert a.tolist() == [weights_b, [0.0, 1.0, 0.0, 1.0]]
    assert hi.tolist() == [6.0, 1.0]


def _three_parts():
    """x <= 1, y >= 2 on y in [0, 1] (infeasible), z <= 1: three parts."""
    p = MilpProblem()
    x, y, z = (p.add_variable(0.0, 1.0) for _ in range(3))
    p.add_constraint({x: 1.0}, "<=", 1.0)
    p.add_constraint({y: 1.0}, ">=", 2.0)
    p.add_constraint({z: 1.0}, "<=", 1.0)
    p.set_objective({x: 1.0, y: 1.0, z: 1.0})
    return p


def test_infeasible_part_decides_and_stops(monkeypatch):
    calls = _spied_highs(monkeypatch)
    sol = solve(_three_parts())
    assert (sol.status, sol.objective, sol.values) == ("infeasible", None, None)
    # the second part pays the presolve-off retry; the third is never solved
    assert [(call.c.tolist(), call.options["presolve"]) for call in calls] == [
        ([-1.0], "on"), ([-1.0], "on"), ([-1.0], "off")]
    assert _dense_rows(calls[1])[1].tolist() == [2.0]


def _two_parts():
    p = MilpProblem()
    x, y = p.add_variable(0.0, 2.0), p.add_variable(0.0, 3.0)
    p.add_constraint({x: 1.0}, "<=", 1.0)
    p.add_constraint({y: 1.0}, "<=", 2.0)
    p.set_objective({x: 1.0, y: 1.0})
    return p


@pytest.mark.parametrize("incumbent", [True, False])
def test_limit_in_one_part_limits_the_whole(monkeypatch, incumbent):
    def limit_first(n, *args):
        status, x = _run_highs(*args)
        if n == 1:
            return "limit", x if incumbent else None
        return status, x

    calls = _spied_highs(monkeypatch, limit_first)
    sol = solve(_two_parts())
    assert sol.status == "limit"
    assert len(calls) == 2
    if incumbent:
        assert sol.values.tolist() == pytest.approx([1.0, 2.0])
        assert sol.objective == pytest.approx(3.0)
    else:
        assert sol.values is None and sol.objective is None


def test_later_part_gets_what_is_left_of_the_time_limit(monkeypatch):
    def slow_first(n, *args):
        if n == 1:
            time.sleep(0.05)
        return _run_highs(*args)

    calls = _spied_highs(monkeypatch, slow_first)
    sol = solve(_two_parts(), SolveOptions(time_limit=10.0))
    assert sol.status == "optimal"
    first, second = (call.options["time_limit"] for call in calls)
    assert 10.0 - 0.05 < first <= 10.0
    assert second <= 10.0 - 0.05
    assert sol.wall_time >= 0.05

    # a start's completion LPs spend the same budget: the slow first one
    # leaves less to the first part's MIP and to everything after it
    calls = _spied_highs(monkeypatch, slow_first)
    sol = solve(_two_binary_parts(), SolveOptions(time_limit=10.0),
                starts=([1.0, 0.0, 1.0, 0.0],))
    assert sol.status == "optimal"
    assert [call.integrality.any() for call in calls] == [False, True] * 2
    limits = [call.options["time_limit"] for call in calls]
    assert 10.0 - 0.05 < limits[0] <= 10.0
    assert all(limit <= 10.0 - 0.05 for limit in limits[1:])
    assert limits == sorted(limits, reverse=True)


def _two_binary_parts():
    """Two parts, each a binary b and a continuous u <= b in [0, 2], with
    max u + b: the optimum is b = u = 1 in both, columns (b, u, b, u)."""
    p = MilpProblem()
    for _ in range(2):
        b, u = p.add_variable(binary=True), p.add_variable(0.0, 2.0)
        p.add_constraint({u: 1.0, b: -1.0}, "<=", 0.0)
    p.set_objective({v: 1.0 for v in range(4)})
    return p


def _knapsack():
    p = MilpProblem()
    xs = [p.add_variable(binary=True) for _ in range(3)]
    p.add_constraint(list(zip(xs, [2.0, 3.0, 4.0])), "<=", 5.0)
    p.set_objective(dict(zip(xs, [4.0, 5.0, 6.0])))
    return p


def _dt_direction():
    # a 12-node DT direction with storage: one part with binaries
    config = engine.AssessmentConfig(mode="dt")
    return engine.build_subproblem(twelve_node(), math.pi / 3,
                                   config).problem


@pytest.mark.parametrize("make", [_knapsack, _dt_direction],
                         ids=["knapsack", "dt12-pi/3"])
def test_optimal_start_keeps_status_and_objective(monkeypatch, make):
    problem = make()
    cold = solve(problem)
    calls = _spied_highs(monkeypatch)
    warm = solve(problem, starts=(cold.values,))
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
    assert problem.check_solution(warm.values) == []
    # one completion LP, whose optimum starts the MIP
    lp, mip = calls
    assert not lp.integrality.any() and lp.result[0] == "optimal"
    assert mip.integrality.any() and mip.start is lp.result[1]


def test_start_whose_completion_is_infeasible_is_ignored(monkeypatch):
    # x >= 1 needs b = 1, as x <= 10 b; the start's b = 0 completes nowhere
    p = MilpProblem()
    b, x = p.add_variable(binary=True), p.add_variable(0.0, 20.0)
    p.add_constraint({x: 1.0}, ">=", 1.0)
    p.add_constraint({x: 1.0, b: -10.0}, "<=", 0.0)
    p.set_objective({b: -1.0, x: -1.0})
    cold = solve(p)
    calls = _spied_highs(monkeypatch)
    warm = solve(p, starts=([0.0, 5.0],))
    assert (warm.status, warm.objective) == (cold.status, cold.objective)
    assert warm.values.tolist() == cold.values.tolist() == [1.0, 1.0]
    lp, mip = calls
    assert lp.lb[0] == lp.ub[0] == 0.0
    assert lp.result == ("infeasible", None)
    assert mip.start is None
    # without an incumbent the MIP keeps every heuristic
    assert _untimed(mip.options) == _untimed(lp.options) == _cold_options()


def _untimed(options: dict) -> dict:
    """``options`` without the time limit, which is what is left of the
    solve's budget when the call is made."""
    return {k: v for k, v in options.items() if k != "time_limit"}


def _cold_options(**solve) -> dict:
    """The untimed options of a HiGHS call on a part with no incumbent."""
    opts = SolveOptions(**solve)
    return {**milp.ScipyHighsBackend.OPTIONS, "presolve": "on",
            "mip_rel_gap": opts.mip_gap, "random_seed": opts.seed}


def _started_options(**solve) -> dict:
    """The untimed options of a HiGHS call on a part that a start gives a
    first incumbent."""
    return {**_cold_options(**solve),
            **milp._defined(milp.ScipyHighsBackend.STARTED)}


def test_installed_highs_has_every_started_option():
    # scipy 1.15's HiGHS predates feasibility jump; the installed one may
    # lack no other started option
    defined = milp._defined(milp.ScipyHighsBackend.STARTED)
    assert defined["mip_heuristic_run_rens"] is False
    assert set(milp.ScipyHighsBackend.STARTED) - set(defined) <= \
        {"mip_heuristic_run_feasibility_jump"}
    for name, value in defined.items():
        assert _read_back(defined, name) == value
    assert milp._defined({"mip_heuristic_run_renss": False}) == {}


def test_started_mip_and_its_retry_skip_rens_and_feasibility_jump(
        monkeypatch):
    # every MIP run answers infeasible, so each is retried with presolve
    # off; the completion LPs are solved for real
    def answer(k, c, integrality, *args):
        if integrality.any():
            return "infeasible", None
        return _run_highs(c, integrality, *args)

    cold_calls = _spied_highs(monkeypatch, answer)
    assert solve(_knapsack(), SolveOptions(seed=3)).status == "infeasible"
    started_calls = _spied_highs(monkeypatch, answer)
    assert solve(_knapsack(), SolveOptions(seed=3),
                 starts=([1.0, 1.0, 0.0],)).status == "infeasible"
    lp, *started = started_calls
    assert not lp.integrality.any() and lp.result[0] == "optimal"
    assert [c.start is lp.result[1] for c in started] == [True, True]
    assert [c.options["presolve"] for c in started] == ["on", "off"]
    assert [c.options["presolve"] for c in cold_calls] == ["on", "off"]
    for cold, warm in zip(cold_calls, started):
        presolve = {"presolve": cold.options["presolve"]}
        assert cold.start is None
        assert _untimed(cold.options) == {**_cold_options(seed=3),
                                          **presolve}
        assert _untimed(warm.options) == {**_started_options(seed=3),
                                          **presolve}
    assert _untimed(lp.options) == _cold_options(seed=3)
    for warm in started:
        for name in ("mip_heuristic_run_rens",
                     "mip_heuristic_run_feasibility_jump"):
            assert warm.options.get(name, False) is False
        for name in milp._defined(milp.ScipyHighsBackend.STARTED):
            assert _read_back(warm.options, name) is False


def test_only_parts_with_an_incumbent_skip_heuristics(monkeypatch):
    # three parts: a binary b with u <= b, whose start completes, a binary
    # d whose start completes nowhere (x >= 1 needs b = 1, as x <= 10 b), and a
    # continuous part, which is solved once with no completion
    p = MilpProblem()
    b, u = p.add_variable(binary=True), p.add_variable(0.0, 2.0)
    p.add_constraint({u: 1.0, b: -1.0}, "<=", 0.0)
    d, x = p.add_variable(binary=True), p.add_variable(0.0, 20.0)
    p.add_constraint({x: 1.0}, ">=", 1.0)
    p.add_constraint({x: 1.0, d: -10.0}, "<=", 0.0)
    y = p.add_variable(0.0, 3.0)
    p.add_constraint({y: 1.0}, "<=", 2.0)
    p.set_objective({b: 1.0, u: 1.0, d: -1.0, x: -1.0, y: 1.0})
    cold = solve(p)
    calls = _spied_highs(monkeypatch)
    warm = solve(p, starts=([1.0, 1.0, 0.0, 5.0, 0.0],))
    assert (warm.status, warm.objective) == (cold.status, cold.objective)
    assert [c.shape for c in calls] == [(1, 2)] * 2 + [(2, 2)] * 2 + \
        [(1, 1)]
    assert [c.integrality.any() for c in calls] == \
        [False, True, False, True, False]
    assert [c.result[0] for c in calls[::2]] == ["optimal", "infeasible",
                                                 "optimal"]
    assert [c.start is not None for c in calls] == \
        [False, True, False, False, False]
    assert [_untimed(c.options) for c in calls] == [
        _cold_options(), _started_options(), _cold_options(),
        _cold_options(), _cold_options()]


def test_each_part_gets_its_own_columns_of_the_start(monkeypatch):
    # without storage each period is a part.  Two starts: random binaries,
    # which differ from part to part, and the cold optimum, which completes
    config = engine.AssessmentConfig(directions=3, mode="dt")
    problem = engine.build_subproblem(twelve_node(ess=False), 0.0,
                                      config).problem
    integrality = np.array(problem._binary)
    noise = np.where(integrality, np.random.default_rng(0).integers(
        0, 2, problem.n_variables), 0.5)
    cold = solve(problem)
    calls = _spied_highs(monkeypatch)
    warm = solve(problem, starts=(noise, cold.values))
    assert warm.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
    parts = milp._components((problem.n_constraints, problem.n_variables),
                             np.array(problem._rows, dtype=np.intp),
                             np.array(problem._cols, dtype=np.intp),
                             np.array(problem._vals, dtype=float))
    assert len(parts) == 4 and len(calls) == 3 * len(parts)
    fixed = []
    for k, (cols, _, _) in enumerate(parts):
        *lps, mip = calls[3 * k:3 * k + 3]
        ints = integrality[cols]
        assert ints.any() and mip.integrality.tolist() == ints.tolist()
        for lp, start in zip(lps, (noise, cold.values)):
            assert not lp.integrality.any()
            assert lp.lb[ints].tolist() == lp.ub[ints].tolist() == \
                np.round(start[cols][ints]).tolist()
            assert lp.lb[~ints].tolist() == \
                np.array(problem._lb)[cols][~ints].tolist()
        fixed.append(tuple(lps[0].lb[ints]))
        done = [lp.result[1] for lp in lps if lp.result[0] == "optimal"]
        assert done and mip.start is min(done, key=lambda x: mip.c @ x)
    assert len(set(fixed)) == len(parts)


@pytest.mark.parametrize("start", [[1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0, 1.0],
                                   [0.5, 0.0, 1.0, 0.0], [1.0, 0.0, 2.0, 0.0],
                                   [np.nan, 0.0, 1.0, 0.0]],
                         ids=["short", "long", "fractional-binary",
                              "binary-two", "nan-binary"])
def test_malformed_start_raises(monkeypatch, start):
    calls = _spied_highs(monkeypatch)
    with pytest.raises(ValueError, match="start"):
        solve(_two_binary_parts(), starts=([1.0, 0.0, 1.0, 0.0], start))
    assert calls == []


def test_empty_row_keeps_problem_infeasible(monkeypatch):
    p = MilpProblem()
    x, y = p.add_variable(0.0, 1.0), p.add_variable(0.0, 1.0)
    p.add_constraint({x: 1.0}, "<=", 1.0)
    p.add_constraint({}, ">=", 1.0)
    p.add_constraint({y: 1.0}, "<=", 1.0)
    p.set_objective({x: 1.0, y: 1.0})
    calls = _spied_highs(monkeypatch)
    assert solve(p).status == "infeasible"
    # the empty row rides with the first part, whose retry agrees
    assert [call.options["presolve"] for call in calls] == ["on", "off"]
    assert _dense_rows(calls[0])[1].tolist() == [-np.inf, 1.0]


def test_variable_in_no_row_costs_no_call(monkeypatch):
    p = MilpProblem()
    free = p.add_variable(0.0, 2.0)
    x, y = p.add_variable(0.0, 5.0), p.add_variable(0.0, 5.0)
    p.add_constraint({x: 1.0, y: 1.0}, "<=", 3.0)
    p.set_objective({free: 1.0, x: 1.0, y: 2.0})
    calls = _spied_highs(monkeypatch)
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.values.tolist() == pytest.approx([2.0, 0.0, 3.0])
    assert len(calls) == 1 and len(calls[0].c) == 3


def _scipy_parts(problem) -> list:
    """(columns, rows, CSC matrix) of each part as ``scipy.sparse`` finds
    them: the components of the variable-row graph by ``csgraph``, with
    empty rows and variables in no row in the first, and each part's
    matrix cut from the whole one.  The reference for ``_components``."""
    n = problem.n_variables
    a = sparse.csr_matrix((problem._vals, (problem._rows, problem._cols)),
                          shape=(problem.n_constraints, n))
    graph = sparse.bmat([[None, a.T], [a, None]], format="csr")
    _, labels = csgraph.connected_components(graph, directed=False)
    linked = np.diff(graph.indptr) > 0
    labels[~linked] = labels[linked][0] if linked.any() else 0
    parts = []
    for k in np.unique(labels):
        cols = np.flatnonzero(labels[:n] == k)
        rows = np.flatnonzero(labels[n:] == k)
        parts.append((cols, rows, a[rows][:, cols].tocsc()))
    return parts


def _assert_parts_match_scipy(problem):
    got = milp._components(
        (problem.n_constraints, problem.n_variables),
        np.array(problem._rows, dtype=np.intp),
        np.array(problem._cols, dtype=np.intp),
        np.array(problem._vals, dtype=float))
    want = _scipy_parts(problem)
    assert len(got) == len(want)
    for (cols, rows, arrays), (want_cols, want_rows, a) in zip(got, want):
        assert cols.tolist() == want_cols.tolist()
        assert rows.tolist() == want_rows.tolist()
        assert a.has_sorted_indices
        for got_array, want_array in zip(arrays, (a.indptr, a.indices,
                                                  a.data)):
            assert got_array.dtype == want_array.dtype
            assert got_array.tobytes() == want_array.tobytes()
    return len(got)


def _cancelled_term():
    # x's two terms sum to an explicit zero entry, its only link to y
    p = MilpProblem()
    x, y, z = (p.add_variable(0.0, 1.0) for _ in range(3))
    p.add_constraint([(y, 1.0), (x, 1.0), (x, -1.0)], "<=", 1.0)
    p.add_constraint({z: 1.0}, "<=", 1.0)
    return p


def _no_rows():
    p = MilpProblem()
    p.add_variable(0.0, 1.0)
    p.add_variable(0.0, 1.0)
    return p


def _empty_rows_only():
    p = MilpProblem()
    p.add_variable(0.0, 1.0)
    p.add_constraint({}, "<=", 1.0)
    p.add_constraint({}, ">=", -1.0)
    return p


@pytest.mark.parametrize("make, n_parts", [
    (_two_parts, 2), (_three_parts, 3), (_cancelled_term, 2),
    (_no_rows, 1), (_empty_rows_only, 1),
], ids=["two-parts", "three-parts", "cancelled-term", "no-rows",
        "empty-rows-only"])
def test_small_split_matches_scipy(make, n_parts):
    assert _assert_parts_match_scipy(make()) == n_parts


@pytest.mark.parametrize("mode, ess, n_parts", [
    ("ct", True, 1), ("dt", True, 1), ("ct", False, 4), ("dt", False, 4),
], ids=["ct", "dt", "ct-no-storage", "dt-no-storage"])
def test_twelve_node_split_matches_scipy(mode, ess, n_parts):
    # every direction at K = 12: byte for byte the arrays that the split
    # by csgraph and the matrix cut by scipy.sparse handed HiGHS
    model = twelve_node(ess=ess)
    config = engine.AssessmentConfig(mode=mode)
    base = engine.direction_free_problem(model, config)
    for theta in engine.all_directions(config.directions):
        assembled = base.at(float(theta))
        assert _assert_parts_match_scipy(assembled.problem) == n_parts


def _recorded_rows(monkeypatch) -> list:
    """Record every ``add_constraint`` call as (terms, sense, rhs, name),
    with the terms summed per variable and sorted as the builder
    promises."""
    calls = []
    add_constraint = MilpProblem.add_constraint

    def record(self, coeffs, sense, rhs, name=None):
        items = list(coeffs.items() if isinstance(coeffs, dict) else coeffs)
        acc = {}
        for var, coef in items:
            if coef != 0.0:
                acc[int(var)] = acc.get(int(var), 0.0) + float(coef)
        calls.append((tuple(sorted(acc.items())), sense, float(rhs), name))
        return add_constraint(self, items, sense, rhs, name)

    monkeypatch.setattr(MilpProblem, "add_constraint", record)
    return calls


def _parent_arrays(problem, recorded):
    """The whole-problem arrays, with the rows converted call by call from
    ``recorded`` and the matrix in the CSC form HiGHS takes: the reference
    that the HiGHS input of a one-part problem must equal."""
    n = problem.n_variables
    sign = -1.0 if problem._sense == "max" else 1.0
    c = np.zeros(n)
    for v, coef in problem._objective.items():
        c[v] = sign * coef
    rows, cols, data, lo, hi = [], [], [], [], []
    for r, (terms, sense, rhs, _) in enumerate(recorded):
        for var, coef in terms:
            rows.append(r)
            cols.append(var)
            data.append(coef)
        lo.append(-np.inf if sense == "<=" else rhs)
        hi.append(np.inf if sense == ">=" else rhs)
    a = sparse.csc_matrix((data, (rows, cols)), shape=(len(recorded), n))
    return (c, np.array([1 if b else 0 for b in problem._binary]),
            np.array(problem._lb), np.array(problem._ub), a,
            np.array(lo), np.array(hi))


def _directed(recorded, theta) -> list:
    """``recorded`` with S0's coefficient, the first term of each direction
    row, set to -cos theta or -sin theta, and left out where it is 0.0."""
    cos_theta, sin_theta = _cos_sin(theta)
    out = []
    for terms, sense, rhs, name in recorded:
        if re.search(r"_[pq]dir\d+$", name):
            (s0, _), *rest = terms
            coef = -cos_theta if "_pdir" in name else -sin_theta
            terms = tuple(rest) if coef == 0.0 else ((s0, coef), *rest)
        out.append((terms, sense, rhs, name))
    return out


def test_one_part_problem_reaches_highs_unchanged(monkeypatch):
    # storage links the periods, so the whole subproblem is one part; the
    # rows are recorded as built, before the direction is written in
    config = engine.AssessmentConfig()
    recorded = _recorded_rows(monkeypatch)
    assembled = engine.build_subproblem(twelve_node(), math.pi / 2, config)
    assert len(recorded) == assembled.problem.n_constraints
    recorded = _directed(recorded, math.pi / 2)
    calls = _spied_highs(monkeypatch, lambda n, c, *args: (
        "optimal", np.zeros(len(c))))
    engine.solve_assembled(assembled, config)
    assert len(calls) == 1
    (call,) = calls
    c, integrality, lb, ub, a, lo, hi = _parent_arrays(assembled.problem,
                                                       recorded)
    for got, want in ((call.c, c), (call.integrality, integrality),
                      (call.lb, lb), (call.ub, ub),
                      (call.lo, lo), (call.hi, hi)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, name in zip(call.a, ("indptr", "indices", "data")):
        want = getattr(a, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert call.shape == a.shape
    indptr, indices, _ = call.a
    assert all((np.diff(indices[start:end]) > 0).all()
               for start, end in zip(indptr[:-1], indptr[1:]))


def _sweep_cell(alpha, sop, ess):
    return lambda: twelve_node(sop=sop, ess=ess, alpha=alpha)


# (model, mode, K): the 12-node tubes with and without storage, and the
# DT cells of the benchmark's sweep
HIGHS_INPUT_CASES = [
    *[(twelve_node, mode, 12) for mode in ("ct", "dt")],
    *[(_sweep_cell(alpha, sop, ess), "dt", 3) for alpha in (0.01, 0.1)
      for sop in (True, False) for ess in (True, False)],
    *[(lambda: twelve_node(ess=False), mode, 12) for mode in ("ct", "dt")],
]
# sha256 of every part of every direction above, as HiGHS gets it
HIGHS_INPUT_DIGEST = (
    "ae442e2279c0f3d91534e328c3bd2a494aef06152c7e4b929e526b618be0c31b")


def test_highs_input_is_pinned(monkeypatch):
    # no solve: each HiGHS call answers "optimal" at 0, so every part of
    # every direction is handed over once, with no start
    calls = _spied_highs(monkeypatch, lambda n, c, *args: (
        "optimal", np.zeros(len(c))))
    problems = 0
    for make, mode, directions in HIGHS_INPUT_CASES:
        model = make()
        config = engine.AssessmentConfig(directions=directions, mode=mode)
        base = engine.direction_free_problem(model, config)
        for theta in engine.all_directions(directions):
            engine.solve_assembled(base.at(float(theta)), config)
            problems += 1
    digest = hashlib.sha256()
    for call in calls:
        digest.update(repr(call.shape).encode())
        for array in (call.c, call.integrality, call.lb, call.ub, *call.a,
                      call.lo, call.hi):
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
    assert (problems, len(calls)) == (144, 360)
    assert digest.hexdigest() == HIGHS_INPUT_DIGEST


# a CT direction with restarts (the hardest of the 24 at K = 12), and a DT
# storage cell of the sweep in one optimal and one infeasible direction
EQUIVALENCE_CASES = {
    "ct12-pi/2": (twelve_node, "ct", math.pi / 2),
    "dt12-sop-ess-pi/3": (
        lambda: twelve_node(sop=True, ess=True, alpha=0.01), "dt", math.pi / 3),
    "dt12-sop-ess-2pi/3": (
        lambda: twelve_node(sop=True, ess=True, alpha=0.01), "dt",
        2 * math.pi / 3),
}


@pytest.fixture(scope="module", params=sorted(EQUIVALENCE_CASES))
def restart_solves(request):
    """One direction solved with ``mip_allow_restart`` left at the HiGHS
    default, with every HiGHS call that solve made, and then solved as the
    backend solves it."""
    make, mode, theta = EQUIVALENCE_CASES[request.param]
    config = engine.AssessmentConfig(mode=mode)
    assembled = engine.build_subproblem(make(), theta, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.delitem(milp.ScipyHighsBackend.OPTIONS, "mip_allow_restart")
        calls = _spied_highs(mp)
        default = engine.solve_assembled(assembled, config)
    return SimpleNamespace(config=config, calls=calls, default=default,
                           restart_off=engine.solve_assembled(assembled,
                                                              config))


def test_highs_call_matches_scipy_milp(restart_solves):
    # given only options scipy's milp can pass on, HiGHS sees the model
    # that milp would hand it: each call returns the same values, bit for bit
    assert restart_solves.calls
    for call in restart_solves.calls:
        options = {**call.options, "presolve": call.options["presolve"] == "on"}
        with warnings.catch_warnings():
            # milp warns that it passes the HiGHS options on verbatim
            warnings.simplefilter("ignore")
            res = scipy_milp(call.c, integrality=call.integrality,
                             bounds=Bounds(call.lb, call.ub),
                             constraints=LinearConstraint(_matrix(call),
                                                          call.lo, call.hi),
                             options=options)
        status, x = call.result
        assert status == ("optimal", "limit", "infeasible",
                          "unbounded")[res.status]
        if x is None:
            assert res.x is None
        else:
            assert x.dtype == res.x.dtype and x.tobytes() == res.x.tobytes()


def test_restarts_off_keep_status_and_objective(restart_solves):
    default, off = restart_solves.default, restart_solves.restart_off
    assert off.status == default.status
    if default.status == "optimal":
        assert off.objective == pytest.approx(
            default.objective, rel=restart_solves.config.solver.mip_gap)


@pytest.mark.parametrize("sense, side", [
    pytest.param("<=", 1.0, id="le"),
    pytest.param(">=", -1.0, id="ge"),
    pytest.param("==", 1.0, id="eq-above"),
    pytest.param("==", -1.0, id="eq-below"),
])
def test_check_solution_reports_violations(sense, side):
    # ``side`` is the direction in which the row's sum breaks the row
    p = MilpProblem()
    x = p.add_variable(0.0, 1.0, binary=True)
    y = p.add_variable(0.0, 2.0)
    p.add_constraint({x: 1.0, y: 1.0}, sense, 1.5, name="capacity")
    report = p.check_solution([0.4, 1.0 + 1.5 * side])
    assert len(report) == 3
    # each kind of violation is reported on its own line, by name
    assert any(r.startswith("variable x0: not integral") for r in report)
    assert any(r.startswith("variable x1: value ")
               and r.endswith("outside [0.0, 2.0]") for r in report)
    assert any(r.startswith("constraint capacity: ") for r in report)
    assert p.check_solution([1.0, 0.5]) == []
    # the row alone, off by twice the tolerance and then by half of it
    (row,) = p.check_solution([1.0, 0.5 + 2e-7 * side])
    assert row.startswith("constraint capacity: ")
    assert p.check_solution([1.0, 0.5 + 5e-8 * side]) == []


def test_write_lp_stable():
    p = MilpProblem(name="demo")
    x = p.add_variable(0.0, 1.0, name="x")
    y = p.add_variable(binary=True, name="flag")
    z = p.add_variable(-np.inf, 2.5, name="z")
    p.add_constraint({x: 1.0, y: -2.0}, "<=", 0.5, name="link")
    p.add_constraint({z: 1.0, x: 3.0}, ">=", -1.0, name="floor")
    p.add_constraint([(z, 0.25), (y, 1.0)], "==", 1.0, name="pin")
    p.set_objective({x: 1.0, y: 3.0})
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_lp(p, buf1)
    write_lp(p, buf2)
    text = buf1.getvalue()
    assert text == buf2.getvalue()
    assert text == (
        "\\ demo\n"
        "Maximize\n"
        " obj: + 1.0 x + 3.0 flag\n"
        "Subject To\n"
        " link: + 1.0 x - 2.0 flag <= 0.5\n"
        " floor: + 3.0 x + 1.0 z >= -1.0\n"
        " pin: + 1.0 flag + 0.25 z = 1.0\n"
        "Bounds\n"
        " 0.0 <= x <= 1.0\n"
        " 0.0 <= flag <= 1.0\n"
        " -inf <= z <= 2.5\n"
        "Binaries\n"
        " flag\n"
        "End\n")
