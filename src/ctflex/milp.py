"""MILP container solved by HiGHS through scipy.optimize.milp.

The builder collects variables, linear constraints, SOS-1 groups, and a
linear objective, then freezes.  HiGHS takes continuous and binary
variables but no native SOS, so SOS-1 groups are lowered to one-hot
binaries by :func:`sos_fallback` before the solve.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp as _scipy_milp

__all__ = [
    "MilpProblem",
    "MilpSolution",
    "SolveOptions",
    "BackendError",
    "FrozenProblemError",
    "solve",
    "sos_fallback",
    "write_lp",
]

_SENSES = ("<=", ">=", "==")


class FrozenProblemError(RuntimeError):
    """Mutation attempted after the problem was frozen."""


class BackendError(RuntimeError):
    """The solver failed."""


@dataclass
class _Constraint:
    terms: tuple          # ((var, coef), ...)
    sense: str
    rhs: float
    name: str


@dataclass
class _SosGroup:
    """SOS-1: at most one member may be nonzero."""

    variables: tuple
    name: str


@dataclass
class MilpSolution:
    """Solver answer; ``values`` is present for optimal and incumbent-bearing
    limit statuses, indexed like the problem's variables."""

    status: str                      # optimal | infeasible | unbounded | limit
    objective: float | None
    values: np.ndarray | None
    wall_time: float


class MilpProblem:
    """Mutable MILP builder; freeze() makes it immutable and solvable."""

    def __init__(self, name: str = "problem"):
        self.name = name
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._binary: list[bool] = []
        self._var_names: list[str] = []
        self._constraints: list[_Constraint] = []
        self._sos: list[_SosGroup] = []
        self._objective: dict[int, float] = {}
        self._sense = "max"
        self._frozen = False

    # -- construction ------------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise FrozenProblemError("problem is frozen")

    def add_variable(self, lb: float = 0.0, ub: float = np.inf, *,
                     binary: bool = False, name: str | None = None) -> int:
        self._check_mutable()
        if binary:
            lb, ub = 0.0, 1.0
        if lb > ub:
            raise ValueError(f"variable lower bound {lb} exceeds upper bound {ub}")
        idx = len(self._lb)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._binary.append(bool(binary))
        self._var_names.append(name or f"x{idx}")
        return idx

    def _as_terms(self, coeffs) -> tuple:
        acc: dict[int, float] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for var, coef in items:
            var = int(var)
            if not 0 <= var < len(self._lb):
                raise IndexError(f"unknown variable handle {var}")
            if coef != 0.0:
                acc[var] = acc.get(var, 0.0) + float(coef)
        return tuple(sorted(acc.items()))

    def add_constraint(self, coeffs, sense: str, rhs: float,
                       name: str | None = None) -> int:
        self._check_mutable()
        if sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {sense!r}")
        idx = len(self._constraints)
        self._constraints.append(
            _Constraint(self._as_terms(coeffs), sense, float(rhs), name or f"c{idx}")
        )
        return idx

    def add_sos(self, variables, name: str | None = None) -> int:
        """Add an SOS-1 group: at most one of ``variables`` is nonzero."""
        self._check_mutable()
        variables = tuple(int(v) for v in variables)
        if not variables:
            raise ValueError("empty SOS group")
        for v in variables:
            if not 0 <= v < len(self._lb):
                raise IndexError(f"unknown variable handle {v}")
        idx = len(self._sos)
        self._sos.append(_SosGroup(variables, name or f"s{idx}"))
        return idx

    def set_objective(self, coeffs, sense: str = "max"):
        self._check_mutable()
        if sense not in ("max", "min"):
            raise ValueError("objective sense must be 'max' or 'min'")
        self._objective = dict(self._as_terms(coeffs))
        self._sense = sense

    def freeze(self) -> "MilpProblem":
        self._frozen = True
        return self

    # -- introspection -----------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def n_variables(self) -> int:
        return len(self._lb)

    @property
    def n_constraints(self) -> int:
        return len(self._constraints)

    @property
    def has_sos(self) -> bool:
        return bool(self._sos)

    def variable_bounds(self, var: int) -> tuple[float, float]:
        return self._lb[var], self._ub[var]

    def objective_value(self, values) -> float:
        return float(sum(c * values[v] for v, c in self._objective.items()))

    def check_solution(self, values, tol: float = 1e-7) -> list[str]:
        """Standalone feasibility checker: evaluates every emitted bound,
        constraint, integrality requirement, and SOS group at ``values`` and
        returns the violations beyond ``tol`` (empty list if feasible)."""
        values = np.asarray(values, dtype=float)
        out = []
        for v in range(self.n_variables):
            if values[v] < self._lb[v] - tol or values[v] > self._ub[v] + tol:
                out.append(f"variable {self._var_names[v]}: value {values[v]} "
                           f"outside [{self._lb[v]}, {self._ub[v]}]")
            if self._binary[v] and abs(values[v] - round(values[v])) > tol:
                out.append(f"variable {self._var_names[v]}: not integral ({values[v]})")
        for con in self._constraints:
            lhs = sum(coef * values[var] for var, coef in con.terms)
            if con.sense == "<=" and lhs > con.rhs + tol:
                out.append(f"constraint {con.name}: {lhs} > {con.rhs}")
            elif con.sense == ">=" and lhs < con.rhs - tol:
                out.append(f"constraint {con.name}: {lhs} < {con.rhs}")
            elif con.sense == "==" and abs(lhs - con.rhs) > tol:
                out.append(f"constraint {con.name}: {lhs} != {con.rhs}")
        for grp in self._sos:
            nz = [v for v in grp.variables if abs(values[v]) > tol]
            if len(nz) > 1:
                out.append(f"SOS-1 {grp.name}: {len(nz)} nonzero members")
        return out


def sos_fallback(problem: MilpProblem) -> MilpProblem:
    """Rewrite SOS-1 groups as binary selections, which HiGHS can solve.

    Each member gets one indicator binary, and at most one may be on.
    Every member needs finite bounds, which serve as the big-M.  Original
    variable handles keep their indices, so a solution of the rewritten
    problem restricts to one of the original by truncation.
    """
    out = MilpProblem(name=problem.name)
    for v in range(problem.n_variables):
        out.add_variable(problem._lb[v], problem._ub[v],
                         binary=problem._binary[v], name=problem._var_names[v])
    for con in problem._constraints:
        out.add_constraint(list(con.terms), con.sense, con.rhs, name=con.name)
    for grp in problem._sos:
        for v in grp.variables:
            if not np.isfinite(problem._lb[v]) or not np.isfinite(problem._ub[v]):
                raise ValueError(
                    f"SOS member {problem._var_names[v]} is unbounded; "
                    "binary fallback needs finite bounds"
                )
        flags = [out.add_variable(binary=True, name=f"{grp.name}_b{j}")
                 for j in range(len(grp.variables))]
        out.add_constraint([(b, 1.0) for b in flags], "<=", 1.0,
                           name=f"{grp.name}_card")
        for v, b in zip(grp.variables, flags):
            out.add_constraint([(v, 1.0), (b, -problem._ub[v])], "<=", 0.0,
                               name=f"{grp.name}_ub{b}")
            out.add_constraint([(v, 1.0), (b, -problem._lb[v])], ">=", 0.0,
                               name=f"{grp.name}_lb{b}")
    out._objective = dict(problem._objective)
    out._sense = problem._sense
    if problem.frozen:
        out.freeze()
    return out


@dataclass
class SolveOptions:
    mip_gap: float = 1e-6
    time_limit: float = 300.0
    seed: int = 0


class ScipyHighsBackend:
    """HiGHS through scipy.optimize.milp."""

    _STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded"}

    def solve(self, problem: MilpProblem, options: SolveOptions) -> MilpSolution:
        n = problem.n_variables
        sign = -1.0 if problem._sense == "max" else 1.0
        c = np.zeros(n)
        for v, coef in problem._objective.items():
            c[v] = sign * coef
        integrality = np.array([1 if b else 0 for b in problem._binary])
        bounds = Bounds(np.array(problem._lb), np.array(problem._ub))

        constraints = []
        if problem._constraints:
            rows, cols, data, lo, hi = [], [], [], [], []
            for r, con in enumerate(problem._constraints):
                for var, coef in con.terms:
                    rows.append(r)
                    cols.append(var)
                    data.append(coef)
                if con.sense == "<=":
                    lo.append(-np.inf)
                    hi.append(con.rhs)
                elif con.sense == ">=":
                    lo.append(con.rhs)
                    hi.append(np.inf)
                else:
                    lo.append(con.rhs)
                    hi.append(con.rhs)
            a = sparse.csr_matrix(
                (data, (rows, cols)), shape=(len(problem._constraints), n)
            )
            constraints = [LinearConstraint(a, np.array(lo), np.array(hi))]

        opts = {
            "presolve": True,
            "mip_rel_gap": options.mip_gap,
            "time_limit": options.time_limit,
            # not a scipy option: passed to HiGHS verbatim (the warning
            # saying so is silenced below); 0 is the HiGHS default
            "random_seed": options.seed,
            # also HiGHS options: RENS finds the optimum at the root, while
            # RINS and the root reduced-cost sub-MIP nest several levels of
            # sub-MIPs without improving it (mip_heuristic_effort does not
            # reach them)
            "mip_heuristic_run_rins": False,
            "mip_heuristic_run_root_reduced_cost": False,
            # tighter than the HiGHS defaults so coefficient-wise bounds and
            # binary-exact product reconstructions survive trajectory sampling
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
            "mip_feasibility_tolerance": 1e-9,
        }
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = _scipy_milp(c, integrality=integrality, bounds=bounds,
                              constraints=constraints, options=opts)
            if res.status in (2, 3):
                # the bundled HiGHS presolve can misreport infeasibility on
                # McCormick-style rows; trust such verdicts only when the
                # presolve-free solve agrees
                res = _scipy_milp(c, integrality=integrality, bounds=bounds,
                                  constraints=constraints,
                                  options={**opts, "presolve": False})
        wall = time.perf_counter() - start

        status = self._STATUS.get(res.status)
        if status is None:
            raise BackendError(f"HiGHS failure: {res.message}")
        values = np.asarray(res.x, dtype=float) if res.x is not None else None
        objective = problem.objective_value(values) if values is not None else None
        return MilpSolution(status, objective, values, wall)


def solve(problem: MilpProblem,
          options: SolveOptions | None = None) -> MilpSolution:
    """Solve a frozen problem, lowering its SOS groups first.

    The returned assignment is restricted to the original problem's
    variables even when the fallback added binaries.
    """
    if not problem.frozen:
        raise ValueError("freeze() the problem before solving")
    options = options or SolveOptions()
    to_solve = sos_fallback(problem) if problem.has_sos else problem
    sol = ScipyHighsBackend().solve(to_solve, options)
    if sol.values is not None and len(sol.values) > problem.n_variables:
        sol = MilpSolution(sol.status, problem.objective_value(sol.values),
                           sol.values[: problem.n_variables], sol.wall_time)
    return sol


def _lp_num(x: float) -> str:
    return repr(float(x))


def write_lp(problem: MilpProblem, fp):
    """Dump the problem in LP text format with stable row/column order."""
    w = fp.write
    w("\\ " + problem.name + "\n")
    w("Maximize\n" if problem._sense == "max" else "Minimize\n")
    terms = sorted(problem._objective.items())
    body = " ".join(
        f"{'+' if c >= 0 else '-'} {_lp_num(abs(c))} {problem._var_names[v]}"
        for v, c in terms
    )
    w(" obj: " + (body or "0") + "\n")
    w("Subject To\n")
    for con in problem._constraints:
        lhs = " ".join(
            f"{'+' if c >= 0 else '-'} {_lp_num(abs(c))} {problem._var_names[v]}"
            for v, c in con.terms
        )
        op = {"<=": "<=", ">=": ">=", "==": "="}[con.sense]
        w(f" {con.name}: {lhs or '0'} {op} {_lp_num(con.rhs)}\n")
    w("Bounds\n")
    for v in range(problem.n_variables):
        lb, ub = problem._lb[v], problem._ub[v]
        name = problem._var_names[v]
        lo = "-inf" if not np.isfinite(lb) else _lp_num(lb)
        hi = "+inf" if not np.isfinite(ub) else _lp_num(ub)
        w(f" {lo} <= {name} <= {hi}\n")
    binaries = [problem._var_names[v] for v in range(problem.n_variables)
                if problem._binary[v]]
    if binaries:
        w("Binaries\n")
        for name in binaries:
            w(f" {name}\n")
    if problem._sos:
        w("SOS\n")
        for grp in problem._sos:
            # LP format needs a weight per member: the implicit 1..k
            members = " ".join(
                f"{problem._var_names[v]}:{_lp_num(k + 1)}"
                for k, v in enumerate(grp.variables)
            )
            w(f" {grp.name}: S1:: {members}\n")
    w("End\n")
