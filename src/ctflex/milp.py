"""MILP container solved by the HiGHS that ships with scipy.

The builder collects continuous and binary variables, linear constraints
and a linear objective.  It keeps the rows as HiGHS takes them, as
matrix triplets and a range [lo, hi] per row.  The backend splits
the problem into the connected components of its variable-row
graph and hands each one to HiGHS as a problem of its own, with its matrix
in CSC arrays built from the triplets by numpy; a problem whose rows all
link up, such as any model with storage, reaches HiGHS as it stands.  The
backend talks to HiGHS through scipy's own binding, the extension module
``scipy.optimize._highspy._core`` that ``scipy.optimize.milp`` calls:
``milp`` can hand HiGHS only the options scipy's options struct knows,
and ``mip_allow_restart`` is not among them.  A solve loads that one
extension file and nothing else of scipy: the optimize and sparse
subpackages stay unloaded.
"""

from __future__ import annotations

import copy
import functools
import importlib.machinery
import importlib.util
import logging
import numbers
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MilpProblem",
    "MilpSolution",
    "SolveOptions",
    "BackendError",
    "load_solver",
    "solve",
    "sos_fallback",
    "write_lp",
]

_SENSES = ("<=", ">=", "==")
_HIGHS_MODULE = "scipy.optimize._highspy._core"
_log = logging.getLogger(__name__)


class BackendError(RuntimeError):
    """The solver failed."""


@dataclass
class MilpSolution:
    """Solver answer; ``values`` is present for optimal and incumbent-bearing
    limit statuses, indexed like the problem's variables."""

    status: str                      # optimal | infeasible | unbounded | limit
    objective: float | None
    values: np.ndarray | None
    wall_time: float


class MilpProblem:
    """MILP builder; ``solve`` takes it as it stands."""

    def __init__(self, name: str = "problem"):
        self.name = name
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._binary: list[bool] = []
        self._var_names: list[str] = []
        # constraint matrix as (row, column, value) triplets in row order,
        # each row's columns ascending; row r holds lo[r] <= a_r x <= hi[r]
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._row_lo: list[float] = []
        self._row_hi: list[float] = []
        self._row_names: list[str] = []
        self._objective: dict[int, float] = {}
        self._sense = "max"

    # -- construction ------------------------------------------------------

    def add_variable(self, lb: float = 0.0, ub: float = np.inf, *,
                     binary: bool = False, name: str | None = None) -> int:
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
        if sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {sense!r}")
        idx = len(self._row_names)
        for var, coef in self._as_terms(coeffs):
            self._rows.append(idx)
            self._cols.append(var)
            self._vals.append(coef)
        rhs = float(rhs)
        self._row_lo.append(-np.inf if sense == "<=" else rhs)
        self._row_hi.append(np.inf if sense == ">=" else rhs)
        self._row_names.append(name or f"c{idx}")
        return idx

    def set_objective(self, coeffs, sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError("objective sense must be 'max' or 'min'")
        self._objective = dict(self._as_terms(coeffs))
        self._sense = sense

    def freeze(self) -> "MilpProblem":
        """The problem itself; only the ``perfbench/`` harness calls this."""
        return self

    def with_entries(self, entries: dict, name: str) -> "MilpProblem":
        """A copy named ``name`` whose matrix entry at each triplet
        index of ``entries`` holds the value given there; an entry set to
        0.0 is left out, as ``add_constraint`` leaves out a zero term."""
        out = copy.copy(self)
        for key, value in vars(self).items():
            if isinstance(value, (list, dict)):
                setattr(out, key, value.copy())
        for i, value in entries.items():
            out._vals[i] = float(value)
        for i in sorted((i for i, v in entries.items() if v == 0.0),
                        reverse=True):
            del out._rows[i], out._cols[i], out._vals[i]
        out.name = name
        return out

    # -- introspection -----------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self._lb)

    @property
    def n_constraints(self) -> int:
        return len(self._row_names)

    @property
    def n_entries(self) -> int:
        """Matrix entries so far; the next row's first term gets this
        triplet index."""
        return len(self._vals)

    def objective_value(self, values) -> float:
        return float(sum(c * values[v] for v, c in self._objective.items()))

    def check_solution(self, values, tol: float = 1e-7) -> list[str]:
        """Standalone feasibility checker: evaluates every emitted bound,
        constraint and integrality requirement at ``values`` and returns the
        violations beyond ``tol`` (empty list if feasible)."""
        values = np.asarray(values, dtype=float)
        # each row's terms are summed in column order
        lhs = np.bincount(np.array(self._rows, dtype=np.intp),
                          weights=np.array(self._vals) * values[self._cols],
                          minlength=self.n_constraints)
        out = []
        for kind, names, x, lo, hi in (
                ("variable", self._var_names, values, self._lb, self._ub),
                ("constraint", self._row_names, lhs, self._row_lo, self._row_hi)):
            lo, hi = np.array(lo), np.array(hi)
            for i in np.flatnonzero((x < lo - tol) | (x > hi + tol)).tolist():
                out.append(f"{kind} {names[i]}: value {x[i]} "
                           f"outside [{lo[i]}, {hi[i]}]")
        fractional = np.array(self._binary, dtype=bool) & \
            (np.abs(values - np.round(values)) > tol)
        for v in np.flatnonzero(fractional).tolist():
            out.append(f"variable {self._var_names[v]}: not integral ({values[v]})")
        return out


def sos_fallback(problem: MilpProblem) -> MilpProblem:
    """Return ``problem`` unchanged.

    The problem has no SOS groups left to lower: one-hot selections are
    declared binary where they are built.  Nothing in the package calls
    this; it stays only because the benchmark harness in ``perfbench/``
    still wraps it by name, and goes when the harness drops that hook.
    """
    return problem


@dataclass(frozen=True)
class SolveOptions:
    """A solve's HiGHS settings, checked where they are made: HiGHS refuses
    a negative value only once a solve starts, and takes a NaN silently."""

    mip_gap: float = 1e-6
    time_limit: float = 300.0     # seconds, for the whole problem
    seed: int = 0                 # HiGHS random_seed

    def __post_init__(self):
        # numpy numbers pass; a bool is a flag, not a number
        for name in ("mip_gap", "time_limit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} {value!r} is not a number")
            if not value >= 0:
                raise ValueError(f"{name} {value} must be >= 0")
        if isinstance(self.seed, bool) \
                or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed {self.seed!r} is not an integer")
        if not 0 <= self.seed <= 2147483647:
            raise ValueError(f"seed {self.seed} outside [0, 2147483647]")


def load_solver():
    """Load scipy's HiGHS extension, ``scipy.optimize._highspy._core``,
    and return it.

    Only the extension file is loaded, not scipy's optimize and sparse
    subpackages: in an interpreter that has imported the CLI, importing
    those took 0.48-0.64 s and 42 MB of RSS, the file alone takes under
    0.01 s and 3 MB, on a 2-CPU host.  The module is put in
    ``sys.modules`` under its own name before it runs, so a later
    ``import scipy.optimize`` reuses it: a second copy would register
    pybind11's ``_Highs`` class again, which fails.
    ``engine.assess`` calls this before it forks a worker pool, so the
    workers inherit the module instead of each loading it again.  Raises
    BackendError when the extension is not where scipy >= 1.15 keeps it.
    """
    core = sys.modules.get(_HIGHS_MODULE)
    if core is not None:
        return core
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise BackendError("scipy is not installed")
    where = [os.path.join(path, "optimize", "_highspy")
             for path in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, where)
    if spec is None:
        raise BackendError("scipy's HiGHS extension _core is not in "
                           + os.pathsep.join(where))
    core = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    return core


def _highs(options: dict):
    """A HiGHS instance with each of ``options`` set by name; raises
    BackendError naming the first option HiGHS rejects."""
    core = load_solver()
    highs = core._Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) != core.HighsStatus.kOk:
            raise BackendError(f"HiGHS rejects option {name} = {value!r}")
    return highs


@functools.cache
def _c_fflush():
    """C's ``fflush``; called with None it flushes every C output stream."""
    import ctypes
    fflush = ctypes.CDLL(None).fflush
    fflush.argtypes, fflush.restype = [ctypes.c_void_p], ctypes.c_int
    return fflush


def _run_logged(highs):
    """``highs.run()`` with file descriptor 1 pointed at a temporary file.

    The bundled HiGHS prints some messages with C's ``printf`` whatever
    its log options say.  Each line it prints during the run is logged as
    a warning on ``ctflex.milp`` instead, so the process's standard output
    carries only what the program itself writes.  Python's and C's
    buffers are flushed before the switch, so no earlier output is taken
    for HiGHS's, and C's again before it is undone, so none of HiGHS's
    output is left behind for the real standard output.
    """
    sys.stdout.flush()
    _c_fflush()(None)
    saved = os.dup(1)
    with tempfile.TemporaryFile() as out:
        os.dup2(out.fileno(), 1)
        try:
            highs.run()
        finally:
            _c_fflush()(None)
            os.dup2(saved, 1)
            os.close(saved)
        out.seek(0)
        for line in out.read().decode(errors="replace").splitlines():
            _log.warning("HiGHS: %s", line)


def _run_highs(c, integrality, lb, ub, a, shape, lo, hi, options,
               start=None) -> tuple:
    """(status, values) of min c x s.t. lo <= a x <= hi, lb <= x <= ub,
    x_j integer where integrality[j] is 1, with ``a`` the CSC arrays
    ``(indptr, indices, data)`` of a (rows, columns) ``shape`` matrix.
    ``start``, a feasible point when given, is HiGHS's first incumbent.

    The statuses are read as ``scipy.optimize.milp`` reads them: a MIP
    stopped at a time or iteration limit keeps its incumbent if it has
    one, an LP stopped there has no values.
    """
    core = load_solver()
    model = core.HighsModelStatus
    highs = _highs(options)
    lp = core.HighsLp()
    lp.num_row_, lp.num_col_ = shape
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = shape
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = a
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lb, ub
    lp.row_lower_, lp.row_upper_ = lo, hi
    lp.integrality_ = [core.HighsVarType(i) for i in integrality.tolist()]
    if highs.passModel(lp) == core.HighsStatus.kError:
        raise BackendError("HiGHS rejects the model")
    if start is not None:
        incumbent = core.HighsSolution()
        incumbent.col_value = start
        incumbent.value_valid = True
        highs.setSolution(incumbent)
    _run_logged(highs)
    code = highs.getModelStatus()
    status = {model.kOptimal: "optimal", model.kTimeLimit: "limit",
              model.kIterationLimit: "limit", model.kInfeasible: "infeasible",
              model.kUnbounded: "unbounded"}.get(code)
    if status is None:
        raise BackendError(f"HiGHS failure: {highs.modelStatusToString(code)}")
    incumbent = status == "optimal" or (
        status == "limit" and integrality.any()
        and highs.getInfo().objective_function_value != core.kHighsInf)
    return status, (np.array(highs.getSolution().col_value) if incumbent
                    else None)


def _components(shape, rows, cols, vals) -> list:
    """(columns, rows, (indptr, indices, data)) of each connected component
    of the variable-row graph of the (rows, columns) ``shape`` matrix with
    triplets ``rows``, ``cols``, ``vals`` in row order.  A component's
    columns and rows keep their original order, its matrix is in CSC form
    with sorted row indices, and the components come in the order of their
    smallest column.  Empty rows and variables in no row join the first
    component: they need no solve of their own, and an empty row whose
    bounds exclude 0 still makes the problem infeasible."""
    n_rows, n_cols = shape
    # label each column with the smallest column of its component: each
    # round pulls every column, and the old label of every column, down to
    # the smallest label in any of its rows, then follows labels to roots
    label = np.arange(n_cols)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    sizes = np.diff(starts, append=len(rows))
    while len(rows):
        low = np.repeat(np.minimum.reduceat(label[cols], starts), sizes)
        new = label.copy()
        np.minimum.at(new, cols, low)
        np.minimum.at(new, label[cols], low)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    linked = np.zeros(n_cols, dtype=bool)
    linked[cols] = True
    first = np.argmax(linked) if len(cols) else 0
    label[~linked] = first
    row_label = np.full(n_rows, first)
    row_label[rows] = label[cols]

    col_pos = np.empty(n_cols, dtype=np.intp)   # index within its part
    row_pos = np.empty(n_rows, dtype=np.intp)
    parts = []
    for k in np.unique(np.concatenate([label, row_label])):
        part_cols = np.flatnonzero(label == k)
        part_rows = np.flatnonzero(row_label == k)
        col_pos[part_cols] = np.arange(len(part_cols))
        row_pos[part_rows] = np.arange(len(part_rows))
        # the part's triplets column by column, each column's rows in order
        trips = np.flatnonzero(label[cols] == k)
        trips = trips[np.argsort(cols[trips], kind="stable")]
        indptr = np.zeros(len(part_cols) + 1, dtype=np.int32)
        np.cumsum(np.bincount(col_pos[cols[trips]],
                              minlength=len(part_cols)), out=indptr[1:])
        parts.append((part_cols, part_rows, (
            indptr, row_pos[rows[trips]].astype(np.int32), vals[trips])))
    return parts


class ScipyHighsBackend:
    """HiGHS through scipy's binding, one call per independent part.

    Rows that share no variable, directly or through other rows, make
    independent problems; on a feeder without storage these are the
    periods.  Each connected component is solved on its own and the parts'
    values are written back into one full-length vector.  The first
    infeasible or unbounded part decides the status and ends the solve;
    otherwise any part at a limit makes the whole result ``limit``.
    ``time_limit`` is one budget for the whole problem: each part gets what
    is left of it.  ``mip_gap`` holds per part, so it bounds the whole
    problem's relative gap whenever the parts' objectives share a sign, as
    the builder's (a positive weight times S0 >= 0) do.  Every HiGHS call
    gets ``OPTIONS`` and the solve's gap, time and seed; an option HiGHS
    rejects raises BackendError.  A part that a start gives a first
    incumbent also gets ``STARTED``, on its MIP run and on its
    presolve-off retry; a cold part, or one whose starts complete nowhere,
    gets ``OPTIONS`` alone.
    """

    OPTIONS = {
        "log_to_console": False,
        # RENS finds the optimum at the root, while RINS and the root
        # reduced-cost sub-MIP nest several levels of sub-MIPs without
        # improving it (mip_heuristic_effort does not reach them)
        "mip_heuristic_run_rins": False,
        "mip_heuristic_run_root_reduced_cost": False,
        # a restart re-presolves the root once it has fixed enough binaries;
        # on the hard directions that repeats the root several times and
        # nests sub-MIPs deeper without a better bound
        "mip_allow_restart": False,
        # tighter than the HiGHS defaults so coefficient-wise bounds and
        # binary-exact product reconstructions survive trajectory sampling
        "primal_feasibility_tolerance": 1e-9,
        "dual_feasibility_tolerance": 1e-9,
        "mip_feasibility_tolerance": 1e-9,
    }
    # RENS and feasibility jump only look for a first incumbent, which a
    # started part already has, and RENS's sub-MIP is the largest
    # allocation of a started solve.  Cold parts keep both: RENS finds
    # their optimum at the root
    STARTED = {
        "mip_heuristic_run_rens": False,
        "mip_heuristic_run_feasibility_jump": False,
    }

    def solve(self, problem: MilpProblem, options: SolveOptions,
              starts=()) -> MilpSolution:
        n = problem.n_variables
        sign = -1.0 if problem._sense == "max" else 1.0
        c = np.zeros(n)
        for v, coef in problem._objective.items():
            c[v] = sign * coef
        integrality = np.array([1 if b else 0 for b in problem._binary])
        starts = [_checked_start(x, integrality) for x in starts]
        lb, ub = np.array(problem._lb), np.array(problem._ub)
        lo, hi = np.array(problem._row_lo), np.array(problem._row_hi)
        triplets = (np.array(problem._rows, dtype=np.intp),
                    np.array(problem._cols, dtype=np.intp),
                    np.array(problem._vals, dtype=float))

        opts = {**self.OPTIONS, "presolve": "on",
                "mip_rel_gap": options.mip_gap, "random_seed": options.seed}
        status, values = "optimal", np.zeros(n)
        start = time.perf_counter()

        def left() -> dict:
            """``opts`` with what is left of the time limit."""
            return {**opts, "time_limit": max(
                options.time_limit - (time.perf_counter() - start), 0.0)}

        for cols, rows, a in _components((len(lo), n), *triplets):
            part = (c[cols], integrality[cols], lb[cols], ub[cols], a,
                    (len(rows), len(cols)), lo[rows], hi[rows])
            incumbent = None
            if starts and integrality[cols].any():
                incumbent = _completion(part, [x[cols] for x in starts], left)
            part_opts = left() if incumbent is None else {
                **left(), **_defined(self.STARTED)}
            part_status, x = _run_highs(*part, part_opts, start=incumbent)
            if part_status in ("infeasible", "unbounded"):
                # the bundled HiGHS presolve can misreport infeasibility
                # on McCormick-style rows; trust such verdicts only when
                # the presolve-free solve agrees
                part_status, x = _run_highs(
                    *part, {**part_opts, "presolve": "off"}, start=incumbent)
            if part_status in ("infeasible", "unbounded"):
                status, values = part_status, None
                break
            if part_status == "limit":
                status = "limit"
            if x is None:
                values = None
            elif values is not None:
                values[cols] = x
        wall = time.perf_counter() - start

        objective = problem.objective_value(values) if values is not None else None
        return MilpSolution(status, objective, values, wall)


def _defined(options: dict) -> dict:
    """The entries of ``options`` that name an option this HiGHS has.  A
    HiGHS older than a heuristic has no option to switch it off, and no
    heuristic to run: feasibility jump came with HiGHS 1.10."""
    highs = _highs({"log_to_console": False})
    ok = load_solver().HighsStatus.kOk
    return {name: value for name, value in options.items()
            if highs.getOptionType(name)[0] == ok}


def _checked_start(x, integrality) -> np.ndarray:
    """``x`` as a float vector, or ValueError unless it holds one value per
    column and 0 or 1, to 1e-6, in every binary column."""
    x = np.asarray(x, dtype=float)
    if x.shape != integrality.shape:
        raise ValueError(f"start has shape {x.shape}, the problem "
                         f"{len(integrality)} columns")
    binary = x[integrality == 1]
    if not np.all((np.abs(binary) <= 1e-6) | (np.abs(binary - 1) <= 1e-6)):
        raise ValueError("start holds a value other than 0 or 1 in a "
                         "binary column")
    return x


def _completion(part, starts, left):
    """The best optimal completion of the starts' integer values on one
    part, or None when none completes.

    Each start's rounded integer values are fixed (lb = ub) and the part's
    LP solved for the rest; ``left()`` gives each LP its options, with
    what is left of the time limit.  On equal objectives the earlier start
    wins.
    """
    c, integrality, lb, ub, *rest = part
    ints = integrality == 1
    best, best_cost = None, np.inf
    for x in starts:
        fixed_lb, fixed_ub = lb.copy(), ub.copy()
        fixed_lb[ints] = fixed_ub[ints] = np.round(x[ints])
        status, values = _run_highs(c, np.zeros_like(integrality), fixed_lb,
                                    fixed_ub, *rest, left())
        if status == "optimal" and c @ values < best_cost:
            best, best_cost = values, c @ values
    return best


def solve(problem: MilpProblem, options: SolveOptions = SolveOptions(),
          starts=()) -> MilpSolution:
    """Solve a problem with HiGHS.

    Each of ``starts``, a full-length vector whose binary columns hold 0
    or 1, is a candidate first incumbent: on each part with integer
    columns, its integer values are fixed and the rest completed by an
    LP, and the best completion starts HiGHS's search, which then skips
    the heuristics that look for a first incumbent.  A start that
    completes nowhere changes nothing.
    """
    return ScipyHighsBackend().solve(problem, options, starts)


def _lp_num(x: float) -> str:
    return repr(float(x))


def _lp_terms(pairs, names) -> str:
    return " ".join(f"{'+' if c >= 0 else '-'} {_lp_num(abs(c))} {names[v]}"
                    for v, c in pairs)


def write_lp(problem: MilpProblem, fp):
    """Dump the problem in LP text format with stable row/column order."""
    w = fp.write
    names = problem._var_names
    w("\\ " + problem.name + "\n")
    w("Maximize\n" if problem._sense == "max" else "Minimize\n")
    body = _lp_terms(sorted(problem._objective.items()), names)
    w(" obj: " + (body or "0") + "\n")
    w("Subject To\n")
    pairs = list(zip(problem._cols, problem._vals))
    # row r's triplets are pairs[start[r]:start[r + 1]]
    start = np.searchsorted(problem._rows,
                            np.arange(problem.n_constraints + 1)).tolist()
    for r, name in enumerate(problem._row_names):
        lhs = _lp_terms(pairs[start[r]:start[r + 1]], names)
        lo, hi = problem._row_lo[r], problem._row_hi[r]
        op, rhs = (("<=", hi) if lo == -np.inf
                   else (">=", lo) if hi == np.inf else ("=", lo))
        w(f" {name}: {lhs or '0'} {op} {_lp_num(rhs)}\n")
    w("Bounds\n")
    for name, lb, ub in zip(names, problem._lb, problem._ub):
        lo = "-inf" if not np.isfinite(lb) else _lp_num(lb)
        hi = "+inf" if not np.isfinite(ub) else _lp_num(ub)
        w(f" {lo} <= {name} <= {hi}\n")
    binaries = [name for name, binary in zip(names, problem._binary)
                if binary]
    if binaries:
        w("Binaries\n")
        for name in binaries:
            w(f" {name}\n")
    w("End\n")
