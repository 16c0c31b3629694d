"""Assessment orchestration: direction sampling, one MILP built per
assessment and solved per direction in parallel, tube queries, and metrics.

For each sampled direction theta the TDI injection is confined to the ray
(P0, Q0) = S0 (cos theta, sin theta) with S0(t) >= 0, and the integral of
S0 over the horizon is maximized subject to all device and network blocks.
The optimal S0 trajectories over the sampled directions, plus affine
interpolation between neighbours, form the flexibility tube.  Directions
whose subproblem is infeasible (or hits the solver limit) are kept as gaps.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import numbers
import os
import sys
import time
from concurrent.futures import (FIRST_COMPLETED, Executor, Future,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field

import numpy as np

from .bernstein import basis_matrix, locate
# compute_margins and fit_profiles are called through this module's names,
# so a wrapper set on engine.compute_margins or engine.fit_profiles sees
# every call
from .blocks import AssembledProblem, BlockBuilder, fit_profiles, N_COEF
from .chance import compute_margins
from .milp import (MilpSolution, ScipyHighsBackend, SolveOptions,
                   load_solver, solve as milp_solve)
from .netmodel import NetworkModel, ValidationError, read_text, validate

__all__ = [
    "AssessmentConfig", "Slice", "FlexTube",
    "all_directions", "compute_margins", "direction_free_problem",
    "build_subproblem", "solve_slice", "InProcessExecutor", "assess",
    "query_point", "match_direction", "match_directions", "metric_M",
    "penetration_metrics",
    "tube_summary", "tube_to_csv", "tube_from_csv", "read_tube",
    "dense_grid_csv",
]

DEFAULT_THETA_SET = tuple(k * math.pi / 3.0 for k in range(6))
# Bernstein coefficients per period: cubic trajectories in the
# continuous-time model, one period value in the discrete-time baseline
N_COEF_BY_MODE = {"ct": N_COEF, "dt": 1}
GRID_THETAS, GRID_TIMES = 96, 33  # directions and times of the plot grid


@dataclass(frozen=True)
class AssessmentConfig:
    """How an assessment samples and solves; the CLI's flags default to
    these and to ``solver``'s."""

    directions: int = 12          # K; antipodes double it to 2K slices
    workers: int | None = None
    mode: str = "ct"              # "ct" | "dt"
    solver: SolveOptions = SolveOptions()

    def __post_init__(self):
        for name in ("directions", "workers"):
            value = getattr(self, name)
            if name == "workers" and value is None:
                continue
            # a numpy integer passes; a bool is a flag, not a count
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} {value!r} is not an integer")
        if self.directions < 2:
            raise ValueError("need at least 2 sampled directions")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers {self.workers} must be >= 1")
        if not isinstance(self.mode, str) or self.mode not in N_COEF_BY_MODE:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not isinstance(self.solver, SolveOptions):
            raise ValueError(f"solver {self.solver!r} is not a SolveOptions")


@dataclass(frozen=True)
class Slice:
    """Optimal direction-magnitude trajectory for one direction; ``values``
    is the optimal solution of its subproblem, which a neighbouring
    direction starts from, and is never written to a file."""

    theta: float
    status: str                    # optimal | infeasible | limit
    coeffs: np.ndarray | None      # (n_periods, n_coef) when optimal
    objective: float | None
    wall_time: float = 0.0
    values: np.ndarray | None = field(default=None, compare=False,
                                      repr=False)

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


@dataclass(frozen=True)
class FlexTube:
    """Slices over [0, 2pi) plus the affine interpolation rule."""

    slices: tuple
    t1: float
    period: float
    n_periods: int
    mode: str = "ct"
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        thetas = [s.theta for s in self.slices]
        if not thetas:
            raise ValueError("tube needs at least one slice")
        if any(b - a <= 0 for a, b in zip(thetas, thetas[1:])):
            raise ValueError("slice directions must be strictly increasing")
        # a NaN direction passes the ordering test, never this one
        if not all(0 <= th < 2 * math.pi for th in thetas):
            raise ValueError("slice directions must lie in [0, 2pi)")

    @property
    def directions(self) -> np.ndarray:
        return np.array([s.theta for s in self.slices])

    @property
    def t2(self) -> float:
        return self.t1 + self.n_periods * self.period

    def radii(self, t: float) -> np.ndarray:
        """Every slice's radius at time t, NaN in a gap, with t located on
        the period grid once and the feasible rows evaluated together;
        ValueError when ``locate`` puts t outside the horizon."""
        idx, s = locate(np.array([float(t)]), self.t1, self.period,
                        self.n_periods)
        out = np.full(len(self.slices), np.nan)
        feasible = [k for k, slc in enumerate(self.slices) if slc.feasible]
        if feasible:
            rows = np.array([self.slices[k].coeffs[idx[0]]
                             for k in feasible], dtype=float)
            basis = basis_matrix(rows.shape[1] - 1, s)
            out[feasible] = np.einsum("ij,ij->i", rows,
                                      np.broadcast_to(basis, rows.shape))
        return out

    @property
    def gaps(self) -> list:
        return [s.theta for s in self.slices if not s.feasible]


def all_directions(count: int) -> np.ndarray:
    """The 2K solve directions theta_k = k pi / K: the K uniform samples of
    the upper half plane, then their antipodes theta_k + pi."""
    return np.arange(2 * count) * math.pi / count


def direction_free_problem(model: NetworkModel,
                           config: AssessmentConfig) -> AssembledProblem:
    """The MILP of every direction, tightened by the model's chance
    margins over its profiles fitted at the mode's degree; ``at(theta)``
    gives direction theta's.  ValidationError for a model that
    ``validate`` refuses."""
    violations = validate(model)
    if violations:
        raise ValidationError(violations)
    return BlockBuilder(
        model, margins=compute_margins(model),
        fitted=fit_profiles(model, degree=N_COEF_BY_MODE[config.mode] - 1),
    ).build()


def build_subproblem(model: NetworkModel, theta: float,
                     config: AssessmentConfig) -> AssembledProblem:
    """Assemble the MILP for one direction over the whole horizon."""
    return direction_free_problem(model, config).at(theta)


def solve_assembled(assembled: AssembledProblem, config: AssessmentConfig,
                    starts=()) -> MilpSolution:
    return milp_solve(assembled.problem, config.solver, starts)


def solve_slice(base: AssembledProblem, theta: float,
                config: AssessmentConfig, starts=()) -> Slice:
    """Solve direction theta of the direction-free problem ``base`` and
    reassemble S0 into per-period coefficients.

    ``starts`` are solutions of other directions' subproblems (the
    ``values`` of their slices), tried as first incumbents: they can speed
    the solve, and change which optimum it returns, never its status or,
    beyond the MIP gap, its objective.  Infeasible subproblems are
    recorded as gaps; a solver limit without a proven optimum is
    conservatively treated the same way (with its own status label for
    the logs).
    """
    start = time.perf_counter()
    assembled = base.at(theta)
    sol = solve_assembled(assembled, config, starts)
    if sol.status != "optimal":
        status = "limit" if sol.status == "limit" else "infeasible"
        return Slice(theta, status, None, None, time.perf_counter() - start)
    coeffs = np.array([[sol.values[v] for v in assembled.layouts[m].s0]
                       for m in assembled.periods])
    return Slice(theta, "optimal", coeffs,
                 _objective(coeffs, base.model.horizon.period, base.n_coef),
                 time.perf_counter() - start, sol.values)


def _objective(coeffs: np.ndarray, period: float, n_coef: int) -> float:
    """Integral of S0 over the horizon: each period's coefficient sum
    weighted by period / n_coef, summed period by period."""
    weight = period / n_coef
    return float(sum(weight * float(row.sum()) for row in coeffs))


# the direction-free problem of the running assessment, set by the pool
# initializer in each worker, or in this process while ``assess`` runs
# with one worker
_held: list = []


def _hold(base: AssembledProblem):
    _held[:] = [base]


def _solve_held(theta: float, config: AssessmentConfig, starts) -> Slice:
    """``solve_slice`` of the held direction-free problem."""
    return solve_slice(_held[0], theta, config, starts)


class InProcessExecutor(Executor):
    """An executor for one worker: ``initializer(*initargs)`` runs when it
    is made, and ``submit`` runs the call in the calling process and
    returns its finished Future."""

    def __init__(self, initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)

    def submit(self, fn, /, *args, **kwargs):
        fut = Future()
        try:
            fut.set_result(fn(*args, **kwargs))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


def assess(model: NetworkModel,
           config: AssessmentConfig | None = None) -> FlexTube:
    """Full assessment: build the direction-free MILP once, solve its
    sampled directions on a bounded worker pool, and assemble the tube.

    The even-indexed directions are solved first, from no start.  Each
    odd direction is solved once both its neighbours are, starting from
    their solutions (a gap gives none), the one before it first: a
    neighbour's discrete state (taps, capacitor steps, volt-var segments,
    storage modes) is often optimal for it too.  One loop submits them to
    a process pool, or to an in-process executor for one worker, and takes
    each batch of finished solves in direction order, so the tube does not
    depend on the worker count.  The pool initializer hands each worker
    the direction-free problem once; under fork it is inherited, not
    pickled, and each task carries only its direction, the config and its
    starts.  With one worker this process holds the problem until the
    loop ends, however it ends.
    """
    config = config or AssessmentConfig()
    base = direction_free_problem(model, config)
    thetas = all_directions(config.directions)
    n = len(thetas)
    # never more workers than directions: the pool forks all of them at once
    workers = min(config.workers or os.cpu_count() or 1, n)
    start = time.perf_counter()
    results: dict = {}

    def neighbours(i: int) -> tuple:
        return (i - 1) % n, (i + 1) % n

    def args(i: int) -> tuple:
        starts = () if i % 2 == 0 else tuple(
            results[j].values for j in neighbours(i) if results[j].feasible)
        return float(thetas[i]), config, starts

    if workers > 1:
        # separate processes: the bundled backend holds the GIL while
        # solving; the solver is loaded first so the forked workers inherit it
        load_solver()
        executor = ProcessPoolExecutor(max_workers=workers,
                                       initializer=_hold, initargs=(base,))
    else:
        executor = InProcessExecutor(initializer=_hold, initargs=(base,))
    try:
        with executor as pool:
            pending = {pool.submit(_solve_held, *args(i)): i
                       for i in range(0, n, 2)}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in sorted(done, key=pending.get):
                    i = pending.pop(fut)
                    results[i] = fut.result()
                    # an odd neighbour whose other neighbour is solved
                    for k in neighbours(i):
                        if k % 2 and all(j in results
                                         for j in neighbours(k)):
                            pending[pool.submit(_solve_held, *args(k))] = k
    finally:
        _held.clear()
    slices = tuple(results[i] for i in range(n))
    gap = {"limit": "solver limit reached; treated as a gap",
           "infeasible": "infeasible (gap)"}
    warnings = [f"direction {s.theta:.6f}: {gap[s.status]}"
                for s in slices if not s.feasible]
    diagnostics = {
        "wall_time": time.perf_counter() - start,
        "slice_wall_times": {s.theta: s.wall_time for s in slices},
        "warnings": warnings,
    }
    hz = model.horizon
    return FlexTube(slices, hz.t1, hz.period, hz.n_periods, mode=config.mode,
                    diagnostics=diagnostics)


# -- tube queries -------------------------------------------------------------


def _bracket(tube: FlexTube, theta: float):
    """Neighbouring sampled directions around theta, indices taken around
    the circle: a lone direction is its own neighbour, a full turn away."""
    thetas = tube.directions
    k = match_direction(thetas, theta)
    if k is not None:
        return k, k, 0.0
    two_pi = 2 * math.pi
    theta = theta % two_pi
    hi = int(np.searchsorted(thetas, theta)) % len(thetas)
    lo = (hi - 1) % len(thetas)
    # across 2 pi the span and theta's offset from lo gain a full turn
    span = two_pi * (hi <= lo) - thetas[lo] + thetas[hi]
    frac = (theta + two_pi * (theta < thetas[lo]) - thetas[lo]) / span
    return lo, hi, float(frac)


def _skin(tube: FlexTube, t: float) -> list:
    """Every slice's (P0, Q0) at time t, None in a gap."""
    return [(r * math.cos(s.theta), r * math.sin(s.theta)) if s.feasible
            else None for s, r in zip(tube.slices, tube.radii(t).tolist())]


def _chord_point(skin: list, lo: int, hi: int, frac: float):
    """The point at ``frac`` along the chord from skin[lo] to skin[hi]:
    skin[lo] itself when lo == hi, None next to a gap."""
    a, b = skin[lo], skin[hi]
    if a is None or b is None:
        return None
    if lo == hi:
        return a
    return tuple((1.0 - frac) * x + frac * y for x, y in zip(a, b))


def query_point(tube: FlexTube, theta: float, t: float):
    """(P0, Q0) of the tube skin at direction theta and time t.

    Exactly sampled directions return the slice point.  Between two, theta
    is an angle weight along the chord between their points, so the point
    lies on that chord, not on the ray at theta (which ``pqbox``'s section
    and ``boundary.csv`` use).  None (a gap) when a needed neighbour is
    infeasible; ValueError for a non-finite theta or a t off the horizon.
    """
    if not math.isfinite(theta):
        raise ValueError(f"direction {theta} is not finite")
    return _chord_point(_skin(tube, t), *_bracket(tube, theta))


def match_direction(thetas: np.ndarray, theta: float) -> int | None:
    """Index of the first sampled direction within 1e-9 of theta around
    the circle, so that just below 2 pi matches direction 0, or None when
    theta was not sampled."""
    two_pi = 2 * math.pi
    dist = np.abs(thetas - theta % two_pi)
    match = np.where(np.minimum(dist, two_pi - dist) <= 1e-9)[0]
    return int(match[0]) if len(match) else None


def match_directions(thetas: np.ndarray, theta_set) -> list:
    """Index of the sampled direction that each of theta_set matches, or
    ValueError naming the entry that matches none, or the two entries
    that match the same one."""
    matched: dict = {}
    for th in theta_set:
        k = match_direction(thetas, th)
        if k is None:
            raise ValueError(f"direction {th} is not among the {len(thetas)} "
                             "sampled directions")
        if k in matched:
            raise ValueError(f"directions {matched[k]} and {th} both match "
                             f"sampled direction {thetas[k]}")
        matched[k] = th
    return list(matched)


def metric_M(tube: FlexTube, theta_set=None) -> float:
    """Aggregate flexibility: sum of coefficient sums of S0 over the chosen
    directions and all periods; infeasible directions contribute zero.
    ValueError unless each direction matches a sampled one of its own."""
    theta_set = DEFAULT_THETA_SET if theta_set is None else theta_set
    total = 0.0
    for k in match_directions(tube.directions, theta_set):
        s = tube.slices[k]
        if s.feasible:
            total += float(np.sum(s.coeffs))
    return total


def penetration_metrics(model: NetworkModel):
    """PV penetration K1 and ESS capacity ratio K2 over the fitted
    forecast coefficients.  K2 is None for storage without PV generation;
    ValueError when K1 is undefined (no nonzero load)."""
    fitted = fit_profiles(model)
    load_sum = float(sum(np.sum(c) for c in fitted.load))
    pv_sum = float(sum(np.sum(c) for c in fitted.pv))
    if not model.loads or load_sum <= 0.0:
        raise ValueError("K1 undefined: model has no (nonzero) load")
    k1 = pv_sum / load_sum
    if not model.ess_devices:
        return k1, 0.0
    if pv_sum <= 0.0:
        return k1, None
    rating = sum(max(e.p_d, e.p_c) for e in model.ess_devices)
    k2 = N_COEF * model.horizon.n_periods * rating / pv_sum
    return k1, k2


# -- serialization --------------------------------------------------------------


_TUBE_COLUMNS = ("theta", "period", "coef_index", "value", "status")
# the statuses that solve_slice writes
_STATUSES = ("optimal", "infeasible", "limit")


def tube_summary(tube: FlexTube, model: NetworkModel, theta_set) -> dict:
    doc = {
        **_listing(tube),
        "horizon": {"t1": tube.t1, "period": tube.period,
                    "n_periods": tube.n_periods},
        "mode": tube.mode,
        "M": None,
        "K1": None,
        "K2": None,
        "theta_set": list(theta_set) if theta_set else None,
    }
    try:
        doc["M"] = metric_M(tube, theta_set)
    except ValueError:
        pass
    try:
        doc["K1"], doc["K2"] = penetration_metrics(model)
    except ValueError:
        pass
    return doc


def tube_to_csv(tube: FlexTube, fp):
    """One row per (direction, period, coefficient); DT tubes emit their
    single per-period coefficient.  Byte-stable for fixed inputs."""
    w = csv.writer(fp)
    w.writerow(_TUBE_COLUMNS)
    for s in tube.slices:
        if not s.feasible:
            w.writerow([repr(s.theta), "", "", "", s.status])
            continue
        for m in range(tube.n_periods):
            for k in range(s.coeffs.shape[1]):
                w.writerow([repr(s.theta), m, k, repr(float(s.coeffs[m][k])),
                            s.status])


def _stored_layout(horizon, mode) -> tuple:
    """(t1, period, n_periods, n_coef) of a stored tube's horizon block
    and mode, or ValueError."""
    missing = [key for key in ("t1", "period", "n_periods")
               if not isinstance(horizon, dict)
               or not isinstance(horizon.get(key), (int, float))]
    if missing:
        raise ValueError("horizon block lacks a number for "
                         f"{', '.join(missing)}")
    for key in ("t1", "period"):
        # not math.isfinite, which overflows on a long JSON integer
        if not abs(horizon[key]) <= sys.float_info.max:
            raise ValueError(f"horizon {key} {horizon[key]!r} is not finite")
    t1, period, n_periods = (horizon[k] for k in ("t1", "period", "n_periods"))
    if not period > 0:
        raise ValueError(f"horizon period {period!r} must be positive")
    if isinstance(n_periods, bool) or not isinstance(n_periods, int) \
            or n_periods < 1:
        raise ValueError(f"horizon n_periods {n_periods!r} is not an "
                         "integer >= 1")
    # a tuple, not the dict: a list or a dict mode is unhashable
    if mode not in tuple(N_COEF_BY_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    return float(t1), float(period), n_periods, N_COEF_BY_MODE[mode]


def tube_from_csv(path: str, horizon: dict, mode: str = "ct",
                  data: bytes | None = None) -> FlexTube:
    """Rebuild a tube from its CSV plus the horizon block of the summary;
    ``data``, when given, is the CSV's bytes, already read.  The
    coefficient arrays are read-only.

    Raises ValueError unless ``t1`` and ``period`` are finite numbers,
    ``period`` positive, ``n_periods`` an integer >= 1, the mode known,
    the header names every column that ``tube_to_csv`` writes, every
    status is one that ``solve_slice`` writes, every cell read is a
    number, no optimal cell is given twice, every coefficient is finite
    and no more negative than the solver holds the bound S0 >= 0 to,
    every direction's rows share one status, every direction lies in
    [0, 2pi), and every optimal slice has exactly the periods and
    coefficients that the horizon and the mode declare, in a file of UTF-8
    text.  Messages about the CSV name the file, and the line where there
    is one.
    """
    t1, period, n_periods, n_coef = _stored_layout(horizon, mode)
    # HiGHS holds the bound S0 >= 0 to this tolerance
    tol = ScipyHighsBackend.OPTIONS["primal_feasibility_tolerance"]
    cells: dict = {}                # theta -> {(period, coef): (value, line)}
    status: dict = {}
    reader = csv.reader(io.StringIO(read_text(path, data), newline=""))
    header = next(reader, [])
    for name in _TUBE_COLUMNS:
        if name not in header:
            raise ValueError(f"{path}: no {name!r} column")
    cols = [header.index(name) for name in _TUBE_COLUMNS]
    i_theta, i_period, i_coef, i_value, i_status = cols
    width = max(cols) + 1
    for row in reader:
        if not row:             # a blank line holds no cell
            continue
        line = reader.line_num
        if len(row) < width:
            raise ValueError(f"{path}: line {line} has {len(row)} fields, "
                             f"short of the {width} its columns need")
        st = row[i_status]
        if st not in _STATUSES:
            raise ValueError(f"{path}: line {line}: unknown status {st!r}")
        try:                    # each ValueError gets this line
            th = float(row[i_theta])
            if st == "optimal":
                cell = (int(row[i_period]), int(row[i_coef]))
                slot = cells.setdefault(th, {})
                if cell in slot:
                    raise ValueError(f"theta {th!r} period {cell[0]} "
                                     f"coefficient {cell[1]} repeats "
                                     f"line {slot[cell][1]}")
                value = float(row[i_value])
                if not math.isfinite(value):
                    raise ValueError(f"coefficient {value!r} is not finite")
                if value < -tol:
                    raise ValueError(f"coefficient {value!r} is below 0 "
                                     f"by more than {tol!r}")
                slot[cell] = (value, line)
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
        if status.setdefault(th, st) != st:
            raise ValueError(f"{path}: theta {th!r} has both "
                             f"{status[th]!r} and {st!r} rows")
    slices = []
    for th in sorted(status):
        if status[th] != "optimal":
            slices.append(Slice(th, status[th], None, None))
            continue
        # the count first: a huge n_periods must not build its grid
        if len(cells[th]) != n_periods * n_coef \
                or set(cells[th]) != set(np.ndindex(n_periods, n_coef)):
            raise ValueError(
                f"{path}: theta {th!r} does not fill exactly the "
                f"{n_periods} x {n_coef} period x coefficient grid ({mode}) "
                "that the summary declares")
        coeffs = np.zeros((n_periods, n_coef))
        for (m, k), (v, _) in cells[th].items():
            coeffs[m, k] = v
        coeffs.setflags(write=False)
        slices.append(Slice(th, "optimal", coeffs,
                            _objective(coeffs, period, n_coef)))
    try:
        return FlexTube(tuple(slices), t1, period, n_periods, mode=mode)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _listing(tube: FlexTube) -> dict:
    """The summary's record of a tube's directions, their statuses and its
    gaps."""
    return {"directions": [s.theta for s in tube.slices],
            "statuses": {repr(s.theta): s.status for s in tube.slices},
            "gaps": tube.gaps}


def read_tube(tube_path: str, summary_path: str) -> FlexTube:
    """A tube read back from an assessment's tube CSV and summary JSON,
    whose mode is ``ct`` when absent; ValueError naming the file unless
    both exist and can be read, pass ``tube_from_csv``, and the summary's
    ``directions``, ``statuses`` and ``gaps``, where it has them, are the
    tube's.  The tube's ``diagnostics["inputs"]`` maps each path to the
    sha256 of the bytes parsed from it.

    Each file's bytes are read once, and the tube is parsed from exactly
    those bytes.  The last tube parsed is kept, keyed on both paths and
    both files' bytes, and a call with the same paths and bytes returns
    it; a file rewritten with other bytes is parsed afresh, and an error
    is never kept.  The tube's coefficient arrays are read-only, so no
    caller can change a tube that another shares.
    """
    for path in (tube_path, summary_path):
        if not os.path.isfile(path):
            raise ValueError(f"file not found: {path}")
    try:
        with open(summary_path, "rb") as fp:
            summary_data = fp.read()
    except OSError as exc:
        raise ValueError(f"{summary_path}: unreadable JSON: {exc}") from None
    try:
        with open(tube_path, "rb") as fp:
            tube_data = fp.read()
    except OSError as exc:
        raise ValueError(f"{tube_path}: unreadable CSV: {exc}") from None
    return _parse_tube(tube_path, summary_path, tube_data, summary_data)


@functools.lru_cache(maxsize=1)
def _parse_tube(tube_path: str, summary_path: str, tube_data: bytes,
                summary_data: bytes) -> FlexTube:
    try:
        # decoded as open() in text mode would decode the file
        summary = json.load(io.TextIOWrapper(io.BytesIO(summary_data)))
    except ValueError as exc:
        raise ValueError(f"{summary_path}: unreadable JSON: {exc}") from None
    if not isinstance(summary, dict) or "horizon" not in summary:
        raise ValueError(f"{summary_path}: no horizon block")
    horizon, mode = summary["horizon"], summary.get("mode", "ct")
    try:
        _stored_layout(horizon, mode)
    except ValueError as exc:
        raise ValueError(f"{summary_path}: {exc}") from None
    tube = tube_from_csv(tube_path, horizon, mode, tube_data)
    for key, value in _listing(tube).items():
        if key in summary and summary[key] != value:
            raise ValueError(f"{summary_path}: {key} differ from those of "
                             f"the tube {tube_path}")
    tube.diagnostics["inputs"] = {
        path: hashlib.sha256(data).hexdigest()
        for path, data in ((tube_path, tube_data),
                           (summary_path, summary_data))}
    return tube


def dense_grid_csv(tube: FlexTube, fp):
    """(theta, t, P, Q) rows for external charting: ``query_point``, a
    point on a chord between sampled directions, at GRID_THETAS directions
    over [0, 2pi) and GRID_TIMES times over the horizon, ends included;
    gaps are skipped.  The skin is taken once per time."""
    times = np.linspace(tube.t1, tube.t2, GRID_TIMES).tolist()
    skins = [_skin(tube, t) for t in times]
    w = csv.writer(fp)
    w.writerow(["theta", "t", "p", "q"])
    for th in np.linspace(0.0, 2 * math.pi, GRID_THETAS,
                          endpoint=False).tolist():
        bracket = _bracket(tube, th)
        for t, skin in zip(times, skins):
            pq = _chord_point(skin, *bracket)
            if pq is not None:
                w.writerow([repr(th), repr(t), repr(pq[0]), repr(pq[1])])
