"""Assessment orchestration: direction sampling, per-direction subproblem
assembly and parallel solving, tube assembly and queries, and metrics.

For each sampled direction theta the TDI injection is confined to the ray
(P0, Q0) = S0 (cos theta, sin theta) with S0(t) >= 0, and the integral of
S0 over the horizon is maximized subject to all device and network blocks.
The optimal S0 trajectories over the sampled directions, plus affine
interpolation between neighbours, form the flexibility tube.  Directions
whose subproblem is infeasible (or hits the solver limit) are kept as gaps.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import chance
from .bernstein import CtTrajectory
from .blocks import (
    AssembledProblem,
    BlockBuilder,
    ChanceMargins,
    FittedProfiles,
    fit_profiles,
    scalar_response_system,
    N_COEF,
)
from .milp import MilpSolution, SolveOptions, solve as milp_solve
from .netmodel import NetworkModel

__all__ = [
    "AssessmentConfig", "Slice", "FlexTube",
    "sample_directions", "all_directions", "compute_margins",
    "build_subproblem", "solve_slice", "assemble_tube", "assess",
    "query_point", "match_direction", "metric_M", "penetration_metrics",
    "monte_carlo_validate", "tube_to_csv", "tube_from_csv", "dense_grid_csv",
]

DEFAULT_THETA_SET = tuple(k * math.pi / 3.0 for k in range(6))
# Bernstein coefficients per period: cubic trajectories in the
# continuous-time model, one period value in the discrete-time baseline
N_COEF_BY_MODE = {"ct": N_COEF, "dt": 1}


@dataclass(frozen=True)
class AssessmentConfig:
    directions: int = 12          # K; antipodes double it to 2K slices
    mip_gap: float = 1e-6
    time_limit: float = 300.0
    workers: int | None = None
    mode: str = "ct"              # "ct" | "dt"
    seed: int = 0                 # HiGHS random_seed

    def __post_init__(self):
        if self.directions < 2:
            raise ValueError("need at least 2 sampled directions")
        # HiGHS ignores a negative or NaN value with a warning that the
        # backend silences, so the solve would run at HiGHS's default
        if not self.mip_gap >= 0:
            raise ValueError(f"mip_gap {self.mip_gap} must be >= 0")
        if not self.time_limit >= 0:
            raise ValueError(f"time_limit {self.time_limit} must be >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers {self.workers} must be >= 1")
        if self.mode not in N_COEF_BY_MODE:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 <= self.seed <= 2147483647:
            raise ValueError(f"seed {self.seed} outside [0, 2147483647]")


@dataclass(frozen=True)
class Slice:
    """Optimal direction-magnitude trajectory for one direction."""

    theta: float
    status: str                    # optimal | infeasible | limit
    coeffs: np.ndarray | None      # (n_periods, n_coef) when optimal
    objective: float | None
    wall_time: float = 0.0

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
        if thetas[0] < 0 or thetas[-1] >= 2 * math.pi:
            raise ValueError("slice directions must lie in [0, 2pi)")

    @property
    def directions(self) -> np.ndarray:
        return np.array([s.theta for s in self.slices])

    @property
    def t2(self) -> float:
        return self.t1 + self.n_periods * self.period

    def trajectory(self, k: int) -> CtTrajectory | None:
        s = self.slices[k]
        if not s.feasible:
            return None
        return CtTrajectory(self.t1, self.period, s.coeffs)

    def radius(self, k: int, t: float) -> float | None:
        traj = self.trajectory(k)
        return None if traj is None else float(traj.evaluate(t))

    @property
    def gaps(self) -> list:
        return [s.theta for s in self.slices if not s.feasible]


def sample_directions(count: int) -> np.ndarray:
    """Uniform directions theta_k = (k-1) pi / K over the upper half plane;
    the antipode theta_k + pi of each is solved as the paired subproblem."""
    if count < 2:
        raise ValueError("need at least 2 directions")
    return np.arange(count) * math.pi / count


def all_directions(count: int) -> np.ndarray:
    """The 2K solve directions: upper-half samples plus their antipodes."""
    return np.arange(2 * count) * math.pi / count


def compute_margins(model: NetworkModel) -> ChanceMargins:
    """Chance-constraint margins per tightened row family.

    Load offsets propagate through the network equalities (at the
    conservative reference response pattern); PV forecast offsets hit the
    forecast-cap rows directly.  One margin covers every Bernstein
    coefficient of a family because the offsets are constant in time.
    """
    z = chance.norm_quantile(1.0 - model.alpha)
    system = scalar_response_system(model)
    if z <= 0.0 or not np.any(system.sigma2 > 0.0):
        return ChanceMargins.zero()

    response = chance.propagate(system.b, system.f)

    def margin(yi: int) -> float:
        return chance.gaussian_margin(model.alpha, response[yi], system.sigma2)

    u_node = {node: margin(yi) for node, yi in system.u_index.items()}
    svc = {si: margin(system.svc_index[si])
           for si, dev in enumerate(model.svc_devices)
           if dev.q_min is not None or dev.q_max is not None}
    pv_cap = {
        pi: z * math.sqrt(pv.sigma2) for pi, pv in enumerate(model.pv_units)
    }
    return ChanceMargins(u_node=u_node, pv_cap=pv_cap, svc=svc)


def build_subproblem(model: NetworkModel, theta: float,
                     config: AssessmentConfig,
                     margins: ChanceMargins | None = None,
                     fitted: FittedProfiles | None = None) -> AssembledProblem:
    """Assemble the MILP for one direction over the whole horizon."""
    builder = BlockBuilder(
        model,
        margins=margins if margins is not None else compute_margins(model),
        fitted=fitted if fitted is not None
        else fit_profiles(model, degree=N_COEF_BY_MODE[config.mode] - 1),
        name=f"slice@{theta:.6f}",
    )
    return builder.build(theta)


def _solve_options(config: AssessmentConfig) -> SolveOptions:
    return SolveOptions(mip_gap=config.mip_gap, time_limit=config.time_limit,
                        seed=config.seed)


def solve_assembled(assembled: AssembledProblem,
                    config: AssessmentConfig) -> MilpSolution:
    return milp_solve(assembled.problem, _solve_options(config))


def solve_slice(model: NetworkModel, theta: float, config: AssessmentConfig,
                margins: ChanceMargins | None = None,
                fitted: FittedProfiles | None = None) -> Slice:
    """Solve one direction and reassemble S0 into per-period coefficients.

    Infeasible subproblems are recorded as gaps; a solver limit without a
    proven optimum is conservatively treated the same way (with its own
    status label for the logs).
    """
    start = time.perf_counter()
    assembled = build_subproblem(model, theta, config, margins, fitted)
    sol = solve_assembled(assembled, config)
    if sol.status != "optimal":
        status = "limit" if sol.status == "limit" else "infeasible"
        return Slice(theta, status, None, None, time.perf_counter() - start)
    coeffs = np.array([[sol.values[v] for v in assembled.layouts[m].s0]
                       for m in assembled.periods])
    return Slice(theta, "optimal", coeffs,
                 _objective(coeffs, model.horizon.period, assembled.n_coef),
                 time.perf_counter() - start)


def _objective(coeffs: np.ndarray, period: float, n_coef: int) -> float:
    """Integral of S0 over the horizon: each period's coefficient sum
    weighted by period / n_coef, summed period by period."""
    weight = period / n_coef
    return float(sum(weight * float(row.sum()) for row in coeffs))


def assemble_tube(slices, model: NetworkModel, mode: str = "ct",
                  diagnostics: dict | None = None) -> FlexTube:
    """Sort slices by direction and keep infeasible directions as gaps."""
    if not slices:
        raise ValueError("no slices to assemble")
    ordered = sorted(slices, key=lambda s: s.theta)
    thetas = [s.theta for s in ordered]
    if any(abs(b - a) < 1e-12 for a, b in zip(thetas, thetas[1:])):
        raise ValueError("duplicate slice directions")
    hz = model.horizon
    return FlexTube(tuple(ordered), hz.t1, hz.period, hz.n_periods,
                    mode=mode, diagnostics=diagnostics or {})


def assess(model: NetworkModel,
           config: AssessmentConfig | None = None) -> FlexTube:
    """Full assessment: sample directions, solve slices in parallel on a
    bounded worker pool, and assemble the tube."""
    config = config or AssessmentConfig()
    margins = compute_margins(model)
    fitted = fit_profiles(model, degree=N_COEF_BY_MODE[config.mode] - 1)
    thetas = all_directions(config.directions)
    # never more workers than directions: the pool forks all of them at once
    workers = min(config.workers or os.cpu_count() or 1, len(thetas))
    start = time.perf_counter()
    results: dict = {}
    if workers > 1:
        # separate processes: the bundled backend holds the GIL while solving
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(solve_slice, model, float(th), config, margins,
                            fitted): i
                for i, th in enumerate(thetas)
            }
            for fut, i in futures.items():
                results[i] = fut.result()
    else:
        for i, th in enumerate(thetas):
            results[i] = solve_slice(model, float(th), config, margins, fitted)
    slices = [results[i] for i in range(len(thetas))]
    warnings = []
    for s in slices:
        if s.status == "limit":
            warnings.append(
                f"direction {s.theta:.6f}: solver limit reached; "
                "treated as a gap")
        elif s.status == "infeasible":
            warnings.append(f"direction {s.theta:.6f}: infeasible (gap)")
    diagnostics = {
        "wall_time": time.perf_counter() - start,
        "slice_wall_times": {s.theta: s.wall_time for s in slices},
        "warnings": warnings,
        "margins_u_max": max(margins.u_node.values(), default=0.0),
    }
    return assemble_tube(slices, model, mode=config.mode,
                         diagnostics=diagnostics)


# -- tube queries -------------------------------------------------------------


def _bracket(tube: FlexTube, theta: float):
    """Neighbouring sampled directions around theta (with wraparound)."""
    thetas = tube.directions
    two_pi = 2 * math.pi
    theta = theta % two_pi
    for k, th in enumerate(thetas):
        if abs(th - theta) <= 1e-12:
            return k, k, 0.0
    hi = int(np.searchsorted(thetas, theta))
    lo = hi - 1
    if hi == len(thetas):
        hi = 0
        span = two_pi - thetas[lo] + thetas[0]
        frac = (theta - thetas[lo]) / span
    elif hi == 0:
        lo = len(thetas) - 1
        span = two_pi - thetas[lo] + thetas[0]
        frac = (theta + two_pi - thetas[lo]) / span
    else:
        span = thetas[hi] - thetas[lo]
        frac = (theta - thetas[lo]) / span
    return lo, hi, float(frac)


def query_point(tube: FlexTube, theta: float, t: float):
    """(P0, Q0) of the tube skin at direction theta and time t.

    Exactly sampled directions return the slice point; directions in
    between return the affine combination of the two neighbouring slices.
    Returns None (a gap) when a needed neighbour is infeasible.
    """
    if not tube.t1 - 1e-9 <= t <= tube.t2 + 1e-9:
        raise ValueError(f"time {t} outside horizon [{tube.t1}, {tube.t2}]")
    lo, hi, frac = _bracket(tube, theta)

    def point(k):
        r = tube.radius(k, t)
        if r is None:
            return None
        th = tube.slices[k].theta
        return np.array([r * math.cos(th), r * math.sin(th)])

    if lo == hi:
        p = point(lo)
        return None if p is None else (float(p[0]), float(p[1]))
    a, b = point(lo), point(hi)
    if a is None or b is None:
        return None
    p = (1.0 - frac) * a + frac * b
    return (float(p[0]), float(p[1]))


def match_direction(thetas: np.ndarray, theta: float) -> int | None:
    """Index of the sampled direction within 1e-9 of theta (taken modulo
    2 pi), or None when theta was not sampled."""
    match = np.where(np.abs(thetas - (theta % (2 * math.pi))) <= 1e-9)[0]
    return int(match[0]) if len(match) else None


def metric_M(tube: FlexTube, theta_set=None) -> float:
    """Aggregate flexibility: sum of coefficient sums of S0 over the chosen
    directions and all periods; infeasible directions contribute zero."""
    theta_set = DEFAULT_THETA_SET if theta_set is None else tuple(theta_set)
    thetas = tube.directions
    total = 0.0
    for th in theta_set:
        k = match_direction(thetas, th)
        if k is None:
            raise ValueError(
                f"direction {th} is not among the sampled directions")
        s = tube.slices[k]
        if s.feasible:
            total += float(np.sum(s.coeffs))
    return total


def penetration_metrics(model: NetworkModel,
                        fitted: FittedProfiles | None = None):
    """PV penetration K1 and ESS capacity ratio K2 over the fitted
    forecast coefficients."""
    fitted = fitted or fit_profiles(model)
    load_sum = float(sum(np.sum(c) for c in fitted.load))
    pv_sum = float(sum(np.sum(c) for c in fitted.pv))
    if not model.loads or load_sum <= 0.0:
        raise ValueError("K1 undefined: model has no (nonzero) load")
    k1 = pv_sum / load_sum
    if not model.ess_devices:
        return k1, 0.0
    if pv_sum <= 0.0:
        raise ValueError("K2 undefined without PV generation")
    rating = sum(max(e.p_d, e.p_c) for e in model.ess_devices)
    k2 = 4.0 * model.horizon.n_periods * rating / pv_sum
    return k1, k2


# -- Monte Carlo validation ----------------------------------------------------


def monte_carlo_validate(assembled: AssembledProblem, values,
                         n_samples: int = 100_000, seed: int = 0,
                         tight_tol: float = 1e-6) -> dict:
    """Empirical violation rates of the original (untightened) voltage and
    forecast-cap rows under sampled offsets.

    The dependent variables are re-solved per period at the solved device
    selections (capacitor step, OLTC tap, regulator ratio); scheduled PV
    reactive output is held.  Rows whose tightened surrogate is active at
    the solution are flagged tight; their rate is the quantity the
    chance reformulation promises to keep at or below alpha.
    """
    model = assembled.model
    values = np.asarray(values, dtype=float)
    reports = []
    for m in assembled.periods:
        layout = assembled.layouts[m]
        cap_steps = {}
        for ci, cap in enumerate(model.cap_banks):
            lam = values[np.asarray(layout.lam_cap[ci])]
            cap_steps[ci] = cap.steps[int(np.argmax(lam))]
        oltc_a2 = {}
        reg_ratio2 = {}
        for bi, br in enumerate(model.branches):
            if br.kind == "oltc":
                lam = values[np.asarray(layout.lam_oltc[bi])]
                oltc_a2[bi] = br.taps[int(np.argmax(lam))] ** 2
            elif br.kind == "regulator":
                u_reg = values[np.asarray(layout.u_reg[bi])]
                u_child = values[np.asarray(layout.u[br.to_node])]
                reg_ratio2[bi] = float(np.mean(u_reg) / np.mean(u_child))
        system = scalar_response_system(
            model, cap_steps=cap_steps, oltc_a2=oltc_a2,
            reg_ratio2=reg_ratio2)
        n_src = system.f.shape[1]
        if n_src == 0:
            continue
        y_response = chance.propagate(system.b, system.f)

        rows, lhs, owners = [], [], []

        def add_row(name, lhs_val, g, rhs, margin):
            rows.append(chance.UncertainRow(np.asarray(g, dtype=float),
                                            float(rhs), name))
            lhs.append(float(lhs_val))
            owners.append((name, float(margin),
                           float(rhs - margin - lhs_val)))

        for node, ids in layout.u.items():
            sens = y_response[system.u_index[node]]
            margin = assembled.margins.for_node(node)
            for k, vid in enumerate(ids):
                val = values[vid]
                add_row(f"m{m}_u{node}_up{k}", val, sens, model.u_max, margin)
                add_row(f"m{m}_u{node}_lo{k}", -val, -sens, -model.u_min,
                        margin)
        for pi in range(len(model.pv_units)):
            g = np.zeros(n_src)
            g[pi] = -1.0
            margin = assembled.margins.for_pv(pi)
            fc = assembled.fitted.pv[pi][m]
            for k, vid in enumerate(layout.p_pv[pi]):
                add_row(f"m{m}_pv{pi}_cap{k}", values[vid], g, fc[k], margin)

        rates = chance.monte_carlo_check(lhs, rows, system.sigma2,
                                         n_samples=n_samples, seed=seed)
        for (name, margin, slack), rate in zip(owners, rates):
            reports.append({
                "row": name, "rate": float(rate), "margin": margin,
                "slack": float(slack), "tight": slack <= tight_tol,
            })
    tight = [r for r in reports if r["tight"] and r["margin"] > 0.0]
    return {
        "rows": reports,
        "n_tight": len(tight),
        "max_rate": max((r["rate"] for r in reports), default=0.0),
        "max_rate_tight": max((r["rate"] for r in tight), default=0.0),
        "alpha": model.alpha,
    }


# -- serialization --------------------------------------------------------------


def tube_to_csv(tube: FlexTube, fp):
    """One row per (direction, period, coefficient); DT tubes emit their
    single per-period coefficient.  Byte-stable for fixed inputs."""
    w = csv.writer(fp)
    w.writerow(["theta", "period", "coef_index", "value", "status"])
    for s in tube.slices:
        if not s.feasible:
            w.writerow([repr(s.theta), "", "", "", s.status])
            continue
        for m in range(tube.n_periods):
            for k in range(s.coeffs.shape[1]):
                w.writerow([repr(s.theta), m, k, repr(float(s.coeffs[m][k])),
                            s.status])


def tube_from_csv(path: str, horizon: dict, mode: str = "ct") -> FlexTube:
    """Rebuild a tube from its CSV plus the horizon block of the summary.

    Raises ValueError unless every optimal slice has exactly the periods
    and coefficients that the horizon and the mode declare.
    """
    per_theta: dict = {}
    status: dict = {}
    with open(path, newline="") as fp:
        reader = csv.DictReader(fp)
        for row in reader:
            th = float(row["theta"])
            status[th] = row["status"]
            if row["status"] != "optimal":
                per_theta.setdefault(th, None)
                continue
            per_theta.setdefault(th, {})[(int(row["period"]),
                                          int(row["coef_index"]))] = \
                float(row["value"])
    n_periods = int(horizon["n_periods"])
    n_coef = N_COEF_BY_MODE[mode]
    slices = []
    for th in sorted(per_theta):
        cells = per_theta[th]
        if cells is None:
            slices.append(Slice(th, status[th], None, None))
            continue
        if set(cells) != set(np.ndindex(n_periods, n_coef)):
            raise ValueError(
                f"{path}: theta {th!r} does not fill exactly the "
                f"{n_periods} x {n_coef} period x coefficient grid ({mode}) "
                "that the summary declares")
        coeffs = np.zeros((n_periods, n_coef))
        for (m, k), v in cells.items():
            coeffs[m, k] = v
        slices.append(Slice(th, "optimal", coeffs, _objective(
            coeffs, float(horizon["period"]), n_coef)))
    return FlexTube(tuple(slices), float(horizon["t1"]),
                    float(horizon["period"]), n_periods, mode=mode)


def dense_grid_csv(tube: FlexTube, fp, n_theta: int = 96, n_t: int = 33):
    """(theta, t, P, Q) grid for external charting; gaps are skipped.

    Row for row the same as ``query_point`` at each (theta, t), with each
    slice's trajectory evaluated once over the grid times and each theta
    bracketed once.
    """
    times = np.linspace(tube.t1, tube.t2, n_t)
    # per slice: (P, Q) skin points at every grid time, None in a gap
    skins = []
    for k, s in enumerate(tube.slices):
        traj = tube.trajectory(k)
        if traj is None:
            skins.append(None)
            continue
        cos_th, sin_th = math.cos(s.theta), math.sin(s.theta)
        skins.append([(r * cos_th, r * sin_th)
                      for r in traj.evaluate(times).tolist()])
    times = times.tolist()
    w = csv.writer(fp)
    w.writerow(["theta", "t", "p", "q"])
    for th in np.linspace(0.0, 2 * math.pi, n_theta, endpoint=False).tolist():
        lo, hi, frac = _bracket(tube, th)
        a, b = skins[lo], skins[hi]
        if a is None or b is None:
            continue
        for t, (pa, qa), (pb, qb) in zip(times, a, b):
            if lo == hi:
                p, q = pa, qa
            else:
                p = (1.0 - frac) * pa + frac * pb
                q = (1.0 - frac) * qa + frac * qb
            w.writerow([repr(th), repr(t), repr(p), repr(q)])
