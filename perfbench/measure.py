"""One measured part of a benchmark run, in a fresh interpreter.

    python3 perfbench/measure.py {setup,run,trace} --workload W --seed N \
        --seconds S --work DIR --result FILE [--spans FILE] [--budget B]

``setup`` times the imports and the loading of the workload's input files,
and nothing else.  ``run`` repeats the workload's timed unit, untraced, as
often as fits in S seconds (at least once), and checks every output.
``trace`` runs the unit once with one worker, so that the program's own
serial path runs with a span around each call into a layer's public
functions, and derives the per-layer metrics from the spans; then it runs
one pooled unit as ``run`` does, as the untraced reference.  With
``--budget B``, a unit still running B seconds after start is stopped and
counted as failed, and the part reports what it measured.

The result is written as JSON to FILE.  While a unit runs, file descriptor 1
(which forked pool workers inherit) points at a capture file, so native
solver output never reaches the benchmark's report; its lines are counted.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import io
import itertools
import json
import multiprocessing
import os
import resource
import signal
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

import check
from spans import Tracer, descendants, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODEL = os.path.join(ROOT, "instances", "twelve_node.json")
TUBE = os.path.join(HERE, "data", "ct12_tube.csv")
SUMMARY = os.path.join(HERE, "data", "ct12_summary.json")
REFERENCE = os.path.join(HERE, "reference.json")

DIRECTIONS = 12                      # ct12: K = 12, i.e. 24 direction solves
SWEEP_CELLS = [(alpha, sop, ess) for alpha in (0.01, 0.1)
               for sop in (True, False) for ess in (True, False)]
SWEEP_DIRECTIONS = 3                 # sweep-dt: 6 direction solves per cell
BOX_TIMES = 33                       # pqbox: one box per time, per unit
EDGE_SAMPLES = 8
CT12_CELL = "K=12"

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("netmodel", "chance", "blocks", "milp", "engine", "pqbox", "cli",
          "bench")
PER_LAYER = {
    "milp.solve_s": "s", "milp.solve_p50_s": "s", "milp.solve_max_s": "s",
    "milp.solves": "count", "milp.infeasible": "count",
    "blocks.build_s": "s", "milp.lower_s": "s",
    "blocks.vars": "count", "blocks.rows": "count",
    "blocks.binaries": "count", "blocks.nnz": "count",
    "milp.lowered_vars": "count", "milp.lowered_rows": "count",
    "chance.margins_s": "s", "blocks.fit_s": "s", "netmodel.load_s": "s",
    "engine.slice_sum_s": "s", "engine.pool_busy": "frac",
    "pqbox.section_s": "s", "pqbox.initial_point_s": "s",
    "pqbox.expand_s": "s", "pqbox.oracle_calls": "count",
    "pqbox.rounds": "count", "engine.query_s": "s", "engine.tube_io_s": "s",
    "milp.check_s": "s", "milp.check_violations": "count",
    "blocks.ct_check_s": "s", "blocks.ct_violations": "count",
    "milp.native_warnings": "count", "trace.overhead_frac": "frac",
    "trace.wall_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
}


# -- set-up ------------------------------------------------------------------------


def setup(workload: str) -> SimpleNamespace:
    """Import the program and load the workload's inputs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import scipy
    from ctflex import blocks, cli, engine, instances, milp, netmodel, pqbox

    ctx = SimpleNamespace(
        np=numpy, blocks=blocks, cli=cli, engine=engine, instances=instances,
        milp=milp, netmodel=netmodel, pqbox=pqbox,
        workers=os.cpu_count() or 1,
        versions={"python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__},
    )
    if workload == "ct12":
        netmodel.load_model(MODEL)       # the CLI loads it again, timed
    elif workload == "pqbox":
        with open(SUMMARY) as fp:
            ctx.horizon = json.load(fp)["horizon"]
        ctx.tube = engine.tube_from_csv(TUBE, ctx.horizon)
        ctx.times = box_times(ctx.horizon)
    return ctx


def box_times(horizon: dict) -> list:
    """The midpoints of BOX_TIMES equal slices of the horizon.  A box's
    cost varies chaotically with its time (24 to 1200 rounds; coefficient
    of variation 1.5), so times drawn from a seed would make a run's work
    a property of the draw."""
    t1 = float(horizon["t1"])
    width = float(horizon["period"]) * int(horizon["n_periods"]) / BOX_TIMES
    return [t1 + (i + 0.5) * width for i in range(BOX_TIMES)]


# -- the timed units ---------------------------------------------------------------


def unit_ct12(ctx, out: str, workers: int):
    return ctx.cli.main(["assess", MODEL, "--directions", str(DIRECTIONS),
                         "--workers", str(workers), "--out", out])


def sweep_key(alpha, sop, ess) -> str:
    return f"alpha={alpha} sop={int(sop)} ess={int(ess)}"


def cell(tube, m_value) -> dict:
    return {"directions": {repr(s.theta): [s.status, s.objective]
                           for s in tube.slices},
            "M": m_value, "gaps": len(tube.gaps)}


def unit_sweep(ctx, out: str, workers: int):
    engine = ctx.engine
    cells = {}
    for alpha, sop, ess in SWEEP_CELLS:
        model = ctx.instances.twelve_node(sop=sop, ess=ess, alpha=alpha)
        tube = engine.assess(model, engine.AssessmentConfig(
            directions=SWEEP_DIRECTIONS, mode="dt", workers=workers))
        engine.penetration_metrics(model)
        cells[sweep_key(alpha, sop, ess)] = cell(tube, engine.metric_M(tube))
    return cells


def unit_pqbox(ctx, out: str, workers: int):
    codes = [ctx.cli.main(["pqbox", "builtin:twelve-node", "--tube", TUBE,
                           "--summary", SUMMARY, "--time", repr(t),
                           "--edge-samples", str(EDGE_SAMPLES),
                           "--out", os.path.join(out, f"box{i}")])
             for i, t in enumerate(ctx.times)]
    with open(os.path.join(out, "grid.csv"), "w", newline="") as fp:
        ctx.engine.dense_grid_csv(ctx.tube, fp)
    return codes


UNITS = {"ct12": unit_ct12, "sweep-dt": unit_sweep, "pqbox": unit_pqbox}


# -- output checks -----------------------------------------------------------------


def operations(workload: str, reference: dict) -> int:
    """Direction solves per unit; for pqbox, boxes plus the dense grid."""
    if workload == "pqbox":
        return BOX_TIMES + 1
    return sum(len(c["directions"]) for c in reference[workload].values())


def verify_cells(want: dict, got: dict) -> list:
    out = []
    for key, ref in want.items():
        if key not in got:
            out += [f"{key}: missing"] * len(ref["directions"])
            continue
        out += [f"{key}: {m}" for m in
                check.compare_directions(ref["directions"],
                                         got[key]["directions"])]
        out += [f"{key}: {m}" for m in check.compare_cell(ref, got[key])]
    return out


def verify_boxes(ctx, boxes: list, grid_path: str) -> list:
    tube = check.read_tube(TUBE, ctx.horizon)
    out = []
    for t, box in zip(ctx.times, boxes):
        if box is None:
            out.append(f"t={t!r}: no box")
            continue
        section = check.Section(tube, ctx.horizon, t)
        bad = check.box_violations(section, box, 1e-4 * section.scale,
                                   EDGE_SAMPLES)
        if box["t0"] != t:
            bad.insert(0, f"box for t0={box['t0']!r}")
        if bad:
            out.append(f"t={t!r}: {bad[0]} ({len(bad)} findings)")
    with open(grid_path, newline="") as fp:
        rows = list(csv.DictReader(fp))
    bad = check.grid_violations(rows, tube, ctx.horizon)
    if bad:
        out.append(f"dense grid: {bad[0]} ({len(bad)} findings)")
    return out


def verify(workload: str, ctx, out: str, result, reference: dict) -> list:
    """Mismatches of one untraced unit's outputs; ``result`` is what the
    unit returned."""
    if workload == "ct12":
        if result != 0:
            return [f"assess exit code {result}"] * operations(workload,
                                                               reference)
        with open(os.path.join(out, "summary.json")) as fp:
            summary = json.load(fp)
        tube = check.read_tube(os.path.join(out, "tube.csv"),
                               summary["horizon"])
        got = {"directions": check.tube_objectives(tube, summary["horizon"]),
               "M": summary["M"], "gaps": len(summary["gaps"])}
        return verify_cells(reference["ct12"], {CT12_CELL: got})
    if workload == "sweep-dt":
        return verify_cells(reference["sweep-dt"], result)
    boxes = []
    for i, code in enumerate(result):
        path = os.path.join(out, f"box{i}", "box.json")
        box = None
        if code == 0 and os.path.exists(path):
            with open(path) as fp:
                box = json.load(fp)
        boxes.append(box)
    return verify_boxes(ctx, boxes, os.path.join(out, "grid.csv"))


# -- measurement plumbing ----------------------------------------------------------


@contextlib.contextmanager
def native_stdout(path: str):
    """Point fd 1 at ``path`` (appending, so forked workers can share it)
    and Python's ``sys.stdout`` at a sink, for the duration."""
    sys.stdout.flush()
    saved = os.dup(1)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 1)
    os.close(fd)
    py_stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        yield
    finally:
        ctypes.CDLL(None).fflush(None)   # C stdio buffers of native code
        sys.stdout = py_stdout
        os.dup2(saved, 1)
        os.close(saved)


def count_lines(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, errors="replace") as fp:
        return sum(1 for line in fp if line.strip())


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


class OutOfTime(Exception):
    """The run's time budget is spent."""


budget_spent = False


def start_budget(seconds: float):
    """Raise OutOfTime in the main thread once ``seconds`` have passed,
    after killing any pool workers, so that the unit in progress ends at
    once and the run still reports what it measured."""
    def expire(signum, frame):
        global budget_spent
        budget_spent = True
        for child in multiprocessing.active_children():
            child.kill()
        raise OutOfTime(f"time budget of {seconds:.0f} s spent")
    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.1))


def stop_budget():
    signal.setitimer(signal.ITIMER_REAL, 0)


def run_unit(workload: str, ctx, work: str, reference: dict):
    """One timed unit: returns (wall, cpu, mismatches, raised)."""
    out = tempfile.mkdtemp(prefix="unit-", dir=work)
    try:
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        try:
            result = UNITS[workload](ctx, out, ctx.workers)
            wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
            return wall, cpu, verify(workload, ctx, out, result,
                                     reference), False
        except Exception:
            wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
            return wall, cpu, [traceback.format_exc()] * operations(
                workload, reference), True
    finally:
        shutil.rmtree(out, ignore_errors=True)


def role_run(workload: str, ctx, args, reference: dict) -> dict:
    walls, cpus, mismatches = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    native = os.path.join(args.work, "native.txt")
    with native_stdout(native):
        while True:
            wall, cpu, bad, raised = run_unit(workload, ctx, args.work,
                                              reference)
            walls.append(wall)
            cpus.append(cpu)
            n = operations(workload, reference)
            attempted += n
            failed += min(n, len(bad))
            mismatches += bad
            # stop after a unit that raised, or before one that would end
            # past the run's length
            if raised or time.perf_counter() - start + wall > args.seconds:
                break
    stop_budget()
    return {
        "attempted": attempted, "failed": failed,
        "mismatches": mismatches[:20],
        "units": len(walls), "unit_wall_s": walls, "unit_cpu_s": cpus,
        "metrics": {"wall_s": statistics.median(walls),
                    "cpu_s": statistics.median(cpus),
                    "peak_rss_mb": peak_rss_mb()},
        "native_lines": count_lines(native),
    }


# -- the traced run ----------------------------------------------------------------


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Replace ``owner.attr`` by ``make(original)`` for the duration."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def spanned(tr: Tracer, owner, attr: str, name: str, trace_id=None,
            after=None):
    """Open a span around every call of ``owner.attr`` for the duration.
    ``trace_id(*args, **kwargs)`` names the operation that a call starts
    (by default the call belongs to its caller's); ``after(value, *args,
    **kwargs)`` sees each call's return value and arguments."""
    def make(original):
        @functools.wraps(original)
        def wrapper(*a, **kw):
            with tr.span(name, trace_id(*a, **kw) if trace_id else None):
                value = original(*a, **kw)
            if after is not None:
                after(value, *a, **kw)
            return value
        return wrapper
    return patched(owner, attr, make)


def counted_expand(pqbox, stats: dict):
    """A stand-in maker for ``pqbox.expand_box`` that counts the membership
    tests of its oracle and the rounds it reports."""
    def make(original):
        def expand_box(oracle, *a, **kw):
            def contains(p, q):
                stats["oracle_calls"] += 1
                return oracle.contains(p, q)
            box = original(pqbox.FunctionOracle(contains), *a, **kw)
            stats["rounds"] += box.iterations
            return box
        return expand_box
    return make


def layer_hooks(ctx, tr: Tracer, stats: dict, solved: list) -> list:
    """Spans around the layers' public calls while the program's own serial
    path runs.  Each ``engine.solve_assembled`` call is kept in ``solved``
    as (trace id, assembled problem, solution) for the post-solve checks."""
    engine, milp, pqbox = ctx.engine, ctx.milp, ctx.pqbox
    count = itertools.count()

    def on_assembled(sol, assembled, *a, **kw):
        solved.append((tr.trace_id(), assembled, sol))

    def on_backend(sol, backend, problem, *a, **kw):
        stats["lowered_vars"].append(problem.n_variables)
        stats["lowered_rows"].append(problem.n_constraints)

    return [
        spanned(tr, ctx.cli, "main", "cli.main",
                lambda argv: f"{argv[0]}{next(count)}"),
        spanned(tr, ctx.cli, "load_model", "netmodel.load"),
        spanned(tr, ctx.instances, "twelve_node", "netmodel.load"),
        spanned(tr, engine, "assess", "engine.assess"),
        spanned(tr, engine, "compute_margins", "chance.margins"),
        spanned(tr, engine, "fit_profiles", "blocks.fit"),
        spanned(tr, engine, "solve_slice", "engine.solve_slice",
                lambda model, theta, *a, **kw: f"slice{next(count)}@{theta!r}"),
        spanned(tr, engine, "build_subproblem", "blocks.build"),
        spanned(tr, engine, "solve_assembled", "engine.solve_assembled",
                after=on_assembled),
        spanned(tr, milp, "sos_fallback", "milp.lower"),
        spanned(tr, milp.ScipyHighsBackend, "solve", "milp.solve",
                after=on_backend),
        spanned(tr, engine, "tube_to_csv", "engine.tube_io"),
        spanned(tr, engine, "tube_from_csv", "engine.tube_io"),
        spanned(tr, engine, "metric_M", "engine.metric_M"),
        spanned(tr, engine, "penetration_metrics", "engine.penetration"),
        spanned(tr, engine, "dense_grid_csv", "engine.query"),
        spanned(tr, pqbox, "cross_section", "pqbox.section"),
        spanned(tr, pqbox, "initial_point", "pqbox.initial_point"),
        patched(pqbox, "expand_box", counted_expand(pqbox, stats)),
        spanned(tr, pqbox, "expand_box", "pqbox.expand"),
    ]


def lp_counts(milp, problem) -> tuple:
    """(binaries, nonzeros) of a problem, read from its public LP dump."""
    buf = io.StringIO()
    milp.write_lp(problem, buf)
    section, binaries, nnz = None, 0, 0
    for line in buf.getvalue().splitlines():
        if not line.startswith(" "):
            section = line.strip()
        elif section == "Subject To":
            nnz += (len(line.split()) - 3) // 3   # name: (sign coef var)* op rhs
        elif section == "Binaries":
            binaries += 1
    return binaries, nnz


def post_solve(ctx, tr: Tracer, stats: dict, solved: list):
    """Sizes of every solved subproblem, and the post-solve checks that the
    production path does not run, on every optimal solution."""
    for trace_id, assembled, sol in solved:
        problem = assembled.problem
        stats["infeasible"] += sol.status in ("infeasible", "unbounded")
        with tr.span("bench.sizes", trace_id):
            binaries, nnz = lp_counts(ctx.milp, problem)
        for key, value in (("vars", problem.n_variables),
                           ("rows", problem.n_constraints),
                           ("binaries", binaries), ("nnz", nnz)):
            stats[key].append(value)
        if sol.status != "optimal":
            continue
        with tr.span("milp.check", trace_id):
            stats["check_violations"] += len(
                problem.check_solution(sol.values))
        with tr.span("blocks.ct_check", trace_id):
            report = ctx.blocks.continuous_time_check(assembled, sol.values)
        stats["ct_violations"] += len(report["violations"]) or \
            int(not report["ok"])


def role_trace(workload: str, ctx, args, reference: dict) -> dict:
    """The workload's unit once serially under span hooks, then once as
    ``run`` does it, with spans only around ``cli.main`` and
    ``engine.assess``, as the untraced reference."""
    tr = Tracer()
    stats = {"infeasible": 0, "check_violations": 0, "ct_violations": 0,
             "oracle_calls": 0, "rounds": 0,
             **{key: [] for key in ("vars", "rows", "binaries", "nnz",
                                    "lowered_vars", "lowered_rows")}}
    solved, tubes = [], []
    n = operations(workload, reference)
    failed, mismatches = 0, []
    native = os.path.join(args.work, "native.txt")

    def checked(workers: int, hooks: list, then=None):
        """Run one unit under ``hooks``, then ``then()``; check the outputs."""
        nonlocal failed
        if budget_spent:
            failed += n
            mismatches.append("unit skipped: the time budget is spent")
            return
        out = tempfile.mkdtemp(prefix="unit-", dir=args.work)
        try:
            with contextlib.ExitStack() as stack:
                for hook in hooks:
                    stack.enter_context(hook)
                result = UNITS[workload](ctx, out, workers)
            if then is not None:
                then()
            bad = verify(workload, ctx, out, result, reference)
        except Exception:
            bad = [traceback.format_exc()] * n
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failed += min(n, len(bad))
        mismatches.extend(bad)

    with native_stdout(native):
        with tr.span("bench.traced", "traced") as traced:
            checked(1, layer_hooks(ctx, tr, stats, solved),
                    lambda: post_solve(ctx, tr, stats, solved))
        with tr.span("bench.pooled", "pooled") as pooled:
            checked(ctx.workers, [
                spanned(tr, ctx.cli, "main", "cli.main"),
                spanned(tr, ctx.engine, "assess", "engine.assess",
                        after=lambda tube, *a, **kw: tubes.append(tube))])
    stop_budget()

    spans = tr.spans
    selfs = self_times(spans)
    index = {id(s): i for i, s in enumerate(spans)}
    in_traced = descendants(spans, index[id(traced)])
    in_pooled = descendants(spans, index[id(pooled)])

    def total(name, among=in_traced):
        return sum(spans[i].duration for i in among if spans[i].name == name)

    solves = [spans[i].duration for i in in_traced
              if spans[i].name == "milp.solve"]
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in ("milp.solve", "blocks.build", "milp.lower", "chance.margins",
                 "blocks.fit", "netmodel.load", "pqbox.section",
                 "pqbox.initial_point", "pqbox.expand", "engine.query",
                 "engine.tube_io", "milp.check", "blocks.ct_check"):
        metrics[f"{name}_s"] = total(name)
    metrics.update({
        "milp.solves": len(solves),
        "milp.solve_p50_s": statistics.median(solves) if solves else 0.0,
        "milp.solve_max_s": max(solves, default=0.0),
        "milp.infeasible": stats["infeasible"],
        "milp.check_violations": stats["check_violations"],
        "blocks.ct_violations": stats["ct_violations"],
        "pqbox.oracle_calls": stats["oracle_calls"],
        "pqbox.rounds": stats["rounds"],
        "milp.native_warnings": count_lines(native),
        "trace.wall_s": traced.duration,
    })
    for key, prefix in (("vars", "blocks"), ("rows", "blocks"),
                        ("binaries", "blocks"), ("nnz", "blocks"),
                        ("lowered_vars", "milp"), ("lowered_rows", "milp")):
        if stats[key]:
            metrics[f"{prefix}.{key}"] = statistics.mean(stats[key])
    for i in in_traced:
        metrics[f"self.{spans[i].layer}_s"] += selfs[i]

    if workload == "pqbox":
        untraced = total("cli.main", in_pooled)
        traced_total = total("cli.main")
    else:
        assess_wall = sum(t.diagnostics["wall_time"] for t in tubes)
        untraced = sum(sum(t.diagnostics["slice_wall_times"].values())
                       for t in tubes)
        metrics["engine.slice_sum_s"] = untraced
        if assess_wall > 0:
            metrics["engine.pool_busy"] = untraced / (ctx.workers *
                                                      assess_wall)
        traced_total = total("engine.solve_slice")
    if untraced > 0:
        metrics["trace.overhead_frac"] = traced_total / untraced - 1.0

    if args.spans:
        with open(args.spans, "w") as fp:
            json.dump({"workload": workload, "seed": args.seed,
                       "spans": tr.as_records(), "self_s": selfs,
                       "metrics": metrics}, fp, indent=1)
    return {"attempted": 2 * n, "failed": failed,
            "mismatches": mismatches[:20], "metrics": metrics}


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", choices=sorted(UNITS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--budget", type=float, default=None,
                        help="seconds after which a unit in progress is "
                             "stopped and counted as failed")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    ctx = setup(args.workload)
    result = {"setup_s": time.perf_counter() - start,
              "versions": ctx.versions, "cpu_count": os.cpu_count()}
    if args.role != "setup":
        with open(REFERENCE) as fp:
            reference = json.load(fp)
        role = role_run if args.role == "run" else role_trace
        if args.budget is not None:
            start_budget(args.budget - (time.perf_counter() - start))
        result.update(role(args.workload, ctx, args, reference))
    with open(args.result, "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
