"""Tests of the benchmark's own logic: the output checks, the independent
section oracle, self times, the span hooks and the time budget, and
the metric names in BENCHMARK.json.

    python3 -m pytest perfbench/test_bench.py
"""

import contextlib
import json
import math
import os
import random
import sys
from types import SimpleNamespace

import pytest

import check
import measure
from spans import Span, Tracer, self_times

sys.path.insert(0, os.path.join(measure.ROOT, "src"))

HORIZON = {"t1": 0.0, "period": 900.0, "n_periods": 1}


def diamond_tube(radius=1.0):
    """Four feasible directions at radius 1: the section is |p|+|q| <= 1."""
    return {repr(k * math.pi / 2): ("optimal", [[radius] * 4])
            for k in range(4)}


# -- direction and cell checks ----------------------------------------------------


REF = {"0.0": ["optimal", 3474.9579500657014],
       "1.5707963267948966": ["infeasible", None]}


def test_matching_directions_pass():
    got = {"0.0": ["optimal", 3474.9579500657014 * (1 + 1e-7)],
           "1.5707963267948966": ["infeasible", None]}
    assert check.compare_directions(REF, got) == []


def test_perturbed_objective_flagged():
    got = {"0.0": ["optimal", 3474.9579500657014 * (1 + 1e-5)],
           "1.5707963267948966": ["infeasible", None]}
    assert len(check.compare_directions(REF, got)) == 1


@pytest.mark.parametrize("key,flipped", [
    ("0.0", ["infeasible", None]),
    ("1.5707963267948966", ["optimal", 12.0]),
])
def test_flipped_status_flagged(key, flipped):
    got = {k: list(v) for k, v in REF.items()}
    got[key] = flipped
    bad = check.compare_directions(REF, got)
    assert len(bad) == 1 and "status" in bad[0]


def test_missing_and_extra_directions_flagged():
    got = {"0.0": REF["0.0"], "3.0": ["optimal", 1.0]}
    assert len(check.compare_directions(REF, got)) == 2


def test_cell_m_and_gap_count_flagged():
    ref = {"M": 53.28841139121712, "gaps": 3}
    assert check.compare_cell(ref, dict(ref)) == []
    assert len(check.compare_cell(ref, {"M": 53.3, "gaps": 3})) == 1
    assert len(check.compare_cell(ref, {"M": ref["M"], "gaps": 2})) == 1


# -- box and grid checks ----------------------------------------------------------


def test_maximal_box_passes():
    section = check.Section(diamond_tube(), HORIZON, 450.0)
    box = {"P1": 0.5, "P2": -0.5, "Q1": 0.5, "Q2": -0.5, "t0": 450.0}
    assert check.box_violations(section, box, 1e-4, edge_samples=8) == []


def test_corner_outside_section_flagged():
    section = check.Section(diamond_tube(), HORIZON, 450.0)
    box = {"P1": 0.6, "P2": -0.5, "Q1": 0.5, "Q2": -0.5, "t0": 450.0}
    bad = check.box_violations(section, box, 1e-4, edge_samples=0)
    assert any("(0.6, 0.5) outside" in b for b in bad)


def test_box_that_can_grow_flagged():
    section = check.Section(diamond_tube(), HORIZON, 450.0)
    box = {"P1": 0.4, "P2": -0.5, "Q1": 0.5, "Q2": -0.5, "t0": 450.0}
    bad = check.box_violations(section, box, 1e-4, edge_samples=0)
    assert bad == ["side P1 can still grow by 10 eps"]


def test_gap_direction_excluded():
    tube = diamond_tube()
    tube[repr(math.pi)] = ("infeasible", None)
    section = check.Section(tube, HORIZON, 450.0)
    assert section.contains(0.3, 0.3)
    assert not section.contains(-0.3, 0.3)
    assert not section.contains(-0.3, 0.0)


def test_section_matches_program_oracle():
    engine = pytest.importorskip("ctflex.engine")
    pqbox = pytest.importorskip("ctflex.pqbox")
    with open(measure.SUMMARY) as fp:
        horizon = json.load(fp)["horizon"]
    tube = engine.tube_from_csv(measure.TUBE, horizon)
    mine = check.read_tube(measure.TUBE, horizon)
    rng = random.Random(7)
    for t in (0.0, 900.0, 1234.5, 3600.0):
        theirs, ours = pqbox.cross_section(tube, t), \
            check.Section(mine, horizon, t)
        for _ in range(500):
            p, q = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            assert theirs.contains(p, q) == ours.contains(p, q), (t, p, q)


def test_grid_point_moved_or_dropped_flagged():
    tube = diamond_tube()
    rows = []
    for k in range(8):
        theta = 2 * math.pi * k / 8
        for j in range(3):
            t = 450.0 * j
            p, q = check.Section(tube, HORIZON, t).query(theta)
            rows.append({"theta": repr(theta), "t": repr(t),
                         "p": repr(p), "q": repr(q)})
    assert check.grid_violations(rows, tube, HORIZON, n_theta=8, n_t=3) == []
    moved = [dict(r) for r in rows]
    moved[3]["q"] = repr(float(moved[3]["q"]) + 1e-3)
    assert len(check.grid_violations(moved, tube, HORIZON, 8, 3)) == 1
    assert check.grid_violations(rows[1:], tube, HORIZON, 8, 3) == \
        ["23 grid rows, want 24"]


# -- spans and self times ---------------------------------------------------------


def test_self_time_on_hand_built_tree():
    spans = [
        Span("bench.root", 0.0, 10.0, None, "t"),
        Span("blocks.a", 1.0, 4.0, 0, "t"),
        Span("milp.b", 3.0, 6.0, 0, "t"),     # overlaps a
        Span("milp.c", 2.0, 3.0, 1, "t"),     # child of a
        Span("engine.d", 9.0, 12.0, 0, "t"),  # outlasts the root
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_serial_self_times_sum_to_root():
    tr = Tracer()
    with tr.span("bench.root", "run"):
        with tr.span("blocks.build"):
            with tr.span("milp.lower"):
                pass
        with tr.span("milp.solve", "direction-1") as solve:
            pass
    assert solve.trace_id == "direction-1"
    assert tr.spans[2].trace_id == "run" and tr.spans[2].parent == 1
    assert sum(self_times(tr.spans)) == pytest.approx(tr.spans[0].duration)


def test_spanned_hook_records_and_restores():
    def double(x):
        return 2 * x

    Owner = SimpleNamespace(double=double)
    tr, seen = Tracer(), []
    with tr.span("bench.root", "run"):
        with measure.spanned(tr, Owner, "double", "milp.double",
                             trace_id=lambda x: f"x={x}",
                             after=lambda value, x: seen.append((x, value))):
            assert Owner.double(3) == 6
    assert Owner.double is double and seen == [(3, 6)]
    assert [(s.name, s.parent, s.trace_id) for s in tr.spans] == \
        [("bench.root", None, "run"), ("milp.double", 0, "x=3")]


def test_layer_hooks_span_calls_and_put_every_original_back():
    ctx = measure.setup("pqbox")
    owners = (ctx.cli, ctx.instances, ctx.engine, ctx.milp, ctx.pqbox,
              ctx.milp.ScipyHighsBackend)
    before = [dict(vars(owner)) for owner in owners]
    tr, stats = Tracer(), {"oracle_calls": 0, "rounds": 0}
    with contextlib.ExitStack() as stack:
        for hook in measure.layer_hooks(ctx, tr, stats, []):
            stack.enter_context(hook)
        disc = ctx.pqbox.FunctionOracle(lambda p, q: p * p + q * q <= 1.0)
        box = ctx.pqbox.expand_box(disc, (0.0, 0.0), 0.1, 1e-3)
    assert [s.name for s in tr.spans] == ["pqbox.expand"]
    assert stats["rounds"] == box.iterations > 0
    assert stats["oracle_calls"] > 4 * box.iterations
    assert box == ctx.pqbox.expand_box(disc, (0.0, 0.0), 0.1, 1e-3)
    assert [dict(vars(owner)) for owner in owners] == before


def test_budget_stops_the_unit_in_progress():
    measure.start_budget(0.05)
    try:
        with pytest.raises(measure.OutOfTime):
            while True:
                pass
    finally:
        measure.stop_budget()
        measure.budget_spent = False


def test_lp_counts():
    milp = pytest.importorskip("ctflex.milp")
    prob = milp.MilpProblem("t")
    x = prob.add_variable(0.0, 5.0)
    b = prob.add_variable(binary=True)
    prob.add_constraint([(x, 1.0), (b, -5.0)], "<=", 0.0)
    prob.add_constraint([(x, 2.0)], ">=", 1.0)
    prob.set_objective({x: 1.0})
    assert measure.lp_counts(milp, prob.freeze()) == (1, 3)


# -- the benchmark definition -----------------------------------------------------


def test_benchmark_json_names_match_emitted_metrics():
    with open(os.path.join(measure.ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    assert {w["name"] for w in spec["workloads"]} == set(measure.UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        measure.PER_LAYER
