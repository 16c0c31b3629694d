"""Engine tests: direction sampling, per-direction solves against the
hand-derived LP oracle, tube assembly and interpolation queries, metrics,
DT baseline, serialization round-trips, and Monte Carlo validation of the
chance margins."""

import concurrent.futures
import copy
import csv
import dataclasses
import gc
import io
import json
import math
import os
import random
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from ctflex import engine, milp, pqbox
from ctflex.blocks import (
    AssembledProblem, BlockBuilder, continuous_time_check,
)
from ctflex.chance import ChanceMargins
from ctflex.instances import (
    ess_symmetric, three_node, twelve_node, two_node,
)
from oracles import evaluate, monte_carlo_validate, skin_point

CFG1 = engine.AssessmentConfig(directions=2, workers=1)


def slice_of(model, theta, config):
    """``engine.solve_slice`` of one direction of ``model``."""
    return engine.solve_slice(engine.direction_free_problem(model, config),
                              theta, config)


@pytest.fixture(scope="module")
def toy_tube():
    return engine.assess(three_node(), engine.AssessmentConfig(
        directions=2, workers=1))


@pytest.fixture(scope="module")
def gap_tube():
    # constant unity-pf load only: import works, everything else is a gap
    return engine.assess(two_node(), engine.AssessmentConfig(
        directions=2, workers=1))


@pytest.fixture(scope="module")
def sym_tube():
    return engine.assess(ess_symmetric(), engine.AssessmentConfig(
        directions=6, workers=1))


# -- direction sampling ---------------------------------------------------------


def test_sample_directions_k2():
    assert engine.all_directions(2)[:2] == pytest.approx([0.0, math.pi / 2])
    assert engine.all_directions(2) == pytest.approx(
        [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_sample_directions_k4_uniform():
    thetas = engine.all_directions(4)[:4]
    assert thetas == pytest.approx([0, math.pi / 4, math.pi / 2,
                                    3 * math.pi / 4])
    gaps = np.diff(engine.all_directions(4))
    assert gaps.max() - gaps.min() == pytest.approx(0.0, abs=1e-15)


def test_sample_directions_too_few():
    with pytest.raises(ValueError):
        engine.AssessmentConfig(directions=1)


def test_workers_below_one_rejected():
    engine.AssessmentConfig(workers=None)
    engine.AssessmentConfig(workers=1)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            engine.AssessmentConfig(workers=workers)


@pytest.mark.parametrize("field, value", [("directions", 2.5),
                                          ("directions", None),
                                          ("directions", True),
                                          ("workers", 1.5),
                                          ("workers", True)])
def test_non_integer_count_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} {value} is not an integer"):
        engine.AssessmentConfig(**{field: value})
    engine.AssessmentConfig(**{field: np.int64(3)})   # numpy integers pass


def test_unhashable_mode_rejected():
    with pytest.raises(ValueError, match=r"unknown mode \[\]"):
        engine.AssessmentConfig(mode=[])


@pytest.mark.parametrize("solver", [None, {"seed": 1}],
                         ids=["none", "dict"])
def test_solver_that_is_not_solve_options_rejected(solver):
    with pytest.raises(ValueError, match=re.escape(
            f"solver {solver!r} is not a SolveOptions")):
        engine.AssessmentConfig(solver=solver)


# -- subproblem structure ---------------------------------------------------------


def test_theta_zero_forces_reactive_to_zero():
    model = three_node()
    asm = engine.build_subproblem(model, 0.0, CFG1)
    sol = engine.solve_assembled(asm, CFG1)
    assert sol.status == "optimal"
    for m in asm.periods:
        for vid in asm.layouts[m].q0:
            assert sol.values[vid] == pytest.approx(0.0, abs=1e-9)


def test_theta_half_pi_forces_active_to_zero():
    model = three_node()
    asm = engine.build_subproblem(model, math.pi / 2, CFG1)
    sol = engine.solve_assembled(asm, CFG1)
    assert sol.status == "optimal"
    for m in asm.periods:
        for vid in asm.layouts[m].p0:
            assert sol.values[vid] == pytest.approx(0.0, abs=1e-10)


def test_hand_lp_oracle_three_directions():
    # closed forms on the toy: A(0) = integral of the load, A(pi/2) = 0,
    # A(pi) = integral of (forecast - load)
    model = three_node()
    cases = {0.0: 3600.0 * 0.5, math.pi / 2: 0.0, math.pi: 3600.0 * 0.2}
    for theta, want in cases.items():
        s = slice_of(model, theta, CFG1)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(want, abs=1e-6)


def test_affine_optimum_reproduced_exactly():
    # theta = 0: S0(t) = load ramp, affine in t, exactly representable
    model = three_node()
    s = slice_of(model, 0.0, CFG1)
    for t in np.linspace(0.0, 3600.0, 41):
        want = 0.4 + 0.2 * t / 3600.0
        assert evaluate(s.coeffs, 0.0, 900.0, t) == pytest.approx(want,
                                                                 abs=1e-7)


def test_infeasible_direction_recorded():
    # no reactive source: pure reactive import is impossible
    model = two_node()
    s = slice_of(model, math.pi / 2, CFG1)
    assert s.status == "infeasible"
    assert s.coeffs is None


def test_deterministic_repeat_solve():
    model = three_node()
    a = slice_of(model, 0.0, CFG1)
    b = slice_of(model, 0.0, CFG1)
    assert np.allclose(a.coeffs, b.coeffs, atol=1e-9)


# -- tube assembly and queries ----------------------------------------------------


def test_flex_tube_rejects_duplicates():
    model = three_node()
    s = slice_of(model, 0.0, CFG1)
    hz = model.horizon
    with pytest.raises(ValueError, match="strictly increasing"):
        engine.FlexTube((s, s), hz.t1, hz.period, hz.n_periods)
    with pytest.raises(ValueError, match="at least one slice"):
        engine.FlexTube((), hz.t1, hz.period, hz.n_periods)


def test_tube_keeps_gaps(gap_tube):
    assert gap_tube.gaps == [math.pi / 2, math.pi, 3 * math.pi / 2]
    assert len(gap_tube.slices) == 4


def test_toy_tube_fully_feasible(toy_tube):
    assert toy_tube.gaps == []


def test_query_point_at_sample(toy_tube):
    p, q = engine.query_point(toy_tube, 0.0, 0.0)
    assert p == pytest.approx(0.4, abs=1e-7)
    assert q == pytest.approx(0.0, abs=1e-9)


def test_query_point_antipode(toy_tube):
    got = engine.query_point(toy_tube, math.pi, 3600.0)
    # down direction: S0 = forecast - load = 0.1 at the horizon end
    assert got[0] == pytest.approx(-0.1, abs=1e-7)
    assert got[1] == pytest.approx(0.0, abs=1e-9)


def test_query_point_gap_neighbor(gap_tube):
    assert engine.query_point(gap_tube, math.pi / 4, 1800.0) is None


def test_query_point_outside_horizon(toy_tube):
    with pytest.raises(ValueError):
        engine.query_point(toy_tube, 0.0, 1e9)


def test_query_point_interpolates_on_segment(sym_tube):
    t0 = 1800.0
    thetas = sym_tube.directions
    a = engine.query_point(sym_tube, float(thetas[1]), t0)
    b = engine.query_point(sym_tube, float(thetas[2]), t0)
    mid_theta = 0.5 * (thetas[1] + thetas[2])
    mid = engine.query_point(sym_tube, float(mid_theta), t0)
    assert mid[0] == pytest.approx(0.5 * (a[0] + b[0]), abs=1e-9)
    assert mid[1] == pytest.approx(0.5 * (a[1] + b[1]), abs=1e-9)


def test_query_point_matches_directions_as_metric_and_section_do():
    # a direction within 1e-9 of a sampled one around the circle is that
    # sampled direction, even when its other neighbour is a gap
    slices = tuple(
        engine.Slice(k * math.pi / 2, "infeasible", None, None) if k % 2
        else engine.Slice(k * math.pi / 2, "optimal", np.ones((1, 4)), 900.0)
        for k in range(4))
    tube = engine.FlexTube(slices, 0.0, 900.0, 1)
    section = pqbox.cross_section(tube, 450.0)
    for theta in (5e-10, -5e-10, 2 * math.pi - 5e-10):
        assert engine.match_direction(tube.directions, theta) == 0
        assert engine.match_direction(engine.all_directions(12), theta) == 0
        assert section.boundary_radius(theta) == 1.0
        assert engine.query_point(tube, theta, 450.0) == (1.0, 0.0)


# -- metrics ------------------------------------------------------------------------


def test_metric_m_counts_coefficient_sums():
    coeffs = np.ones((4, 4))
    slices = tuple(
        engine.Slice(k * math.pi / 3, "optimal", coeffs, 3600.0)
        for k in range(6)
    )
    tube = engine.FlexTube(slices, 0.0, 900.0, 4)
    # one direction contributes 4 coefficients x 4 periods = 16
    assert engine.metric_M(tube, [0.0]) == pytest.approx(16.0)
    assert engine.metric_M(tube) == pytest.approx(96.0)


def test_metric_m_infeasible_contributes_zero():
    slices = tuple(
        engine.Slice(k * math.pi / 3, "infeasible", None, None)
        for k in range(6)
    )
    tube = engine.FlexTube(slices, 0.0, 900.0, 4)
    assert engine.metric_M(tube) == 0.0


def test_metric_m_counts_each_sampled_direction_once(toy_tube):
    # 2 pi is direction 0 again
    with pytest.raises(ValueError, match="0.0 and 6.28"):
        engine.metric_M(toy_tube, (0.0, math.pi / 2, 2 * math.pi))


def test_metric_m_requires_sampled_direction():
    tube = engine.FlexTube(
        (engine.Slice(0.0, "optimal", np.ones((1, 4)), 900.0),),
        0.0, 900.0, 1)
    with pytest.raises(ValueError, match="not among"):
        engine.metric_M(tube, [0.123])


def test_penetration_metrics_three_node():
    model = three_node()
    k1, k2 = engine.penetration_metrics(model)
    # flat forecast 0.7 vs ramp load mean 0.5
    assert k1 == pytest.approx(0.7 / 0.5, rel=1e-6)
    assert k2 == 0.0


def test_penetration_metrics_twelve_node_scaling():
    base, _ = engine.penetration_metrics(twelve_node(ess=False))
    doubled, _ = engine.penetration_metrics(
        twelve_node(ess=False, pv_scale=2.0))
    assert doubled == pytest.approx(2.0 * base, rel=1e-9)
    _, k2 = engine.penetration_metrics(twelve_node())
    assert k2 > 0.0


def test_penetration_metrics_errors():
    with pytest.raises(ValueError, match="K1"):
        engine.penetration_metrics(ess_symmetric())  # no loads


def test_pv_free_storage_keeps_k1():
    model = twelve_node(pv_scale=0.0)
    assert model.ess_devices and not model.pv_units
    assert engine.penetration_metrics(model) == (0.0, None)
    tube = engine.FlexTube(
        (engine.Slice(0.0, "optimal", np.ones((1, 4)), 900.0),),
        0.0, 900.0, 1)
    summary = engine.tube_summary(tube, model, (0.0,))
    assert (summary["K1"], summary["K2"]) == (0.0, None)


# -- chance margins ------------------------------------------------------------------


def test_margins_zero_at_alpha_half():
    model = dataclasses.replace(twelve_node(), alpha=0.5)
    assert engine.compute_margins(model) == ChanceMargins()


def test_margins_zero_at_zero_variance():
    model = twelve_node(sigma_pv2=0.0, sigma_load2=0.0)
    assert engine.compute_margins(model) == ChanceMargins()


def test_margins_monotone_in_alpha():
    tight = engine.compute_margins(twelve_node(alpha=0.01))
    loose = engine.compute_margins(twelve_node(alpha=0.1))
    for node in tight.u_node:
        assert tight.u_node[node] >= loose.u_node[node] - 1e-12


def test_deterministic_limits_reproduce_objective():
    base = slice_of(
        dataclasses.replace(twelve_node(), alpha=0.5), 0.0,
        engine.AssessmentConfig(directions=3, workers=1))
    zero_sigma = slice_of(
        twelve_node(sigma_pv2=0.0, sigma_load2=0.0), 0.0,
        engine.AssessmentConfig(directions=3, workers=1))
    assert base.objective == pytest.approx(zero_sigma.objective, abs=1e-9)


def test_monte_carlo_validation_respects_alpha():
    model = twelve_node()  # alpha = 0.1, the published sigma levels
    cfg = engine.AssessmentConfig(directions=3, workers=1)
    asm = engine.build_subproblem(model, math.pi, cfg)
    sol = engine.solve_assembled(asm, cfg)
    assert sol.status == "optimal"
    report = monte_carlo_validate(asm, sol.values, n_samples=20_000, seed=1)
    assert report["n_tight"] > 0
    assert report["max_rate_tight"] <= model.alpha + 0.01


# -- containment monotonicity ---------------------------------------------------------


def test_removing_devices_never_increases_objectives():
    cfg = engine.AssessmentConfig(directions=3, workers=1)
    base = twelve_node()
    for variant in (twelve_node(sop=False), twelve_node(ess=False)):
        for theta in (0.0, math.pi / 3, math.pi):
            full = slice_of(base, theta, cfg)
            cut = slice_of(variant, theta, cfg)
            if cut.status == "optimal" and full.status == "optimal":
                assert cut.objective <= full.objective + 1e-6


def test_scaling_capacity_never_decreases_m():
    cfg = engine.AssessmentConfig(directions=3, workers=2)
    small = engine.metric_M(engine.assess(twelve_node(), cfg))
    grown = twelve_node()
    sops = tuple(dataclasses.replace(s, s_max=s.s_max * 1.5,
                                     p_min=s.p_min * 1.5,
                                     p_max=s.p_max * 1.5)
                 for s in grown.sop_devices)
    grown = dataclasses.replace(grown, sop_devices=sops)
    big = engine.metric_M(engine.assess(grown, cfg))
    assert big >= small - 1e-6


# -- CT vs DT ---------------------------------------------------------------------------


def test_dt_equals_ct_on_piecewise_constant_inputs():
    # constant data: a constant-decision optimum exists, so both agree
    for model in (ess_symmetric(), three_node(ramping=False)):
        for theta in (0.0, math.pi / 2, math.pi):
            ct = slice_of(model, theta, CFG1)
            dt = slice_of(
                model, theta, dataclasses.replace(CFG1, mode="dt"))
            assert ct.status == dt.status
            if ct.status == "optimal":
                assert ct.objective == pytest.approx(dt.objective, abs=1e-5)
                assert dt.coeffs.shape[1] == 1


def test_ct_dominates_dt_on_constant_data():
    for model in (ess_symmetric(), three_node(ramping=False)):
        for theta in engine.all_directions(2):
            ct = slice_of(model, float(theta), CFG1)
            dt = slice_of(
                model, float(theta), dataclasses.replace(CFG1, mode="dt"))
            if dt.status == "optimal":
                assert ct.status == "optimal"
                assert ct.objective >= dt.objective - 1e-6


def test_ct_tracks_ramp_dt_stays_flat():
    model = three_node(ramping=True)
    ct = slice_of(model, 0.0, CFG1)
    dt = slice_of(model, 0.0,
                  dataclasses.replace(CFG1, mode="dt"))
    rel_gap = []
    for t in np.linspace(0.0, 3600.0, 65):
        c = evaluate(ct.coeffs, 0.0, 900.0, t)
        d = evaluate(dt.coeffs, 0.0, 900.0, t)
        rel_gap.append(abs(c - d) / max(abs(d), 1e-12))
    assert max(rel_gap) >= 0.01


# -- serialization -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def dt_tube():
    return engine.assess(three_node(), engine.AssessmentConfig(
        directions=2, workers=1, mode="dt"))


def test_tube_csv_roundtrip(toy_tube, gap_tube, dt_tube, tmp_path):
    # a CT tube, a CT tube with gaps, and a DT tube come back exactly
    assert gap_tube.gaps and dt_tube.slices[0].coeffs.shape[1] == 1
    for i, tube in enumerate((toy_tube, gap_tube, dt_tube)):
        path = tmp_path / f"tube{i}.csv"
        with open(path, "w", newline="") as fp:
            engine.tube_to_csv(tube, fp)
        horizon = {"t1": tube.t1, "period": tube.period,
                   "n_periods": tube.n_periods}
        back = engine.tube_from_csv(str(path), horizon, tube.mode)
        assert len(back.slices) == len(tube.slices)
        for a, b in zip(back.slices, tube.slices):
            assert a.theta == b.theta
            assert a.status == b.status
            assert a.objective == b.objective
            if b.feasible:
                assert np.array_equal(a.coeffs, b.coeffs)
            else:
                assert a.coeffs is None
    for n_periods in (4.7, 0, True):
        with pytest.raises(ValueError, match="is not an integer >= 1"):
            engine.tube_from_csv(str(path), {**horizon,
                                             "n_periods": n_periods})


@pytest.mark.parametrize("rows", [
    ["0.0,,,,infeasible", "0.0,0,0,1.0,optimal"],
    ["0.0,0,0,1.0,optimal", "0.0,,,,infeasible"],
], ids=["gap-row-first", "gap-row-last"])
def test_tube_csv_direction_with_gap_and_optimal_rows_rejected(rows,
                                                               tmp_path):
    path = tmp_path / "tube.csv"
    path.write_text("\n".join(["theta,period,coef_index,value,status",
                               *rows, ""]))
    horizon = {"t1": 0.0, "period": 900.0, "n_periods": 1}
    with pytest.raises(ValueError, match=r"tube.csv: theta 0.0 has both "):
        engine.tube_from_csv(str(path), horizon, "dt")


def test_tube_csv_repeated_optimal_cell_rejected(tmp_path):
    path = tmp_path / "tube.csv"
    header = "theta,period,coef_index,value,status\n"
    horizon = {"t1": 0.0, "period": 900.0, "n_periods": 1}
    path.write_text(header + "0.0,0,0,1.0,optimal\n0.0,0,0,5.0,optimal\n")
    with pytest.raises(ValueError, match=r"tube.csv: line 3: theta 0.0 "
                       r"period 0 coefficient 0 repeats line 2$"):
        engine.tube_from_csv(str(path), horizon, "dt")
    # a repeated gap row carries no value
    path.write_text(header + "0.0,,,,infeasible\n0.0,,,,infeasible\n"
                    "1.0,0,0,1.0,optimal\n")
    assert engine.tube_from_csv(str(path), horizon, "dt").gaps == [0.0]


def test_dense_grid_emission(sym_tube):
    buf = io.StringIO()
    engine.dense_grid_csv(sym_tube, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "theta,t,p,q"
    assert len(lines) == 1 + 96 * 33


def synthetic_tube(mode, gap):
    """Eight directions over three periods with random coefficients; the
    direction at index ``gap`` is infeasible."""
    rng = np.random.default_rng(17)
    n_coef = engine.N_COEF_BY_MODE[mode]
    slices = []
    for k in range(8):
        theta = k * math.pi / 4
        if k == gap:
            slices.append(engine.Slice(theta, "infeasible", None, None))
        else:
            slices.append(engine.Slice(theta, "optimal",
                                       rng.uniform(0.1, 2.0, (3, n_coef)),
                                       1.0))
    return engine.FlexTube(tuple(slices), 0.0, 900.0, 3, mode=mode)


def offset_tube():
    """Six directions at uneven steps over two periods, the first above 0,
    so that some theta lies below every sampled direction; the direction
    at 2.5 is a gap."""
    rng = np.random.default_rng(29)
    slices = tuple(
        engine.Slice(theta, "infeasible", None, None) if theta == 2.5
        else engine.Slice(theta, "optimal", rng.uniform(0.1, 2.0, (2, 4)), 1.0)
        for theta in (0.4, 1.1, 2.5, 3.3, 4.0, 5.9))
    return engine.FlexTube(slices, 0.0, 900.0, 2)


def lone_tube():
    """One direction at 1 rad over one period: its own neighbour on both
    sides, a full turn away."""
    coeffs = np.array([[0.5, 1.0, 2.0, 1.5]])
    return engine.FlexTube((engine.Slice(1.0, "optimal", coeffs, 1.0),),
                           0.0, 900.0, 1)


def stored_ct12_tube():
    """The 12-node CT tube kept with the benchmark: 24 gap-free slices."""
    data = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "data")
    return engine.read_tube(os.path.join(data, "ct12_tube.csv"),
                            os.path.join(data, "ct12_summary.json"))


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_query_point_non_finite_direction_rejected(theta):
    with pytest.raises(ValueError, match="not finite"):
        engine.query_point(stored_ct12_tube(), theta, 1800.0)


# three synthetic tubes with a gap, one of them uneven and starting above
# 0, a lone direction and the stored 12-node one
each_tube = pytest.mark.parametrize(
    "make", [lambda: synthetic_tube("ct", gap=5),
             lambda: synthetic_tube("dt", gap=2), offset_tube, lone_tube,
             stored_ct12_tube],
    ids=["ct-gap", "dt-gap", "offset-gap", "lone", "stored-ct12"])


@each_tube
def test_radii_equal_each_trajectory_bit_for_bit(make):
    tube = make()
    rng = np.random.default_rng(23)
    times = [tube.t1 + m * tube.period for m in range(tube.n_periods + 1)]
    times += rng.uniform(tube.t1, tube.t2, 200).tolist()
    for t in times:
        radii = tube.radii(t)
        assert radii.shape == (len(tube.slices),)
        for k, s in enumerate(tube.slices):
            if s.feasible:
                want = evaluate(s.coeffs, tube.t1, tube.period, t)
                assert repr(float(radii[k])) == repr(want), (t, k)
            else:
                assert math.isnan(radii[k])


def test_query_point_of_a_lone_direction_is_its_slice_point():
    tube = lone_tube()
    for t in (0.0, 300.0, 900.0):
        r = evaluate(tube.slices[0].coeffs, 0.0, 900.0, t)
        want = (r * math.cos(1.0), r * math.sin(1.0))
        for theta in (0.0, 0.3, 1.0, 1.0 + 1e-10, 2.0, math.pi, 6.0, -1.0,
                      2 * math.pi, 9.0):
            assert engine.query_point(tube, theta, t) == want, (theta, t)


def grid_points(tube):
    """The (theta, t) pairs of the dense grid, in its row order."""
    return [(float(th), float(t))
            for th in np.linspace(0.0, 2 * math.pi, 96, endpoint=False)
            for t in np.linspace(tube.t1, tube.t2, 33)]


def query_point_rows(tube):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["theta", "t", "p", "q"])
    for th, t in grid_points(tube):
        pq = engine.query_point(tube, th, t)
        if pq is not None:
            w.writerow([repr(th), repr(t), repr(pq[0]), repr(pq[1])])
    return buf.getvalue()


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_dense_grid_matches_query_point(mode):
    tube = synthetic_tube(mode, gap=5)
    buf = io.StringIO()
    engine.dense_grid_csv(tube, buf)
    want = query_point_rows(tube)
    assert buf.getvalue() == want
    # the gap drops the rows at 5 pi / 4 and in the two sectors beside it
    assert len(want.splitlines()) == 1 + (96 - 1 - 2 * 11) * 33


def test_dense_grid_matches_query_point_on_solved_gaps(gap_tube):
    buf = io.StringIO()
    engine.dense_grid_csv(gap_tube, buf)
    assert buf.getvalue() == query_point_rows(gap_tube)


@each_tube
def test_dense_grid_matches_skin_oracle(make):
    # the oracle is written apart from engine: each slice evaluated on its
    # own, its own neighbour search, the chord weighted by angle
    tube = make()
    buf = io.StringIO()
    engine.dense_grid_csv(tube, buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    for row in rows:
        th, t = float(row["theta"]), float(row["t"])
        want = skin_point(tube, th, t)
        assert want is not None, (th, t)
        got = (float(row["p"]), float(row["q"]))
        assert math.dist(got, want) <= 1e-12 * max(1.0, math.hypot(*want)), \
            (th, t, got, want)
    assert [(float(r["theta"]), float(r["t"])) for r in rows] == [
        pt for pt in grid_points(tube) if skin_point(tube, *pt) is not None]


@pytest.fixture
def part_counts(monkeypatch):
    """Number of parts the backend splits each solved problem into."""
    counts = []
    components = milp._components

    def counted(*args):
        parts = components(*args)
        counts.append(len(parts))
        return parts

    monkeypatch.setattr(milp, "_components", counted)
    return counts


@pytest.mark.parametrize("mode", ["dt", "ct"])
def test_periods_solved_apart_match_linked_problem(mode, part_counts):
    # without storage no row spans two periods; a redundant row over every
    # period's S0 makes the same subproblem one part again
    model = twelve_node(ess=False)
    config = engine.AssessmentConfig(directions=3, workers=1, mode=mode)
    base = engine.direction_free_problem(model, config)
    rng = np.random.default_rng(3)
    statuses = []
    for theta in engine.all_directions(3):
        asm = base.at(float(theta))
        split = engine.solve_assembled(asm, config)
        linked = copy.deepcopy(asm.problem)
        linked.add_constraint({v: 1.0 for m in asm.periods
                               for v in asm.layouts[m].s0}, "<=", 1e6)
        whole = engine.solve_assembled(
            dataclasses.replace(asm, problem=linked), config)
        statuses.append(split.status)
        assert split.status == whole.status
        if split.status != "optimal":
            continue
        assert split.objective == pytest.approx(
            whole.objective, rel=config.solver.mip_gap)
        assert asm.problem.check_solution(split.values) == []
        report = continuous_time_check(asm, split.values, rng=rng)
        assert report["violations"] == []
        assert report["max_equality_residual"] <= 1e-8
    assert part_counts == [4, 1] * 6
    assert "optimal" in statuses and "infeasible" in statuses


def test_storage_keeps_subproblem_whole(part_counts):
    config = engine.AssessmentConfig(directions=3, workers=1, mode="dt")
    asm = engine.build_subproblem(twelve_node(), 0.0, config)
    assert engine.solve_assembled(asm, config).status == "optimal"
    assert part_counts == [1]


@pytest.mark.parametrize("workers", [1, 2])
def test_one_build_per_assessment(monkeypatch, tmp_path, workers):
    # each direction is written into the one direction-free problem; the
    # file would also show a build in a pool worker.  No solve: each HiGHS
    # call answers "optimal" at 0
    builds = tmp_path / "builds"
    build = BlockBuilder.build

    def counted(self):
        with open(builds, "a") as fp:
            fp.write(f"{os.getpid()}\n")
        return build(self)

    monkeypatch.setattr(BlockBuilder, "build", counted)
    monkeypatch.setattr(milp, "_run_highs", lambda c, *args, **kw: (
        "optimal", np.zeros(len(c))))
    tube = engine.assess(twelve_node(),
                         engine.AssessmentConfig(workers=workers))
    assert [s.status for s in tube.slices] == ["optimal"] * 24
    assert builds.read_text().splitlines() == [str(os.getpid())]


def test_assess_parallel_matches_serial():
    model = three_node()
    serial = engine.assess(model, engine.AssessmentConfig(directions=2,
                                                          workers=1))
    parallel = engine.assess(model, engine.AssessmentConfig(directions=2,
                                                            workers=2))
    for a, b in zip(serial.slices, parallel.slices):
        assert a.status == b.status
        if a.feasible:
            assert np.allclose(a.coeffs, b.coeffs, atol=1e-9)


@pytest.fixture(scope="module")
def warm_dt():
    """The 12-node DT tube at K = 3, whose odd directions do start from
    their neighbours: solved serially, with every direction the serial
    path solves and every HiGHS call made in it recorded, and pooled."""
    model, config = twelve_node(), engine.AssessmentConfig(directions=3,
                                                           mode="dt")
    order, calls = [], []
    solve_slice, run_highs = engine.solve_slice, milp._run_highs

    def traced_slice(model, theta, *args):
        order.append(theta)
        return solve_slice(model, theta, *args)

    def spy(c, integrality, *args, start=None):
        calls.append((order[-1], bool(integrality.any()), start is not None))
        return run_highs(c, integrality, *args, start=start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "solve_slice", traced_slice)
        mp.setattr(milp, "_run_highs", spy)
        serial = engine.assess(model, dataclasses.replace(config, workers=1))
    pooled = engine.assess(model, dataclasses.replace(config, workers=2))
    return SimpleNamespace(model=model, config=config, serial=serial,
                           pooled=pooled, order=order, calls=calls)


def test_tube_does_not_depend_on_worker_count(warm_dt):
    files = []
    for tube in (warm_dt.serial, warm_dt.pooled):
        csv_text = io.StringIO()
        engine.tube_to_csv(tube, csv_text)
        summary = engine.tube_summary(tube, warm_dt.model, None)
        files.append((csv_text.getvalue(), json.dumps(summary)))
    assert files[0] == files[1]


def test_warm_started_slices_match_cold_solves(warm_dt):
    gap = warm_dt.config.solver.mip_gap
    for s in warm_dt.serial.slices:
        cold = slice_of(warm_dt.model, s.theta, warm_dt.config)
        assert s.status == cold.status == "optimal"
        assert s.objective == pytest.approx(cold.objective, rel=gap)


def test_only_odd_directions_start_from_their_neighbours(warm_dt):
    thetas = engine.all_directions(3).tolist()
    # the even directions first, then each odd one
    assert warm_dt.order == thetas[0::2] + thetas[1::2]
    for k, theta in enumerate(thetas):
        mips = [start for th, mip, start in warm_dt.calls
                if th == theta and mip]
        lps = [th for th, mip, _ in warm_dt.calls if th == theta and not mip]
        assert mips
        if k % 2:
            # one completion LP per neighbour, and the MIP starts
            assert len(lps) == 2 and any(mips)
        else:
            assert lps == [] and not any(mips)


def test_ct_root_gap_direction_started_from_its_neighbours_matches_cold(
        monkeypatch):
    # 5pi/12 of the 12-node CT model at K = 12 has a root gap; assess
    # starts it from pi/3 and pi/2, both solved cold
    config = engine.AssessmentConfig()
    base = engine.direction_free_problem(twelve_node(), config)
    thetas = engine.all_directions(config.directions)
    before, after = (engine.solve_slice(base, thetas[k], config)
                     for k in (4, 6))
    assert before.feasible and after.feasible
    cold = engine.solve_slice(base, thetas[5], config)
    run_highs, started = milp._run_highs, []

    def spy(*args, start=None):
        started.append(start is not None and args[-1] == {
            **args[-1], **milp._defined(milp.ScipyHighsBackend.STARTED)})
        return run_highs(*args, start=start)

    monkeypatch.setattr(milp, "_run_highs", spy)
    warm = engine.solve_slice(base, thetas[5], config,
                              (before.values, after.values))
    # two completion LPs, then the started MIP with RENS off
    assert started == [False, False, True]
    assert warm.status == cold.status
    assert warm.objective == pytest.approx(cold.objective,
                                           rel=config.solver.mip_gap)


def test_pooled_tasks_carry_no_problem(monkeypatch, tmp_path, toy_tube):
    # the initializer hands each worker the direction-free problem once,
    # and each task only its direction, the config and its starts
    made, tasks, inits = [], [], tmp_path / "inits"
    real = engine.ProcessPoolExecutor

    class Spied(real):
        def __init__(self, max_workers, initializer, initargs):
            made.append(initargs)

            def counted(*args):
                with open(inits, "a") as fp:
                    fp.write(f"{os.getpid()}\n")
                initializer(*args)

            super().__init__(max_workers, initializer=counted,
                             initargs=initargs)

        def submit(self, fn, *args, **kwargs):
            tasks.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", Spied)
    config = engine.AssessmentConfig(directions=2, workers=2)
    tube = engine.assess(three_node(), config)
    assert tube_files(tube, three_node()) == tube_files(toy_tube,
                                                        three_node())
    [[base]] = made
    assert isinstance(base, AssembledProblem) and base.theta is None
    assert sorted(theta for theta, _, _ in tasks) == \
        engine.all_directions(2).tolist()
    for theta, given, starts in tasks:
        assert type(theta) is float and given is config
        assert all(isinstance(x, np.ndarray) for x in starts)
    assert not any(isinstance(arg, AssembledProblem)
                   for args in tasks for arg in args)
    # once in each worker, never in this process
    pids = inits.read_text().split()
    assert 1 <= len(pids) == len(set(pids)) <= 2
    assert str(os.getpid()) not in pids
    assert engine._held == []


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_one_worker_holds_nothing_after_assess(monkeypatch, fails):
    # with one worker this process holds the direction-free problem while
    # the loop runs, and no reference to it outlives assess
    bases = []
    build, solve_slice = engine.direction_free_problem, engine.solve_slice

    def kept(model, config):
        base = build(model, config)
        bases.append(weakref.ref(base))
        return base

    def traced_slice(base, theta, *args):
        assert engine._held == [base] and base is bases[0]()
        if fails:
            raise RuntimeError("the solve failed")
        return solve_slice(base, theta, *args)

    monkeypatch.setattr(engine, "direction_free_problem", kept)
    monkeypatch.setattr(engine, "solve_slice", traced_slice)
    if fails:
        with pytest.raises(RuntimeError, match="the solve failed"):
            engine.assess(three_node(), CFG1)
    else:
        assert len(engine.assess(three_node(), CFG1).slices) == 4
    gc.collect()
    assert engine._held == [] and len(bases) == 1 and bases[0]() is None


@pytest.mark.parametrize("workers, pool_size", [(500, 4), (3, 3)])
def test_explicit_workers_capped_at_direction_count(monkeypatch, toy_tube,
                                                    workers, pool_size):
    # the stub runs every submitted solve in this process
    sizes = []

    def pool(max_workers, initializer, initargs):
        sizes.append(max_workers)
        return engine.InProcessExecutor(initializer, initargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", pool)
    tube = engine.assess(three_node(), engine.AssessmentConfig(
        directions=2, workers=workers))
    assert sizes == [pool_size]
    for a, b in zip(toy_tube.slices, tube.slices):
        assert a.status == b.status
        assert a.objective == b.objective


def test_in_process_executor_returns_finished_futures():
    pool = engine.InProcessExecutor()
    assert pool.submit(int, "11", base=2).result() == 3
    fut = pool.submit(int, "eleven")
    assert fut.done()
    with pytest.raises(ValueError):
        fut.result()


def test_one_worker_starts_no_process(monkeypatch, toy_tube):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
    tube = engine.assess(three_node(), CFG1)
    assert tube_files(tube, three_node()) == tube_files(toy_tube,
                                                        three_node())


def tube_files(tube, model) -> tuple:
    """The tube CSV and summary JSON that ``assess`` would write."""
    csv_text = io.StringIO()
    engine.tube_to_csv(tube, csv_text)
    return csv_text.getvalue(), json.dumps(
        engine.tube_summary(tube, model, None))


class HeldPool(concurrent.futures.Executor):
    """A pool that runs no call until the stubbed ``wait`` finishes it,
    and logs each submit and each finish by direction index.  Made as
    ``assess`` makes a process pool, it runs the initializer in this
    process, as the one worker it stands for."""

    def __init__(self, thetas):
        self.thetas, self.events, self.held = thetas, [], {}

    def __call__(self, max_workers, initializer, initargs):
        initializer(*initargs)
        return self

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        self.held[fut] = (fn, args)
        self.events.append(("submit", self.thetas.index(args[0])))
        return fut

    def finish(self, fut):
        fn, args = self.held.pop(fut)
        fut.set_result(fn(*args))
        self.events.append(("finish", self.thetas.index(args[0])))


@pytest.mark.parametrize("directions", [2, 3])
@pytest.mark.parametrize("order", ["last-submitted", "seeded"])
def test_loop_gives_the_serial_tube_in_any_finishing_order(
        monkeypatch, directions, order):
    # no process starts: the stubbed wait finishes one held solve at a
    # time, the last one submitted or a seeded random one
    model = three_node()
    thetas = engine.all_directions(directions).tolist()
    n = len(thetas)
    starts: dict = {}
    solve_slice = engine.solve_slice

    def traced_slice(base, theta, config, given):
        starts.setdefault(theta, []).append(given)
        return solve_slice(base, theta, config, given)

    monkeypatch.setattr(engine, "solve_slice", traced_slice)
    serial = engine.assess(model, engine.AssessmentConfig(
        directions=directions, workers=1))
    serial_starts, starts = starts, {}
    pool, rng = HeldPool(thetas), random.Random(directions)

    def finish_one(fs, return_when):
        assert return_when == concurrent.futures.FIRST_COMPLETED
        held = list(fs)
        fut = held[-1] if order == "last-submitted" else rng.choice(held)
        pool.finish(fut)
        return {fut}, set(held) - {fut}

    monkeypatch.setattr(engine, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(engine, "wait", finish_one)
    tube = engine.assess(model, engine.AssessmentConfig(
        directions=directions, workers=2))
    assert tube_files(tube, model) == tube_files(serial, model)
    assert sorted(i for what, i in pool.events if what == "submit") == \
        list(range(n))
    assert not pool.held
    for pos, (what, i) in enumerate(pool.events):
        if what == "submit" and i % 2:
            finished = {j for w, j in pool.events[:pos] if w == "finish"}
            assert {(i - 1) % n, (i + 1) % n} <= finished
    # every direction got the starts that it gets with one worker
    assert starts.keys() == serial_starts.keys()
    for theta, [given] in starts.items():
        [want] = serial_starts[theta]
        assert len(given) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(given, want))


def test_pool_workers_inherit_the_loaded_solver(fresh_python):
    # the solver is loaded before the pool forks, or each worker of each
    # pool loads it again; it is HiGHS's extension alone, without scipy's
    # optimize and sparse subpackages
    out = fresh_python("""
import json, sys
from ctflex import engine
from ctflex.instances import three_node

loaded = []

def pool(*args, **kwargs):
    loaded.append([name in sys.modules
                   for name in ("scipy.optimize", "scipy.sparse",
                                "scipy.optimize._highspy._core")])
    return real(*args, **kwargs)

real, engine.ProcessPoolExecutor = engine.ProcessPoolExecutor, pool
engine.assess(three_node(), engine.AssessmentConfig(directions=2, workers=2))
print(json.dumps(loaded))
""")
    assert json.loads(out) == [[False, False, True]]


def test_scipy_optimize_reuses_the_loaded_extension(fresh_python):
    # the extension is registered under its own name, so importing
    # scipy.optimize after a pooled assessment reuses it, and scipy's own
    # milp still solves with it
    out = fresh_python("""
import json, sys
from ctflex import engine, milp
from ctflex.instances import three_node

engine.assess(three_node(), engine.AssessmentConfig(directions=2, workers=2))
loaded = [name in sys.modules for name in (
    "scipy.optimize", "scipy.sparse", "scipy.optimize._highspy._core")]
import scipy.optimize
from scipy.optimize._highspy import _core
res = scipy.optimize.milp([-1.0, -1.0], integrality=[1, 0],
                          bounds=scipy.optimize.Bounds(0.0, 1.5))
print(json.dumps([loaded, _core is milp.load_solver(), res.status,
                  res.x.tolist()]))
""")
    assert json.loads(out) == [[False, False, True], True, 0, [1.0, 1.5]]
