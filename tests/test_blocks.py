"""Device-block tests.

Each block is exercised through small MILPs whose optima are pinned by
hand (segment semantics, droop laws, balances, tap products), plus the
dual-route invariants: the standalone row checker accepts every solver
solution, sampling the device relations in continuous time shows no
violation, the capacity polygon never admits a point outside the true
disk, and the McCormick products are exact at integral selections.
"""

import dataclasses
import math

import numpy as np
import pytest

from ctflex import engine
from ctflex.blocks import (
    POLYGON_SIDES, BlockBuilder, circle_polygon, continuous_time_check,
    fit_profiles,
)
from ctflex.chance import compute_margins, scalar_response_system
from ctflex.instances import _sampled, ess_symmetric, twelve_node
from ctflex.milp import SolveOptions, solve
from ctflex.netmodel import (
    Branch, CapacitorBank, EssDevice, Horizon, LoadPoint, NetworkModel,
    PvUnit, SopDevice, SvcDevice, ValidationError, validate,
)

RNG = np.random.default_rng(99)
PV_BREAKS = (0.9025, 0.9604, 1.0404, 1.1025)


def rows_by_name(problem):
    """Each row of ``problem`` by name: (terms, lo, hi), where terms are
    the row's ((var, coef), ...) pairs in column order and lo <= row <= hi."""
    terms = [[] for _ in range(problem.n_constraints)]
    for r, var, coef in zip(problem._rows, problem._cols, problem._vals):
        terms[r].append((var, coef))
    return {name: (tuple(t), lo, hi) for name, t, lo, hi in zip(
        problem._row_names, terms, problem._row_lo, problem._row_hi)}


# -- capacity polygon ----------------------------------------------------------


def inside(planes, p, q, tol=1e-12):
    return all(c * p + s * q <= r + tol for c, s, r in planes)


def test_polygon_inside_disk_10k_points():
    poly = circle_polygon(2.0)
    pts = RNG.uniform(-2.5, 2.5, size=(10_000, 2))
    accepted = np.array([inside(poly, p, q) for p, q in pts])
    radii = np.hypot(pts[:, 0], pts[:, 1])
    # inner approximation: no accepted point may leave the disk
    assert np.all(radii[accepted] <= 2.0 + 1e-9)
    # rejection band: every rejected point inside the inscribed radius is a bug
    inscribed = 2.0 * math.cos(math.pi / 12)
    assert np.all(radii[~accepted] >= inscribed - 1e-9)


def test_polygon_vertices_on_circle():
    poly = circle_polygon(1.5)
    # vertex direction bisects adjacent half-plane normals
    for k in range(POLYGON_SIDES):
        phi = 2 * math.pi * (k + 0.5) / POLYGON_SIDES
        vx, vy = 1.5 * math.cos(phi), 1.5 * math.sin(phi)
        assert inside(poly, vx, vy, tol=1e-9)
        assert math.hypot(vx, vy) == pytest.approx(1.5)


def test_polygon_simple_points():
    poly = circle_polygon(1.0)
    assert inside(poly, 0.0, 0.0)
    assert not inside(poly, 1.01, 0.0)


def test_polygon_axis_normals_exact():
    # cos(pi/2) and sin(pi) round to ~1e-16; they must be emitted as 0.0
    planes = circle_polygon(1.0)
    assert [(c, s) for c, s, _ in planes[::3]] == [
        (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


@pytest.mark.parametrize("theta", [math.pi / 2, 3 * math.pi / 2])
def test_axis_direction_rows_have_no_rounding_residue(theta):
    model = twelve_node()
    config = engine.AssessmentConfig(directions=12, workers=1)
    assembled = engine.direction_free_problem(model, config).at(theta)
    tiny = [(name, c)
            for name, (terms, _, _) in rows_by_name(assembled.problem).items()
            for _, c in terms if 0.0 < abs(c) < 1e-12]
    assert tiny == []


def test_direction_leaves_the_direction_free_problem_as_built():
    base = engine.direction_free_problem(twelve_node(),
                                         engine.AssessmentConfig())
    p = base.problem
    built = (list(p._rows), list(p._cols), list(p._vals), p.name)
    half_pi = base.at(math.pi / 2)
    assert (p._rows, p._cols, p._vals, p.name) == built
    assert base.theta is None and half_pi.theta == math.pi / 2
    assert half_pi.problem.name == "slice@1.570796"
    # cos(pi/2) snaps to 0.0: every pdir row loses S0's entry
    assert len(half_pi.problem._vals) == \
        len(p._vals) - len(base.direction_entries)
    with pytest.raises(ValueError, match="direction-free"):
        half_pi.at(0.0)


# -- tiny fixture models ---------------------------------------------------------


def single_period_model(r=0.0, x=0.0, u0=1.0, u_min=0.25, u_max=1.44,
                        **devices):
    horizon = Horizon(0.0, 900.0, 900.0)
    return NetworkModel(
        n_nodes=2, branches=(Branch(0, 1, r, x),), horizon=horizon,
        alpha=0.5, u0=u0, u_min=u_min, u_max=u_max, **devices)


def manual_build(model):
    """Emit all blocks but the TDI direction coupling, so block relations
    can be probed without the ray constraint."""
    builder = BlockBuilder(model, margins=compute_margins(model),
                           fitted=fit_profiles(model))
    for m in builder.periods:
        builder.init_period(m)
        for pi in range(len(model.pv_units)):
            builder.pv_block(pi, m)
        for si in range(len(model.sop_devices)):
            builder.sop_block(si, m)
        for si in range(len(model.svc_devices)):
            builder.svc_block(si, m)
        for ci in range(len(model.cap_banks)):
            builder.capbank_block(ci, m)
    for ei in range(len(model.ess_devices)):
        builder.ess_block(ei)
    for m in builder.periods:
        builder.network_block(m)
    builder.problem.set_objective({})
    from ctflex.blocks import AssembledProblem
    return builder, AssembledProblem(
        problem=builder.problem, model=model, theta=0.0,
        periods=list(builder.periods), layouts=builder.layouts,
        margins=builder.margins,
        fitted=builder.fitted, n_coef=builder.n_coef)


def pin(problem, ids, value):
    for vid in ids:
        problem.add_constraint([(vid, 1.0)], "==", value)


def resolve(assembled, objective=None, sense="max"):
    p = assembled.problem
    if objective is not None:
        p.set_objective(objective, sense)
    return solve(p)


# -- pv block -------------------------------------------------------------------


def pv_model(q_max=0.25, forecast=0.3, u0=1.0):
    pv = PvUnit(1, s_max=0.35, q_max=q_max, u_breaks=PV_BREAKS,
                forecast=_sampled(lambda tau: forecast, horizon=900.0))
    return single_period_model(u0=u0, pv_units=(pv,))


def test_pv_high_segment_pins_q_max():
    model = pv_model(u0=0.95)  # zero impedance: U1 = u0 < U2
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    for sense in ("max", "min"):
        sol = resolve(asm, {layout.q_pv[0][0]: 1.0}, sense)
        assert sol.status == "optimal"
        for vid in layout.q_pv[0]:
            assert sol.values[vid] == pytest.approx(0.25, abs=1e-8)


def test_pv_droop_midpoint_zero_q():
    model = pv_model(u0=0.5 * (PV_BREAKS[1] + PV_BREAKS[2]))
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    sol = resolve(asm, {layout.q_pv[0][0]: 1.0})
    assert sol.status == "optimal"
    for vid in layout.q_pv[0]:
        assert sol.values[vid] == pytest.approx(0.0, abs=1e-8)


def test_pv_low_segment_pins_minus_q_max():
    model = pv_model(u0=1.05)
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    sol = resolve(asm, {layout.q_pv[0][0]: 1.0})
    for vid in layout.q_pv[0]:
        assert sol.values[vid] == pytest.approx(-0.25, abs=1e-8)


def test_pv_capacity_polygon_rejects_corner():
    # P = s_max and Q = q_max simultaneously lies outside the disk
    model = pv_model(q_max=0.25, u0=0.95)
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    p = asm.problem
    for vid in layout.p_pv[0]:
        p.add_constraint([(vid, 1.0)], "==", 0.35)
    for vid in layout.q_pv[0]:
        p.add_constraint([(vid, 1.0)], "==", 0.25)
    assert solve(p).status == "infeasible"
    assert math.hypot(0.35, 0.25) > 0.35  # the disk oracle agrees


def test_pv_forecast_cap_binds():
    model = pv_model(q_max=0.0, forecast=0.2)
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    sol = resolve(asm, {vid: 1.0 for vid in layout.p_pv[0]})
    for vid in layout.p_pv[0]:
        assert sol.values[vid] == pytest.approx(0.2, abs=1e-8)


# -- load block -------------------------------------------------------------------


def balance_rhs(asm, kind):
    """Right-hand sides of node 1's active ("p") or reactive ("q") balance
    rows in period 0, one per coefficient; a load enters as -P and -phi P."""
    rows = rows_by_name(asm.problem)
    rhs = []
    for k in range(asm.n_coef):
        _, lo, hi = rows[f"net_m0_{kind}bal1_{k}"]
        assert lo == hi
        rhs.append(lo)
    return np.array(rhs)


def test_load_q_follows_power_factor():
    load = LoadPoint(1, _sampled(lambda tau: 2.0, horizon=900.0), phi=0.5)
    model = single_period_model(loads=(load,))
    _, asm = manual_build(model)
    assert np.allclose(balance_rhs(asm, "p"), -2.0, atol=1e-9)
    assert np.allclose(balance_rhs(asm, "q"), -1.0, atol=1e-9)


def test_load_zero_phi_and_ramp_linearity():
    ramp = LoadPoint(1, _sampled(lambda tau: tau, horizon=900.0), phi=1.0)
    model = single_period_model(loads=(ramp,))
    _, asm = manual_build(model)
    p_rhs = balance_rhs(asm, "p")
    assert np.array_equal(p_rhs, -asm.fitted.load[0][0])
    assert np.array_equal(balance_rhs(asm, "q"), p_rhs)
    # a ramp's Bernstein coefficients are equally spaced
    assert np.allclose(p_rhs, [0.0, -1 / 3, -2 / 3, -1.0], atol=1e-9)


def crowded_node_model():
    """Node 1 holds a PV unit, two ESS, an SOP terminal, an SVC, a
    capacitor and two loads; the SOP's other terminal is node 2."""
    def flat(value):
        return _sampled(lambda tau: value, horizon=900.0)

    ess = tuple(EssDevice(1, e_max=540.0, e_init=270.0, eta_c=0.9,
                          eta_d=0.8, p_c=p_c, p_d=p_d)
                for p_c, p_d in ((0.1, 0.3), (0.2, 0.25)))
    return NetworkModel(
        n_nodes=3, branches=(Branch(0, 1, 0.01, 0.01),
                             Branch(1, 2, 0.01, 0.01)),
        horizon=Horizon(0.0, 900.0, 900.0), alpha=0.5,
        pv_units=(PvUnit(1, s_max=0.35, q_max=0.25, u_breaks=PV_BREAKS,
                         forecast=flat(0.3)),),
        loads=(LoadPoint(1, flat(0.3), phi=0.5),
               LoadPoint(1, flat(0.7), phi=0.25)),
        ess_devices=ess,
        sop_devices=(SopDevice((1, 2), 0.3, -0.3, 0.3),),
        svc_devices=(SvcDevice(1, slope=10.0),),
        cap_banks=(CapacitorBank(1, steps=(0.0, 0.3)),))


def test_crowded_node_balances_pinned():
    _, asm = manual_build(crowded_node_model())
    lay = asm.layouts[0]
    rows = rows_by_name(asm.problem)
    l0, l1 = asm.fitted.load[0][0], asm.fitted.load[1][0]
    order_seen = False
    for k in range(asm.n_coef):
        # child flow - parent flow - injections; ESS i injects
        # D (P_D + P_C) - P_C
        p_terms = sorted([(lay.p_br[1][k], 1.0), (lay.p_br[0][k], -1.0),
                          (lay.p_pv[0][k], -1.0), (lay.d_ess[0][k], -0.4),
                          (lay.d_ess[1][k], -0.45),
                          (lay.p_sop[(0, 0)][k], -1.0)])
        q_terms = sorted([(lay.q_br[1][k], 1.0), (lay.q_br[0][k], -1.0),
                          (lay.q_pv[0][k], -1.0), (lay.q_sop[(0, 0)][k], -1.0),
                          (lay.q_svc[0][k], -1.0), (lay.q_cap[0][k], -1.0)])
        # the ESS constants in model order, then the loads in model order
        p_rhs = -((((0.0 + 0.1) + 0.2) + l0[k]) + l1[k])
        q_rhs = -((0.0 + 0.5 * l0[k]) + 0.25 * l1[k])
        assert rows[f"net_m0_pbal1_{k}"] == (tuple(p_terms), p_rhs, p_rhs)
        assert rows[f"net_m0_qbal1_{k}"] == (tuple(q_terms), q_rhs, q_rhs)
        order_seen |= p_rhs != -((((0.0 + l0[k]) + l1[k]) + 0.1) + 0.2)
    # the data tell the two summation orders apart
    assert order_seen
    p_terms = ((lay.p_br[1][0], -1.0), (lay.p_sop[(0, 1)][0], -1.0))
    assert rows["net_m0_pbal2_0"] == (p_terms, 0.0, 0.0)


# -- sop block ---------------------------------------------------------------------


def sop_model(loss=0.0):
    return NetworkModel(
        n_nodes=3, branches=(Branch(0, 1, 0.01, 0.01), Branch(1, 2, 0.01, 0.01)),
        horizon=Horizon(0.0, 900.0, 900.0),
        sop_devices=(SopDevice((1, 2), 0.3, -0.3, 0.3, loss=loss),),
        alpha=0.5)


def test_sop_lossless_balance():
    model = sop_model()
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    pin(asm.problem, layout.p_sop[(0, 0)], 0.1)
    sol = resolve(asm, {layout.p_sop[(0, 1)][0]: 1.0})
    for vid in layout.p_sop[(0, 1)]:
        assert sol.values[vid] == pytest.approx(-0.1, abs=1e-9)


def test_sop_polygon_rejects_norm_violation():
    model = sop_model()
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    pin(asm.problem, layout.p_sop[(0, 0)], 0.9 * 0.3)
    pin(asm.problem, layout.q_sop[(0, 0)], 0.9 * 0.3)
    assert solve(asm.problem).status == "infeasible"
    assert math.hypot(0.27, 0.27) > 0.3


def test_sop_zero_injection_accepted():
    model = sop_model()
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    for key in ((0, 0), (0, 1)):
        pin(asm.problem, layout.p_sop[key], 0.0)
        pin(asm.problem, layout.q_sop[key], 0.0)
    assert solve(asm.problem).status == "optimal"


def test_sop_loss_drains_power():
    model = sop_model(loss=0.02)
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    pin(asm.problem, layout.p_sop[(0, 0)], 0.1)
    sol = resolve(asm, {layout.p_sop[(0, 1)][0]: 1.0})
    # receiving terminal gets at most the sent power minus losses
    assert sol.values[layout.p_sop[(0, 1)][0]] <= -0.1 - 0.02 * 0.2 + 1e-9


# -- svc block ---------------------------------------------------------------------


def test_svc_droop_values():
    svc = SvcDevice(1, slope=10.0, u_ref=0.98)
    builder, asm = manual_build(
        single_period_model(u0=0.98, svc_devices=(svc,)))
    layout = asm.layouts[0]
    sol = resolve(asm, {layout.q_svc[0][0]: 1.0})
    assert sol.values[layout.q_svc[0][0]] == pytest.approx(0.0, abs=1e-9)

    builder2, asm2 = manual_build(
        single_period_model(u0=0.98 + 0.2, svc_devices=(svc,)))
    layout2 = asm2.layouts[0]
    sol2 = resolve(asm2, {layout2.q_svc[0][0]: 1.0})
    for vid in layout2.q_svc[0]:
        assert sol2.values[vid] == pytest.approx(1.0, abs=1e-8)


def test_svc_ramp_voltage_gives_ramp_q():
    # a ramping load drags the voltage down over the period; the SVC output
    # must follow the droop line with slope k/2 at every coefficient
    svc = SvcDevice(1, slope=6.0, u_ref=1.0)
    ramp = LoadPoint(1, _sampled(lambda tau: 0.5 * tau, horizon=900.0),
                     phi=0.3)
    model = single_period_model(r=0.05, x=0.05, svc_devices=(svc,),
                                loads=(ramp,))
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    sol = solve(asm.problem)
    assert sol.status == "optimal"
    got = [sol.values[v] for v in layout.q_svc[0]]
    want = [3.0 * (sol.values[u] - 1.0) for u in layout.u[1]]
    assert got == pytest.approx(want, abs=1e-8)
    assert abs(got[0] - got[3]) > 1e-4  # the output really ramps


# -- capacitor bank -----------------------------------------------------------------


def cap_model(steps=(0.0, 0.3), u0=1.0, r=0.0, x=0.0):
    return single_period_model(
        r=r, x=x, u0=u0, cap_banks=(CapacitorBank(1, steps=steps),))


def test_capbank_selected_step_product():
    model = cap_model(steps=(0.0, 0.3))
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    p = asm.problem
    p.add_constraint([(layout.lam_cap[0][1], 1.0)], "==", 1.0)
    sol = solve(p)
    assert sol.status == "optimal"
    for vid in layout.q_cap[0]:
        assert sol.values[vid] == pytest.approx(0.3, abs=1e-9)


def test_capbank_zero_step_gives_zero_q():
    model = cap_model(steps=(0.0, 0.3))
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    p = asm.problem
    p.add_constraint([(layout.lam_cap[0][0], 1.0)], "==", 1.0)
    sol = solve(p)
    for vid in layout.q_cap[0]:
        assert sol.values[vid] == pytest.approx(0.0, abs=1e-9)


def test_capbank_mccormick_exact_at_integral_selection():
    model = cap_model(steps=(0.1, 0.2, 0.3), r=0.02, x=0.02)
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    sol = resolve(asm, {layout.q_cap[0][0]: 1.0})
    assert sol.status == "optimal"
    lam = [sol.values[v] for v in layout.lam_cap[0]]
    j = int(np.argmax(lam))
    assert lam[j] == pytest.approx(1.0, abs=1e-9)
    for k in range(4):
        u_val = sol.values[layout.u[1][k]]
        z_val = sol.values[layout.z_cap[(0, j)][k]]
        assert abs(z_val - lam[j] * u_val) <= 1e-9


# -- ess block ---------------------------------------------------------------------


def ess_model(e_init=350.0, e_max=540.0):
    ess = EssDevice(1, e_max=e_max, e_init=e_init, eta_c=0.9, eta_d=0.8,
                    p_c=0.2, p_d=0.3, t_min_charge=900.0,
                    t_min_discharge=900.0)
    return single_period_model(ess_devices=(ess,))


def test_ess_full_discharge_energy_drop():
    model = ess_model()
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    pin(asm.problem, layout.d_ess[0], 1.0)
    sol = solve(asm.problem)
    assert sol.status == "optimal"
    drop = sol.values[layout.soe[0][0]] - sol.values[layout.soe[0][-1]]
    assert drop == pytest.approx(900.0 * 0.3 / 0.8, abs=1e-6)


def test_ess_full_charge_energy_rise():
    model = ess_model()
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    pin(asm.problem, layout.d_ess[0], 0.0)
    sol = solve(asm.problem)
    rise = sol.values[layout.soe[0][-1]] - sol.values[layout.soe[0][0]]
    assert rise == pytest.approx(900.0 * 0.9 * 0.2, abs=1e-6)


def test_ess_empty_store_cannot_discharge():
    model = ess_model(e_init=0.0)
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    pin(asm.problem, layout.d_ess[0], 1.0)
    assert solve(asm.problem).status == "infeasible"


def test_voltage_margin_wider_than_band_is_error():
    # a load sigma of 20 through r = 0.01 at alpha 0.01 puts a 0.93 margin
    # on each side of the [0.25, 1.44] band, which leaves nothing
    load = LoadPoint(1, _sampled(lambda tau: 0.5, horizon=900.0),
                     sigma2=400.0)
    model = dataclasses.replace(
        single_period_model(r=0.01, x=0.01, loads=(load,)), alpha=0.01)
    assert validate(model) == [
        "voltage margin 0.931 at node 1 exceeds the band [0.25, 1.44]"]
    with pytest.raises(ValidationError, match="exceeds the band"):
        engine.direction_free_problem(model, engine.AssessmentConfig())


def test_ess_minimum_duration_unrepresentable():
    ess = EssDevice(1, e_max=100.0, e_init=50.0, eta_c=1.0, eta_d=1.0,
                    p_c=0.1, p_d=0.1, t_min_charge=1800.0,
                    t_min_discharge=900.0)
    model = single_period_model(ess_devices=(ess,))
    with pytest.raises(ValidationError, match="minimum mode duration"):
        engine.direction_free_problem(model, engine.AssessmentConfig())


def test_ess_mode_flag_keeps_period_one_sided():
    model = ess_model()
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    p = asm.problem
    p.add_constraint([(layout.d_ess[0][0], 1.0)], "==", 0.9)
    p.add_constraint([(layout.d_ess[0][3], 1.0)], "==", 0.1)
    assert solve(p).status == "infeasible"


def ess_mode_flags(problem):
    return [n for n in problem._var_names
            if n.startswith("ess") and n.endswith("_mode")]


@pytest.mark.parametrize("build", [ess_symmetric, twelve_node])
def test_dt_build_has_no_ess_mode_flag(build):
    model = build()
    dt = engine.build_subproblem(
        model, 0.0, engine.AssessmentConfig(mode="dt", workers=1))
    ct = engine.build_subproblem(
        model, 0.0, engine.AssessmentConfig(workers=1))
    assert ess_mode_flags(dt.problem) == []
    assert not any(name.endswith(("_dis0", "_chg0"))
                   for name in rows_by_name(dt.problem))
    assert len(ess_mode_flags(ct.problem)) == \
        len(model.ess_devices) * model.horizon.n_periods


def with_ess_mode_flags(assembled):
    """Put the per-period mode binary and its two rows back by hand, as the
    builder emits them when a period has several coefficients."""
    p = assembled.problem
    for m in assembled.periods:
        for ei, d_ids in assembled.layouts[m].d_ess.items():
            flag = p.add_variable(binary=True, name=f"ess{ei}_m{m}_mode")
            for k, d in enumerate(d_ids):
                p.add_constraint([(d, 1.0), (flag, -0.5)], ">=", 0.0,
                                 f"ess{ei}_m{m}_dis{k}")
                p.add_constraint([(d, 1.0), (flag, -0.5)], "<=", 0.5,
                                 f"ess{ei}_m{m}_chg{k}")
    return assembled


@pytest.mark.parametrize("build, directions",
                         [(twelve_node, 3), (ess_symmetric, 2)])
def test_dt_without_ess_mode_flag_matches_flagged_model(build, directions):
    model = build()
    config = engine.AssessmentConfig(mode="dt", directions=directions,
                                     workers=1)
    base = engine.direction_free_problem(model, config)
    for theta in engine.all_directions(directions):
        got = engine.solve_assembled(base.at(float(theta)), config)
        flagged = with_ess_mode_flags(base.at(float(theta)))
        assert len(ess_mode_flags(flagged.problem)) == \
            len(model.ess_devices) * model.horizon.n_periods
        want = engine.solve_assembled(flagged, config)
        assert got.status == want.status
        if want.status == "optimal":
            assert abs(got.objective - want.objective) <= \
                config.solver.mip_gap * max(abs(got.objective),
                                            abs(want.objective), 1.0)


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_selections_are_binary_one_hot(mode):
    # capacitor steps and OLTC taps are one-hot binaries as built: HiGHS
    # solves the problem as it stands, with no lowering flags or rows
    config = engine.AssessmentConfig(mode=mode, workers=1)
    asm = engine.build_subproblem(twelve_node(), math.pi, config)
    p = asm.problem
    rows = rows_by_name(p)
    groups = 0
    for m in asm.periods:
        lay = asm.layouts[m]
        for prefix, selections in (("cap", lay.lam_cap),
                                   ("oltc", lay.lam_oltc)):
            for i, lam in selections.items():
                groups += 1
                for v in lam:
                    assert p._binary[v] and (p._lb[v], p._ub[v]) == (0.0, 1.0)
                assert rows[f"{prefix}{i}_m{m}_onehot"] == \
                    (tuple((v, 1.0) for v in lam), 1.0, 1.0)
    assert groups == 2 * len(asm.periods)
    assert not [n for n in p._var_names if "_sos" in n]
    assert not [name for name in rows if "_sos" in name]
    sol = engine.solve_assembled(asm, config)
    assert sol.status == "optimal"
    assert len(sol.values) == p.n_variables


# -- network block -----------------------------------------------------------------


def test_plain_branch_voltage_drop():
    load = LoadPoint(1, _sampled(lambda tau: 1.0, horizon=900.0), phi=1.0)
    model = single_period_model(r=0.1, x=0.1, loads=(load,))
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    sol = solve(asm.problem)
    assert sol.status == "optimal"
    # flows are forced to P = Q = 1, so U1 = u0 - 2 (0.1 + 0.1)
    for vid in layout.u[1]:
        assert sol.values[vid] == pytest.approx(1.0 - 0.4, abs=1e-8)


def test_oltc_tap_product():
    model = NetworkModel(
        n_nodes=2,
        branches=(Branch(0, 1, 0.0, 0.0, kind="oltc", taps=(0.95, 1.05)),),
        horizon=Horizon(0.0, 900.0, 900.0), alpha=0.5)
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    p = asm.problem
    p.add_constraint([(layout.lam_oltc[0][1], 1.0)], "==", 1.0)  # a = 1.05
    sol = resolve(asm, {layout.u[1][0]: 1.0})
    # zero-impedance branch: u0 = a^2 U1 -> U1 = 1 / 1.1025
    assert sol.values[layout.u[1][0]] == pytest.approx(1.0 / 1.1025, abs=1e-8)
    z_val = sol.values[layout.z_oltc[(0, 1)][0]]
    assert z_val == pytest.approx(sol.values[layout.u[1][0]], abs=1e-9)
    # tap 1.05 on U_child = 1.0 gives the transformed voltage 1.1025
    assert 1.05 ** 2 * 1.0 == pytest.approx(1.1025)


def test_degenerate_regulator_reduces_to_plain_branch():
    model = NetworkModel(
        n_nodes=2,
        branches=(Branch(0, 1, 0.1, 0.1, kind="regulator",
                         tau_min=1.0, tau_max=1.0),),
        horizon=Horizon(0.0, 900.0, 900.0),
        loads=(LoadPoint(1, _sampled(lambda tau: 1.0, horizon=900.0),
                         phi=1.0),),
        alpha=0.5, u_min=0.25, u_max=1.44)
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    sol = solve(asm.problem)
    assert sol.status == "optimal"
    # tau = 1: U_i = U_j + 2 (r P + x Q) exactly
    for vid in layout.u[1]:
        assert sol.values[vid] == pytest.approx(0.6, abs=1e-8)


# -- response system -----------------------------------------------------------------


def test_response_two_node_closed_form():
    load = LoadPoint(1, _sampled(lambda tau: 0.5, horizon=900.0), phi=0.4,
                     sigma2=0.01)
    model = single_period_model(r=0.1, x=0.1, loads=(load,))
    system = scalar_response_system(model)
    y = np.linalg.solve(system.b, -system.f)
    # extra unit load: branch P and Q flows rise by 1 and phi
    du = y[system.u_index[1], 0]
    assert du == pytest.approx(-2 * (0.1 * 1.0 + 0.1 * 0.4), abs=1e-12)


def test_response_oltc_reference_amplifies():
    branches = (Branch(0, 1, 0.1, 0.1, kind="oltc", taps=(0.9, 1.0, 1.1)),)
    load = LoadPoint(1, _sampled(lambda tau: 0.5, horizon=900.0), phi=0.0,
                     sigma2=0.01)
    model = NetworkModel(n_nodes=2, branches=branches,
                         horizon=Horizon(0.0, 900.0, 900.0), loads=(load,),
                         alpha=0.1)
    ref = scalar_response_system(model)
    du_ref = np.linalg.solve(ref.b, -ref.f)[ref.u_index[1], 0]
    mid = scalar_response_system(model, oltc_a2={0: 1.0})
    du_mid = np.linalg.solve(mid.b, -mid.f)[mid.u_index[1], 0]
    assert abs(du_ref) >= abs(du_mid)  # smallest tap is the worst case


def test_response_crowded_node_entries():
    # node 1: two capacitors, two SVCs, two loads; node 2: a load and a PV
    # unit, whose forecast offset touches no equality
    def flat(value):
        return _sampled(lambda tau: value, horizon=900.0)

    model = NetworkModel(
        n_nodes=3, branches=(Branch(0, 1, 0.01, 0.02),
                             Branch(1, 2, 0.01, 0.02)),
        horizon=Horizon(0.0, 900.0, 900.0), alpha=0.1,
        pv_units=(PvUnit(2, s_max=0.35, q_max=0.0, u_breaks=PV_BREAKS,
                         forecast=flat(0.3), sigma2=0.01),),
        loads=(LoadPoint(1, flat(0.3), phi=0.5, sigma2=0.01),
               LoadPoint(1, flat(0.2), phi=0.25, sigma2=0.01),
               LoadPoint(2, flat(0.1), phi=0.125, sigma2=0.01)),
        svc_devices=(SvcDevice(1, slope=10.0), SvcDevice(1, slope=6.0)),
        cap_banks=(CapacitorBank(1, steps=(0.0, 0.3)),
                   CapacitorBank(1, steps=(0.2,))))
    # unknowns: U1, U2, Pbr0, Pbr1, Qbr0, Qbr1, Qsvc0, Qsvc1;
    # sources: the PV unit, then loads 0, 1, 2
    system = scalar_response_system(model)
    assert np.array_equal(system.b[:4], [
        [0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0],     # P balance, node 1
        [-0.5, 0.0, 0.0, 0.0, -1.0, 1.0, -1.0, -1.0],  # Q balance, node 1
        [0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0],     # P balance, node 2
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0]])    # Q balance, node 2
    assert np.array_equal(system.f[:4], [
        [0.0, 1.0, 1.0, 0.0], [0.0, 0.5, 0.25, 0.0],
        [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.125]])
    # each capacitor subtracts its own selected step
    picked = scalar_response_system(model, cap_steps={0: 0.1})
    assert picked.b[1, 0] == -0.30000000000000004 == -(0.1 + 0.2)
    assert np.array_equal(np.delete(picked.b, 1, axis=0),
                          np.delete(system.b, 1, axis=0))


# -- dual-route feasibility invariants -------------------------------------------------


def random_feasible_solutions(model, theta, count, seed=0):
    rng = np.random.default_rng(seed)
    cfg = engine.AssessmentConfig(directions=3, workers=1)
    base = engine.direction_free_problem(model, cfg)
    out = []
    asm = base.at(theta)
    layout_vars = []
    for m in asm.periods:
        lay = asm.layouts[m]
        layout_vars.extend(lay.s0)
        for ids in lay.p_pv.values():
            layout_vars.extend(ids)
        for ids in lay.d_ess.values():
            layout_vars.extend(ids)
        for ids in lay.q_pv.values():
            layout_vars.extend(ids)
    for _ in range(count):
        asm_i = base.at(theta)
        weights = rng.normal(size=len(layout_vars))
        p = asm_i.problem
        p.set_objective({v: float(w) for v, w in zip(layout_vars, weights)})
        sol = solve(p, SolveOptions(mip_gap=1e-3, time_limit=60.0))
        if sol.status == "optimal":
            out.append((asm_i, sol))
    return out


def test_block_feasibility_oracle_roundtrip():
    model = twelve_node()
    sols = random_feasible_solutions(model, math.pi / 3, 6, seed=5)
    assert len(sols) >= 5
    for asm, sol in sols:
        assert asm.problem.check_solution(sol.values, tol=1e-6) == []


def test_continuous_time_safety_sampling():
    model = twelve_node()
    sols = random_feasible_solutions(model, 0.0, 5, seed=6)
    rng = np.random.default_rng(1)
    for asm, sol in sols:
        report = continuous_time_check(asm, sol.values, rng=rng)
        assert report["max_equality_residual"] <= 1e-8
        assert report["violations"] == []


def test_mccormick_exactness_across_solutions():
    model = twelve_node()
    sols = random_feasible_solutions(model, math.pi, 5, seed=7)
    for asm, sol in sols:
        for m in asm.periods:
            lay = asm.layouts[m]
            for ci in lay.lam_cap:
                lam = [sol.values[v] for v in lay.lam_cap[ci]]
                for j, l in enumerate(lam):
                    for k, vid in enumerate(lay.z_cap[(ci, j)]):
                        u_val = sol.values[lay.u[asm.model.cap_banks[ci].node][k]]
                        assert abs(sol.values[vid] - l * u_val) <= 1e-7
            for bi in lay.lam_oltc:
                lam = [sol.values[v] for v in lay.lam_oltc[bi]]
                child = asm.model.branches[bi].to_node
                for j, l in enumerate(lam):
                    for k, vid in enumerate(lay.z_oltc[(bi, j)]):
                        u_val = sol.values[lay.u[child][k]]
                        assert abs(sol.values[vid] - l * u_val) <= 1e-7
