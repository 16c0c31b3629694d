"""Device-block tests.

Each block is exercised through small MILPs whose optima are pinned by
hand (segment semantics, droop laws, balances, tap products), plus the
dual-route invariants: the standalone row checker accepts every solver
solution, sampling the device relations in continuous time shows no
violation, the capacity polygon never admits a point outside the true
disk, and the McCormick products are exact at integral selections.
"""

import math

import numpy as np
import pytest

from ctflex import engine
from ctflex.blocks import (
    BlockBuilder, BuildError, ChanceMargins, circle_polygon,
    continuous_time_check, fit_profiles, scalar_response_system,
)
from ctflex.instances import _sampled, ess_symmetric, twelve_node
from ctflex.milp import SolveOptions, solve
from ctflex.netmodel import (
    Branch, CapacitorBank, EssDevice, Horizon, LoadPoint, NetworkModel,
    PvUnit, SopDevice, SvcDevice,
)

RNG = np.random.default_rng(99)
PV_BREAKS = (0.9025, 0.9604, 1.0404, 1.1025)


# -- capacity polygon ----------------------------------------------------------


def test_polygon_inside_disk_10k_points():
    poly = circle_polygon(2.0, 12)
    pts = RNG.uniform(-2.5, 2.5, size=(10_000, 2))
    accepted = np.array([poly.contains(p, q) for p, q in pts])
    radii = np.hypot(pts[:, 0], pts[:, 1])
    # inner approximation: no accepted point may leave the disk
    assert np.all(radii[accepted] <= 2.0 + 1e-9)
    # rejection band: every rejected point inside the inscribed radius is a bug
    inscribed = 2.0 * math.cos(math.pi / 12)
    assert np.all(radii[~accepted] >= inscribed - 1e-9)


def test_polygon_vertices_on_circle():
    poly = circle_polygon(1.5, 8)
    # vertex direction bisects adjacent half-plane normals
    for k in range(8):
        phi = 2 * math.pi * (k + 0.5) / 8
        vx, vy = 1.5 * math.cos(phi), 1.5 * math.sin(phi)
        assert poly.contains(vx, vy, tol=1e-9)
        assert math.hypot(vx, vy) == pytest.approx(1.5)


def test_polygon_simple_points():
    poly = circle_polygon(1.0, 12)
    assert poly.contains(0.0, 0.0)
    assert not poly.contains(1.01, 0.0)


def test_polygon_axis_normals_exact():
    # cos(pi/2) and sin(pi) round to ~1e-16; they must be emitted as 0.0
    planes = circle_polygon(1.0, 12).halfplanes
    assert [(c, s) for c, s, _ in planes[::3]] == [
        (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


@pytest.mark.parametrize("theta", [math.pi / 2, 3 * math.pi / 2])
def test_axis_direction_rows_have_no_rounding_residue(theta):
    model = twelve_node()
    config = engine.AssessmentConfig(directions=12, workers=1)
    assembled = engine.build_subproblem(
        model, theta, config, engine.compute_margins(model),
        engine.fit_profiles(model, degree=3))
    tiny = [(con.name, c) for con in assembled.problem._constraints
            for _, c in con.terms if 0.0 < abs(c) < 1e-12]
    assert tiny == []


def test_polygon_bad_side_count():
    with pytest.raises(ValueError):
        circle_polygon(1.0, 3)
    with pytest.raises(ValueError):
        circle_polygon(1.0, 7)


# -- tiny fixture models ---------------------------------------------------------


def single_period_model(r=0.0, x=0.0, u0=1.0, u_min=0.25, u_max=1.44,
                        **devices):
    horizon = Horizon(0.0, 900.0, 900.0)
    return NetworkModel(
        n_nodes=2, branches=(Branch(0, 1, r, x),), horizon=horizon,
        alpha=0.5, u0=u0, u_min=u_min, u_max=u_max, **devices)


def manual_build(model, theta=None, **kw):
    """Emit all blocks; leave the TDI direction coupling out unless theta is
    given, so block relations can be probed without the ray constraint."""
    builder = BlockBuilder(model, **kw)
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
        if theta is not None:
            builder.tdi_block(m, theta)
    builder.problem.set_objective({})
    builder.problem.freeze()
    from ctflex.blocks import AssembledProblem
    return builder, AssembledProblem(
        problem=builder.problem, model=model, theta=theta or 0.0,
        periods=list(builder.periods), layouts=builder.layouts,
        margins=builder.margins,
        fitted=builder.fitted, n_coef=builder.n_coef)


def pin(problem, ids, value):
    problem._frozen = False
    for vid in ids:
        problem.add_constraint([(vid, 1.0)], "==", value)
    problem.freeze()


def resolve(assembled, objective=None, sense="max"):
    p = assembled.problem
    if objective is not None:
        p._frozen = False
        p.set_objective(objective, sense)
        p.freeze()
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
    p._frozen = False
    for vid in layout.p_pv[0]:
        p.add_constraint([(vid, 1.0)], "==", 0.35)
    for vid in layout.q_pv[0]:
        p.add_constraint([(vid, 1.0)], "==", 0.25)
    p.freeze()
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
    rhs = {con.name: con.rhs for con in asm.problem._constraints}
    return np.array([rhs[f"net_m0_{kind}bal1_{k}"]
                     for k in range(asm.n_coef)])


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
    p._frozen = False
    p.add_constraint([(layout.lam_cap[0][1], 1.0)], "==", 1.0)
    p.freeze()
    sol = solve(p)
    assert sol.status == "optimal"
    for vid in layout.q_cap[0]:
        assert sol.values[vid] == pytest.approx(0.3, abs=1e-9)


def test_capbank_zero_step_gives_zero_q():
    model = cap_model(steps=(0.0, 0.3))
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    p = asm.problem
    p._frozen = False
    p.add_constraint([(layout.lam_cap[0][0], 1.0)], "==", 1.0)
    p.freeze()
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
    # a 0.6 margin on each side of the [0.25, 1.44] band leaves nothing
    builder = BlockBuilder(single_period_model(),
                           margins=ChanceMargins(u_node={1: 0.6}))
    with pytest.raises(BuildError, match="exceeds the band"):
        builder.build(0.0)


def test_ess_minimum_duration_unrepresentable():
    ess = EssDevice(1, e_max=100.0, e_init=50.0, eta_c=1.0, eta_d=1.0,
                    p_c=0.1, p_d=0.1, t_min_charge=1800.0,
                    t_min_discharge=900.0)
    model = single_period_model(ess_devices=(ess,))
    with pytest.raises(BuildError, match="minimum mode duration"):
        BlockBuilder(model).build(0.0)


def test_ess_mode_flag_keeps_period_one_sided():
    model = ess_model()
    builder, asm = manual_build(model)
    layout = asm.layouts[0]
    p = asm.problem
    p._frozen = False
    p.add_constraint([(layout.d_ess[0][0], 1.0)], "==", 0.9)
    p.add_constraint([(layout.d_ess[0][3], 1.0)], "==", 0.1)
    p.freeze()
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
    assert not any(con.name.endswith(("_dis0", "_chg0"))
                   for con in dt.problem._constraints)
    assert len(ess_mode_flags(ct.problem)) == \
        len(model.ess_devices) * model.horizon.n_periods


def with_ess_mode_flags(assembled):
    """Put the per-period mode binary and its two rows back by hand, as the
    builder emits them when a period has several coefficients."""
    p = assembled.problem
    p._frozen = False
    for m in assembled.periods:
        for ei, d_ids in assembled.layouts[m].d_ess.items():
            flag = p.add_variable(binary=True, name=f"ess{ei}_m{m}_mode")
            for k, d in enumerate(d_ids):
                p.add_constraint([(d, 1.0), (flag, -0.5)], ">=", 0.0,
                                 f"ess{ei}_m{m}_dis{k}")
                p.add_constraint([(d, 1.0), (flag, -0.5)], "<=", 0.5,
                                 f"ess{ei}_m{m}_chg{k}")
    p.freeze()
    return assembled


@pytest.mark.parametrize("build, directions",
                         [(twelve_node, 3), (ess_symmetric, 2)])
def test_dt_without_ess_mode_flag_matches_flagged_model(build, directions):
    model = build()
    config = engine.AssessmentConfig(mode="dt", directions=directions,
                                     workers=1)
    margins = engine.compute_margins(model)
    for theta in engine.all_directions(directions):
        got = engine.solve_assembled(engine.build_subproblem(
            model, float(theta), config, margins), config)
        flagged = with_ess_mode_flags(engine.build_subproblem(
            model, float(theta), config, margins))
        assert len(ess_mode_flags(flagged.problem)) == \
            len(model.ess_devices) * model.horizon.n_periods
        want = engine.solve_assembled(flagged, config)
        assert got.status == want.status
        if want.status == "optimal":
            assert abs(got.objective - want.objective) <= config.mip_gap * \
                max(abs(got.objective), abs(want.objective), 1.0)


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_selections_are_binary_one_hot(mode):
    # capacitor steps and OLTC taps are one-hot binaries as built: HiGHS
    # solves the problem as it stands, with no lowering flags or rows
    config = engine.AssessmentConfig(mode=mode, workers=1)
    asm = engine.build_subproblem(twelve_node(), math.pi, config)
    p = asm.problem
    rows = {con.name: con for con in p._constraints}
    groups = 0
    for m in asm.periods:
        lay = asm.layouts[m]
        for prefix, selections in (("cap", lay.lam_cap),
                                   ("oltc", lay.lam_oltc)):
            for i, lam in selections.items():
                groups += 1
                for v in lam:
                    assert p._binary[v] and (p._lb[v], p._ub[v]) == (0.0, 1.0)
                row = rows[f"{prefix}{i}_m{m}_onehot"]
                assert (row.terms, row.sense, row.rhs) == \
                    (tuple((v, 1.0) for v in lam), "==", 1.0)
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
    p._frozen = False
    p.add_constraint([(layout.lam_oltc[0][1], 1.0)], "==", 1.0)  # a = 1.05
    p.freeze()
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


# -- dual-route feasibility invariants -------------------------------------------------


def random_feasible_solutions(model, theta, count, seed=0):
    rng = np.random.default_rng(seed)
    cfg = engine.AssessmentConfig(directions=3, workers=1)
    margins = engine.compute_margins(model)
    out = []
    asm = engine.build_subproblem(model, theta, cfg, margins)
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
        asm_i = engine.build_subproblem(model, theta, cfg, margins)
        weights = rng.normal(size=len(layout_vars))
        p = asm_i.problem
        p._frozen = False
        p.set_objective({v: float(w) for v, w in zip(layout_vars, weights)})
        p.freeze()
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
        report = continuous_time_check(asm, sol.values, n_times=200, rng=rng)
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
