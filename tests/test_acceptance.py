"""Acceptance suite.

One test per acceptance criterion, each printing a [PASS]/[FAIL] line:

 1. Bernstein calculus vs quadrature / finite-difference oracles (< 5 s).
 2. Transcription soundness on 20 random feasible 12-node solutions.
 3. Chance-constraint validity by Monte Carlo at the published levels,
    plus exact deterministic reproduction at alpha = 1/2 and sigma = 0.
 4. Per-direction optima vs the hand-derived LP oracle and fine-grid
    piecewise-constant brackets on the ramping toy.
 5. CT-vs-DT dominance (constant-data instances, where the containment
    argument applies) and a >= 1% CT/DT gap on a ramping instance.
 6. Trend reproduction on the 12-node synthetic system: SOP and ESS give
    strict gains, M is nondecreasing in alpha and in PV scaling with
    diminishing increments at the top.
 7. Box-expansion geometry: inscribed square of the disk, exact square
    recovery, soundness and local maximality on tube cross-sections.
 8. Performance envelope: full 24-direction joint assessment < 60 s.
 9. Determinism: byte-identical tube CSV and box JSON across reruns.
"""

import dataclasses
import math
import os
import time

import numpy as np
from scipy.integrate import quad

from ctflex import engine, pqbox
from ctflex.bernstein import basis_matrix
from ctflex.blocks import continuous_time_check
from ctflex.cli import main as cli_main
from ctflex.instances import ess_symmetric, three_node, twelve_node
from ctflex.milp import SolveOptions, solve
from oracles import antiderivative, evaluate, monte_carlo_validate

RNG = np.random.default_rng(2027)


def slice_of(model, theta, config):
    """``engine.solve_slice`` of one direction of ``model``."""
    return engine.solve_slice(engine.direction_free_problem(model, config),
                              theta, config)


def report(num, title, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[{status}] criterion {num}: {title}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {num}: {failures}"


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_bernstein_calculus():
    failures = []
    start = time.perf_counter()
    coeffs = RNG.normal(size=(1000, 4)) * RNG.uniform(0.1, 5, (1000, 1))
    period = 0.8

    # integration: adaptive quadrature on a spot panel, then a 5-point
    # Gauss-Legendre oracle (exact for cubics) across all 1000 vectors
    sums = period * coeffs.sum(axis=1) / 4.0
    worst_int = 0.0
    for row, total in zip(coeffs[:60], sums):
        ref, _ = quad(lambda t: evaluate(row[None, :], 0.0, period, t),
                      0.0, period, epsabs=1e-13, epsrel=1e-12)
        err = abs(total - ref) / max(1e-12, abs(ref))
        worst_int = max(worst_int, err)
    if worst_int > 1e-9:
        failures.append(f"integration vs quadrature rel err {worst_int:.2e}")
    nodes, weights = np.polynomial.legendre.leggauss(5)
    s_nodes = 0.5 * (nodes + 1.0)
    gl = 0.5 * period * (coeffs @ basis_matrix(3, s_nodes).T) @ weights
    rel = np.abs(gl - sums) / np.maximum(1e-12, np.abs(gl))
    if np.max(rel) > 1e-9:
        failures.append(
            f"coefficient-sum integral vs Gauss-Legendre rel err "
            f"{np.max(rel):.2e}")

    # derivative vs central finite differences at 100 interior points
    h = 1e-6
    s_pts = RNG.uniform(0.01, 0.99, 100)
    b_hi = basis_matrix(3, s_pts + h / period)
    b_lo = basis_matrix(3, s_pts - h / period)
    b_d2 = basis_matrix(2, s_pts)
    d_coeffs = 3.0 * np.diff(coeffs, axis=1) / period
    fd = (coeffs @ b_hi.T - coeffs @ b_lo.T) / (2 * h)
    exact = d_coeffs @ b_d2.T
    scale = np.maximum(1.0, np.abs(exact))
    worst_d = np.max(np.abs(fd - exact) / scale)
    if worst_d > 1e-6:
        failures.append(f"derivative vs finite differences err {worst_d:.2e}")

    # antiderivative endpoint equals the integral
    anti_end = np.array([
        evaluate(antiderivative(row[None, :], period, 0.0), 0.0, period,
                 period)
        for row in coeffs[:200]
    ])
    if np.max(np.abs(anti_end - sums[:200])) > 1e-9:
        failures.append("antiderivative endpoint mismatch")

    # partition of unity and convex hull to 1e-12
    s = RNG.random(1000)
    unity = np.abs(basis_matrix(3, s).sum(axis=1) - 1.0).max()
    if unity > 1e-12:
        failures.append(f"partition of unity error {unity:.2e}")
    vals = coeffs @ basis_matrix(3, s).T
    lo = coeffs.min(axis=1, keepdims=True) - 1e-12
    hi = coeffs.max(axis=1, keepdims=True) + 1e-12
    if not (np.all(vals >= lo) and np.all(vals <= hi)):
        failures.append("convex-hull containment violated")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    report(1, f"Bernstein calculus suite ({elapsed:.2f}s)", failures)


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_transcription_soundness():
    failures = []
    model = twelve_node()
    cfg = engine.AssessmentConfig(directions=3, workers=1)
    base = engine.direction_free_problem(model, cfg)
    rng = np.random.default_rng(42)
    thetas = engine.all_directions(3)
    found = 0
    worst_eq = 0.0
    attempts = 0
    while found < 20 and attempts < 40:
        attempts += 1
        theta = float(thetas[attempts % len(thetas)])
        asm = base.at(theta)
        p = asm.problem
        steer = {}
        for m in asm.periods:
            lay = asm.layouts[m]
            pool = (lay.s0 + [v for ids in lay.p_pv.values() for v in ids]
                    + [v for ids in lay.d_ess.values() for v in ids]
                    + [v for ids in lay.q_pv.values() for v in ids])
            for v in pool:
                steer[v] = float(rng.normal())
        p.set_objective(steer)
        sol = solve(p, SolveOptions(mip_gap=1e-3, time_limit=120.0))
        if sol.status != "optimal":
            continue
        found += 1
        bad_rows = p.check_solution(sol.values, tol=1e-6)
        if bad_rows:
            failures.append(f"solution {found}: {len(bad_rows)} row "
                            f"violations, e.g. {bad_rows[0]}")
        rep = continuous_time_check(asm, sol.values, rng=rng)
        worst_eq = max(worst_eq, rep["max_equality_residual"])
        if rep["violations"]:
            failures.append(f"solution {found}: {rep['violations'][0]}")
    if found < 20:
        failures.append(f"only {found}/20 feasible random solutions")
    if worst_eq > 1e-8:
        failures.append(f"max equality residual {worst_eq:.2e} > 1e-8")
    report(2, f"transcription soundness (20 solutions, "
              f"max eq resid {worst_eq:.2e})", failures)


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_chance_validity():
    failures = []
    model = twelve_node(alpha=0.1, sigma_pv2=0.005, sigma_load2=0.001)
    cfg = engine.AssessmentConfig(directions=3, workers=1)
    tight_total = 0
    worst = 0.0
    for theta in (math.pi, 0.0):
        asm = engine.build_subproblem(model, theta, cfg)
        sol = engine.solve_assembled(asm, cfg)
        if sol.status != "optimal":
            failures.append(f"direction {theta}: not optimal")
            continue
        rep = monte_carlo_validate(asm, sol.values, n_samples=100_000,
                                   seed=0)
        tight_total += rep["n_tight"]
        worst = max(worst, rep["max_rate_tight"])
    if tight_total == 0:
        failures.append("no margin-tight rows found")
    if worst > 0.11:
        failures.append(f"tight-row empirical violation {worst:.4f} > 0.11")

    # both deterministic limits must reproduce the margin-free objective
    alpha_half = slice_of(dataclasses.replace(model, alpha=0.5),
                          0.0, cfg)
    sigma_zero = slice_of(
        twelve_node(alpha=0.1, sigma_pv2=0.0, sigma_load2=0.0), 0.0, cfg)
    if abs(alpha_half.objective - sigma_zero.objective) > 1e-9 * max(
            1.0, abs(alpha_half.objective)):
        failures.append("alpha=0.5 and sigma=0 objectives differ: "
                        f"{alpha_half.objective} vs {sigma_zero.objective}")
    report(3, f"chance-constraint validity (max tight rate {worst:.4f}, "
              f"{tight_total} tight rows)", failures)


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_direction_oracle():
    failures = []
    model = three_node(ramping=True)
    cfg = engine.AssessmentConfig(directions=2, workers=1)
    # affine-in-t optima, hand derived: S0(t) = load(t) at theta = 0;
    # S0 = 0 at pi/2 (forecast covers the load); S0 = forecast - load at pi
    hand = {0.0: 3600.0 * 0.5, math.pi / 2: 0.0, math.pi: 3600.0 * 0.2}
    for theta, want in hand.items():
        got = slice_of(model, theta, cfg)
        if got.status != "optimal" or abs(got.objective - want) > 1e-6:
            failures.append(
                f"A({theta:.4f}) = "
                f"{got.objective if got.objective else got.status} "
                f"!= {want}")
    # fine-grid piecewise-constant brackets of A(0) = integral of the ramp
    steps = 100
    edges = np.linspace(0.0, 3600.0, 4 * steps + 1)
    load = lambda t: 0.4 + 0.2 * t / 3600.0
    lower = sum(load(edges[i]) * (edges[i + 1] - edges[i])
                for i in range(len(edges) - 1))
    upper = sum(load(edges[i + 1]) * (edges[i + 1] - edges[i])
                for i in range(len(edges) - 1))
    a0 = slice_of(model, 0.0, cfg).objective
    if not lower - 1e-9 <= a0 <= upper + 1e-9:
        failures.append(f"A(0) = {a0} outside bracket [{lower}, {upper}]")
    report(4, "hand-LP direction oracle and fine-grid brackets", failures)


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_ct_dt_dominance_and_distinction():
    failures = []
    cfg = engine.AssessmentConfig(directions=2, workers=1)
    dt_cfg = dataclasses.replace(cfg, mode="dt")
    # dominance where the containment argument applies: piecewise-constant
    # data embeds every DT solution into the cubic decision space
    for model, name in ((ess_symmetric(), "ess-symmetric"),
                        (three_node(ramping=False), "constant toy")):
        for theta in engine.all_directions(2):
            ct = slice_of(model, float(theta), cfg)
            dt = slice_of(model, float(theta), dt_cfg)
            if dt.status != "optimal":
                continue
            if ct.status != "optimal":
                failures.append(f"{name} theta={theta:.3f}: CT infeasible "
                                "where DT is feasible")
            elif ct.objective < dt.objective - 1e-6:
                failures.append(
                    f"{name} theta={theta:.3f}: CT {ct.objective} < DT "
                    f"{dt.objective}")
    # distinction on the within-period ramping instance
    model = three_node(ramping=True)
    ct = slice_of(model, 0.0, cfg)
    dt = slice_of(model, 0.0, dt_cfg)
    times = np.linspace(0.0, 3600.0, 97)
    ct_vals = evaluate(ct.coeffs, 0.0, 900.0, times)
    dt_vals = evaluate(dt.coeffs, 0.0, 900.0, times)
    gap = max(
        abs(c - d) / max(abs(d), 1e-12) for c, d in zip(ct_vals, dt_vals)
    )
    if gap < 0.01:
        failures.append(f"CT/DT boundary gap {gap:.4%} < 1%")
    report(5, f"CT >= DT with {gap:.2%} ramp distinction", failures)


# -- criterion 6 ---------------------------------------------------------------


def _metric(model):
    cfg = engine.AssessmentConfig(directions=3, workers=2)
    return engine.metric_M(engine.assess(model, cfg))


def test_criterion_6_trend_reproduction():
    failures = []
    m_base = _metric(twelve_node())
    m_nosop = _metric(twelve_node(sop=False))
    m_noess = _metric(twelve_node(ess=False))
    if not m_base > m_nosop + 1e-6:
        failures.append(f"SOP not a strict gain: {m_base} vs {m_nosop}")
    if not m_base > m_noess + 1e-6:
        failures.append(f"ESS not a strict gain: {m_base} vs {m_noess}")

    alpha_ms = [_metric(twelve_node(alpha=a)) for a in (0.01, 0.05, 0.1)]
    if not all(b >= a - 1e-9 for a, b in zip(alpha_ms, alpha_ms[1:])):
        failures.append(f"M not nondecreasing in alpha: {alpha_ms}")

    scales = (0.0, 1.0, 2.0, 5.0)
    pv_ms = [_metric(twelve_node(pv_scale=s, ess=False)) for s in scales]
    if not all(b >= a - 1e-9 for a, b in zip(pv_ms, pv_ms[1:])):
        failures.append(f"M not nondecreasing in PV scale: {pv_ms}")
    inc_mid = (pv_ms[2] - pv_ms[1]) / 1.0
    inc_top = (pv_ms[3] - pv_ms[2]) / 3.0
    if not inc_top <= inc_mid + 1e-9:
        failures.append(f"PV increments not diminishing: {pv_ms}")
    report(6, f"trends: SOP {m_nosop:.1f}->{m_base:.1f}, "
              f"ESS {m_noess:.1f}->{m_base:.1f}, alpha {alpha_ms}, "
              f"PV {pv_ms}", failures)


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_box_geometry():
    failures = []
    r = 1.7
    disk = pqbox.FunctionOracle(lambda p, q: math.hypot(p, q) <= r)
    box = pqbox.expand_box(disk, (0.0, 0.0), delta=r / 10, eps=1e-6)
    half = r / math.sqrt(2.0)
    for side, got in (("P1", box.p_max), ("P2", -box.p_min),
                      ("Q1", box.q_max), ("Q2", -box.q_min)):
        if abs(got - half) > 1e-4 * r:
            failures.append(f"disk {side}: {got} != r/sqrt2 {half}")

    eps = 1e-6
    square = pqbox.FunctionOracle(
        lambda p, q: abs(p) <= 0.9 and abs(q) <= 0.9)
    sq = pqbox.expand_box(square, (0.1, -0.2), delta=0.2, eps=eps)
    if max(abs(sq.p_max - 0.9), abs(sq.p_min + 0.9), abs(sq.q_max - 0.9),
           abs(sq.q_min + 0.9)) > 10 * eps:
        failures.append(f"square recovery off: {sq.as_dict()}")

    tube = engine.assess(twelve_node(), engine.AssessmentConfig(
        directions=6, workers=2))
    rng = np.random.default_rng(3)
    for t0 in rng.uniform(0.0, 3600.0, 3):
        section = pqbox.cross_section(tube, float(t0))
        start = pqbox.initial_point(pqbox.cross_section(tube, float(t0)))
        scale = float(np.nanmax(section.radii))
        eps_t = 1e-4 * scale
        box_t = pqbox.expand_box(section, start, delta=0.05 * scale,
                                 eps=eps_t, t0=float(t0))
        for p, q in box_t.corners():
            if not section.contains(p, q):
                failures.append(f"t0={t0:.0f}: corner ({p}, {q}) unsound")
        pushes = {
            "P1": [(box_t.p_max + 10 * eps_t, box_t.q_max),
                   (box_t.p_max + 10 * eps_t, box_t.q_min)],
            "P2": [(box_t.p_min - 10 * eps_t, box_t.q_max),
                   (box_t.p_min - 10 * eps_t, box_t.q_min)],
            "Q1": [(box_t.p_max, box_t.q_max + 10 * eps_t),
                   (box_t.p_min, box_t.q_max + 10 * eps_t)],
            "Q2": [(box_t.p_max, box_t.q_min - 10 * eps_t),
                   (box_t.p_min, box_t.q_min - 10 * eps_t)],
        }
        for side, corners in pushes.items():
            if all(section.contains(p, q) for p, q in corners):
                failures.append(f"t0={t0:.0f}: side {side} not maximal")
    report(7, "box-expansion geometry (disk, square, tube sections)",
           failures)


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_performance_envelope():
    failures = []
    model = twelve_node()
    cfg = engine.AssessmentConfig(directions=12, workers=8)
    start = time.perf_counter()
    tube = engine.assess(model, cfg)
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"wall time {elapsed:.1f}s >= 60s")
    solved = sum(1 for s in tube.slices if s.feasible)
    if solved == 0:
        failures.append("no direction solved")
    report(8, f"performance: 24 directions in {elapsed:.1f}s "
              f"({solved} optimal)", failures)


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    failures = []
    outs = []
    for tag in ("r1", "r2"):
        out = str(tmp_path / tag)
        rc = cli_main(["assess", "builtin:ess-symmetric", "--directions",
                       "6", "--workers", "1", "--seed", "0", "--out", out])
        if rc != 0:
            failures.append(f"assess rerun {tag} exited {rc}")
        rc = cli_main(["pqbox", "builtin:ess-symmetric", "--directions", "6",
                       "--workers", "1", "--time", "1800", "--seed", "0",
                       "--out", out])
        if rc != 0:
            failures.append(f"pqbox rerun {tag} exited {rc}")
        outs.append(out)
    for name in ("tube.csv", "summary.json", "box.json"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        if a != b:
            failures.append(f"{name} differs between reruns")
    report(9, "byte-identical reruns (tube CSV, summary, box JSON)",
           failures)
