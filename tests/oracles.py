"""Independent oracles that the acceptance criteria check the program
against: the running integral of a Bernstein trajectory (criterion 1),
Monte Carlo violation rates of the chance-constrained rows (criterion 3),
and the tube point at a direction and time that the dense plot grid
writes.  No command runs them, so they live with the tests."""

import math

import numpy as np

from ctflex import chance
from ctflex.bernstein import CtTrajectory
from ctflex.blocks import AssembledProblem


def antiderivative(traj: CtTrajectory, initial: float = 0.0) -> CtTrajectory:
    """Degree n+1 running integral of ``traj``, continuous across period
    boundaries."""
    n = traj.degree
    out = np.zeros((traj.n_periods, n + 2))
    running = float(initial)
    step = traj.period / (n + 1)
    for m in range(traj.n_periods):
        out[m, 0] = running
        out[m, 1:] = running + step * np.cumsum(traj.coeffs[m])
        running = out[m, -1]
    return CtTrajectory(traj.t1, traj.period, out)


def skin_point(tube, theta: float, t: float):
    """(P0, Q0) of ``tube`` at direction theta and time t, or None next to
    a gap.  A sampled direction within 1e-9 of theta around the circle
    gives its own point; any other theta lies between two circular
    neighbours and gives the point at its angle's share of the way along
    the chord between theirs.  Each slice is evaluated as a
    ``CtTrajectory``."""
    two_pi = 2 * math.pi
    theta %= two_pi
    slices = tube.slices

    def point(s):
        if s.status != "optimal":
            return None
        r = float(CtTrajectory(tube.t1, tube.period, s.coeffs).evaluate(t))
        return r * math.cos(s.theta), r * math.sin(s.theta)

    for s in slices:
        if min(abs(s.theta - theta), two_pi - abs(s.theta - theta)) <= 1e-9:
            return point(s)
    hi = next((i for i, s in enumerate(slices) if s.theta > theta), 0)
    lo, hi = slices[hi - 1], slices[hi]
    a, b = point(lo), point(hi)
    if a is None or b is None:
        return None
    w = ((theta - lo.theta) % two_pi) / ((hi.theta - lo.theta) % two_pi)
    return ((1 - w) * a[0] + w * b[0], (1 - w) * a[1] + w * b[1])


def monte_carlo_check(nominal_lhs, g, rhs, sigma2,
                      n_samples: int = 100_000, seed: int = 0,
                      tol: float = 1e-9) -> np.ndarray:
    """Empirical violation rate of each row ``lhs + g @ u <= rhs`` under
    sampled independent offsets u ~ N(0, sigma2).

    ``nominal_lhs[i]`` is the value of row i's deterministic part at the
    candidate solution and ``g[i]`` its effective uncertainty row; a
    violation is a value beyond rhs + tol.
    """
    nominal_lhs = np.asarray(nominal_lhs, dtype=float)
    sigma = np.sqrt(np.asarray(sigma2, dtype=float))
    g = np.asarray(g, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 1.0, size=(n_samples, len(sigma))) * sigma
    shift = u @ g.T
    violated = nominal_lhs[None, :] + shift > rhs[None, :] + tol
    return violated.mean(axis=0)


def monte_carlo_validate(assembled: AssembledProblem, values,
                         n_samples: int = 100_000, seed: int = 0,
                         tight_tol: float = 1e-6) -> dict:
    """Empirical violation rates of the original (untightened) voltage and
    forecast-cap rows under sampled offsets.

    The dependent variables are re-solved per period at the solved device
    selections (capacitor step, OLTC tap, regulator ratio); scheduled PV
    reactive output is held.  Rows with a positive margin whose tightened
    surrogate is active at the solution are tight; their rate is the
    quantity the chance reformulation promises to keep at or below alpha.
    Returns the number of tight rows and their largest rate.
    """
    model = assembled.model
    values = np.asarray(values, dtype=float)
    tight_rates = []
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
        system = chance.scalar_response_system(
            model, cap_steps=cap_steps, oltc_a2=oltc_a2,
            reg_ratio2=reg_ratio2)
        n_src = system.f.shape[1]
        if n_src == 0:
            continue
        y_response = chance.propagate(system.b, system.f)

        # one row per (lhs, g, rhs, margin)
        rows = []
        for node, ids in layout.u.items():
            sens = y_response[system.u_index[node]]
            margin = assembled.margins.for_node(node)
            for vid in ids:
                rows.append((values[vid], sens, model.u_max, margin))
                rows.append((-values[vid], -sens, -model.u_min, margin))
        for pi in range(len(model.pv_units)):
            g = np.zeros(n_src)
            g[pi] = -1.0
            margin = assembled.margins.for_pv(pi)
            fc = assembled.fitted.pv[pi][m]
            for k, vid in enumerate(layout.p_pv[pi]):
                rows.append((values[vid], g, fc[k], margin))

        lhs, g, rhs, margin = (np.array(col, dtype=float)
                               for col in zip(*rows))
        rates = monte_carlo_check(lhs, g, rhs, system.sigma2,
                                  n_samples=n_samples, seed=seed)
        tight = (rhs - margin - lhs <= tight_tol) & (margin > 0.0)
        tight_rates.extend(rates[tight].tolist())
    return {"n_tight": len(tight_rates),
            "max_rate_tight": max(tight_rates, default=0.0)}
