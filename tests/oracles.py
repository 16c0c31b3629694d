"""Independent oracles that the acceptance criteria check the program
against: the value and the running integral of a Bernstein trajectory
(criterion 1), Monte Carlo violation rates of the chance-constrained rows
(criterion 3), and the tube point at a direction and time that the dense
plot grid writes.  No command runs them, so they live with the tests."""

import math

import numpy as np

from ctflex import chance
from ctflex.bernstein import basis_matrix, locate
from ctflex.blocks import AssembledProblem


def evaluate(coeffs, t1: float, period: float, t):
    """Value at scalar or array times ``t`` of the trajectory whose
    per-period Bernstein coefficients, shape (n_periods, degree+1), start
    at t1; at an interior period boundary the left period wins."""
    coeffs = np.asarray(coeffs, dtype=float)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    idx, s = locate(t_arr, t1, period, len(coeffs))
    basis = basis_matrix(coeffs.shape[1] - 1, s)
    vals = np.einsum("ij,ij->i", coeffs[idx], basis)
    return float(vals[0]) if np.ndim(t) == 0 else vals


def antiderivative(coeffs, period: float,
                   initial: float = 0.0) -> np.ndarray:
    """Coefficients of the degree n+1 running integral of the trajectory
    with per-period coefficients ``coeffs``, continuous across period
    boundaries."""
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros((len(coeffs), coeffs.shape[1] + 1))
    running = float(initial)
    step = period / coeffs.shape[1]
    for m, row in enumerate(coeffs):
        out[m, 0] = running
        out[m, 1:] = running + step * np.cumsum(row)
        running = out[m, -1]
    return out


def skin_point(tube, theta: float, t: float):
    """(P0, Q0) of ``tube`` at direction theta and time t, or None next to
    a gap.  A sampled direction within 1e-9 of theta around the circle
    gives its own point; any other theta lies between two circular
    neighbours and gives the point at its angle's share of the way along
    the chord between theirs; a lone direction gives its own point at
    every theta.  Each slice is evaluated by ``evaluate``."""
    two_pi = 2 * math.pi
    theta %= two_pi
    slices = tube.slices

    def point(s):
        if s.status != "optimal":
            return None
        r = evaluate(s.coeffs, tube.t1, tube.period, t)
        return r * math.cos(s.theta), r * math.sin(s.theta)

    for s in slices:
        if min(abs(s.theta - theta), two_pi - abs(s.theta - theta)) <= 1e-9:
            return point(s)
    hi = next((i for i, s in enumerate(slices) if s.theta > theta), 0)
    lo, hi = slices[hi - 1], slices[hi]
    a, b = point(lo), point(hi)
    if a is None or b is None:
        return None
    if lo is hi:            # a lone direction is its own neighbour
        return a
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
