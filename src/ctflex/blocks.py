"""Device and network constraint blocks over Bernstein coefficients.

Each block lowers one device model (PV smart inverter, load, SOP, ESS,
SVC, capacitor bank) or the linearized Distflow network equations into
linear rows over the per-period coefficient variables of an abstract MILP,
plus per-period discrete selections (PV volt-var segment, capacitor step,
OLTC tap, ESS mode).  Affine device relations hold pointwise in t exactly
when they hold coefficient-wise; inequality limits are lowered
coefficient-wise, which is sufficient for the bound to hold for all t by
the convex-hull property (a conservative inner approximation).

Discrete device states are constant within each scheduling period: time-
varying selections over polynomial trajectories would not fit a finite
MILP, and per-period constancy is also what realizes the ESS minimum
charge/discharge duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bernstein
from .chance import ChanceMargins
from .milp import MilpProblem
from .netmodel import NetworkModel

__all__ = [
    "POLYGON_SIDES", "circle_polygon", "PeriodLayout", "BlockBuilder",
    "AssembledProblem", "FittedProfiles", "fit_profiles",
    "continuous_time_check",
]

N_COEF = 4  # cubic decision trajectories in continuous time
POLYGON_SIDES = 12  # sides of the polygon inscribed in each capacity disk


# -- capacity polygons --------------------------------------------------------


def _cos_sin(angle: float) -> tuple:
    """cos and sin of an angle, with rounding residue such as the 6e-17 of
    cos(pi/2) snapped to an exact 0.0 so it never becomes a matrix entry."""
    return tuple(0.0 if abs(v) < 1e-12 else v
                 for v in (math.cos(angle), math.sin(angle)))


def circle_polygon(s_max: float) -> tuple:
    """The regular POLYGON_SIDES-gon inscribed in the capacity disk p^2 + q^2
    <= s_max^2, as half-planes ((cos psi_k, sin psi_k, s_max cos(pi/n)), ...).

    Its vertices lie on the circle, so the polygon is an inner
    approximation and any accepted point is inside the true disk.
    """
    rhs = s_max * math.cos(math.pi / POLYGON_SIDES)
    return tuple((*_cos_sin(2 * math.pi * k / POLYGON_SIDES), rhs)
                 for k in range(POLYGON_SIDES))


# -- fitted input data --------------------------------------------------------


@dataclass(frozen=True)
class FittedProfiles:
    """Bernstein coefficients of the sampled inputs, (M, degree+1) each.

    The continuous-time transcription fits cubics; the discrete-time
    baseline fits degree 0, i.e. period means."""

    degree: int
    pv: tuple          # per pv unit
    load: tuple        # per load point


def fit_profiles(model: NetworkModel,
                 degree: int = N_COEF - 1) -> FittedProfiles:
    hz = model.horizon

    def coeffs(profile):
        return bernstein.fit(np.asarray(profile.times) + hz.t1,
                             profile.values,
                             hz.period, hz.t1, hz.n_periods, degree=degree)

    return FittedProfiles(
        degree,
        tuple(coeffs(pv.forecast) for pv in model.pv_units),
        tuple(coeffs(ld.profile) for ld in model.loads))


# -- layout -------------------------------------------------------------------


@dataclass
class PeriodLayout:
    """Variable handles for one period, keyed by entity index."""

    u: dict = field(default_factory=dict)          # node -> [4 ids]
    p_br: dict = field(default_factory=dict)       # branch -> [4 ids]
    q_br: dict = field(default_factory=dict)
    u_reg: dict = field(default_factory=dict)      # regulator branch -> [4 ids]
    z_oltc: dict = field(default_factory=dict)     # (branch, tap) -> [4 ids]
    lam_oltc: dict = field(default_factory=dict)   # branch -> [tap ids]
    p_pv: dict = field(default_factory=dict)
    q_pv: dict = field(default_factory=dict)
    pv_segment: dict = field(default_factory=dict)  # pv -> [b1, b2] binaries
    d_ess: dict = field(default_factory=dict)
    soe: dict = field(default_factory=dict)        # ess -> [5 ids]
    p_sop: dict = field(default_factory=dict)      # (sop, terminal) -> [4 ids]
    q_sop: dict = field(default_factory=dict)
    q_svc: dict = field(default_factory=dict)
    q_cap: dict = field(default_factory=dict)
    z_cap: dict = field(default_factory=dict)      # (cap, step) -> [4 ids]
    lam_cap: dict = field(default_factory=dict)
    # node -> [(P ids, P coefficient, Q ids, constant)]: each device
    # terminal there injects P coefficient * P + constant and Q
    injections: dict = field(default_factory=dict)
    s0: list = field(default_factory=list)
    p0: list = field(default_factory=list)
    q0: list = field(default_factory=list)


@dataclass
class AssembledProblem:
    """A built subproblem plus everything needed to interpret its solution.

    ``BlockBuilder.build`` gives the direction-free problem, whose
    ``theta`` is None; ``at`` gives each direction's subproblem from it."""

    problem: MilpProblem
    model: NetworkModel
    theta: float | None
    periods: list               # period indices 0..n_periods-1
    layouts: dict               # period -> PeriodLayout
    margins: ChanceMargins
    fitted: FittedProfiles
    n_coef: int
    # triplet index of S0's entry in each (pdir, qdir) row pair
    direction_entries: tuple = ()

    def at(self, theta: float) -> "AssembledProblem":
        """The subproblem of direction theta: a copy whose ``pdir`` and
        ``qdir`` rows hold -cos theta and -sin theta as S0's coefficients.
        The direction-free problem itself is left as it is."""
        if self.theta is not None:
            raise ValueError("at() takes the direction-free problem")
        c, s = _cos_sin(theta)
        entries = {}
        for p_entry, q_entry in self.direction_entries:
            entries[p_entry], entries[q_entry] = -c, -s
        problem = self.problem.with_entries(entries, f"slice@{theta:.6f}")
        return replace(self, problem=problem, theta=theta)


# -- the builder --------------------------------------------------------------


class BlockBuilder:
    """Emits device and network blocks for the direction-free problem over
    every scheduling period of the horizon."""

    def __init__(self, model: NetworkModel, *, margins: ChanceMargins,
                 fitted: FittedProfiles):
        self.model = model
        self.margins = margins
        self.fitted = fitted
        # the fitted degree fixes the transcription: cubic CT or one-value DT
        self.n_coef = self.fitted.degree + 1
        self.periods = list(range(model.horizon.n_periods))
        self.problem = MilpProblem(name="slice")
        self.layouts: dict = {}
        self.direction_entries: list = []
        self._parent = model.parent_branch()
        self._children = model.child_branches()

    # -- small helpers ------------------------------------------------------

    def _coef_vars(self, count: int, lb, ub, tag: str) -> list:
        return [self.problem.add_variable(lb, ub, name=f"{tag}_{k}")
                for k in range(count)]

    def _row(self, terms, sense, rhs, name):
        self.problem.add_constraint(terms, sense, rhs, name=name)

    def _one_hot(self, count: int, tag: str, row: str) -> list:
        """``count`` binaries ``{tag}_{j}``, exactly one of them on."""
        lam = [self.problem.add_variable(binary=True, name=f"{tag}_{j}")
               for j in range(count)]
        self._row([(l, 1.0) for l in lam], "==", 1.0, row)
        return lam

    def _disk(self, p_ids, q_ids, s_max: float, tag: str):
        """The capacity disk p^2 + q^2 <= s_max^2 on every coefficient, as
        the rows ``{tag}_poly{k}_{h}`` of its inscribed polygon."""
        poly = circle_polygon(s_max)
        for k in range(self.n_coef):
            for h, (c, s, rhs) in enumerate(poly):
                self._row([(p_ids[k], c), (q_ids[k], s)], "<=", rhs,
                          f"{tag}_poly{k}_{h}")

    def _inject(self, m: int, node: int, p_ids=(), q_ids=(),
                p_coef: float = 1.0, constant: float = 0.0):
        """Record a device's injection at ``node`` in period m, as
        ``PeriodLayout.injections`` holds it; either id list may be empty."""
        self.layouts[m].injections.setdefault(node, []).append(
            (p_ids, p_coef, q_ids, constant))

    # -- per-period scaffolding ---------------------------------------------

    def init_period(self, m: int) -> PeriodLayout:
        """Create the shared node-voltage, branch-flow, and TDI variables."""
        model = self.model
        layout = PeriodLayout()
        self.layouts[m] = layout
        for node in range(1, model.n_nodes):
            mu = self.margins.for_node(node)
            layout.u[node] = self._coef_vars(self.n_coef, model.u_min + mu,
                                             model.u_max - mu, f"U{node}_m{m}")
        for bi in range(len(model.branches)):
            layout.p_br[bi] = self._coef_vars(self.n_coef, -np.inf,
                                              np.inf, f"Pbr{bi}_m{m}")
            layout.q_br[bi] = self._coef_vars(self.n_coef, -np.inf,
                                              np.inf, f"Qbr{bi}_m{m}")
        layout.s0 = self._coef_vars(self.n_coef, 0.0, np.inf, f"S0_m{m}")
        layout.p0 = self._coef_vars(self.n_coef, -np.inf, np.inf, f"P0_m{m}")
        layout.q0 = self._coef_vars(self.n_coef, -np.inf, np.inf, f"Q0_m{m}")
        return layout

    # -- device blocks -------------------------------------------------------

    def pv_block(self, pi: int, m: int):
        """Volt-var segment selection, forecast cap, and capacity polygon.

        The three pieces of the volt-var curve (saturated high, droop,
        saturated low, in squared-voltage coordinates) are selected per
        period by two ordered knee binaries; the node voltage coefficients
        are confined to the selected piece and the reactive coefficients
        follow its affine law exactly.  The forecast cap is tightened by
        the unit's chance margin.
        """
        model = self.model
        pv = model.pv_units[pi]
        layout = self.layouts[m]
        u_ids = layout.u[pv.node]

        p_ids = self._coef_vars(self.n_coef, 0.0, pv.s_max,
                                f"Ppv{pi}_m{m}")
        q_ids = self._coef_vars(self.n_coef, -pv.q_max, pv.q_max,
                                f"Qpv{pi}_m{m}")
        layout.p_pv[pi] = p_ids
        layout.q_pv[pi] = q_ids
        self._inject(m, pv.node, p_ids, q_ids)

        margin = self.margins.for_pv(pi)
        fc = self.fitted.pv[pi][m]
        for k in range(self.n_coef):
            self._row([(p_ids[k], 1.0)], "<=", fc[k] - margin,
                      f"pv{pi}_m{m}_cap{k}")

        self._disk(p_ids, q_ids, pv.s_max, f"pv{pi}_m{m}")

        if pv.q_max > 0.0:
            # volt-var curve Q = q_max - beta clamp(U - U2, 0, W): the clamp
            # argument y is pinned by two ordered binaries, b1 = "past the
            # high knee" and b2 = "past the low knee", so each selected
            # piece makes the curve affine and exact with no big-M slack
            u1, u2, u3, u4 = pv.u_breaks
            width = u3 - u2
            beta = 2.0 * pv.q_max / width
            b1 = self.problem.add_variable(binary=True,
                                           name=f"pv{pi}_m{m}_seg_b1")
            b2 = self.problem.add_variable(binary=True,
                                           name=f"pv{pi}_m{m}_seg_b2")
            layout.pv_segment[pi] = [b1, b2]
            self._row([(b2, 1.0), (b1, -1.0)], "<=", 0.0,
                      f"pv{pi}_m{m}_segorder")
            y_ids = self._coef_vars(self.n_coef, 0.0, width,
                                    f"Ypv{pi}_m{m}")
            over_hi = model.u_max - u3
            under_lo = u2 - model.u_min
            for k in range(self.n_coef):
                u_k, q_k, y_k = u_ids[k], q_ids[k], y_ids[k]
                self._row([(y_k, 1.0), (b1, -width)], "<=", 0.0,
                          f"pv{pi}_m{m}_yzero{k}")
                self._row([(y_k, 1.0), (b2, -width)], ">=", 0.0,
                          f"pv{pi}_m{m}_ysat{k}")
                self._row([(y_k, 1.0), (u_k, -1.0), (b2, over_hi)],
                          ">=", -u2, f"pv{pi}_m{m}_ylo{k}")
                self._row([(y_k, 1.0), (u_k, -1.0), (b1, under_lo)],
                          "<=", under_lo - u2, f"pv{pi}_m{m}_yup{k}")
                self._row([(q_k, 1.0), (y_k, beta)], "==", pv.q_max,
                          f"pv{pi}_m{m}_curve{k}")
                if u1 > model.u_min:
                    self._row([(u_k, 1.0)], ">=", u1,
                              f"pv{pi}_m{m}_admlo{k}")
                if u4 < model.u_max:
                    self._row([(u_k, 1.0)], "<=", u4,
                              f"pv{pi}_m{m}_admhi{k}")

    def sop_block(self, si: int, m: int):
        """Terminal balance, per-terminal capacity polygon, and P box."""
        sop = self.model.sop_devices[si]
        layout = self.layouts[m]
        term_p = []
        for t, node in enumerate(sop.nodes):
            p_ids = self._coef_vars(self.n_coef, sop.p_min, sop.p_max,
                                    f"Psop{si}t{t}_m{m}")
            q_ids = self._coef_vars(self.n_coef, -sop.s_max, sop.s_max,
                                    f"Qsop{si}t{t}_m{m}")
            layout.p_sop[(si, t)] = p_ids
            layout.q_sop[(si, t)] = q_ids
            self._inject(m, node, p_ids, q_ids)
            term_p.append(p_ids)
            self._disk(p_ids, q_ids, sop.s_max, f"sop{si}t{t}_m{m}")
        abs_ids = []
        if sop.loss > 0.0:
            for t in range(2):
                a_ids = self._coef_vars(self.n_coef, 0.0, np.inf,
                                        f"AbsPsop{si}t{t}_m{m}")
                abs_ids.append(a_ids)
                for k in range(self.n_coef):
                    self._row([(a_ids[k], 1.0), (term_p[t][k], -1.0)],
                              ">=", 0.0, f"sop{si}t{t}_m{m}_absp{k}")
                    self._row([(a_ids[k], 1.0), (term_p[t][k], 1.0)],
                              ">=", 0.0, f"sop{si}t{t}_m{m}_absm{k}")
        for k in range(self.n_coef):
            terms = [(term_p[0][k], 1.0), (term_p[1][k], 1.0)]
            for a_ids in abs_ids:
                terms.append((a_ids[k], sop.loss))
            self._row(terms, "==", 0.0, f"sop{si}_m{m}_bal{k}")

    def svc_block(self, si: int, m: int):
        """Linear voltage droop: Q = 0.5 k (U - U_ref), exact coefficient-wise."""
        svc = self.model.svc_devices[si]
        layout = self.layouts[m]
        u_ids = layout.u[svc.node]
        ms = self.margins.for_svc(si)
        lb = -np.inf if svc.q_min is None else svc.q_min + ms
        ub = np.inf if svc.q_max is None else svc.q_max - ms
        q_ids = self._coef_vars(self.n_coef, lb, ub, f"Qsvc{si}_m{m}")
        layout.q_svc[si] = q_ids
        self._inject(m, svc.node, q_ids=q_ids)
        half_k = 0.5 * svc.slope
        for k in range(self.n_coef):
            self._row([(q_ids[k], 1.0), (u_ids[k], -half_k)], "==",
                      -half_k * svc.u_ref, f"svc{si}_m{m}_droop{k}")

    def _mccormick(self, lam: int, u_ids, tag: str) -> list:
        """New columns ``Z{tag}`` on [0, u_max] for z = lam * U, held by the
        four McCormick rows on [u_min, u_max] per coefficient, exact whenever
        lam is binary-valued; returns their ids."""
        lo, hi = self.model.u_min, self.model.u_max
        z_ids = self._coef_vars(self.n_coef, 0.0, hi, f"Z{tag}")
        for k in range(self.n_coef):
            z_k, u_k = z_ids[k], u_ids[k]
            self._row([(z_k, 1.0), (lam, -hi)], "<=", 0.0, f"{tag}_mc1c{k}")
            self._row([(z_k, 1.0), (lam, -lo)], ">=", 0.0, f"{tag}_mc2c{k}")
            self._row([(z_k, 1.0), (u_k, -1.0), (lam, -lo)], "<=", -lo,
                      f"{tag}_mc3c{k}")
            self._row([(z_k, 1.0), (u_k, -1.0), (lam, -hi)], ">=", -hi,
                      f"{tag}_mc4c{k}")
        return z_ids

    def capbank_block(self, ci: int, m: int):
        """One-hot binary step selection with a McCormick-exact
        susceptance-voltage product: Q_C = q_k lam_k U, one step active per
        period."""
        cap = self.model.cap_banks[ci]
        layout = self.layouts[m]
        u_ids = layout.u[cap.node]
        lam = self._one_hot(len(cap.steps), f"LamCap{ci}_m{m}",
                            f"cap{ci}_m{m}_onehot")
        layout.lam_cap[ci] = lam
        q_ids = self._coef_vars(self.n_coef, -np.inf, np.inf,
                                f"Qcap{ci}_m{m}")
        layout.q_cap[ci] = q_ids
        self._inject(m, cap.node, q_ids=q_ids)
        for j in range(len(cap.steps)):
            layout.z_cap[(ci, j)] = self._mccormick(lam[j], u_ids,
                                                    f"cap{ci}s{j}_m{m}")
        for k in range(self.n_coef):
            terms = [(q_ids[k], 1.0)]
            terms += [(layout.z_cap[(ci, j)][k], -q)
                      for j, q in enumerate(cap.steps)]
            self._row(terms, "==", 0.0, f"cap{ci}_m{m}_sum{k}")

    def ess_block(self, ei: int):
        """Charge/discharge trajectory with stored-energy tracking.

        D(t) in [0, 1] is the discharge fraction (C = 1 - D); the state of
        energy is its running integral, a degree-4 trajectory whose
        coefficients are confined to [0, E_max].  A per-period binary mode
        flag keeps each period on one side of D = 0.5, which realizes the
        minimum mode duration (``validate`` holds it to the period).
        With a single coefficient per period (DT) the flag is vacuous: one
        value of D always lies on one side of 0.5, and the flag's rows admit
        [0, 0.5] or [0.5, 1], whose union is D's own bound, so neither the
        binary nor its rows are emitted.
        """
        model = self.model
        ess = model.ess_devices[ei]
        step = model.horizon.period / self.n_coef
        kappa = ess.p_d / ess.eta_d + ess.eta_c * ess.p_c
        charge_gain = ess.eta_c * ess.p_c
        prev_end = None
        for m in self.periods:
            layout = self.layouts[m]
            d_ids = self._coef_vars(self.n_coef, 0.0, 1.0, f"D{ei}_m{m}")
            layout.d_ess[ei] = d_ids
            self._inject(m, ess.node, d_ids, p_coef=ess.p_d + ess.p_c,
                         constant=-ess.p_c)
            soe = self._coef_vars(self.n_coef + 1, 0.0, ess.e_max,
                                  f"SoE{ei}_m{m}")
            layout.soe[ei] = soe
            if prev_end is None:
                self._row([(soe[0], 1.0)], "==", ess.e_init,
                          f"ess{ei}_m{m}_init")
            else:
                self._row([(soe[0], 1.0), (prev_end, -1.0)], "==", 0.0,
                          f"ess{ei}_m{m}_chain")
            for j in range(self.n_coef):
                self._row([(soe[j + 1], 1.0), (soe[j], -1.0),
                           (d_ids[j], step * kappa)],
                          "==", step * charge_gain, f"ess{ei}_m{m}_soe{j}")
            prev_end = soe[-1]
            if self.n_coef > 1:
                flag = self.problem.add_variable(binary=True,
                                                 name=f"ess{ei}_m{m}_mode")
                for k in range(self.n_coef):
                    self._row([(d_ids[k], 1.0), (flag, -0.5)], ">=", 0.0,
                              f"ess{ei}_m{m}_dis{k}")
                    self._row([(d_ids[k], 1.0), (flag, -0.5)], "<=", 0.5,
                              f"ess{ei}_m{m}_chg{k}")

    def network_block(self, m: int):
        """Linearized Distflow: nodal balances over the injections that the
        device blocks recorded and the loads, then each branch's voltage drop
        U_from - 2 (r P + x Q) = sum of ratio^2 U over its downstream terms:
        U_to (plain), U_reg held within tau^2 U_to by band rows (regulator),
        or each tap's product Z_j = lam_j U_to with ratio a_j (OLTC)."""
        model = self.model
        layout = self.layouts[m]
        nodes = range(1, model.n_nodes)
        # minus each balance's right-hand side: the recorded constants,
        # negated, then the loads (data; Q at the load's power factor)
        p_rhs = {node: np.zeros(self.n_coef) for node in nodes}
        q_rhs = {node: np.zeros(self.n_coef) for node in nodes}
        for node, injections in layout.injections.items():
            for *_, constant in injections:
                p_rhs[node] -= constant
        for li, ld in enumerate(model.loads):
            p = self.fitted.load[li][m]
            p_rhs[ld.node] += p
            q_rhs[ld.node] += ld.phi * p

        for node in nodes:
            child = self._children[node]
            parent = self._parent[node]
            injections = layout.injections.get(node, ())
            for k in range(self.n_coef):
                # child flows - parent flow - injections = -load
                p_terms = [(layout.p_br[bi][k], 1.0) for bi in child]
                p_terms.append((layout.p_br[parent][k], -1.0))
                q_terms = [(layout.q_br[bi][k], 1.0) for bi in child]
                q_terms.append((layout.q_br[parent][k], -1.0))
                for p_ids, p_coef, q_ids, _ in injections:
                    if p_ids:
                        p_terms.append((p_ids[k], -p_coef))
                    if q_ids:
                        q_terms.append((q_ids[k], -1.0))
                self._row(p_terms, "==", -p_rhs[node][k],
                          f"net_m{m}_pbal{node}_{k}")
                self._row(q_terms, "==", -q_rhs[node][k],
                          f"net_m{m}_qbal{node}_{k}")

        for bi, br in enumerate(model.branches):
            u_to = layout.u[br.to_node]
            if br.kind == "plain":
                down = [(u_to, 1.0)]
            elif br.kind == "regulator":
                layout.u_reg[bi] = self._coef_vars(
                    self.n_coef, br.tau_min ** 2 * model.u_min,
                    br.tau_max ** 2 * model.u_max, f"Ureg{bi}_m{m}")
                down = [(layout.u_reg[bi], 1.0)]
            else:  # oltc
                lam = self._one_hot(len(br.taps), f"LamOltc{bi}_m{m}",
                                    f"oltc{bi}_m{m}_onehot")
                layout.lam_oltc[bi] = lam
                for j in range(len(br.taps)):
                    layout.z_oltc[(bi, j)] = self._mccormick(
                        lam[j], u_to, f"oltc{bi}t{j}_m{m}")
                down = [(layout.z_oltc[(bi, j)], a * a)
                        for j, a in enumerate(br.taps)]
            for k in range(self.n_coef):
                terms = [(layout.p_br[bi][k], -2.0 * br.r),
                         (layout.q_br[bi][k], -2.0 * br.x)]
                if br.from_node:      # the root's voltage is the constant u0
                    terms.append((layout.u[br.from_node][k], 1.0))
                terms += [(ids[k], -ratio2) for ids, ratio2 in down]
                self._row(terms, "==", 0.0 if br.from_node else -model.u0,
                          f"net_m{m}_drop{bi}_{k}")

            if br.kind == "regulator":
                for k in range(self.n_coef):
                    self._row([(layout.u_reg[bi][k], 1.0),
                               (u_to[k], -br.tau_min ** 2)],
                              ">=", 0.0, f"net_m{m}_reglo{bi}_{k}")
                    self._row([(layout.u_reg[bi][k], 1.0),
                               (u_to[k], -br.tau_max ** 2)],
                              "<=", 0.0, f"net_m{m}_regup{bi}_{k}")

    def tdi_block(self, m: int):
        """TDI injections are the root branch flows; the direction rows
        P0 = cos(theta) S0 and Q0 = sin(theta) S0 tie them to the
        nonnegative magnitude trajectory.  S0's coefficient in those rows
        is a placeholder that ``AssembledProblem.at`` overwrites; S0's
        columns come before P0's and Q0's, so it is each row's first
        entry."""
        layout = self.layouts[m]
        root_branches = self._children[0]
        for k in range(self.n_coef):
            terms = [(layout.p0[k], 1.0)]
            terms += [(layout.p_br[bi][k], -1.0) for bi in root_branches]
            self._row(terms, "==", 0.0, f"tdi_m{m}_pflow{k}")
            terms = [(layout.q0[k], 1.0)]
            terms += [(layout.q_br[bi][k], -1.0) for bi in root_branches]
            self._row(terms, "==", 0.0, f"tdi_m{m}_qflow{k}")
            pdir = self.problem.n_entries
            self._row([(layout.p0[k], 1.0), (layout.s0[k], -1.0)], "==",
                      0.0, f"tdi_m{m}_pdir{k}")
            qdir = self.problem.n_entries
            self._row([(layout.q0[k], 1.0), (layout.s0[k], -1.0)], "==",
                      0.0, f"tdi_m{m}_qdir{k}")
            self.direction_entries.append((pdir, qdir))

    # -- top level -----------------------------------------------------------

    def build(self) -> AssembledProblem:
        model = self.model
        for m in self.periods:
            self.init_period(m)
            for pi in range(len(model.pv_units)):
                self.pv_block(pi, m)
            for si in range(len(model.sop_devices)):
                self.sop_block(si, m)
            for si in range(len(model.svc_devices)):
                self.svc_block(si, m)
            for ci in range(len(model.cap_banks)):
                self.capbank_block(ci, m)
        for ei in range(len(model.ess_devices)):
            self.ess_block(ei)
        for m in self.periods:
            self.network_block(m)
            self.tdi_block(m)
        weight = model.horizon.period / self.n_coef
        objective = {}
        for m in self.periods:
            for vid in self.layouts[m].s0:
                objective[vid] = weight
        self.problem.set_objective(objective, sense="max")
        return AssembledProblem(
            problem=self.problem, model=model, theta=None,
            periods=list(self.periods), layouts=self.layouts,
            margins=self.margins, fitted=self.fitted,
            n_coef=self.n_coef,
            direction_entries=tuple(self.direction_entries),
        )


# -- continuous-time sampling checker -----------------------------------------


# the continuous-time check samples N_TIMES random times per period; an
# affine relation must hold to EQ_TOL there, and a limit must not be broken
# by more than FEAS_TOL, the backend's feasibility tolerance
N_TIMES = 200
EQ_TOL = 1e-8
FEAS_TOL = 1e-7


def continuous_time_check(assembled: AssembledProblem, values,
                          rng=None) -> dict:
    """Sample every device relation in continuous time at a solution.

    Affine relations (balances, voltage drops, droops, direction coupling)
    are evaluated at N_TIMES random times per period and must agree to
    EQ_TOL; inequality-type limits (voltage band, capacity polygons vs. the
    exact disk, D in [0, 1], stored-energy bounds, forecast cap) must never
    be violated beyond FEAS_TOL.  Returns a dict with the max equality
    residual and the list of inequality violations.
    """
    rng = rng or np.random.default_rng(0)
    model = assembled.model
    values = np.asarray(values, dtype=float)
    basis = bernstein.basis_matrix
    max_eq = 0.0
    violations: list[str] = []

    def traj(ids) -> np.ndarray:
        return values[np.asarray(ids)]

    for m in assembled.periods:
        layout = assembled.layouts[m]
        s = rng.random(N_TIMES)
        bz_dec = basis(assembled.n_coef - 1, s)
        bz_soe = basis(assembled.n_coef, s)

        def at(ids, b=None):
            return (bz_dec if b is None else b) @ traj(ids)

        u_t = {node: at(ids) for node, ids in layout.u.items()}
        u_t[0] = np.full(N_TIMES, model.u0)
        p_br = {bi: at(ids) for bi, ids in layout.p_br.items()}
        q_br = {bi: at(ids) for bi, ids in layout.q_br.items()}

        for node in range(1, model.n_nodes):
            mu = assembled.margins.for_node(node)
            lo, hi = model.u_min + mu, model.u_max - mu
            bad = np.maximum(u_t[node] - hi, lo - u_t[node])
            if np.any(bad > FEAS_TOL):
                violations.append(
                    f"period {m} node {node}: voltage branch outside "
                    f"[{lo}, {hi}] by {bad.max():.3e}")

        inj_p = {node: np.zeros(N_TIMES) for node in range(1, model.n_nodes)}
        inj_q = {node: np.zeros(N_TIMES) for node in range(1, model.n_nodes)}
        for pi, pv in enumerate(model.pv_units):
            p_t, q_t = at(layout.p_pv[pi]), at(layout.q_pv[pi])
            inj_p[pv.node] += p_t
            inj_q[pv.node] += q_t
            r_t = np.hypot(p_t, q_t)
            if np.any(r_t > pv.s_max + FEAS_TOL):
                violations.append(
                    f"period {m} pv {pi}: apparent power {r_t.max():.6f} "
                    f"outside the {pv.s_max} disk")
            fc_t = bz_dec @ assembled.fitted.pv[pi][m]
            margin = assembled.margins.for_pv(pi)
            if np.any(p_t > fc_t - margin + FEAS_TOL):
                violations.append(f"period {m} pv {pi}: forecast cap violated")
            if np.any(p_t < -FEAS_TOL):
                violations.append(f"period {m} pv {pi}: negative output")
            if pv.q_max > 0.0:
                u1, u2, u3, u4 = pv.u_breaks
                beta = 2.0 * pv.q_max / (u3 - u2)
                b1, b2 = (values[b] for b in layout.pv_segment[pi])
                u_pv = u_t[pv.node]
                if b1 < 0.5:
                    q_expect = np.full(N_TIMES, pv.q_max)
                    band_bad = u_pv > u2 + FEAS_TOL
                elif b2 < 0.5:
                    q_expect = pv.q_max - beta * (u_pv - u2)
                    band_bad = (u_pv < u2 - FEAS_TOL) | (u_pv > u3 + FEAS_TOL)
                else:
                    q_expect = np.full(N_TIMES, -pv.q_max)
                    band_bad = u_pv < u3 - FEAS_TOL
                if np.any(band_bad):
                    violations.append(
                        f"period {m} pv {pi}: voltage leaves the selected "
                        "volt-var segment")
                max_eq = max(max_eq, float(np.abs(q_t - q_expect).max()))
        for li, ld in enumerate(model.loads):
            p_t = bz_dec @ assembled.fitted.load[li][m]
            inj_p[ld.node] -= p_t
            inj_q[ld.node] -= ld.phi * p_t
        for ei, ess in enumerate(model.ess_devices):
            d_t = at(layout.d_ess[ei])
            if np.any((d_t < -FEAS_TOL) | (d_t > 1 + FEAS_TOL)):
                violations.append(f"period {m} ess {ei}: D outside [0, 1]")
            soe_t = at(layout.soe[ei], bz_soe)
            if np.any((soe_t < -FEAS_TOL * max(1.0, ess.e_max))
                      | (soe_t > ess.e_max * (1 + FEAS_TOL) + FEAS_TOL)):
                violations.append(f"period {m} ess {ei}: SoE outside bounds")
            inj_p[ess.node] += d_t * (ess.p_d + ess.p_c) - ess.p_c
        for si, sop in enumerate(model.sop_devices):
            total = np.zeros(N_TIMES)
            for t, node in enumerate(sop.nodes):
                p_t = at(layout.p_sop[(si, t)])
                q_t = at(layout.q_sop[(si, t)])
                inj_p[node] += p_t
                inj_q[node] += q_t
                total += p_t
                if np.any(np.hypot(p_t, q_t) > sop.s_max + FEAS_TOL):
                    violations.append(
                        f"period {m} sop {si} terminal {t}: capacity disk")
                if np.any((p_t < sop.p_min - FEAS_TOL)
                          | (p_t > sop.p_max + FEAS_TOL)):
                    violations.append(
                        f"period {m} sop {si} terminal {t}: P box")
            if sop.loss == 0.0:
                max_eq = max(max_eq, float(np.abs(total).max()))
        for si, svc in enumerate(model.svc_devices):
            q_t = at(layout.q_svc[si])
            inj_q[svc.node] += q_t
            resid = q_t - 0.5 * svc.slope * (u_t[svc.node] - svc.u_ref)
            max_eq = max(max_eq, float(np.abs(resid).max()))
        for ci, cap in enumerate(model.cap_banks):
            q_t = at(layout.q_cap[ci])
            inj_q[cap.node] += q_t
            lam = traj(layout.lam_cap[ci])
            j = int(np.argmax(lam))
            resid = q_t - cap.steps[j] * u_t[cap.node]
            max_eq = max(max_eq, float(np.abs(resid).max()))

        children = model.child_branches()
        parent = model.parent_branch()
        for node in range(1, model.n_nodes):
            flow_p = sum(p_br[bi] for bi in children[node]) - p_br[parent[node]]
            flow_q = sum(q_br[bi] for bi in children[node]) - q_br[parent[node]]
            max_eq = max(max_eq, float(np.abs(flow_p - inj_p[node]).max()))
            max_eq = max(max_eq, float(np.abs(flow_q - inj_q[node]).max()))
        for bi, br in enumerate(model.branches):
            drop = 2.0 * (br.r * p_br[bi] + br.x * q_br[bi])
            if br.kind == "plain":
                resid = u_t[br.from_node] - u_t[br.to_node] - drop
            elif br.kind == "regulator":
                u_reg_t = at(layout.u_reg[bi])
                resid = u_t[br.from_node] - u_reg_t - drop
                band_lo = br.tau_min ** 2 * u_t[br.to_node] - u_reg_t
                band_hi = u_reg_t - br.tau_max ** 2 * u_t[br.to_node]
                if np.any(band_lo > FEAS_TOL) or np.any(band_hi > FEAS_TOL):
                    violations.append(f"period {m} branch {bi}: regulator band")
            else:
                lam = traj(layout.lam_oltc[bi])
                j = int(np.argmax(lam))
                u_oltc_t = br.taps[j] ** 2 * u_t[br.to_node]
                resid = u_t[br.from_node] - u_oltc_t - drop
            max_eq = max(max_eq, float(np.abs(resid).max()))

        s0_t = at(layout.s0)
        p0_t = at(layout.p0)
        q0_t = at(layout.q0)
        if np.any(s0_t < -FEAS_TOL):
            violations.append(f"period {m}: S0 negative")
        max_eq = max(max_eq, float(np.abs(
            p0_t - math.cos(assembled.theta) * s0_t).max()))
        max_eq = max(max_eq, float(np.abs(
            q0_t - math.sin(assembled.theta) * s0_t).max()))
        root_p = sum(p_br[bi] for bi in children[0])
        root_q = sum(q_br[bi] for bi in children[0])
        max_eq = max(max_eq, float(np.abs(p0_t - root_p).max()))
        max_eq = max(max_eq, float(np.abs(q0_t - root_q).max()))

    ok = max_eq <= EQ_TOL and not violations
    return {"max_equality_residual": max_eq, "violations": violations, "ok": ok}
