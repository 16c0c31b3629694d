"""Gaussian chance-constraint margins.

Uncertain inputs enter the constraint system as additive zero-mean Gaussian
offsets u.  The dependent variables y follow them through the equality
system B y + F u = 0, so eliminating y makes every inequality's
u-dependence explicit; a row required to hold with probability 1-alpha is
then tightened by the alpha-quantile of its induced Gaussian slack.
Row-wise (individual) chance constraints only — no joint guarantees are
attempted.

``compute_margins`` decides which row families get a margin and how large;
the block builder only applies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:               # netmodel imports this module
    from .netmodel import NetworkModel

__all__ = [
    "SingularSystemError", "norm_quantile", "gaussian_margin", "propagate",
    "ChanceMargins", "ResponseSystem", "scalar_response_system",
    "compute_margins",
]


class SingularSystemError(ValueError):
    """The dependent-variable equality system is not invertible."""


# standard normal inverse CDF (Wichura's AS241, accurate to ~1e-16)
norm_quantile = NormalDist().inv_cdf


def gaussian_margin(alpha: float, g: np.ndarray, sigma2: np.ndarray) -> float:
    """z_{1-alpha} * std of g @ u for independent N(0, sigma2) sources."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha {alpha} outside (0, 0.5]")
    var = float(np.dot(np.asarray(g) ** 2, np.asarray(sigma2)))
    return norm_quantile(1.0 - alpha) * math.sqrt(max(var, 0.0))


def propagate(b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Response of the dependent variables to the offsets.

    Eliminating y from ``b y + f u = 0`` (b square and invertible) gives
    y = -inv(b) f u; returns -inv(b) f, one row per dependent variable.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise SingularSystemError(f"dependent system is not square: {b.shape}")
    try:
        return np.linalg.solve(b, -np.asarray(f, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"dependent system is singular: {exc}") from exc


@dataclass(frozen=True)
class ChanceMargins:
    """Per-row-family tightening amounts (one margin covers all Bernstein
    coefficients of a family because the offsets are constant in time)."""

    u_node: dict = field(default_factory=dict)   # node -> voltage margin
    pv_cap: dict = field(default_factory=dict)   # pv index -> forecast margin
    svc: dict = field(default_factory=dict)      # svc index -> output margin

    def for_node(self, node: int) -> float:
        return self.u_node.get(node, 0.0)

    def for_pv(self, idx: int) -> float:
        return self.pv_cap.get(idx, 0.0)

    def for_svc(self, idx: int) -> float:
        return self.svc.get(idx, 0.0)


@dataclass(frozen=True)
class ResponseSystem:
    """Equality system B y + F u = 0 for the network's response to the
    constant-in-time offsets, at one device-selection pattern.

    Unknowns y: node voltages (1..N), branch P flows, branch Q flows, SVC
    outputs.  Sources u: one per PV unit (forecast offsets; zero columns
    here since they touch no equality) followed by one per load.
    """

    b: np.ndarray
    f: np.ndarray
    u_index: dict          # node -> row/col of its voltage unknown
    svc_index: dict
    sigma2: np.ndarray     # per source, pv first then loads


def scalar_response_system(model: NetworkModel, *,
                           cap_steps: dict | None = None,
                           oltc_a2: dict | None = None,
                           reg_ratio2: dict | None = None) -> ResponseSystem:
    """Network response to load offsets at a fixed selection pattern.

    Defaults form the conservative reference pattern used for margin
    computation: the largest capacitor step (strongest destabilizing
    voltage feedback), the smallest OLTC tap and regulator ratio (largest
    downstream amplification), and no PV reactive response (the scheduled
    reactive trajectory is held, not re-tracked, under offsets).
    """
    n = model.n_nodes - 1
    nb = len(model.branches)
    ns = len(model.svc_devices)
    size = n + 2 * nb + ns
    u_index = {node: node - 1 for node in range(1, model.n_nodes)}
    pbr = {bi: n + bi for bi in range(nb)}
    qbr = {bi: n + nb + bi for bi in range(nb)}
    svc_index = {si: n + 2 * nb + si for si in range(ns)}

    n_pv = len(model.pv_units)
    n_src = n_pv + len(model.loads)
    b = np.zeros((size, size))
    f = np.zeros((size, n_src))

    children = model.child_branches()
    parent = model.parent_branch()
    row = 0
    for node in range(1, model.n_nodes):
        # active, then reactive balance: child flows - parent flow
        for flow in (pbr, qbr):
            for bi in children[node]:
                b[row, flow[bi]] += 1.0
            b[row, flow[parent[node]]] -= 1.0
            row += 1
    # each device and load writes into its node's active balance, row
    # 2 (node - 1), and reactive balance, the row after it
    for si, svc in enumerate(model.svc_devices):
        b[2 * svc.node - 1, svc_index[si]] -= 1.0
    for ci, cap in enumerate(model.cap_banks):
        default = max(cap.steps, key=abs) if cap.steps else 0.0
        b[2 * cap.node - 1, u_index[cap.node]] -= \
            (cap_steps or {}).get(ci, default)
    for s, ld in enumerate(model.loads):
        f[2 * ld.node - 2, n_pv + s] += 1.0
        f[2 * ld.node - 1, n_pv + s] += ld.phi
    for bi, br in enumerate(model.branches):
        if br.from_node != 0:
            b[row, u_index[br.from_node]] += 1.0
        if br.kind == "plain":
            ratio = 1.0
        elif br.kind == "regulator":
            ratio = (reg_ratio2 or {}).get(bi, min(br.tau_min, 1.0) ** 2)
        else:
            ratio = (oltc_a2 or {}).get(bi, min(a * a for a in br.taps))
        b[row, u_index[br.to_node]] -= ratio
        b[row, pbr[bi]] -= 2.0 * br.r
        b[row, qbr[bi]] -= 2.0 * br.x
        row += 1
    for si, svc in enumerate(model.svc_devices):
        b[row, svc_index[si]] += 1.0
        b[row, u_index[svc.node]] -= 0.5 * svc.slope
        row += 1
    assert row == size

    sigma2 = np.array([pv.sigma2 for pv in model.pv_units]
                      + [ld.sigma2 for ld in model.loads])
    return ResponseSystem(b, f, u_index, svc_index, sigma2)


def compute_margins(model: NetworkModel) -> ChanceMargins:
    """Chance-constraint margins per tightened row family.

    Load offsets propagate through the network equalities (at the
    conservative reference response pattern); PV forecast offsets hit the
    forecast-cap rows directly.  One margin covers every Bernstein
    coefficient of a family because the offsets are constant in time.
    """
    z = norm_quantile(1.0 - model.alpha)
    system = scalar_response_system(model)
    if z <= 0.0 or not np.any(system.sigma2 > 0.0):
        return ChanceMargins()

    response = propagate(system.b, system.f)

    def margin(yi: int) -> float:
        return gaussian_margin(model.alpha, response[yi], system.sigma2)

    u_node = {node: margin(yi) for node, yi in system.u_index.items()}
    svc = {si: margin(system.svc_index[si])
           for si, dev in enumerate(model.svc_devices)
           if dev.q_min is not None or dev.q_max is not None}
    pv_cap = {
        pi: z * math.sqrt(pv.sigma2) for pi, pv in enumerate(model.pv_units)
    }
    return ChanceMargins(u_node=u_node, pv_cap=pv_cap, svc=svc)
