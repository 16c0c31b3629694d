"""Network and device data model, validation, and file ingestion.

A model is a radial grid rooted at node 0 (the transmission-distribution
interface) plus the flexibility devices attached to it, the Gaussian
uncertainty description, and the assessment horizon.  Everything is
per-unit on the declared base.  Models are immutable after construction
and safe to share across parallel workers.

The on-disk form is a single JSON file with sections
nodes/branches/devices/uncertainty/horizon; sampled profiles live in CSV
sidecar files with header ``t,value`` (seconds since t1) or inline arrays.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Profile", "Branch", "PvUnit", "LoadPoint", "EssDevice", "SopDevice",
    "SvcDevice", "CapacitorBank", "Horizon",
    "NetworkModel", "ModelError", "ParseError", "ValidationError",
    "load_model", "serialize", "validate",
]

BRANCH_KINDS = ("plain", "oltc", "regulator")

DEFAULT_U_MIN = 0.95 ** 2
DEFAULT_U_MAX = 1.05 ** 2


class ModelError(Exception):
    """Base class for model ingestion failures."""


class ParseError(ModelError):
    """The file is malformed or does not follow the schema."""


class ValidationError(ModelError):
    """The parsed model violates an invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("model validation failed:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True)
class Profile:
    """Uniformly sampled series; times are seconds relative to the model t1."""

    times: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.times) != len(self.values):
            raise ParseError("profile times/values length mismatch")

    @classmethod
    def from_csv(cls, path: str) -> "Profile":
        times, values = [], []
        with open(path, newline="") as fp:
            reader = csv.reader(fp)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["t", "value"]:
                raise ParseError(f"{path}: expected CSV header 't,value'")
            for row in reader:
                if not row:
                    continue
                try:
                    times.append(float(row[0]))
                    values.append(float(row[1]))
                except (ValueError, IndexError) as exc:
                    raise ParseError(f"{path}: bad row {row!r}") from exc
        return cls(tuple(times), tuple(values))

    def to_csv(self, path: str):
        with open(path, "w", newline="") as fp:
            w = csv.writer(fp)
            w.writerow(["t", "value"])
            for t, v in zip(self.times, self.values):
                w.writerow([repr(t), repr(v)])

    def times_array(self) -> np.ndarray:
        return np.asarray(self.times)

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values)


@dataclass(frozen=True)
class Branch:
    from_node: int
    to_node: int
    r: float
    x: float
    kind: str = "plain"
    taps: tuple = ()               # OLTC ratio options a_k
    tau_min: float = 1.0           # regulator ratio band
    tau_max: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(float(a) for a in self.taps))


@dataclass(frozen=True)
class PvUnit:
    node: int
    s_max: float
    q_max: float
    u_breaks: tuple                # squared-voltage breakpoints U1 <= U2 < U3 <= U4
    forecast: Profile
    sigma2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "u_breaks", tuple(float(u) for u in self.u_breaks))


@dataclass(frozen=True)
class LoadPoint:
    node: int
    profile: Profile
    phi: float = 0.0               # Q = phi * P (fixed power factor)
    sigma2: float = 0.0


@dataclass(frozen=True)
class EssDevice:
    node: int
    e_max: float                   # p.u. * seconds
    e_init: float
    eta_c: float
    eta_d: float
    p_c: float
    p_d: float
    t_min_charge: float = 0.0
    t_min_discharge: float = 0.0


@dataclass(frozen=True)
class SopDevice:
    nodes: tuple                   # the two terminal nodes
    s_max: float
    p_min: float
    p_max: float
    loss: float = 0.0              # linear conversion-loss coefficient

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))


@dataclass(frozen=True)
class SvcDevice:
    node: int
    slope: float                   # k_SVC; Q = 0.5 * k * (U - U_ref)
    u_ref: float = 1.0
    q_min: float | None = None     # optional output limits, off by default
    q_max: float | None = None


@dataclass(frozen=True)
class CapacitorBank:
    node: int
    steps: tuple                   # selectable susceptances q_Ck

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(float(q) for q in self.steps))


@dataclass(frozen=True)
class Horizon:
    t1: float
    t2: float
    period: float

    @property
    def n_periods(self) -> int:
        return int(round((self.t2 - self.t1) / self.period))


@dataclass(frozen=True)
class NetworkModel:
    n_nodes: int                   # node ids 0..n_nodes-1; node 0 is the TDI
    branches: tuple
    horizon: Horizon
    pv_units: tuple = ()
    loads: tuple = ()
    ess_devices: tuple = ()
    sop_devices: tuple = ()
    svc_devices: tuple = ()
    cap_banks: tuple = ()
    alpha: float = 0.5
    u_min: float = DEFAULT_U_MIN
    u_max: float = DEFAULT_U_MAX
    u0: float = 1.0                # squared TDI voltage (held by the TN)
    base_mva: float = 1.0
    base_kv: float = 1.0

    def __post_init__(self):
        for name in ("branches", "pv_units", "loads", "ess_devices",
                     "sop_devices", "svc_devices", "cap_banks"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    # -- topology helpers ---------------------------------------------------

    def parent_branch(self) -> dict:
        """node -> index of the branch whose to_node is that node."""
        return {br.to_node: i for i, br in enumerate(self.branches)}

    def child_branches(self) -> dict:
        """node -> indices of branches leaving that node."""
        out: dict = {n: [] for n in range(self.n_nodes)}
        for i, br in enumerate(self.branches):
            out[br.from_node].append(i)
        return out


def _tree_violations(model: NetworkModel) -> list[str]:
    n = model.n_nodes
    out = []
    if len(model.branches) != n - 1:
        out.append(f"branches: expected {n - 1} for a spanning tree on "
                   f"{n} nodes, got {len(model.branches)}")
    seen_child: dict = {}
    for i, br in enumerate(model.branches):
        for node in (br.from_node, br.to_node):
            if not 0 <= node < n:
                out.append(f"branch {i}: node {node} does not exist")
        if br.to_node == 0:
            out.append(f"branch {i}: node 0 cannot be a child (tree is rooted there)")
        if br.to_node in seen_child:
            out.append(f"branch {i}: node {br.to_node} has two parents "
                       f"(branches {seen_child[br.to_node]} and {i}) — not a tree")
        seen_child[br.to_node] = i
    if out:
        return out
    # reachability from the root along parent->child orientation
    children = model.child_branches()
    reached = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for bi in children[node]:
            child = model.branches[bi].to_node
            if child not in reached:
                reached.add(child)
                stack.append(child)
    if len(reached) != n:
        missing = sorted(set(range(n)) - reached)
        out.append(f"branches do not form a tree rooted at node 0: "
                   f"nodes {missing} unreachable")
    return out


def _profile_violations(owner: str, profile: Profile, horizon: Horizon,
                        n_periods: int, nonnegative: bool) -> list[str]:
    out = []
    if len(profile.times) < 2:
        out.append(f"{owner}: profile needs at least 2 samples")
        return out
    t = profile.times_array() + horizon.t1
    if t[0] > horizon.t1 + 1e-9 or t[-1] < horizon.t2 - 1e-9:
        out.append(f"{owner}: profile does not cover the horizon "
                   f"[{horizon.t1}, {horizon.t2}]")
    if np.any(np.diff(t) <= 0):
        out.append(f"{owner}: profile times not strictly increasing")
    # the cubic fit needs >= 4 samples in every period
    for m in range(n_periods):
        lo = horizon.t1 + m * horizon.period
        hi = lo + horizon.period
        last = m == n_periods - 1
        below = (t <= hi + 1e-9) if last else (t < hi - 1e-9)
        count = int(np.sum((t >= lo - 1e-9) & below))
        if count < 4:
            out.append(f"{owner}: period {m} holds {count} samples; need >= 4")
    if nonnegative and any(v < 0 for v in profile.values):
        out.append(f"{owner}: forecast samples must be nonnegative")
    return out


def validate(model: NetworkModel) -> list[str]:
    """All invariant violations, each naming the offending entity and rule.

    An empty list means the model is sound; violations are data, not errors.
    """
    out = []
    if model.n_nodes < 2:
        out.append("model: need at least 2 nodes (TDI plus one)")
        return out

    hz = model.horizon
    ratio = (hz.t2 - hz.t1) / hz.period if hz.period > 0 else math.nan
    n_periods = round(ratio) if math.isfinite(ratio) else 0
    if n_periods < 1 or abs(ratio - n_periods) > 1e-9:
        out.append(f"horizon: (t2-t1)/period = {hz.t2 - hz.t1}/{hz.period} "
                   "is not a positive integer")

    out.extend(_tree_violations(model))

    for i, br in enumerate(model.branches):
        if br.kind not in BRANCH_KINDS:
            out.append(f"branch {i}: unknown class {br.kind!r}")
        if br.r < 0 or br.x < 0:
            out.append(f"branch {i}: negative impedance (r={br.r}, x={br.x})")
        if br.kind == "oltc" and not br.taps:
            out.append(f"branch {i}: OLTC tap list is empty")
        if br.kind == "regulator" and br.tau_min > br.tau_max:
            out.append(f"branch {i}: regulator tau_min {br.tau_min} > tau_max {br.tau_max}")

    def check_node(owner, node):
        if not 0 <= node < model.n_nodes:
            out.append(f"{owner}: node {node} does not exist")

    for k, pv in enumerate(model.pv_units):
        owner = f"pv {k} (node {pv.node})"
        check_node(owner, pv.node)
        if not 0 <= pv.q_max <= pv.s_max:
            out.append(f"{owner}: need 0 <= q_max <= s_max, got "
                       f"q_max={pv.q_max}, s_max={pv.s_max}")
        if len(pv.u_breaks) != 4:
            out.append(f"{owner}: u_breaks must have 4 entries")
        else:
            u1, u2, u3, u4 = pv.u_breaks
            if not (u1 <= u2 < u3 <= u4):
                out.append(f"{owner}: u_breaks must satisfy U1 <= U2 < U3 <= U4, "
                           f"got {pv.u_breaks}")
        if pv.sigma2 < 0:
            out.append(f"{owner}: negative variance")
        out.extend(_profile_violations(owner, pv.forecast, hz, n_periods,
                                       True))

    for k, ld in enumerate(model.loads):
        owner = f"load {k} (node {ld.node})"
        check_node(owner, ld.node)
        if ld.sigma2 < 0:
            out.append(f"{owner}: negative variance")
        out.extend(_profile_violations(owner, ld.profile, hz, n_periods,
                                       False))

    for k, ess in enumerate(model.ess_devices):
        owner = f"ess {k} (node {ess.node})"
        check_node(owner, ess.node)
        if not 0 <= ess.e_init <= ess.e_max:
            out.append(f"{owner}: initial energy {ess.e_init} outside [0, {ess.e_max}]")
        if not (0 < ess.eta_c <= 1 and 0 < ess.eta_d <= 1):
            out.append(f"{owner}: efficiencies must lie in (0, 1]")
        if ess.p_c < 0 or ess.p_d < 0:
            out.append(f"{owner}: negative power rating")

    for k, sop in enumerate(model.sop_devices):
        owner = f"sop {k} (nodes {sop.nodes})"
        if len(sop.nodes) != 2 or sop.nodes[0] == sop.nodes[1]:
            out.append(f"{owner}: SOP terminals must be two distinct nodes")
        for node in sop.nodes:
            check_node(owner, node)
        if sop.p_min > sop.p_max:
            out.append(f"{owner}: p_min > p_max")
        if sop.s_max < 0 or sop.loss < 0:
            out.append(f"{owner}: negative capacity or loss")

    for k, svc in enumerate(model.svc_devices):
        check_node(f"svc {k} (node {svc.node})", svc.node)

    for k, cap in enumerate(model.cap_banks):
        owner = f"cap {k} (node {cap.node})"
        check_node(owner, cap.node)
        if not cap.steps:
            out.append(f"{owner}: no susceptance steps")

    if not 0 < model.alpha <= 0.5:
        out.append(f"uncertainty: alpha {model.alpha} outside (0, 0.5]")
    if not model.u_min < model.u_max:
        out.append(f"voltage: u_min {model.u_min} must be below u_max {model.u_max}")
    return out


# -- file schema -------------------------------------------------------------


def _load_profile(entry, base_dir: str) -> Profile:
    if isinstance(entry, str):
        return Profile.from_csv(os.path.join(base_dir, entry))
    if isinstance(entry, dict) and "t" in entry and "value" in entry:
        return Profile(tuple(entry["t"]), tuple(entry["value"]))
    raise ParseError(f"profile entry must be a CSV path or {{t, value}} arrays, "
                     f"got {type(entry).__name__}")


def load_model(path: str) -> NetworkModel:
    """Parse and validate a model file; raises ParseError / ValidationError."""
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        model = _model_from_doc(doc, base_dir)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: schema error: {exc}") from exc
    violations = validate(model)
    if violations:
        raise ValidationError(violations)
    return model


def _model_from_doc(doc: dict, base_dir: str) -> NetworkModel:
    hz = doc["horizon"]
    horizon = Horizon(float(hz["t1"]), float(hz["t2"]), float(hz["period"]))
    voltage = doc.get("voltage", {})
    branches = tuple(
        Branch(int(b["from"]), int(b["to"]), float(b["r"]), float(b["x"]),
               kind=b.get("kind", "plain"), taps=tuple(b.get("taps", ())),
               tau_min=float(b.get("tau_min", 1.0)),
               tau_max=float(b.get("tau_max", 1.0)))
        for b in doc["branches"]
    )
    pv_units = tuple(
        PvUnit(int(p["node"]), float(p["s_max"]), float(p["q_max"]),
               tuple(p["u_breaks"]), _load_profile(p["forecast"], base_dir),
               sigma2=float(p.get("sigma2", 0.0)))
        for p in doc.get("pv_units", ())
    )
    loads = tuple(
        LoadPoint(int(d["node"]), _load_profile(d["profile"], base_dir),
                  phi=float(d.get("phi", 0.0)), sigma2=float(d.get("sigma2", 0.0)))
        for d in doc.get("loads", ())
    )
    ess = tuple(
        EssDevice(int(e["node"]), float(e["e_max"]), float(e["e_init"]),
                  float(e["eta_c"]), float(e["eta_d"]),
                  float(e["p_c"]), float(e["p_d"]),
                  t_min_charge=float(e.get("t_min_charge", 0.0)),
                  t_min_discharge=float(e.get("t_min_discharge", 0.0)))
        for e in doc.get("ess", ())
    )
    sops = tuple(
        SopDevice(tuple(s["nodes"]), float(s["s_max"]),
                  float(s["p_min"]), float(s["p_max"]),
                  loss=float(s.get("loss", 0.0)))
        for s in doc.get("sop", ())
    )
    svcs = tuple(
        SvcDevice(int(s["node"]), float(s["slope"]),
                  u_ref=float(s.get("u_ref", 1.0)),
                  q_min=(None if s.get("q_min") is None else float(s["q_min"])),
                  q_max=(None if s.get("q_max") is None else float(s["q_max"])))
        for s in doc.get("svc", ())
    )
    caps = tuple(
        CapacitorBank(int(c["node"]), tuple(c["steps"]))
        for c in doc.get("cap_banks", ())
    )
    return NetworkModel(
        n_nodes=int(doc["nodes"]),
        branches=branches,
        horizon=horizon,
        pv_units=pv_units,
        loads=loads,
        ess_devices=ess,
        sop_devices=sops,
        svc_devices=svcs,
        cap_banks=caps,
        alpha=float(doc.get("uncertainty", {}).get("alpha", 0.5)),
        u_min=float(voltage.get("u_min", DEFAULT_U_MIN)),
        u_max=float(voltage.get("u_max", DEFAULT_U_MAX)),
        u0=float(voltage.get("u0", 1.0)),
        base_mva=float(doc.get("base_mva", 1.0)),
        base_kv=float(doc.get("base_kv", 1.0)),
    )


def serialize(model: NetworkModel, path: str):
    """Write the model JSON plus profile CSV sidecars next to it.

    load_model(serialize(model)) reproduces the model exactly; floats are
    written with repr so they round-trip bit-for-bit.
    """
    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    doc: dict = {
        "base_mva": model.base_mva,
        "base_kv": model.base_kv,
        "nodes": model.n_nodes,
        "horizon": {"t1": model.horizon.t1, "t2": model.horizon.t2,
                    "period": model.horizon.period},
        "voltage": {"u_min": model.u_min, "u_max": model.u_max, "u0": model.u0},
        "branches": [
            {"from": b.from_node, "to": b.to_node, "r": b.r, "x": b.x,
             "kind": b.kind,
             **({"taps": list(b.taps)} if b.kind == "oltc" else {}),
             **({"tau_min": b.tau_min, "tau_max": b.tau_max}
                if b.kind == "regulator" else {})}
            for b in model.branches
        ],
        "uncertainty": {"alpha": model.alpha},
    }
    stem = os.path.splitext(os.path.basename(path))[0]

    def dump_profile(profile: Profile, tag: str) -> str:
        fname = f"{stem}_{tag}.csv"
        profile.to_csv(os.path.join(out_dir, fname))
        return fname

    doc["pv_units"] = [
        {"node": p.node, "s_max": p.s_max, "q_max": p.q_max,
         "u_breaks": list(p.u_breaks), "sigma2": p.sigma2,
         "forecast": dump_profile(p.forecast, f"pv{k}")}
        for k, p in enumerate(model.pv_units)
    ]
    doc["loads"] = [
        {"node": d.node, "phi": d.phi, "sigma2": d.sigma2,
         "profile": dump_profile(d.profile, f"load{k}")}
        for k, d in enumerate(model.loads)
    ]
    doc["ess"] = [
        {"node": e.node, "e_max": e.e_max, "e_init": e.e_init,
         "eta_c": e.eta_c, "eta_d": e.eta_d, "p_c": e.p_c, "p_d": e.p_d,
         "t_min_charge": e.t_min_charge, "t_min_discharge": e.t_min_discharge}
        for e in model.ess_devices
    ]
    doc["sop"] = [
        {"nodes": list(s.nodes), "s_max": s.s_max, "p_min": s.p_min,
         "p_max": s.p_max, "loss": s.loss}
        for s in model.sop_devices
    ]
    doc["svc"] = [
        {"node": s.node, "slope": s.slope, "u_ref": s.u_ref,
         "q_min": s.q_min, "q_max": s.q_max}
        for s in model.svc_devices
    ]
    doc["cap_banks"] = [
        {"node": c.node, "steps": list(c.steps)} for c in model.cap_banks
    ]
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=1, sort_keys=True)
        fp.write("\n")
