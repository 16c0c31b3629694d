"""Network and device data model, validation, and file ingestion.

A model is a radial grid rooted at node 0 (the transmission-distribution
interface) plus the flexibility devices attached to it, the Gaussian
uncertainty description, and the assessment horizon.  Everything is
per-unit on the declared base.  Models are immutable after construction
and safe to share across parallel workers.

The on-disk form is one JSON file whose entries' keys are their dataclass
fields (see ``_SECTIONS``); sampled profiles live in CSV sidecar files
with header ``t,value`` (seconds since t1) or inline arrays.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import bernstein, chance

__all__ = [
    "Profile", "Branch", "PvUnit", "LoadPoint", "EssDevice", "SopDevice",
    "SvcDevice", "CapacitorBank", "Horizon",
    "NetworkModel", "ModelError", "ParseError", "ValidationError",
    "load_model", "serialize", "validate", "read_text",
]

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
    # the CSV file it was read from, "" for one given as data
    source: str = field(default="", compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.times) != len(self.values):
            raise ParseError("profile times/values length mismatch")

    @classmethod
    def from_csv(cls, path: str) -> "Profile":
        reader = csv.reader(io.StringIO(read_text(path), newline=""))
        if [h.strip() for h in next(reader, [])[:2]] != ["t", "value"]:
            raise ParseError(f"{path}: expected CSV header 't,value'")
        try:
            rows = [(float(row[0]), float(row[1])) for row in reader if row]
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}: line {reader.line_num}: bad row") from exc
        return cls(tuple(t for t, _ in rows), tuple(v for _, v in rows),
                   source=path)

    def to_csv(self, path: str):
        with open(path, "w", newline="") as fp:
            w = csv.writer(fp)
            w.writerow(["t", "value"])
            for t, v in zip(self.times, self.values):
                w.writerow([repr(t), repr(v)])


@dataclass(frozen=True)
class Branch:
    from_node: int
    to_node: int
    r: float
    x: float
    kind: str = "plain"
    taps: tuple[float, ...] = ()   # OLTC ratio options a_k
    tau_min: float = 1.0           # regulator ratio band
    tau_max: float = 1.0


@dataclass(frozen=True)
class PvUnit:
    node: int
    s_max: float
    q_max: float
    u_breaks: tuple[float, ...]    # squared-voltage breakpoints U1 <= U2 < U3 <= U4
    forecast: Profile
    sigma2: float = 0.0


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
    nodes: tuple[int, ...]         # the two terminal nodes
    s_max: float
    p_min: float
    p_max: float
    loss: float = 0.0              # linear conversion-loss coefficient


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
    steps: tuple[float, ...]       # selectable susceptances q_Ck


@dataclass(frozen=True)
class Horizon:
    t1: float
    t2: float
    period: float

    @property
    def n_periods(self) -> int:
        return int(round((self.t2 - self.t1) / self.period))


# the model file's sections of entities: file key, NetworkModel field,
# class, and the label that names an entity in messages and sidecar files
_SECTIONS = (
    ("branches", "branches", Branch, "branch"),
    ("pv_units", "pv_units", PvUnit, "pv"),
    ("loads", "loads", LoadPoint, "load"),
    ("ess", "ess_devices", EssDevice, "ess"),
    ("sop", "sop_devices", SopDevice, "sop"),
    ("svc", "svc_devices", SvcDevice, "svc"),
    ("cap_banks", "cap_banks", CapacitorBank, "cap"),
)
# the fields stored under another key, and those written for one kind only
_FILE_KEYS = {"from_node": "from", "to_node": "to"}
_WRITTEN_FOR_KIND = {"taps": "oltc", "tau_min": "regulator",
                     "tau_max": "regulator"}


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
    u_min: float = 0.95 ** 2
    u_max: float = 1.05 ** 2
    u0: float = 1.0                # squared TDI voltage (held by the TN)
    base_mva: float = 1.0
    base_kv: float = 1.0

    def __post_init__(self):
        for _, name, _, _ in _SECTIONS:
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
    t = np.asarray(profile.times) + horizon.t1
    tol = bernstein.SAMPLE_TOL
    if t[0] > horizon.t1 + tol or t[-1] < horizon.t2 - tol:
        out.append(f"{owner}: profile does not cover the horizon "
                   f"[{horizon.t1}, {horizon.t2}]")
    if np.any(np.diff(t) <= 0):
        out.append(f"{owner}: profile times not strictly increasing")
    if n_periods >= 1:
        # the periods that the fit places each sample in; the cubic fit
        # needs >= 4 samples in every period
        idx, _ = bernstein.place_samples(t, horizon.t1, horizon.period,
                                         n_periods)
        outside = int(np.sum(idx < 0))
        if outside:
            out.append(f"{owner}: {outside} profile samples outside the "
                       f"horizon [{horizon.t1}, {horizon.t2}]")
        counts = np.bincount(idx[idx >= 0], minlength=n_periods)
        for m, count in enumerate(counts.tolist()):
            if count < 4:
                out.append(f"{owner}: period {m} holds {count} samples; "
                           "need >= 4")
    if nonnegative and any(v < 0 for v in profile.values):
        out.append(f"{owner}: forecast samples must be nonnegative")
    return out


def validate(model: NetworkModel) -> list[str]:
    """All invariant violations, each naming the offending entity and rule.

    An empty list means the model is sound; violations are data, not errors.
    """
    if model.n_nodes < 2:
        return ["model: need at least 2 nodes (TDI plus one)"]
    out = []

    hz = model.horizon
    ratio = (hz.t2 - hz.t1) / hz.period if hz.period > 0 else math.nan
    n_periods = round(ratio) if math.isfinite(ratio) else 0
    if n_periods < 1 or abs(ratio - n_periods) > 1e-9:
        out.append(f"horizon: (t2-t1)/period = {hz.t2 - hz.t1}/{hz.period} "
                   "is not a positive integer")

    out.extend(_tree_violations(model))

    # each entity, named by its section label and index, walked field by
    # field: every float finite, every device node in the tree, every
    # profile sampled over the horizon
    for owner, e in [("horizon", hz), ("model", model)] + [
            (f"{label} {k}", e) for _, name, _, label in _SECTIONS
            for k, e in enumerate(getattr(model, name))]:
        for f in fields(e):
            value = getattr(e, f.name)
            if isinstance(value, Profile):
                out.extend(_profile_violations(
                    owner, value, hz, n_periods, nonnegative=f.name == "forecast"))
                value = value.times + value.values
            values = value if isinstance(value, tuple) else (value,)
            bad = [v for v in values
                   if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                out.append(f"{owner}: {f.name} {bad[0]!r} is not finite")
            if f.name in ("node", "nodes"):
                out.extend(f"{owner}: node {node} does not exist"
                           for node in values if not 0 <= node < model.n_nodes)
        if isinstance(e, Branch):
            if e.kind not in ("plain", "oltc", "regulator"):
                out.append(f"{owner}: unknown class {e.kind!r}")
            if e.r < 0 or e.x < 0:
                out.append(f"{owner}: negative impedance (r={e.r}, x={e.x})")
            if e.kind == "oltc" and not e.taps:
                out.append(f"{owner}: OLTC tap list is empty")
            if e.kind == "regulator" and e.tau_min > e.tau_max:
                out.append(f"{owner}: regulator tau_min {e.tau_min} > "
                           f"tau_max {e.tau_max}")
        if isinstance(e, PvUnit):
            if not 0 <= e.q_max <= e.s_max:
                out.append(f"{owner}: need 0 <= q_max <= s_max, got "
                           f"q_max={e.q_max}, s_max={e.s_max}")
            u = e.u_breaks
            if len(u) != 4:
                out.append(f"{owner}: u_breaks must have 4 entries")
            elif not u[0] <= u[1] < u[2] <= u[3]:
                out.append(f"{owner}: u_breaks must satisfy U1 <= U2 < U3 <= U4, "
                           f"got {u}")
        if isinstance(e, (PvUnit, LoadPoint)) and e.sigma2 < 0:
            out.append(f"{owner}: negative variance")
        if isinstance(e, EssDevice):
            if not 0 <= e.e_init <= e.e_max:
                out.append(f"{owner}: initial energy {e.e_init} outside "
                           f"[0, {e.e_max}]")
            if not (0 < e.eta_c <= 1 and 0 < e.eta_d <= 1):
                out.append(f"{owner}: efficiencies must lie in (0, 1]")
            if e.p_c < 0 or e.p_d < 0:
                out.append(f"{owner}: negative power rating")
            t_min = max(e.t_min_charge, e.t_min_discharge)
            if hz.period < t_min - 1e-9:
                out.append(f"{owner}: minimum mode duration {t_min}s exceeds "
                           f"the scheduling period {hz.period}s; the "
                           "per-period mode decision cannot represent it")
        if isinstance(e, SopDevice):
            if len(e.nodes) != 2 or e.nodes[0] == e.nodes[1]:
                out.append(f"{owner}: SOP terminals must be two distinct nodes")
            if e.p_min > e.p_max:
                out.append(f"{owner}: p_min > p_max")
            if e.s_max < 0 or e.loss < 0:
                out.append(f"{owner}: negative capacity or loss")
        if isinstance(e, CapacitorBank) and not e.steps:
            out.append(f"{owner}: no susceptance steps")

    if not 0 < model.alpha <= 0.5:
        out.append(f"uncertainty: alpha {model.alpha} outside (0, 0.5]")
    if not model.u_min < model.u_max:
        out.append(f"voltage: u_min {model.u_min} must be below u_max {model.u_max}")
    # the chance margins need a sound tree and alpha in (0, 0.5]
    return out or _margin_violations(model)


def _margin_violations(model: NetworkModel) -> list[str]:
    """Each chance margin that leaves no room in the voltage band or the
    SVC output limits it tightens, or the response system that gives no
    margins at all."""
    try:
        margins = chance.compute_margins(model)
    except chance.SingularSystemError as exc:
        return [f"uncertainty: {exc}"]
    out = []
    for node in range(1, model.n_nodes):
        mu = margins.for_node(node)
        if model.u_min + mu > model.u_max - mu:
            out.append(f"voltage margin {mu:.3g} at node {node} exceeds the "
                       f"band [{model.u_min}, {model.u_max}]")
    for si, svc in enumerate(model.svc_devices):
        ms = margins.for_svc(si)
        if svc.q_min is not None and svc.q_max is not None \
                and svc.q_min + ms > svc.q_max - ms:
            out.append(f"svc {si}: output margin {ms:.3g} exceeds half the "
                       f"span of its limits [{svc.q_min}, {svc.q_max}]")
    return out


# -- file schema -------------------------------------------------------------


def _int(value) -> int:
    """An id or a count: an integer, or a float without a fractional part."""
    if isinstance(value, bool) or isinstance(value, float) \
            and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


# how a value in the file becomes a field of each declared type but Profile
_READERS = {"int": _int, "float": float, "str": str,
            "tuple[int, ...]": lambda v: tuple(_int(x) for x in v),
            "tuple[float, ...]": lambda v: tuple(float(x) for x in v),
            "float | None": lambda v: None if v is None else float(v)}


def _value(entry, key: str, kind: str, base_dir: str):
    """entry[key] as a field of declared type kind, or ValueError naming the
    key; a profile is a CSV path relative to base_dir or {t, value} arrays."""
    value = entry[key]
    try:
        if kind != "Profile":
            return _READERS[kind](value)
        if isinstance(value, str):
            return Profile.from_csv(os.path.join(base_dir, value))
        if isinstance(value, dict) and "t" in value and "value" in value:
            return Profile(tuple(value["t"]), tuple(value["value"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{key}: {exc}") from None
    raise ParseError(f"profile entry must be a CSV path or {{t, value}} "
                     f"arrays, got {type(value).__name__}")


def _known(entry, keys, owner: str):
    """ValueError naming the first key of the ``entry`` object that is not
    among ``keys``; TypeError when ``entry`` is not an object."""
    if not isinstance(entry, dict):
        raise TypeError(f"{owner} is not an object")
    unknown = [key for key in entry if key not in keys]
    if unknown:
        raise ValueError(f"{owner}: unknown key {unknown[0]!r}")


def _entity(cls, entry, base_dir: str, owner: str):
    """cls read from its file entry, named ``owner`` in messages; a field
    without a default must be there, and a key that names no field is
    refused."""
    _known(entry, [_FILE_KEYS.get(f.name, f.name) for f in fields(cls)],
           owner)
    kwargs = {}
    for f in fields(cls):
        key = _FILE_KEYS.get(f.name, f.name)
        if f.default is MISSING or key in entry:
            kwargs[f.name] = _value(entry, key, f.type, base_dir)
    return cls(**kwargs)


def _entry(entity, sidecar: str) -> dict:
    """The file entry of a dataclass instance; a profile goes to sidecar."""
    out = {}
    for f in fields(entity):
        if f.name in _WRITTEN_FOR_KIND and entity.kind != _WRITTEN_FOR_KIND[f.name]:
            continue
        value = getattr(entity, f.name)
        if isinstance(value, Profile):
            value.to_csv(sidecar)
            value = os.path.basename(sidecar)
        elif isinstance(value, tuple):
            value = list(value)
        out[_FILE_KEYS.get(f.name, f.name)] = value
    return out


def read_text(path: str, data: bytes | None = None) -> str:
    """A UTF-8 file's text, or ValueError naming the file and the line of
    the first byte that does not decode; ``data``, when given, is the
    file's bytes, already read."""
    if data is None:
        with open(path, "rb") as fp:
            data = fp.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: byte {data[exc.start]:#04x} "
                         "is not UTF-8") from None


def load_model(path: str) -> NetworkModel:
    """Parse and validate a model file; raises ParseError / ValidationError."""
    try:
        doc = json.loads(read_text(path))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:       # a byte that is not UTF-8
        raise ParseError(str(exc)) from exc
    try:
        model = _model_from_doc(doc, os.path.dirname(path))
    except (ParseError, KeyError, TypeError, ValueError, OverflowError,
            OSError) as exc:
        raise ParseError(f"{path}: schema error: {exc}") from exc
    violations = validate(model)
    if violations:
        raise ValidationError(violations)
    return model


def _model_from_doc(doc: dict, base_dir: str) -> NetworkModel:
    _known(doc, ("nodes", "horizon", "voltage", "uncertainty", "base_mva",
                 "base_kv", *(key for key, _, _, _ in _SECTIONS)), "model")
    horizon = _entity(Horizon, doc["horizon"], base_dir, "horizon")
    # each scalar in the block that holds it; one left out takes its default
    blocks = ((doc.get("uncertainty", {}), ("alpha",)),
              (doc.get("voltage", {}), ("u_min", "u_max", "u0")),
              (doc, ("base_mva", "base_kv")))
    for key, (block, names) in zip(("uncertainty", "voltage"), blocks):
        _known(block, names, key)
    sections = {name: tuple(_entity(cls, entry, base_dir, f"{label} {k}")
                            for k, entry in enumerate(
                                doc[key] if name == "branches"
                                else doc.get(key, ())))
                for key, name, cls, label in _SECTIONS}
    return NetworkModel(
        n_nodes=_value(doc, "nodes", "int", base_dir), horizon=horizon,
        **sections, **{name: _value(block, name, "float", base_dir)
                       for block, names in blocks for name in names
                       if name in block})


def serialize(model: NetworkModel, path: str):
    """Write the model JSON plus profile CSV sidecars next to it.

    load_model(serialize(model)) reproduces the model exactly; floats are
    written with repr so they round-trip bit-for-bit.
    """
    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(path))[0]
    doc: dict = {
        "base_mva": model.base_mva,
        "base_kv": model.base_kv,
        "nodes": model.n_nodes,
        "horizon": _entry(model.horizon, ""),
        "voltage": {"u_min": model.u_min, "u_max": model.u_max, "u0": model.u0},
        "uncertainty": {"alpha": model.alpha},
    }
    for key, name, _, label in _SECTIONS:
        doc[key] = [_entry(e, os.path.join(out_dir, f"{stem}_{label}{k}.csv"))
                    for k, e in enumerate(getattr(model, name))]
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=1, sort_keys=True)
        fp.write("\n")
