"""Data model tests: file ingestion, invariant validation, and the
serialize/load round-trip identity on valid models."""

import dataclasses
import json
import math

import pytest

from ctflex.instances import ess_symmetric, three_node, twelve_node, two_node
from ctflex.netmodel import (
    Branch, CapacitorBank, EssDevice, Horizon, LoadPoint, NetworkModel,
    ParseError, Profile, PvUnit, SopDevice, SvcDevice, ValidationError,
    load_model, serialize, validate,
)


def write_minimal(tmp_path, **overrides):
    profile = tmp_path / "load.csv"
    profile.write_text(
        "t,value\n" + "\n".join(f"{t * 225.0},0.5" for t in range(9)) + "\n")
    doc = {
        "nodes": 2,
        "horizon": {"t1": 0.0, "t2": 1800.0, "period": 900.0},
        "branches": [{"from": 0, "to": 1, "r": 0.01, "x": 0.01}],
        "loads": [{"node": 1, "profile": "load.csv", "phi": 0.2}],
        "uncertainty": {"alpha": 0.5},
    }
    doc.update(overrides)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_minimal_two_node(tmp_path):
    model = load_model(write_minimal(tmp_path))
    assert model.n_nodes == 2
    assert model.horizon.n_periods == 2
    assert model.loads[0].phi == 0.2


def test_cycle_rejected(tmp_path):
    path = write_minimal(
        tmp_path, nodes=3,
        branches=[{"from": 0, "to": 1, "r": 0.01, "x": 0.01},
                  {"from": 1, "to": 2, "r": 0.01, "x": 0.01},
                  {"from": 2, "to": 1, "r": 0.01, "x": 0.01}])
    with pytest.raises(ValidationError, match="tree|parents"):
        load_model(path)


def test_sop_identical_terminals_rejected(tmp_path):
    path = write_minimal(
        tmp_path,
        nodes=4,
        branches=[{"from": 0, "to": 1, "r": 0.01, "x": 0.01},
                  {"from": 1, "to": 2, "r": 0.01, "x": 0.01},
                  {"from": 1, "to": 3, "r": 0.01, "x": 0.01}],
        sop=[{"nodes": [3, 3], "s_max": 0.1, "p_min": -0.1, "p_max": 0.1}])
    with pytest.raises(ValidationError, match="distinct"):
        load_model(path)


def test_noninteger_horizon_rejected(tmp_path):
    for period in (700.0, 0.0):
        path = write_minimal(tmp_path, horizon={"t1": 0.0, "t2": 1800.0,
                                                "period": period})
        with pytest.raises(ValidationError, match="positive integer"):
            load_model(path)


def test_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        load_model("/nonexistent/model.json")


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_model(str(path))


def test_bad_profile_header(tmp_path):
    path = write_minimal(tmp_path)
    (tmp_path / "load.csv").write_text("time,power\n0,1\n")
    with pytest.raises(ParseError, match="t,value"):
        load_model(path)


@pytest.mark.parametrize("builder", [two_node, three_node, ess_symmetric,
                                     twelve_node])
def test_shipped_instances_valid(builder):
    assert validate(builder()) == []


def test_alpha_out_of_range_flagged():
    model = dataclasses.replace(two_node(), alpha=0.7)
    violations = validate(model)
    assert any("alpha" in v for v in violations)


def test_regulator_band_flagged():
    model = twelve_node()
    branches = list(model.branches)
    branches[3] = dataclasses.replace(branches[3], tau_min=1.1, tau_max=0.9)
    violations = validate(dataclasses.replace(model,
                                              branches=tuple(branches)))
    assert any("tau_min" in v for v in violations)


def test_pv_breakpoints_flagged():
    model = twelve_node()
    pv = dataclasses.replace(model.pv_units[0],
                             u_breaks=(0.9, 1.05, 1.0, 1.1))
    violations = validate(dataclasses.replace(
        model, pv_units=(pv,) + model.pv_units[1:]))
    assert any("u_breaks" in v for v in violations)


def test_ess_energy_range_flagged():
    model = twelve_node()
    ess = dataclasses.replace(model.ess_devices[0], e_init=1e9)
    violations = validate(dataclasses.replace(
        model, ess_devices=(ess,) + model.ess_devices[1:]))
    assert any("initial energy" in v for v in violations)


MUTATIONS = [
    lambda m: dataclasses.replace(m, alpha=0.0),
    lambda m: dataclasses.replace(m, alpha=0.9),
    lambda m: dataclasses.replace(m, u_min=1.2),
    lambda m: dataclasses.replace(
        m, branches=(dataclasses.replace(m.branches[0], r=-1.0),)
        + m.branches[1:]),
    lambda m: dataclasses.replace(
        m, branches=(dataclasses.replace(m.branches[0], taps=()),)
        + m.branches[1:]),
    lambda m: dataclasses.replace(
        m, loads=(dataclasses.replace(m.loads[0], sigma2=-1.0),)
        + m.loads[1:]),
    lambda m: dataclasses.replace(
        m, pv_units=(dataclasses.replace(m.pv_units[0], q_max=9.9),)
        + m.pv_units[1:]),
    lambda m: dataclasses.replace(
        m, sop_devices=(SopDevice((6, 6), 0.1, -0.1, 0.1),)),
    lambda m: dataclasses.replace(
        m, ess_devices=(dataclasses.replace(m.ess_devices[0], eta_c=0.0),)
        + m.ess_devices[1:]),
    lambda m: dataclasses.replace(
        m, cap_banks=(CapacitorBank(6, steps=()),)),
]


@pytest.mark.parametrize("mutate", MUTATIONS)
def test_single_field_mutation_is_caught(mutate):
    base = twelve_node()
    assert validate(base) == []
    assert validate(mutate(base)) != []


def test_roundtrip_identity(tmp_path):
    for builder in (two_node, three_node, ess_symmetric, twelve_node):
        model = builder()
        path = str(tmp_path / f"{builder.__name__}.json")
        serialize(model, path)
        back = load_model(path)
        assert back == model


def test_profile_csv_roundtrip(tmp_path):
    profile = Profile((0.0, 0.125, 1.0 / 3.0), (1.5, -2.25, 0.1))
    path = str(tmp_path / "p.csv")
    profile.to_csv(path)
    assert Profile.from_csv(path) == profile


def test_device_at_unknown_node_flagged():
    model = two_node()
    bad = dataclasses.replace(model, loads=(LoadPoint(
        9, model.loads[0].profile, phi=0.0),))
    assert any("does not exist" in v for v in validate(bad))


def test_too_few_samples_per_period_flagged():
    model = two_node()
    sparse_profile = Profile((0.0, 600.0, 1200.0, 1800.0), (1.0,) * 4)
    bad = dataclasses.replace(model, loads=(LoadPoint(
        1, sparse_profile, phi=0.0),))
    assert any("need >= 4" in v for v in validate(bad))


def test_every_optional_field_roundtrips(tmp_path):
    # every field that has a default is set away from it, and a profile
    # given inline reads as the CSV sidecar serialize writes
    base = twelve_node()
    model = dataclasses.replace(
        base, u_min=0.9, u_max=1.1, u0=1.02,
        svc_devices=(SvcDevice(2, 5.0, u_ref=1.01, q_min=-0.2, q_max=0.3),
                     SvcDevice(6, 4.0, q_min=-0.1)),
        sop_devices=(dataclasses.replace(base.sop_devices[0], loss=0.02),),
        ess_devices=(dataclasses.replace(base.ess_devices[0],
                                         t_min_charge=450.0,
                                         t_min_discharge=600.0),))
    assert {b.kind for b in model.branches} == {"plain", "oltc", "regulator"}
    assert validate(model) == []
    path = tmp_path / "full.json"
    serialize(model, str(path))
    assert load_model(str(path)) == model
    doc = json.loads(path.read_text())
    profile = model.loads[0].profile
    doc["loads"][0]["profile"] = {"t": list(profile.times),
                                  "value": list(profile.values)}
    (tmp_path / "full_load0.csv").unlink()
    path.write_text(json.dumps(doc))
    assert load_model(str(path)) == model


PV_BREAKS = [0.9025, 0.9604, 1.0404, 1.1025]
# every required key of every section, and no optional one
REQUIRED_ONLY = {
    "nodes": 3,
    "horizon": {"t1": 0.0, "t2": 1800.0, "period": 900.0},
    "branches": [{"from": 0, "to": 1, "r": 0.01, "x": 0.02},
                 {"from": 1, "to": 2, "r": 0.01, "x": 0.02}],
    "pv_units": [{"node": 2, "s_max": 0.5, "q_max": 0.2,
                  "u_breaks": PV_BREAKS, "forecast": "load.csv"}],
    "loads": [{"node": 1, "profile": "load.csv"}],
    "ess": [{"node": 1, "e_max": 900.0, "e_init": 450.0, "eta_c": 0.9,
             "eta_d": 0.9, "p_c": 0.1, "p_d": 0.1}],
    "sop": [{"nodes": [1, 2], "s_max": 0.2, "p_min": -0.2, "p_max": 0.2}],
    "svc": [{"node": 2, "slope": 5.0}],
    "cap_banks": [{"node": 2, "steps": [0.0, 0.05]}],
}


def write_required_only(tmp_path, doc=REQUIRED_ONLY):
    write_minimal(tmp_path)         # for its load.csv
    path = tmp_path / "required.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_omitted_optional_keys_take_the_defaults(tmp_path):
    path = write_required_only(tmp_path)
    profile = Profile.from_csv(str(tmp_path / "load.csv"))
    assert load_model(path) == NetworkModel(
        n_nodes=3,
        branches=(Branch(0, 1, 0.01, 0.02), Branch(1, 2, 0.01, 0.02)),
        horizon=Horizon(0.0, 1800.0, 900.0),
        pv_units=(PvUnit(2, 0.5, 0.2, tuple(PV_BREAKS), profile),),
        loads=(LoadPoint(1, profile),),
        ess_devices=(EssDevice(1, 900.0, 450.0, 0.9, 0.9, 0.1, 0.1),),
        sop_devices=(SopDevice((1, 2), 0.2, -0.2, 0.2),),
        svc_devices=(SvcDevice(2, 5.0),),
        cap_banks=(CapacitorBank(2, (0.0, 0.05)),))


@pytest.mark.parametrize("section, key", [
    ("pv_units", "s_max"), ("pv_units", "forecast"), ("branches", "from"),
    ("loads", "profile"), ("ess", "eta_d"), ("sop", "nodes"),
    ("svc", "slope"), ("cap_banks", "steps")])
def test_missing_required_key_is_named(section, key, tmp_path):
    doc = json.loads(json.dumps(REQUIRED_ONLY))
    del doc[section][0][key]
    with pytest.raises(ParseError, match=f"schema error: '{key}'$"):
        load_model(write_required_only(tmp_path, doc))


@pytest.mark.parametrize("section, key, value, message", [
    (None, "nodes", 3.7, "nodes: 3.7 is not an integer"),
    (None, "nodes", True, "nodes: True is not an integer"),
    ("branches", "to", 1.5, "to: 1.5 is not an integer"),
    ("sop", "nodes", [1, 2.5], "nodes: 2.5 is not an integer"),
    ("svc", "node", False, "node: False is not an integer"),
    (None, "base_mva", 10 ** 400, "base_mva: int too large"),
    (None, "voltage", [], "voltage is not an object"),
], ids=["fractional-nodes", "bool-nodes", "fractional-branch-node",
        "fractional-sop-node", "bool-svc-node", "huge-base", "list-voltage"])
def test_ids_are_integers_and_values_convert(section, key, value, message,
                                             tmp_path):
    doc = json.loads(json.dumps(REQUIRED_ONLY))
    (doc if section is None else doc[section][0])[key] = value
    with pytest.raises(ParseError, match=message):
        load_model(write_required_only(tmp_path, doc))


def _renamed(block, old, new):
    block[new] = block.pop(old)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: _renamed(doc, "pv_units", "pv_unit"),
     "model: unknown key 'pv_unit'"),
    (lambda doc: doc["pv_units"][0].update(sigma_2=0.01),
     "pv 0: unknown key 'sigma_2'"),
    (lambda doc: _renamed(doc["branches"][1], "to", "to_node"),
     "branch 1: unknown key 'to_node'"),
    (lambda doc: doc["horizon"].update(n_periods=2),
     "horizon: unknown key 'n_periods'"),
    (lambda doc: doc.update(voltage={"u_min": 0.9, "umax": 1.1}),
     "voltage: unknown key 'umax'"),
    (lambda doc: doc.update(uncertainty={"alpha": 0.1, "sigma2": 0.1}),
     "uncertainty: unknown key 'sigma2'"),
], ids=["top-level", "entry", "branch-field-name", "horizon", "voltage",
        "uncertainty"])
def test_unknown_key_is_refused(edit, message, tmp_path):
    # a misspelt key would otherwise load as its default, or as an empty
    # section
    doc = json.loads(json.dumps(REQUIRED_ONLY))
    edit(doc)
    with pytest.raises(ParseError, match=f"schema error: {message}$"):
        load_model(write_required_only(tmp_path, doc))


@pytest.mark.parametrize("mutate, message", [
    (lambda m: dataclasses.replace(
        m, branches=(dataclasses.replace(m.branches[0], r=math.nan),)
        + m.branches[1:]), "branch 0: r nan is not finite"),
    (lambda m: dataclasses.replace(
        m, branches=(dataclasses.replace(m.branches[0],
                                         taps=(0.95, math.inf)),)
        + m.branches[1:]), "branch 0: taps inf is not finite"),
    (lambda m: dataclasses.replace(
        m, horizon=Horizon(0.0, math.inf, 900.0)),
     "horizon: t2 inf is not finite"),
    (lambda m: dataclasses.replace(m, u0=math.nan),
     "model: u0 nan is not finite"),
    (lambda m: dataclasses.replace(m, base_kv=-math.inf),
     "model: base_kv -inf is not finite"),
    (lambda m: dataclasses.replace(
        m, svc_devices=(SvcDevice(2, 5.0, q_max=math.nan),)),
     "svc 0: q_max nan is not finite"),
    (lambda m: dataclasses.replace(
        m, loads=(dataclasses.replace(m.loads[0], profile=Profile(
            m.loads[0].profile.times,
            (math.nan,) + m.loads[0].profile.values[1:])),)
        + m.loads[1:]), "load 0: profile nan is not finite"),
])
def test_nonfinite_number_flagged(mutate, message):
    assert message in validate(mutate(twelve_node()))
