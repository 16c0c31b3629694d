"""CLI contract tests: command outputs, exit codes, the direction-set
parser, and byte-determinism across reruns."""

import copy
import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import re

import numpy as np
import pytest

from ctflex import engine, pqbox
from ctflex.cli import CliError, main, parse_theta_set
from ctflex.instances import _sampled, three_node, twelve_node, two_node
from ctflex.netmodel import (
    CapacitorBank, EssDevice, Horizon, ValidationError, serialize,
)


@pytest.fixture(scope="module")
def two_node_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "two_node.json"
    serialize(two_node(), str(path))
    return str(path)


def run(args):
    return main(args)


def test_theta_set_parser():
    got = parse_theta_set("0, pi/3, 2pi/3, pi, 4pi/3, 5pi/3")
    want = [k * math.pi / 3 for k in range(6)]
    assert list(got) == pytest.approx(want)
    assert parse_theta_set("1.5708")[0] == pytest.approx(1.5708)
    with pytest.raises(CliError, match="cannot parse direction 'pi/0'"):
        parse_theta_set("0,pi/0")
    assert parse_theta_set("-pi/3") == (-math.pi / 3,)
    assert parse_theta_set("+2pi/3, -2 * pi / 3") == (2 * math.pi / 3,
                                                      -2 * math.pi / 3)
    with pytest.raises(SystemExit):
        raise SystemExit(0)


def test_assess_two_node_smallest_run(two_node_file, tmp_path):
    out = str(tmp_path / "run")
    rc = run(["assess", two_node_file, "--directions", "2", "--workers", "1",
              "--out", out])
    assert rc == 0
    tube_csv = open(os.path.join(out, "tube.csv")).read().splitlines()
    assert tube_csv[0] == "theta,period,coef_index,value,status"
    thetas = {line.split(",")[0] for line in tube_csv[1:]}
    assert len(thetas) == 4
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert len(summary["gaps"]) == 3
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["tool"] == "ctflex"
    assert any("infeasible" in w for w in manifest["warnings"])


def test_assess_missing_file(tmp_path, capsys):
    rc = run(["assess", str(tmp_path / "nope.json"), "--out",
              str(tmp_path / "o")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seed", "-1"],
                                   ["--seed", "2147483648"],
                                   ["--directions", "1"],
                                   ["--gap", "-1"],
                                   ["--time-limit", "-1"],
                                   ["--gap", "nan"],
                                   ["--alpha", "0"],
                                   ["--alpha", "0.7"],
                                   ["--workers", "0"],
                                   ["--workers", "-3"]])
def test_assess_bad_config_is_input_error(flags, tmp_path, capsys):
    rc = run(["assess", "builtin:two-node", *flags, "--out",
              str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_assess_dt_mode_single_coefficient(two_node_file, tmp_path):
    out = str(tmp_path / "dt")
    rc = run(["assess", two_node_file, "--directions", "2", "--mode", "dt",
              "--workers", "1", "--out", out])
    assert rc == 0
    rows = open(os.path.join(out, "tube.csv")).read().splitlines()[1:]
    coef_indices = {row.split(",")[2] for row in rows if row.split(",")[2]}
    assert coef_indices == {"0"}


def test_assess_determinism(two_node_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert run(["assess", two_node_file, "--directions", "3",
                    "--workers", "1", "--seed", "0", "--out", out]) == 0
        outs.append(out)
    tube_a = open(os.path.join(outs[0], "tube.csv"), "rb").read()
    tube_b = open(os.path.join(outs[1], "tube.csv"), "rb").read()
    assert tube_a == tube_b
    sum_a = open(os.path.join(outs[0], "summary.json"), "rb").read()
    sum_b = open(os.path.join(outs[1], "summary.json"), "rb").read()
    assert sum_a == sum_b


def test_assess_plot_grid_and_lp_dump(tmp_path):
    out = str(tmp_path / "extras")
    rc = run(["assess", "builtin:three-node", "--directions", "2",
              "--workers", "1", "--plot-grid", "--dump-lp", "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "plot_grid.csv"))
    lp = open(os.path.join(out, "problem_theta0.lp")).read()
    assert lp.startswith("\\") and "Maximize" in lp


def test_pqbox_symmetric_toy(tmp_path):
    out = str(tmp_path / "box")
    rc = run(["pqbox", "builtin:ess-symmetric", "--directions", "6",
              "--workers", "1", "--time", "1800", "--out", out])
    assert rc == 0
    box = json.load(open(os.path.join(out, "box.json")))
    assert box["P1"] == pytest.approx(-box["P2"], abs=1e-3)
    assert box["Q1"] == pytest.approx(-box["Q2"], abs=1e-3)
    assert box["t0"] == 1800.0


def test_pqbox_time_outside_horizon(tmp_path, capsys, no_assess):
    rc = run(["pqbox", "builtin:twelve-node", "--workers", "2", "--time",
              "99999", "--out", str(tmp_path / "b")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "horizon" in err and "error: --time 99999" in err


@pytest.fixture
def no_assess(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("assessed before the input was checked")

    monkeypatch.setattr(engine, "assess", fail)


def test_pqbox_time_past_the_slack_of_a_stored_tube(tmp_path, capsys):
    # four 60 s periods: locate takes times up to 1e-12 * 4 * 60 s past t2,
    # and 5e-10 s is past that
    model = two_node()
    model = dataclasses.replace(
        model, horizon=Horizon(0.0, 240.0, 60.0),
        loads=(dataclasses.replace(model.loads[0], profile=_sampled(
            lambda tau: 0.5, horizon=240.0, period=60.0)),))
    path, out = str(tmp_path / "m.json"), tmp_path / "run"
    serialize(model, path)
    assert run(["assess", path, "--directions", "2", "--workers", "1",
                "--out", str(out)]) == 0
    rc = run(["pqbox", path, "--tube", str(out / "tube.csv"), "--summary",
              str(out / "summary.json"), "--time", "240.0000000005",
              "--out", str(tmp_path / "b")])
    assert rc == 2
    assert "error: --time 240.0000000005" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("assess", []), ("pqbox", ["--time", "900"]), ("metrics", []),
    ("compare-dt", [])])
def test_out_naming_a_file_is_input_error(command, flags, tmp_path, capsys,
                                          no_assess):
    out = tmp_path / "taken"
    out.write_text("")
    rc = run([command, "builtin:two-node", "--directions", "3", "--workers",
              "1", *flags, "--out", str(out)])
    assert rc == 2
    assert f"error: --out {out}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--delta", "-1"], ["--eps", "0"],
                                   ["--delta", "inf"], ["--eps", "nan"],
                                   ["--edge-samples", "-5"],
                                   ["--summary", "summary.json"]])
def test_pqbox_bad_step_is_input_error(flags, tmp_path, capsys, no_assess):
    rc = run(["pqbox", "builtin:ess-symmetric", "--directions", "2",
              "--workers", "1", "--time", "900", *flags,
              "--out", str(tmp_path / "b")])
    assert rc == 2
    assert f"error: {flags[0]}" in capsys.readouterr().err


def gappy_two_node():
    """The two-node toy whose load's power factor points between the
    samples, so that every direction is a gap."""
    import dataclasses
    model = two_node()
    return dataclasses.replace(
        model, loads=(dataclasses.replace(model.loads[0], phi=0.37),))


@pytest.mark.parametrize("model, flags, counts", [
    ("builtin:twelve-node", ["--time-limit", "0"], "4 limit"),
    ("gappy", [], "4 infeasible"),
])
def test_empty_assessment_counts_statuses(model, flags, counts, tmp_path,
                                          capsys):
    if model == "gappy":
        model = str(tmp_path / "gappy.json")
        serialize(gappy_two_node(), model)
    rc = run(["assess", model, "--directions", "2", "--workers", "1",
              *flags, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert f"assessment empty: no direction is optimal ({counts})" in \
        capsys.readouterr().err


def test_pqbox_no_feasible_direction(tmp_path, capsys):
    path = str(tmp_path / "gappy.json")
    serialize(gappy_two_node(), path)
    rc = run(["pqbox", path, "--directions", "2", "--workers", "1",
              "--time", "900", "--out", str(tmp_path / "bx")])
    assert rc == 3
    assert "no feasible direction" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sym_tube_files(tmp_path_factory):
    """The tube CSV and summary JSON of an ess-symmetric assessment."""
    out = str(tmp_path_factory.mktemp("sym") / "assess_out")
    assert run(["assess", "builtin:ess-symmetric", "--directions", "6",
                "--workers", "1", "--out", out]) == 0
    return os.path.join(out, "tube.csv"), os.path.join(out, "summary.json")


@pytest.mark.parametrize("flags", [
    ["--alpha", "0.1"], ["--directions", "6"], ["--gap", "0.01"],
    ["--time-limit", "10"], ["--workers", "1"], ["--seed", "3"],
    ["--mode", "dt"]])
def test_pqbox_tube_rejects_assessment_flags(flags, sym_tube_files,
                                             tmp_path, capsys):
    tube, summary = sym_tube_files
    out = str(tmp_path / "b")
    rc = run(["pqbox", "builtin:ess-symmetric", "--tube", tube,
              "--summary", summary, "--time", "900", *flags, "--out", out])
    assert rc == 2
    assert f"error: {flags[0]} " in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "box.json"))


def test_pqbox_from_tube_files(sym_tube_files, tmp_path):
    # a --mode that matches the summary and flags left at their defaults
    # change nothing
    tube, summary = sym_tube_files
    boxes = []
    for flags in ([], ["--mode", "ct", "--directions", "12", "--seed", "0"]):
        out = tmp_path / f"b{len(boxes)}"
        assert run(["pqbox", "builtin:ess-symmetric", "--tube", tube,
                    "--summary", summary, "--time", "900", *flags,
                    "--out", str(out)]) == 0
        boxes.append((out / "box.json").read_text())
    assert boxes[0] == boxes[1]


CT12_TUBE, CT12_SUMMARY = (
    os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "data",
                 f"ct12_{name}") for name in ("tube.csv", "summary.json"))


@pytest.mark.parametrize("model, message", [
    ("builtin:two-node", "builtin:two-node has horizon {'t1': 0.0, "
     "'period': 900.0, 'n_periods': 2}, but"),
    ("nonexistent.json", "model file not found: nonexistent.json"),
])
def test_pqbox_tube_needs_its_model(model, message, tmp_path, capsys):
    out = tmp_path / "b"
    rc = run(["pqbox", model, "--tube", CT12_TUBE, "--summary", CT12_SUMMARY,
              "--time", "1800", "--out", str(out)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "box.json").exists()


def test_pqbox_tube_manifest_hashes_its_inputs(tmp_path):
    out = tmp_path / "b"
    assert run(["pqbox", "builtin:twelve-node", "--tube", CT12_TUBE,
                "--summary", CT12_SUMMARY, "--time", "1800",
                "--edge-samples", "8", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {
        "builtin:twelve-node": "builtin",
        **{path: hashlib.sha256(open(path, "rb").read()).hexdigest()
           for path in (CT12_TUBE, CT12_SUMMARY)}}


# P-Q boxes on the stored 12-node tube, pinned bit for bit so that a
# shortcut in the section oracle or in expand_box cannot move them:
# (time, edge samples, repr of (P1, P2, Q1, Q2), iterations)
CT12_BOXES = [
    (0, 0, ("0.7547238097598089", "1.0009923132430774e-17",
            "0.8436034651919437", "-0.7236185544933955"), 35),
    (900, 0, ("0.6579384019843656", "1.289125106237082e-17",
              "0.8611742913291778", "-0.6800938277317585"), 36),
    (1234.5, 0, ("0.8405583231261297", "-0.013031911986451612",
                 "0.3743817010458516", "0.003623805031303148"), 40),
    (1800, 0, ("0.8961551763860904", "-0.058919293252656914",
               "0.4165358588162549", "0.10229962813541793"), 35),
    (3600, 0, ("0.7700731975601324", "1.246859613018115e-17",
               "0.9056925768694086", "-0.7381835709998122"), 31),
    (0, 8, ("0.6837856222145553", "1.0009923132430774e-17",
            "0.8662744323455813", "-0.6066071111197813"), 28),
    (900, 8, ("0.6579384019843656", "1.289125106237082e-17",
              "0.8611742913291778", "-0.6800938277317585"), 36),
    (1234.5, 8, ("0.7916886531769358", "-0.013031911986451612",
                 "0.3743817010458516", "0.003623805031303148"), 37),
    (1800, 8, ("0.8481468633654069", "-0.058919293252656914",
               "0.4165358588162549", "0.10229962813541793"), 41),
    (3600, 8, ("0.7700731975601324", "1.246859613018115e-17",
               "0.9056925768694086", "-0.7381835709998122"), 31),
]


@pytest.mark.parametrize("t0, edge_samples, sides, iterations", CT12_BOXES)
def test_pqbox_stored_tube_boxes_are_pinned(t0, edge_samples, sides,
                                            iterations, tmp_path):
    out = tmp_path / "b"
    assert run(["pqbox", "builtin:twelve-node", "--tube", CT12_TUBE,
                "--summary", CT12_SUMMARY, "--time", str(t0),
                "--edge-samples", str(edge_samples), "--out", str(out)]) == 0
    box = json.loads((out / "box.json").read_text())
    assert tuple(repr(box[side]) for side in ("P1", "P2", "Q1", "Q2")) \
        == sides
    assert box["iterations"] == iterations
    assert box["t0"] == t0 and sorted(box["frozen_reasons"]) \
        == ["P1", "P2", "Q1", "Q2"]


def box_points(sides, edge_samples):
    """The corners and edge samples of the box with sides (P1, P2, Q1,
    Q2), the points that ``expand_box`` tests."""
    p_hi, p_lo, q_hi, q_lo = sides
    points = [(p, q) for p in (p_hi, p_lo) for q in (q_hi, q_lo)]
    for frac in np.linspace(0, 1, edge_samples + 2)[1:-1].tolist():
        p_mid = p_lo + frac * (p_hi - p_lo)
        q_mid = q_lo + frac * (q_hi - q_lo)
        points += [(p_mid, q_hi), (p_mid, q_lo), (p_hi, q_mid), (p_lo, q_mid)]
    return points


def test_pqbox_slowest_stored_tube_box_is_quick_sound_and_maximal(tmp_path):
    # the slowest of the benchmark's 33 boxes: a side left at the step
    # that a joint corner failure cut would creep across the section in
    # 1,096 rounds
    t0 = 1690.909090909091
    out = tmp_path / "b"
    assert run(["pqbox", "builtin:twelve-node", "--tube", CT12_TUBE,
                "--summary", CT12_SUMMARY, "--time", repr(t0),
                "--edge-samples", "8", "--out", str(out)]) == 0
    box = json.loads((out / "box.json").read_text())
    assert box["iterations"] <= 60
    section = pqbox.cross_section(engine.read_tube(CT12_TUBE, CT12_SUMMARY),
                                  t0)
    eps = 1e-4 * float(np.nanmax(section.radii))     # the CLI default
    sides = [box[side] for side in ("P1", "P2", "Q1", "Q2")]
    assert all(section.contains(p, q) for p, q in box_points(sides, 8))
    for i, sign in enumerate((1, -1, 1, -1)):
        pushed = list(sides)
        pushed[i] += sign * 10 * eps
        assert not all(section.contains(p, q)
                       for p, q in box_points(pushed, 8)), i


@pytest.mark.parametrize("model, flags, t0", [
    ("builtin:twelve-node", ["--tube", CT12_TUBE, "--summary", CT12_SUMMARY],
     1800.0),
    ("builtin:two-node", ["--directions", "2", "--workers", "1"], 900.0),
], ids=["ct12-stored", "two-node-gaps"])
def test_pqbox_boundary_csv(model, flags, t0, tmp_path):
    # one row per theta of the 721-point grid whose boundary radius is
    # not None (two-node: every direction but 0 is a gap), with its value
    out = tmp_path / "b"
    assert run(["pqbox", model, *flags, "--time", str(t0), "--boundary-csv",
                "--out", str(out)]) == 0
    if "--tube" in flags:
        tube = engine.read_tube(CT12_TUBE, CT12_SUMMARY)
    else:
        tube = engine.assess(two_node(), engine.AssessmentConfig(
            directions=2, workers=1))
    section = pqbox.cross_section(tube, t0)
    radii = {th: section.boundary_radius(th)
             for th in np.linspace(0, 2 * math.pi, 721).tolist()}
    want = [(th, r) for th, r in radii.items() if r is not None]
    with open(out / "boundary.csv", newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["theta", "radius"]
    assert [(float(th), float(r)) for th, r in rows[1:]] == want
    assert len(want) == (721 if "--tube" in flags else 2)


def test_stored_tube_query_and_validate_never_load_the_solver(
        sym_tube_files, tmp_path, fresh_python):
    tube, summary = sym_tube_files
    model = os.path.join(os.path.dirname(__file__), os.pardir, "instances",
                         "twelve_node.json")
    out = fresh_python(f"""
import json, sys
from ctflex import cli
codes = [cli.main(["pqbox", "builtin:ess-symmetric", "--tube", {tube!r},
                   "--summary", {summary!r}, "--time", "900",
                   "--out", {str(tmp_path / "box")!r}]),
         cli.main(["validate", {model!r}])]
print(json.dumps([codes, [name for name in ("scipy.optimize", "scipy.sparse")
                          if name in sys.modules]]))
""")
    assert json.loads(out.splitlines()[-1]) == [[0, 0], []]


@pytest.mark.parametrize("negative, positive", [
    ("-pi/2", "3pi/2"), ("0,-pi/2", "0,3pi/2")])
def test_signed_pi_direction_wraps(negative, positive, tmp_path):
    m = []
    for theta_set in (negative, positive):
        out = str(tmp_path / theta_set)
        assert run(["assess", "builtin:two-node", "--directions", "2",
                    "--workers", "1", f"--theta-set={theta_set}",
                    "--out", out]) == 0
        m.append(json.load(open(os.path.join(out, "summary.json")))["M"])
    assert m[0] == m[1]


def test_signed_theta_set_space_form(tmp_path):
    # argparse alone takes -pi/2 for an option and exits 2
    m = []
    for form in (["--theta-set", "-pi/2"], ["--theta-set=-pi/2"]):
        out = str(tmp_path / str(len(m)))
        assert run(["assess", "builtin:two-node", "--directions", "2",
                    "--workers", "1", *form, "--out", out]) == 0
        m.append(json.load(open(os.path.join(out, "summary.json")))["M"])
    assert m[0] == m[1]


@pytest.mark.parametrize("flag, value, message", [
    ("--pv-scale-grid", "-1,1",
     "error: --pv-scale-grid -1.0 must be >= 0 and finite"),
    ("--alpha-grid", "-0.1,0.2", "error: uncertainty: alpha -0.1 outside")])
def test_signed_grid_space_form_reaches_its_check(flag, value, message,
                                                  tmp_path, capsys,
                                                  no_assess):
    rc = run(["metrics", "builtin:twelve-node", "--directions", "2",
              "--workers", "1", flag, value, "--out", str(tmp_path / "m")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_metrics_pv_free_storage_cell_keeps_k1(tmp_path, monkeypatch):
    # each cell's tube is a stub: only the K1 and K2 columns are under test
    def assess(model, config):
        return engine.FlexTube(tuple(
            engine.Slice(float(theta), "optimal", np.ones((1, 4)), 1.0)
            for theta in engine.all_directions(config.directions)),
            0.0, 900.0, 1, diagnostics={"warnings": []})

    monkeypatch.setattr(engine, "assess", assess)
    out = str(tmp_path / "metrics")
    assert run(["metrics", "builtin:twelve-node", "--directions", "3",
                "--alpha-grid", "0.1", "--pv-scale-grid", "0,1",
                "--workers", "1", "--out", out]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "metrics.csv"))))
    k1, k2 = engine.penetration_metrics(twelve_node())
    # the PV-free cell has storage: K2 is undefined there, K1 is 0
    assert [(r["pv_scale"], r["K1"], r["K2"]) for r in rows] == [
        ("0.0", "0.0", ""), ("1.0", repr(k1), repr(k2))]


def test_metrics_sweep(tmp_path):
    out = str(tmp_path / "metrics")
    rc = run(["metrics", "builtin:three-node", "--directions", "2",
              "--workers", "1", "--theta-set", "0,pi/2,pi,3pi/2",
              "--out", out])
    assert rc == 0
    rows = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert rows[0].startswith("alpha,sop,ess,pv_scale,M")
    assert len(rows) == 2


def test_metrics_empty_grid_rejected(tmp_path, capsys):
    rc = run(["metrics", "builtin:three-node", "--alpha-grid", ",",
              "--out", str(tmp_path / "m")])
    assert rc == 2


def test_metrics_alpha_grid_margin_wider_than_band_rejected(tmp_path, capsys,
                                                           no_assess):
    # the 0.1 cell is sound; at 1e-12 the voltage margins leave no band
    out = tmp_path / "m"
    rc = run(["metrics", "builtin:twelve-node", "--directions", "3",
              "--alpha-grid", "0.1,1e-12", "--sop", "off", "--ess", "off",
              "--out", str(out)])
    assert rc == 2
    assert "voltage margin" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_metrics_alpha_grid_outside_range_rejected(tmp_path, capsys):
    out = tmp_path / "m"
    rc = run(["metrics", "builtin:three-node", "--directions", "2",
              "--workers", "1", "--alpha-grid", "0.1,0.7", "--out", str(out)])
    assert rc == 2
    assert "error: uncertainty: alpha 0.7" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("grid", ["1,-1", "nan", "inf", "0,-inf"])
def test_metrics_bad_pv_scale_grid_rejected(grid, tmp_path, capsys,
                                            no_assess):
    out = tmp_path / "m"
    rc = run(["metrics", "builtin:twelve-node", "--directions", "2",
              "--workers", "1", f"--pv-scale-grid={grid}", "--out", str(out)])
    assert rc == 2
    assert "error: --pv-scale-grid" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_metrics_pv_scale_grid_needs_builtin_before_solving(tmp_path, capsys,
                                                          no_assess):
    out = tmp_path / "m"
    rc = run(["metrics", "builtin:three-node", "--directions", "2",
              "--workers", "1", "--pv-scale-grid", "1,2", "--out", str(out)])
    assert rc == 2
    assert "error: --pv-scale-grid needs builtin:twelve-node" in \
        capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["assess", "metrics"])
@pytest.mark.parametrize("theta_set", ["0,pi/7", "0,nan", "pi/3"])
def test_unsampled_theta_set_rejected_before_solving(command, theta_set,
                                                     tmp_path, capsys,
                                                     no_assess):
    # K = 2 samples 0, pi/2, pi and 3pi/2 only
    out = tmp_path / "o"
    rc = run([command, "builtin:three-node", "--directions", "2",
              "--workers", "1", "--theta-set", theta_set, "--out", str(out)])
    assert rc == 2
    assert "error: --theta-set direction" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["assess", "metrics"])
def test_theta_set_matching_a_direction_twice_rejected_before_solving(
        command, tmp_path, capsys, no_assess):
    # 2pi is direction 0 again, which would count twice in M
    out = tmp_path / "o"
    rc = run([command, "builtin:three-node", "--directions", "3",
              "--workers", "1", "--theta-set", "0,2pi/3,4pi/3,2pi",
              "--out", str(out)])
    assert rc == 2
    assert "error: --theta-set directions 0.0 and 6.283185307179586 both " \
        "match sampled direction 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_default_theta_set_unsampled_before_solving(tmp_path, capsys,
                                                           no_assess):
    # the default set holds the multiples of pi/3; K = 2 samples none but 0
    # and pi
    out = tmp_path / "m"
    rc = run(["metrics", "builtin:two-node", "--directions", "2",
              "--workers", "1", "--out", str(out)])
    assert rc == 2
    assert "error: default --theta-set direction" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pqbox", "compare-dt"])
def test_theta_set_only_where_M_is_reported(command, capsys):
    required = ["--time", "0"] if command == "pqbox" else []
    with pytest.raises(SystemExit) as exc:
        run([command, "builtin:three-node", *required, "--theta-set", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --theta-set" in capsys.readouterr().err


TUBE_CSV = "theta,period,coef_index,value,status\n0.0,0,0,1.0,optimal\n"
HORIZON = {"t1": 0.0, "period": 900.0, "n_periods": 1}
# one CT slice over two periods
CT_TUBE_CSV = "theta,period,coef_index,value,status\n" + "".join(
    f"0.0,{m},{k},1.0,optimal\n" for m in range(2) for k in range(4))
# one DT and one CT slice over three-node's four periods
HORIZON4 = {**HORIZON, "n_periods": 4}
DT4_TUBE_CSV = "theta,period,coef_index,value,status\n" + "".join(
    f"0.0,{m},0,1.0,optimal\n" for m in range(4))
CT4_TUBE_CSV = "theta,period,coef_index,value,status\n" + "".join(
    f"0.0,{m},{k},1.0,optimal\n" for m in range(4) for k in range(4))


@pytest.mark.parametrize("tube_text, summary_text, message", [
    (None, json.dumps({"horizon": HORIZON}), "file not found"),
    (TUBE_CSV, None, "file not found"),
    (TUBE_CSV, "{not json", "unreadable JSON"),
    (TUBE_CSV, json.dumps({"mode": "ct"}), "no horizon block"),
    (TUBE_CSV, json.dumps({"horizon": HORIZON, "mode": "xx"}),
     "unknown mode"),
    (CT_TUBE_CSV, json.dumps({"horizon": {**HORIZON, "n_periods": 2},
                              "mode": "dt"}),
     "tube.csv: theta 0.0 does not fill exactly the 2 x 1 period"),
    (TUBE_CSV, json.dumps({"horizon": {"t1": 0.0, "period": 900.0}}),
     "horizon block lacks a number for n_periods"),
    (TUBE_CSV, json.dumps({"horizon": {**HORIZON, "n_periods": None}}),
     "horizon block lacks a number for n_periods"),
    (CT_TUBE_CSV, json.dumps({"horizon": HORIZON, "mode": "ct"}),
     "tube.csv: theta 0.0 does not fill exactly the 1 x 4 period"),
    (CT_TUBE_CSV, json.dumps({"horizon": {**HORIZON, "n_periods": 3},
                              "mode": "ct"}),
     "tube.csv: theta 0.0 does not fill exactly the 3 x 4 period"),
    (TUBE_CSV, json.dumps({"horizon": {**HORIZON, "n_periods": 4.7}}),
     "summary.json: horizon n_periods 4.7 is not an integer >= 1"),
    (TUBE_CSV, json.dumps({"horizon": {**HORIZON, "n_periods": 0}}),
     "summary.json: horizon n_periods 0 is not an integer >= 1"),
    (CT_TUBE_CSV, json.dumps({"horizon": {**HORIZON, "n_periods": 2,
                                          "period": 0.0}}),
     "period 0.0 must be positive"),
    ("theta,period,coef_index,value\n0.0,0,0,1.0\n",
     json.dumps({"horizon": HORIZON}), "tube.csv: no 'status' column"),
    ("theta,period,coef_index,value,status\n0.0,0,0\n",
     json.dumps({"horizon": HORIZON}),
     "tube.csv: line 2 has 3 fields, short of the 5 its columns need"),
    (TUBE_CSV.replace("0.0,", "abc,", 1), json.dumps({"horizon": HORIZON}),
     "tube.csv: line 2: could not convert string to float: 'abc'"),
    (TUBE_CSV.replace("\n", "\n0.0,,,,infeasible\n", 1),
     json.dumps({"horizon": HORIZON, "mode": "dt"}),
     "tube.csv: theta 0.0 has both 'infeasible' and 'optimal' rows"),
    (TUBE_CSV + "0.0,,,,infeasible\n",
     json.dumps({"horizon": HORIZON, "mode": "dt"}),
     "tube.csv: theta 0.0 has both 'optimal' and 'infeasible' rows"),
    # the last three match three-node's horizon, so only the values fail
    (DT4_TUBE_CSV + "3.0,,,,infeasible\nnan,,,,infeasible\n",
     json.dumps({"horizon": HORIZON4, "mode": "dt"}),
     "slice directions must lie in [0, 2pi)"),
    (DT4_TUBE_CSV.replace("0.0,2,0,1.0", "0.0,2,0,nan"),
     json.dumps({"horizon": HORIZON4, "mode": "dt"}),
     "tube.csv: line 4: coefficient nan is not finite"),
    (CT4_TUBE_CSV.replace("0.0,1,2,1.0", "0.0,1,2,inf"),
     json.dumps({"horizon": HORIZON4, "mode": "ct"}),
     "tube.csv: line 8: coefficient inf is not finite"),
    (DT4_TUBE_CSV + "3.0,,,,abc\n",
     json.dumps({"horizon": HORIZON4, "mode": "dt"}),
     "tube.csv: line 6: unknown status 'abc'"),
    (DT4_TUBE_CSV + "0.0,1,0,5.0,optimal\n",
     json.dumps({"horizon": HORIZON4, "mode": "dt"}),
     "tube.csv: line 6: theta 0.0 period 1 coefficient 0 repeats line 3"),
    (DT4_TUBE_CSV, json.dumps({"horizon": {**HORIZON4, "n_periods": True},
                               "mode": "dt"}),
     "summary.json: horizon n_periods True is not an integer >= 1"),
    (DT4_TUBE_CSV, json.dumps({"horizon": {**HORIZON4, "t1": math.nan},
                               "mode": "dt"}),
     "summary.json: horizon t1 nan is not finite"),
    (DT4_TUBE_CSV, json.dumps({"horizon": {**HORIZON4, "period": math.inf},
                               "mode": "dt"}),
     "summary.json: horizon period inf is not finite"),
    (DT4_TUBE_CSV, json.dumps({"horizon": {**HORIZON4, "t1": 10 ** 400},
                               "mode": "dt"}),
     "summary.json: horizon t1 1000"),
    (DT4_TUBE_CSV.replace("0.0,1,0,1.0", "0.0,1,0,1.\xff").encode("latin-1"),
     json.dumps({"horizon": HORIZON4, "mode": "dt"}),
     "tube.csv: line 3: byte 0xff is not UTF-8"),
    # the summary lists a gap whose row the tube lacks, or another status
    (DT4_TUBE_CSV, json.dumps({"horizon": HORIZON4, "mode": "dt",
                               "directions": [0.0, 3.0],
                               "statuses": {"0.0": "optimal",
                                            "3.0": "infeasible"}}),
     "summary.json: directions differ from those of the tube"),
    (DT4_TUBE_CSV + "3.0,,,,limit\n",
     json.dumps({"horizon": HORIZON4, "mode": "dt",
                 "directions": [0.0, 3.0],
                 "statuses": {"0.0": "optimal", "3.0": "infeasible"}}),
     "summary.json: statuses differ from those of the tube"),
], ids=["no-tube", "no-summary", "bad-json", "no-horizon", "bad-mode",
        "ct-tube-as-dt", "no-n-periods", "null-n-periods", "too-few-periods",
        "too-many-periods", "fractional-n-periods", "zero-n-periods",
        "zero-period", "no-status-column", "short-row", "non-numeric-cell",
        "gap-row-first", "gap-row-last", "nan-theta", "nan-value",
        "inf-value", "unknown-status", "repeated-cell", "bool-n-periods",
        "nan-t1", "inf-period", "long-int-t1", "bad-bytes", "dropped-gap-row",
        "status-mismatch"])
def test_pqbox_stored_tube_input_errors(tube_text, summary_text, message,
                                        tmp_path, capsys):
    paths = []
    for name, text in (("tube.csv", tube_text),
                       ("summary.json", summary_text)):
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        elif text is not None:
            (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    rc = run(["pqbox", "builtin:three-node", "--tube", paths[0],
              "--summary", paths[1], "--time", "450",
              "--out", str(tmp_path / "b")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("which", [0, 1], ids=["tube", "summary"])
def test_pqbox_stored_tube_that_is_a_directory(which, tmp_path, capsys):
    paths = [CT12_TUBE, CT12_SUMMARY]
    paths[which] = str(tmp_path)
    rc = run(["pqbox", "builtin:twelve-node", "--tube", paths[0],
              "--summary", paths[1], "--time", "0",
              "--out", str(tmp_path / "b")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: file not found: {tmp_path}\n"


# what a mutant of the stored 12-node tube puts in a CSV cell, or in a
# summary field it retypes, and the times it is queried at
MUTANT_CELLS = ("nan", "inf", "", "abc", "-1", "1e308")
MUTANT_FIELDS = (math.nan, math.inf, "", "abc", -1, 1e308, None, True, [],
                 {})
MUTANT_TIMES = (0, 900, 1234.5, 1800, 3600)


def stored_tube_mutants(rng, count):
    """``count`` (edit, tube CSV text, summary document) triples, each the
    stored 12-node tube and summary with one random edit."""
    with open(CT12_TUBE) as fp:
        lines = fp.read().splitlines()
    with open(CT12_SUMMARY) as fp:
        summary = json.load(fp)
    for _ in range(count):
        rows, doc = list(lines), copy.deepcopy(summary)
        edit = rng.choice(("drop", "duplicate", "swap", "cell", "delete",
                           "retype"))
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if edit == "drop":
            del rows[i]
        elif edit == "duplicate":
            rows.insert(j, rows[i])
        elif edit == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif edit == "cell":
            cells = rows[i].split(",")
            cells[rng.randrange(len(cells))] = rng.choice(MUTANT_CELLS)
            rows[i] = ",".join(cells)
        else:
            block = rng.choice((doc, doc["horizon"]))
            key = rng.choice(sorted(block))
            if edit == "delete":
                del block[key]
            else:
                block[key] = rng.choice(MUTANT_FIELDS)
        yield edit, "\n".join(rows) + "\n", doc


def test_pqbox_stored_tube_mutants(tmp_path, capsys):
    # each mutant is input error, or a box whose corners are finite and
    # lie in the section of the mutant as read back; a traceback fails
    rng = random.Random(1117)
    tube, summary = str(tmp_path / "tube.csv"), str(tmp_path / "summary.json")
    out = tmp_path / "box"
    codes = []
    for n, (edit, tube_text, doc) in enumerate(stored_tube_mutants(rng, 300)):
        with open(tube, "w") as fp:
            fp.write(tube_text)
        with open(summary, "w") as fp:
            json.dump(doc, fp)
        t0 = rng.choice(MUTANT_TIMES)
        rc = run(["pqbox", "builtin:twelve-node", "--tube", tube,
                  "--summary", summary, "--time", str(t0), "--out", str(out)])
        err = capsys.readouterr().err
        what = f"mutant {n} ({edit}) at t = {t0}: exit {rc}, {err!r}"
        codes.append(rc)
        if rc == 2:
            assert err.startswith("error: "), what
            continue
        assert rc == 0, what
        box = json.loads((out / "box.json").read_text())
        section = pqbox.cross_section(engine.read_tube(tube, summary), t0)
        for p in (box["P1"], box["P2"]):
            for q in (box["Q1"], box["Q2"]):
                assert math.isfinite(p) and math.isfinite(q), what
                assert section.contains(p, q), what
    assert codes.count(0) and codes.count(2)


@pytest.mark.parametrize("thetas, radii", [
    ((0.0, 1.0, 2.0, 3.0), (1.0, 1.0, 5.0, 1.0)),
    ((0.0, 1.0), (1.0, 2.0))], ids=["four-directions", "two-directions"])
def test_pqbox_stored_tube_on_an_uneven_grid(thetas, radii, tmp_path):
    # any sorted grid in [0, 2pi) is read: the start lies in the section
    # and no boundary radius is negative
    tube, summary = str(tmp_path / "tube.csv"), str(tmp_path / "summary.json")
    with open(tube, "w") as fp:
        fp.write("theta,period,coef_index,value,status\n" + "".join(
            f"{th!r},{m},{k},{r!r},optimal\n" for th, r in zip(thetas, radii)
            for m in range(2) for k in range(4)))
    with open(summary, "w") as fp:
        json.dump({"horizon": {**HORIZON, "n_periods": 2}}, fp)
    out = tmp_path / "b"
    assert run(["pqbox", "builtin:two-node", "--tube", tube, "--summary",
                summary, "--time", "450", "--boundary-csv",
                "--out", str(out)]) == 0
    box = json.loads((out / "box.json").read_text())
    section = pqbox.cross_section(engine.read_tube(tube, summary), 450.0)
    for p in (box["P1"], box["P2"]):
        for q in (box["Q1"], box["Q2"]):
            assert section.contains(p, q), (p, q)
    with open(out / "boundary.csv", newline="") as fp:
        rows = list(csv.reader(fp))[1:]
    assert len(rows) == 721 and min(float(r) for _, r in rows) >= 0.0


@pytest.mark.parametrize("command, flags, prefixes", [
    ("metrics", ["--theta-set", "0"],
     ["alpha 0.5, sop 1, ess 1, pv_scale 1.0"]),
    ("compare-dt", [], ["ct", "dt"]),
])
def test_manifest_keeps_each_assessment_warnings(command, flags, prefixes,
                                                 tmp_path):
    # two-node at K = 2: pi/2, pi and 3pi/2 are gaps
    out = tmp_path / "o"
    assert run([command, "builtin:two-node", "--directions", "2",
                "--workers", "1", *flags, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == [
        f"{prefix}: direction {theta}: infeasible (gap)"
        for prefix in prefixes
        for theta in ("1.570796", "3.141593", "4.712389")]


def test_pqbox_manifest_keeps_the_assessment_warnings(tmp_path):
    # without --tube pqbox assesses the model itself, and records its gaps
    # as assess does
    manifests = []
    for command, flags in (("assess", []), ("pqbox", ["--time", "900"])):
        out = tmp_path / command
        assert run([command, "builtin:two-node", "--directions", "2",
                    "--workers", "1", *flags, "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert manifests[1]["warnings"] == manifests[0]["warnings"] == [
        f"direction {theta}: infeasible (gap)"
        for theta in ("1.570796", "3.141593", "4.712389")]


def test_compare_dt(tmp_path):
    out = str(tmp_path / "cmp")
    rc = run(["compare-dt", "builtin:three-node", "--directions", "2",
              "--workers", "1", "--out", out])
    assert rc == 0
    rows = open(os.path.join(out, "compare_dt.csv")).read().splitlines()
    assert rows[0] == "theta,ct_objective,dt_objective,ct_status,dt_status"
    assert len(rows) == 5


def edit_model(change):
    """An edit of the serialized model file: ``change`` gets its document."""
    def edit(path):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
    return edit


def nan_load_sample(path):
    csv_path = path.with_name("m_load0.csv")
    csv_path.write_text(csv_path.read_text().replace("\n0.0,0.4\n",
                                                     "\n0.0,nan\n"))


# edits of a serialized three-node model, each an input error that the
# message names
BAD_MODEL_FILES = [
    (edit_model(lambda doc: doc["branches"][0].update(r=math.nan)),
     "branch 0: r nan is not finite"),
    (edit_model(lambda doc: doc["loads"][0].update(phi=math.nan)),
     "load 0: phi nan is not finite"),
    (nan_load_sample, "load 0: profile nan is not finite"),
    (edit_model(lambda doc: doc.update(nodes=3.7)),
     "nodes: 3.7 is not an integer"),
    (edit_model(lambda doc: doc["loads"][0].update(node=True)),
     "node: True is not an integer"),
    (lambda path: path.write_bytes(b"\xff" + path.read_bytes()),
     "m.json: line 1: byte 0xff is not UTF-8"),
    (lambda path: path.with_name("m_load0.csv").write_bytes(
        b"t,value\n0,\xff\n"), "m_load0.csv: line 2: byte 0xff is not UTF-8"),
    (lambda path: path.with_name("m_pv0.csv").unlink(),
     "No such file or directory"),
]


@pytest.mark.parametrize("edit, message", BAD_MODEL_FILES,
                         ids=["nan-r", "nan-phi", "nan-sample",
                              "fractional-nodes", "bool-node", "bad-bytes",
                              "bad-bytes-profile", "missing-profile"])
@pytest.mark.parametrize("command", ["validate", "assess"])
def test_bad_model_file_is_input_error(command, edit, message, tmp_path,
                                       capsys):
    path = tmp_path / "m.json"
    serialize(three_node(), str(path))
    edit(path)
    args = [] if command == "validate" else [
        "--directions", "2", "--workers", "1", "--out", str(tmp_path / "o")]
    assert run([command, str(path), *args]) == 2
    out, err = capsys.readouterr()
    assert message in out + err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda path: path.write_text("{not json"), "invalid JSON"),
    (edit_model(lambda doc: doc["branches"][0].update(r="x")),
     "schema error: r: could not convert"),
    (edit_model(lambda doc: doc.update(pv_unit=doc.pop("pv_units"))),
     "schema error: model: unknown key 'pv_unit'"),
    (edit_model(lambda doc: doc["branches"][1].update(to=1)),
     "model validation failed"),
], ids=["invalid-json", "schema-error", "unknown-key", "invalid-model"])
@pytest.mark.parametrize("command", ["validate", "assess"])
def test_bad_model_file_names_its_path_once(command, edit, message, tmp_path,
                                            capsys):
    path = tmp_path / "m.json"
    serialize(three_node(), str(path))
    edit(path)
    args = [] if command == "validate" else [
        "--directions", "2", "--workers", "1", "--out", str(tmp_path / "o")]
    assert run([command, str(path), *args]) == 2
    out, err = capsys.readouterr()
    if command == "validate" and message == "model validation failed":
        # validate lists each violation instead
        assert "violation: branch 1: node 1 has two parents" in out
    else:
        assert message in err
        assert (out + err).count(str(path)) == 1


# load sample times on the two-node model's two 900 s periods that the
# profile fit refuses: one before t1, one past t2, and one 5e-10 s short of
# the period boundary, which the fit places in period 0
REFUSED_LOAD_TIMES = [
    ([-100.0, 0.0, 200.0, 400.0, 600.0, 900.0, 1200.0, 1500.0, 1800.0],
     "load 0: 1 profile samples outside the horizon [0.0, 1800.0]"),
    ([0.0, 200.0, 400.0, 600.0, 900.0, 1200.0, 1500.0, 1800.0, 1900.0],
     "load 0: 1 profile samples outside the horizon [0.0, 1800.0]"),
    ([0.0, 200.0, 400.0, 600.0, 900.0 - 5e-10, 1200.0, 1500.0, 1800.0],
     "load 0: period 1 holds 3 samples; need >= 4"),
]


@pytest.mark.parametrize("times, message", REFUSED_LOAD_TIMES,
                         ids=["before-t1", "past-t2", "boundary"])
@pytest.mark.parametrize("command", ["validate", "assess"])
def test_profile_the_fit_refuses_is_input_error(command, times, message,
                                                tmp_path, capsys):
    path = tmp_path / "m.json"
    serialize(two_node(), str(path))
    edit_model(lambda doc: doc["loads"][0].update(
        profile={"t": times, "value": [0.5] * len(times)}))(path)
    args = [] if command == "validate" else [
        "--directions", "2", "--workers", "1", "--out", str(tmp_path / "o")]
    assert run([command, str(path), *args]) == 2
    out, err = capsys.readouterr()
    assert message in out + err


def svc_limited_twelve_node():
    """The storage-free 12-node feeder with both SVCs held to +-0.001,
    less than their output margins."""
    model = twelve_node(ess=False)
    return dataclasses.replace(model, svc_devices=tuple(
        dataclasses.replace(svc, q_min=-0.001, q_max=0.001)
        for svc in model.svc_devices))


@pytest.mark.parametrize("model, message", [
    (dataclasses.replace(two_node(), alpha=0.01, loads=(dataclasses.replace(
        two_node().loads[0], sigma2=50.0),)),
     "voltage margin 0.329 at node 1 exceeds the band"),
    (dataclasses.replace(two_node(), ess_devices=(EssDevice(
        1, e_max=1.0, e_init=0.5, eta_c=1.0, eta_d=1.0, p_c=0.1, p_d=0.1,
        t_min_charge=1800.0),)),
     "ess 0: minimum mode duration 1800.0s exceeds the scheduling "
     "period 900.0s"),
    (svc_limited_twelve_node(),
     "svc 0: output margin 0.0149 exceeds half the span of its limits "
     "[-0.001, 0.001]"),
    # a capacitor step of 1/(2x) cancels the voltage's reactive feedback
    (dataclasses.replace(two_node(), alpha=0.1, loads=(dataclasses.replace(
        two_node().loads[0], sigma2=0.001),), cap_banks=(
            CapacitorBank(1, steps=(50.0,)),)),
     "uncertainty: dependent system is singular"),
], ids=["margin-wider-than-band", "ess-mode-longer-than-period",
        "svc-margin-wider-than-limits", "singular-response"])
@pytest.mark.parametrize("command", ["validate", "assess"])
def test_model_the_builder_refuses_is_input_error(command, model, message,
                                                  tmp_path, capsys):
    path = str(tmp_path / "m.json")
    serialize(model, path)
    args = [] if command == "validate" else [
        "--directions", "2", "--workers", "1", "--out", str(tmp_path / "o")]
    assert run([command, path, *args]) == 2
    out, err = capsys.readouterr()
    assert message in (out if command == "validate" else err)
    with pytest.raises(ValidationError, match=re.escape(message)):
        engine.direction_free_problem(model, engine.AssessmentConfig())


def test_validate_good_and_bad(tmp_path, capsys):
    assert run(["validate", "builtin:twelve-node"]) == 0
    bad = {
        "nodes": 3,
        "horizon": {"t1": 0, "t2": 1800, "period": 900},
        "branches": [
            {"from": 0, "to": 1, "r": 0.01, "x": 0.01},
            {"from": 1, "to": 2, "r": 0.01, "x": 0.01},
            {"from": 2, "to": 1, "r": 0.01, "x": 0.01},
        ],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(bad))
    assert run(["validate", str(path)]) == 2
    assert "violation" in capsys.readouterr().out
