"""CLI contract tests: command outputs, exit codes, the direction-set
parser, and byte-determinism across reruns."""

import json
import math
import os

import pytest

from ctflex import engine
from ctflex.cli import main, parse_theta_set
from ctflex.instances import two_node
from ctflex.netmodel import serialize


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


def test_pqbox_time_outside_horizon(tmp_path, capsys):
    rc = run(["pqbox", "builtin:ess-symmetric", "--directions", "2",
              "--workers", "1", "--time", "99999",
              "--out", str(tmp_path / "b")])
    assert rc == 2
    assert "horizon" in capsys.readouterr().err


@pytest.fixture
def no_assess(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("assessed before the input was checked")

    monkeypatch.setattr(engine, "assess", fail)


@pytest.mark.parametrize("flags", [["--delta", "-1"], ["--eps", "0"],
                                   ["--delta", "inf"], ["--eps", "nan"],
                                   ["--edge-samples", "-5"]])
def test_pqbox_bad_step_is_input_error(flags, tmp_path, capsys, no_assess):
    rc = run(["pqbox", "builtin:ess-symmetric", "--directions", "2",
              "--workers", "1", "--time", "900", *flags,
              "--out", str(tmp_path / "b")])
    assert rc == 2
    assert f"error: {flags[0]}" in capsys.readouterr().err


def test_pqbox_no_feasible_direction(tmp_path, capsys):
    # loads only and alpha such that nothing works: use a model with a load
    # whose power factor points between samples -> every direction is a gap
    import dataclasses
    model = two_node()
    model = dataclasses.replace(
        model, loads=(dataclasses.replace(model.loads[0], phi=0.37),))
    path = str(tmp_path / "gappy.json")
    serialize(model, path)
    rc = run(["pqbox", path, "--directions", "2", "--workers", "1",
              "--time", "900", "--out", str(tmp_path / "bx")])
    assert rc == 3
    assert "no feasible direction" in capsys.readouterr().err


def test_pqbox_from_tube_files(tmp_path):
    out = str(tmp_path / "assess_out")
    assert run(["assess", "builtin:ess-symmetric", "--directions", "6",
                "--workers", "1", "--out", out]) == 0
    box_out = str(tmp_path / "boxed")
    rc = run(["pqbox", "builtin:ess-symmetric",
              "--tube", os.path.join(out, "tube.csv"),
              "--summary", os.path.join(out, "summary.json"),
              "--time", "900", "--out", box_out])
    assert rc == 0
    assert os.path.exists(os.path.join(box_out, "box.json"))


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
], ids=["no-tube", "no-summary", "bad-json", "no-horizon", "bad-mode",
        "ct-tube-as-dt", "no-n-periods", "null-n-periods", "too-few-periods",
        "too-many-periods"])
def test_pqbox_stored_tube_input_errors(tube_text, summary_text, message,
                                        tmp_path, capsys):
    paths = []
    for name, text in (("tube.csv", tube_text),
                       ("summary.json", summary_text)):
        if text is not None:
            (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    rc = run(["pqbox", "builtin:three-node", "--tube", paths[0],
              "--summary", paths[1], "--time", "450",
              "--out", str(tmp_path / "b")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_compare_dt(tmp_path):
    out = str(tmp_path / "cmp")
    rc = run(["compare-dt", "builtin:three-node", "--directions", "2",
              "--workers", "1", "--out", out])
    assert rc == 0
    rows = open(os.path.join(out, "compare_dt.csv")).read().splitlines()
    assert rows[0] == "theta,ct_objective,dt_objective,ct_status,dt_status"
    assert len(rows) == 5


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
