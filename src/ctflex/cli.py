"""Command-line front end.

Commands: ``assess`` (tube CSV + summary JSON + manifest), ``pqbox``
(decoupled rectangle JSON), ``metrics`` (parameter-sweep table),
``compare-dt`` (per-direction CT vs DT objectives), and ``validate``.
Outputs are plain CSV/JSON meant for external plotting, byte-stable across
reruns with the same inputs and seed (manifests carry the only
timestamps).  Exit codes: 0 success, 2 input error, 3 empty assessment,
4 backend failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__, engine, pqbox
from .instances import ess_symmetric, three_node, twelve_node, two_node
from .milp import BackendError
from .netmodel import ModelError, NetworkModel, load_model, validate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_BACKEND = 4

_BUILTIN = {
    "builtin:twelve-node": twelve_node,
    "builtin:two-node": two_node,
    "builtin:three-node": three_node,
    "builtin:ess-symmetric": ess_symmetric,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _load(path: str, alpha: float | None = None) -> NetworkModel:
    if path in _BUILTIN:
        model = _BUILTIN[path]()
    elif not os.path.exists(path):
        raise CliError(f"model file not found: {path}")
    else:
        try:
            model = load_model(path)
        except ModelError as exc:
            raise CliError(f"{path}: {exc}") from exc
    if alpha is not None:
        model = _with_alpha(model, alpha)
    return model


def _with_alpha(model: NetworkModel, alpha: float) -> NetworkModel:
    """The model at confidence parameter alpha, held to the same rules as
    a model file."""
    model = dataclasses.replace(model, alpha=alpha)
    violations = validate(model)
    if violations:
        raise CliError("; ".join(violations))
    return model


def parse_theta_set(text: str) -> tuple:
    """Comma-separated directions in radians; 'pi' fractions like
    ``0,pi/3,2pi/3,pi`` are accepted."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        m = re.fullmatch(r"(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi(?:\s*/\s*(\d+(?:\.\d+)?))?",
                         token)
        if m:
            num = float(m.group(1)) if m.group(1) else 1.0
            den = float(m.group(2)) if m.group(2) else 1.0
            out.append(num * math.pi / den)
            continue
        try:
            out.append(float(token))
        except ValueError:
            raise CliError(f"cannot parse direction {token!r}") from None
    if not out:
        raise CliError("empty direction set")
    return tuple(out)


def _theta_set(args, default: tuple | None = None) -> tuple | None:
    """The parsed ``--theta-set``, or ``default`` when it is not given,
    each direction among the 2K that the assessment samples."""
    if args.theta_set:
        theta_set, source = parse_theta_set(args.theta_set), "--theta-set"
    elif default is None:
        return None
    else:
        theta_set, source = default, "default --theta-set"
    sampled = engine.all_directions(args.directions)
    for th in theta_set:
        if engine.match_direction(sampled, th) is None:
            raise CliError(f"{source} direction {th} is not among the "
                           f"{len(sampled)} sampled directions")
    return theta_set


def _stored_tube(tube_path: str, summary_path: str) -> engine.FlexTube:
    """A tube read back from an assessment's tube CSV and summary JSON."""
    for path in (tube_path, summary_path):
        if not os.path.exists(path):
            raise CliError(f"file not found: {path}")
    try:
        with open(summary_path) as fp:
            summary = json.load(fp)
    except (OSError, ValueError) as exc:
        raise CliError(f"{summary_path}: unreadable JSON: {exc}") from exc
    if not isinstance(summary, dict) or "horizon" not in summary:
        raise CliError(f"{summary_path}: no horizon block")
    horizon = summary["horizon"]
    missing = [key for key in ("t1", "period", "n_periods")
               if not isinstance(horizon, dict)
               or not isinstance(horizon.get(key), (int, float))]
    if missing:
        raise CliError(f"{summary_path}: horizon block lacks a number for "
                       f"{', '.join(missing)}")
    mode = summary.get("mode", "ct")
    if mode not in engine.N_COEF_BY_MODE:
        raise CliError(f"{summary_path}: unknown mode {mode!r}")
    try:
        return engine.tube_from_csv(tube_path, horizon, mode)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _config_from_args(args) -> engine.AssessmentConfig:
    try:
        return engine.AssessmentConfig(
            directions=args.directions,
            mip_gap=args.gap,
            time_limit=args.time_limit,
            workers=args.workers,
            mode=getattr(args, "mode", "ct"),
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, args, stages: dict, warnings: list):
    inputs = {}
    if os.path.exists(args.model):
        inputs[args.model] = _sha256(args.model)
    else:
        inputs[args.model] = "builtin"
    manifest = {
        "tool": "ctflex",
        "version": __version__,
        "command": args.command,
        "inputs": inputs,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func",)},
        "stage_wall_times_s": stages,
        "warnings": warnings,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fp:
        json.dump(manifest, fp, indent=1, sort_keys=True, default=str)
        fp.write("\n")


def _summary(tube: engine.FlexTube, model: NetworkModel, theta_set) -> dict:
    doc = {
        "directions": [s.theta for s in tube.slices],
        "statuses": {repr(s.theta): s.status for s in tube.slices},
        "gaps": tube.gaps,
        "horizon": {"t1": tube.t1, "period": tube.period,
                    "n_periods": tube.n_periods},
        "mode": tube.mode,
        "M": None,
        "K1": None,
        "K2": None,
        "theta_set": list(theta_set) if theta_set else None,
    }
    try:
        doc["M"] = engine.metric_M(tube, theta_set)
    except ValueError:
        pass
    try:
        k1, k2 = engine.penetration_metrics(model)
        doc["K1"], doc["K2"] = k1, k2
    except ValueError:
        pass
    return doc


def cmd_assess(args) -> int:
    model = _load(args.model, args.alpha)
    config = _config_from_args(args)
    theta_set = _theta_set(args)
    os.makedirs(args.out, exist_ok=True)
    stages = {}
    t0 = time.perf_counter()
    tube = engine.assess(model, config)
    stages["assess"] = time.perf_counter() - t0
    if all(not s.feasible for s in tube.slices):
        print("assessment empty: every direction is infeasible",
              file=sys.stderr)
        return EXIT_EMPTY
    t0 = time.perf_counter()
    with open(os.path.join(args.out, "tube.csv"), "w", newline="") as fp:
        engine.tube_to_csv(tube, fp)
    with open(os.path.join(args.out, "summary.json"), "w") as fp:
        json.dump(_summary(tube, model, theta_set), fp, indent=1,
                  sort_keys=True)
        fp.write("\n")
    if args.plot_grid:
        with open(os.path.join(args.out, "plot_grid.csv"), "w",
                  newline="") as fp:
            engine.dense_grid_csv(tube, fp)
    if args.dump_lp:
        from .milp import write_lp
        assembled = engine.build_subproblem(model, 0.0, config)
        with open(os.path.join(args.out, "problem_theta0.lp"), "w") as fp:
            write_lp(assembled.problem, fp)
    stages["write"] = time.perf_counter() - t0
    _write_manifest(args.out, args, stages, tube.diagnostics.get("warnings", []))
    print(f"wrote {args.out}/tube.csv ({len(tube.slices)} directions, "
          f"{len(tube.gaps)} gaps)")
    return EXIT_OK


def cmd_pqbox(args) -> int:
    for flag, value in (("--delta", args.delta), ("--eps", args.eps)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise CliError(f"{flag} {value} must be positive and finite")
    if args.edge_samples < 0:
        raise CliError(f"--edge-samples {args.edge_samples} must be >= 0")
    stages = {}
    os.makedirs(args.out, exist_ok=True)
    if args.tube:
        if not args.summary:
            raise CliError("--tube needs --summary for the horizon block")
        tube = _stored_tube(args.tube, args.summary)
        model = None
    else:
        model = _load(args.model, args.alpha)
        config = _config_from_args(args)
        t0 = time.perf_counter()
        tube = engine.assess(model, config)
        stages["assess"] = time.perf_counter() - t0
    t0_q = args.time
    if not tube.t1 - 1e-9 <= t0_q <= tube.t2 + 1e-9:
        raise CliError(f"--time {t0_q} outside horizon [{tube.t1}, {tube.t2}]")
    section = pqbox.cross_section(tube, t0_q)
    if not np.any(section.feasible):
        print(f"no feasible direction at t = {t0_q}", file=sys.stderr)
        return EXIT_EMPTY
    feasible_count = int(np.sum(section.feasible))
    if feasible_count < len(section.feasible):
        print(f"warning: only {feasible_count}/{len(section.feasible)} "
              "directions feasible; box search restricted to the largest "
              "piece", file=sys.stderr)
    start = pqbox.initial_point(section)
    scale = float(np.nanmax(section.radii)) or 1.0
    delta = args.delta if args.delta is not None else 0.05 * scale
    eps = args.eps if args.eps is not None else 1e-4 * scale
    t0 = time.perf_counter()
    box = pqbox.expand_box(section, start, delta, eps, t0=t0_q,
                           edge_samples=args.edge_samples)
    stages["expand"] = time.perf_counter() - t0
    out_path = os.path.join(args.out, "box.json")
    with open(out_path, "w") as fp:
        json.dump(box.as_dict(), fp, indent=1, sort_keys=True)
        fp.write("\n")
    if args.boundary_csv:
        import csv as _csv
        with open(os.path.join(args.out, "boundary.csv"), "w",
                  newline="") as fp:
            w = _csv.writer(fp)
            w.writerow(["theta", "radius"])
            for th in np.linspace(0, 2 * math.pi, 721):
                r = section.boundary_radius(float(th))
                if r is not None:
                    w.writerow([repr(float(th)), repr(float(r))])
    _write_manifest(args.out, args, stages, [])
    print(f"wrote {out_path}")
    return EXIT_OK


def _parse_grid(text: str | None, name: str):
    if text is None:
        return [None]
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad {name} grid {text!r}") from exc
    if not values:
        raise CliError(f"empty {name} grid")
    return values


def cmd_metrics(args) -> int:
    import csv as _csv

    config = _config_from_args(args)
    alphas = _parse_grid(args.alpha_grid, "alpha")
    sop_states = {"on": [True], "off": [False], "both": [True, False]}[args.sop]
    ess_states = {"on": [True], "off": [False], "both": [True, False]}[args.ess]
    pv_scales = _parse_grid(args.pv_scale_grid, "pv-scale")
    for scale in pv_scales:
        # twelve_node adds PV only when pv_scale > 0, so a negative or NaN
        # scale would silently mean "no PV"
        if scale is not None and not (math.isfinite(scale) and scale >= 0):
            raise CliError(f"--pv-scale-grid {scale} must be >= 0 and finite")
    if args.model != "builtin:twelve-node" and \
            any(scale not in (None, 1.0) for scale in pv_scales):
        raise CliError("--pv-scale-grid needs builtin:twelve-node")
    base = _load(args.model, args.alpha)
    for alpha in alphas:
        if alpha is not None:
            _with_alpha(base, alpha)   # reject a bad grid value before solving
    theta_set = _theta_set(args, engine.DEFAULT_THETA_SET)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for alpha in alphas:
        for sop_on in sop_states:
            for ess_on in ess_states:
                for scale in pv_scales:
                    if args.model == "builtin:twelve-node":
                        model = twelve_node(
                            sop=sop_on, ess=ess_on,
                            pv_scale=1.0 if scale is None else scale,
                            alpha=base.alpha if alpha is None else alpha)
                    else:
                        model = base
                        if alpha is not None:
                            model = dataclasses.replace(model, alpha=alpha)
                        if not sop_on:
                            model = dataclasses.replace(model, sop_devices=())
                        if not ess_on:
                            model = dataclasses.replace(model, ess_devices=())
                    tube = engine.assess(model, config)
                    try:
                        k1, k2 = engine.penetration_metrics(model)
                    except ValueError:
                        k1, k2 = None, None
                    rows.append({
                        "alpha": model.alpha,
                        "sop": int(sop_on),
                        "ess": int(ess_on),
                        "pv_scale": 1.0 if scale is None else scale,
                        "M": engine.metric_M(tube, theta_set),
                        "K1": k1,
                        "K2": k2,
                        "gaps": len(tube.gaps),
                    })
    out_path = os.path.join(args.out, "metrics.csv")
    with open(out_path, "w", newline="") as fp:
        w = _csv.DictWriter(fp, fieldnames=list(rows[0].keys()))
        w.writeheader()
        for row in rows:
            w.writerow(row)
    _write_manifest(args.out, args, {}, [])
    print(f"wrote {out_path} ({len(rows)} cells)")
    return EXIT_OK


def cmd_compare_dt(args) -> int:
    import csv as _csv

    model = _load(args.model, args.alpha)
    config = _config_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    ct = engine.assess(model, dataclasses.replace(config, mode="ct"))
    dt = engine.assess(model, dataclasses.replace(config, mode="dt"))
    out_path = os.path.join(args.out, "compare_dt.csv")
    with open(out_path, "w", newline="") as fp:
        w = _csv.writer(fp)
        w.writerow(["theta", "ct_objective", "dt_objective", "ct_status",
                    "dt_status"])
        for s_ct, s_dt in zip(ct.slices, dt.slices):
            w.writerow([repr(s_ct.theta),
                        "" if s_ct.objective is None else repr(s_ct.objective),
                        "" if s_dt.objective is None else repr(s_dt.objective),
                        s_ct.status, s_dt.status])
    _write_manifest(args.out, args, {}, [])
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.model in _BUILTIN:
        model = _BUILTIN[args.model]()
        violations = validate(model)
    else:
        if not os.path.exists(args.model):
            raise CliError(f"model file not found: {args.model}")
        try:
            model = load_model(args.model)
            violations = []
        except ModelError as exc:
            from .netmodel import ValidationError
            if isinstance(exc, ValidationError):
                violations = exc.violations
            else:
                raise CliError(str(exc)) from exc
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return EXIT_INPUT
    print("model is valid")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, with_mode: bool = True,
                with_theta_set: bool = True):
    p.add_argument("model", help="model file path or builtin:NAME "
                   f"({', '.join(sorted(_BUILTIN))})")
    p.add_argument("--directions", type=int, default=12, metavar="K",
                   help="direction samples over the half plane (default 12)")
    if with_mode:
        p.add_argument("--mode", choices=tuple(engine.N_COEF_BY_MODE),
                       default="ct")
    if with_theta_set:
        p.add_argument("--theta-set", default=None,
                       help="directions for the M metric, each one sampled, "
                       "e.g. '0,pi/3,2pi/3,...'")
    p.add_argument("--alpha", type=float, default=None,
                   help="override the model's confidence parameter")
    p.add_argument("--gap", type=float, default=1e-6, help="MIP relative gap")
    p.add_argument("--time-limit", type=float, default=300.0,
                   help="per-subproblem solver limit in seconds")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctflex",
        description="continuous-time TDI flexibility assessment")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="solve the tube and write CSV/JSON")
    _add_common(p)
    p.add_argument("--plot-grid", action="store_true",
                   help="emit a dense (theta, t, P, Q) grid CSV")
    p.add_argument("--dump-lp", action="store_true",
                   help="dump the theta=0 subproblem in LP format")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("pqbox", help="decoupled P-Q rectangle at a time")
    _add_common(p, with_theta_set=False)
    p.add_argument("--time", type=float, required=True, metavar="T0")
    p.add_argument("--delta", type=float, default=None,
                   help="initial step (default 5%% of the largest radius)")
    p.add_argument("--eps", type=float, default=None,
                   help="freeze tolerance (default 1e-4 of the same scale)")
    p.add_argument("--edge-samples", type=int, default=0,
                   help="extra membership samples per box side")
    p.add_argument("--tube", default=None,
                   help="reuse an existing tube CSV instead of assessing")
    p.add_argument("--summary", default=None,
                   help="summary JSON matching --tube")
    p.add_argument("--boundary-csv", action="store_true",
                   help="emit a dense boundary (theta, radius) CSV")
    p.set_defaults(func=cmd_pqbox)

    p = sub.add_parser("metrics", help="sweep parameters and tabulate M")
    _add_common(p, with_mode=False)
    p.add_argument("--alpha-grid", default=None, help="e.g. 0.01,0.05,0.1")
    p.add_argument("--sop", choices=("on", "off", "both"), default="on")
    p.add_argument("--ess", choices=("on", "off", "both"), default="on")
    p.add_argument("--pv-scale-grid", default=None,
                   help="e.g. 0,1,2,5 (builtin:twelve-node only)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("compare-dt", help="CT vs DT per-direction objectives")
    _add_common(p, with_mode=False, with_theta_set=False)
    p.set_defaults(func=cmd_compare_dt)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BackendError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    raise SystemExit(main())
