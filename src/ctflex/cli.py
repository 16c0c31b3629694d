"""Command-line front end.

Commands: ``assess`` (tube CSV + summary JSON + manifest), ``pqbox``
(decoupled rectangle JSON), ``metrics`` (parameter-sweep table),
``compare-dt`` (per-direction CT vs DT objectives), and ``validate``.
Outputs are plain CSV/JSON meant for external plotting, byte-stable across
reruns with the same inputs and seed (manifests carry the only
timestamps).  Exit codes: 0 success, 2 input error, 3 empty assessment,
4 backend failure.

Repeated ``main`` calls in one process reuse what cannot differ between
them: the argument parser, each ``builtin:`` model, and the tube that
``pqbox --tube`` read last.  That tube is kept per paths and file bytes
(see ``engine.read_tube``), so a rewritten file is read afresh; each call
parses its own flags.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys
import time
from collections import Counter

import numpy as np

from . import __version__, engine, pqbox
from .bernstein import locate
from .instances import ess_symmetric, three_node, twelve_node, two_node
from .milp import BackendError, SolveOptions
from .netmodel import (
    NetworkModel, ParseError, ValidationError, load_model, validate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_BACKEND = 4
_SIGNED_FLAGS = ("--theta-set", "--alpha-grid", "--pv-scale-grid")

_BUILTIN = {
    "builtin:twelve-node": twelve_node,
    "builtin:two-node": two_node,
    "builtin:three-node": three_node,
    "builtin:ess-symmetric": ess_symmetric,
}


_DEFAULT_CONFIG = engine.AssessmentConfig()
# the flags that only shape an assessment, at their defaults; pqbox --tube
# reads a tube assessed earlier and refuses them set otherwise
_ASSESS_DEFAULTS = {
    "directions": _DEFAULT_CONFIG.directions, "alpha": None,
    "gap": _DEFAULT_CONFIG.solver.mip_gap,
    "time_limit": _DEFAULT_CONFIG.solver.time_limit,
    "workers": _DEFAULT_CONFIG.workers, "seed": _DEFAULT_CONFIG.solver.seed}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


@functools.cache
def _builtin(name: str) -> NetworkModel:
    """The builtin model ``name``, built once per process: a model is
    frozen dataclasses of tuples, so callers share it unchanged."""
    return _BUILTIN[name]()


def _read(path: str) -> NetworkModel:
    """The builtin model named ``path``, or the model file at ``path``;
    CliError when there is no such file or it does not parse, and the
    ValidationError of a file that breaks the model's rules."""
    if path in _BUILTIN:
        return _builtin(path)
    if not os.path.exists(path):
        raise CliError(f"model file not found: {path}")
    try:
        return load_model(path)
    except ParseError as exc:           # it names the file
        raise CliError(str(exc)) from exc


def _load(path: str, alpha: float | None = None) -> NetworkModel:
    try:
        model = _read(path)
    except ValidationError as exc:
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
    """Comma-separated directions in radians; signed 'pi' fractions like
    ``0,pi/3,2pi/3,-pi/2`` are accepted."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        m = re.fullmatch(r"([+-]?)\s*(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi"
                         r"(?:\s*/\s*(\d+(?:\.\d+)?))?", token)
        try:
            if m:
                num = float(m.group(2)) if m.group(2) else 1.0
                den = float(m.group(3)) if m.group(3) else 1.0
                sign = -1.0 if m.group(1) == "-" else 1.0
                out.append(sign * num * math.pi / den)
            else:
                out.append(float(token))
        except (ValueError, ZeroDivisionError):
            raise CliError(f"cannot parse direction {token!r}") from None
    if not out:
        raise CliError("empty direction set")
    return tuple(out)


def _theta_set(args, default: tuple | None = None) -> tuple | None:
    """The parsed ``--theta-set``, or ``default`` when it is not given,
    each direction among the 2K that the assessment samples and no two
    the same one."""
    if args.theta_set:
        theta_set, source = parse_theta_set(args.theta_set), "--theta-set"
    elif default is None:
        return None
    else:
        theta_set, source = default, "default --theta-set"
    try:
        engine.match_directions(engine.all_directions(args.directions),
                                theta_set)
    except ValueError as exc:
        raise CliError(f"{source} {exc}") from None
    return theta_set


def _config_from_args(args) -> engine.AssessmentConfig:
    try:
        return engine.AssessmentConfig(
            directions=args.directions,
            workers=args.workers,
            mode=getattr(args, "mode", None) or _DEFAULT_CONFIG.mode,
            solver=SolveOptions(args.gap, args.time_limit, args.seed),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, args, model: NetworkModel, stages: dict,
                    warnings: list, read: dict | None = None):
    """manifest.json, whose ``inputs`` hold the sha256 of the model file and
    of each profile CSV it names ("builtin" for a builtin model), and
    ``read``: path -> sha256 of the files hashed as they were parsed."""
    profiles = [*(pv.forecast for pv in model.pv_units),
                *(ld.profile for ld in model.loads)]
    paths = [args.model, *(p.source for p in profiles if p.source)]
    inputs = {path: "builtin" if path in _BUILTIN else _sha256(path)
              for path in paths}
    inputs.update(read or {})
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


def cmd_assess(args) -> int:
    model = _load(args.model, args.alpha)
    config = _config_from_args(args)
    theta_set = _theta_set(args)
    _make_out(args.out)
    stages = {}
    t0 = time.perf_counter()
    tube = engine.assess(model, config)
    stages["assess"] = time.perf_counter() - t0
    if all(not s.feasible for s in tube.slices):
        counts = Counter(s.status for s in tube.slices)
        print("assessment empty: no direction is optimal ("
              + ", ".join(f"{counts[st]} {st}" for st in sorted(counts))
              + ")", file=sys.stderr)
        return EXIT_EMPTY
    t0 = time.perf_counter()
    with open(os.path.join(args.out, "tube.csv"), "w", newline="") as fp:
        engine.tube_to_csv(tube, fp)
    with open(os.path.join(args.out, "summary.json"), "w") as fp:
        json.dump(engine.tube_summary(tube, model, theta_set), fp, indent=1,
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
    _write_manifest(args.out, args, model, stages,
                    tube.diagnostics.get("warnings", []))
    print(f"wrote {args.out}/tube.csv ({len(tube.slices)} directions, "
          f"{len(tube.gaps)} gaps)")
    return EXIT_OK


def cmd_pqbox(args) -> int:
    for flag, value in (("--delta", args.delta), ("--eps", args.eps)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise CliError(f"{flag} {value} must be positive and finite")
    if args.edge_samples < 0:
        raise CliError(f"--edge-samples {args.edge_samples} must be >= 0")
    if args.tube:
        if not args.summary:
            raise CliError("--tube needs --summary for the horizon block")
        unused = [f"--{name.replace('_', '-')}"
                  for name, default in _ASSESS_DEFAULTS.items()
                  if getattr(args, name) != default]
        if unused:
            raise CliError(f"{', '.join(unused)} would shape an assessment, "
                           "but --tube reads one assessed earlier")
    elif args.summary:
        raise CliError("--summary is read only with --tube")
    model = _load(args.model, args.alpha)
    hz = model.horizon
    try:
        locate(np.array([args.time]), hz.t1, hz.period, hz.n_periods)
    except ValueError as exc:
        raise CliError(f"--time {args.time}: {exc}") from None
    stages = {}
    _make_out(args.out)
    if args.tube:
        try:
            tube = engine.read_tube(args.tube, args.summary)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        if args.mode not in (None, tube.mode):
            raise CliError(f"--mode {args.mode} contradicts {args.summary}, "
                           f"which holds a {tube.mode} tube")
        declared = {key: getattr(tube, key) for key in
                    ("t1", "period", "n_periods")}
        got = {key: getattr(hz, key) for key in declared}
        if got != declared:
            raise CliError(f"{args.model} has horizon {got}, but "
                           f"{args.summary} declares {declared}")
    else:
        config = _config_from_args(args)
        t0 = time.perf_counter()
        tube = engine.assess(model, config)
        stages["assess"] = time.perf_counter() - t0
    args.mode = tube.mode            # the manifest records the mode used
    t0_q = args.time
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
        with open(os.path.join(args.out, "boundary.csv"), "w",
                  newline="") as fp:
            w = csv.writer(fp)
            w.writerow(["theta", "radius"])
            for th in np.linspace(0, 2 * math.pi, 721):
                r = section.boundary_radius(float(th))
                if r is not None:
                    w.writerow([repr(float(th)), repr(float(r))])
    # a stored tube keeps no warnings but the digests of the files read;
    # one assessed here keeps its gaps
    _write_manifest(args.out, args, model, stages,
                    tube.diagnostics.get("warnings", []),
                    tube.diagnostics.get("inputs"))
    print(f"wrote {out_path}")
    return EXIT_OK


def _make_out(path: str):
    """Make the output directory ``path``, or CliError when it cannot be
    made, such as when a file holds its name."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"--out {path}: {exc}") from None


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
    _make_out(args.out)
    rows, warnings = [], []
    for alpha, sop_on, ess_on, scale in itertools.product(
            alphas, sop_states, ess_states, pv_scales):
        # only builtin:twelve-node takes a scale other than 1
        model = base if scale in (None, 1.0) else twelve_node(pv_scale=scale)
        model = dataclasses.replace(
            model, alpha=base.alpha if alpha is None else alpha)
        if not sop_on:
            model = dataclasses.replace(model, sop_devices=())
        if not ess_on:
            model = dataclasses.replace(model, ess_devices=())
        tube = engine.assess(model, config)
        summary = engine.tube_summary(tube, model, theta_set)
        rows.append({
            "alpha": model.alpha,
            "sop": int(sop_on),
            "ess": int(ess_on),
            "pv_scale": 1.0 if scale is None else scale,
            **{key: summary[key] for key in ("M", "K1", "K2")},
            "gaps": len(tube.gaps),
        })
        cell = ("alpha {alpha}, sop {sop}, ess {ess}, "
                "pv_scale {pv_scale}").format(**rows[-1])
        warnings += [f"{cell}: {w}" for w in tube.diagnostics["warnings"]]
    out_path = os.path.join(args.out, "metrics.csv")
    with open(out_path, "w", newline="") as fp:
        w = csv.DictWriter(fp, fieldnames=list(rows[0].keys()))
        w.writeheader()
        for row in rows:
            w.writerow(row)
    _write_manifest(args.out, args, base, {}, warnings)
    print(f"wrote {out_path} ({len(rows)} cells)")
    return EXIT_OK


def cmd_compare_dt(args) -> int:
    model = _load(args.model, args.alpha)
    config = _config_from_args(args)
    _make_out(args.out)
    ct = engine.assess(model, dataclasses.replace(config, mode="ct"))
    dt = engine.assess(model, dataclasses.replace(config, mode="dt"))
    out_path = os.path.join(args.out, "compare_dt.csv")
    with open(out_path, "w", newline="") as fp:
        w = csv.writer(fp)
        w.writerow(["theta", "ct_objective", "dt_objective", "ct_status",
                    "dt_status"])
        for s_ct, s_dt in zip(ct.slices, dt.slices):
            w.writerow([repr(s_ct.theta),
                        "" if s_ct.objective is None else repr(s_ct.objective),
                        "" if s_dt.objective is None else repr(s_dt.objective),
                        s_ct.status, s_dt.status])
    _write_manifest(args.out, args, model, {}, [
        f"{mode}: {w}" for mode, tube in (("ct", ct), ("dt", dt))
        for w in tube.diagnostics["warnings"]])
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        violations = validate(_read(args.model))
    except ValidationError as exc:
        violations = exc.violations
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
    p.add_argument("--directions", type=int,
                   default=_ASSESS_DEFAULTS["directions"], metavar="K",
                   help="direction samples over the half plane "
                   "(default %(default)s)")
    if with_mode:
        p.add_argument("--mode", choices=tuple(engine.N_COEF_BY_MODE),
                       default=_DEFAULT_CONFIG.mode)
    if with_theta_set:
        p.add_argument("--theta-set", default=None,
                       help="directions for the M metric, each one sampled, "
                       "e.g. '0,pi/3,2pi/3,...'")
    p.add_argument("--alpha", type=float, default=_ASSESS_DEFAULTS["alpha"],
                   help="override the model's confidence parameter")
    p.add_argument("--gap", type=float, default=_ASSESS_DEFAULTS["gap"],
                   help="MIP relative gap")
    p.add_argument("--time-limit", type=float,
                   default=_ASSESS_DEFAULTS["time_limit"],
                   help="per-subproblem solver limit in seconds")
    p.add_argument("--workers", type=int, default=_ASSESS_DEFAULTS["workers"])
    p.add_argument("--seed", type=int, default=_ASSESS_DEFAULTS["seed"])
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
    # unset, --mode is ct for an assessment and the summary's with --tube
    p.set_defaults(func=cmd_pqbox, mode=None)

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


# main's parser, built on the first call: parsing leaves it unchanged
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _main_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as -pi/2 as an option unless '=' joins it
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in _SIGNED_FLAGS and re.match("-[^-]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValidationError as exc:      # a model the build refuses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BackendError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    raise SystemExit(main())
