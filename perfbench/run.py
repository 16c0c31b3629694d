"""ctflex benchmark: one run of one workload.

    python3 perfbench/run.py --workload {ct12,sweep-dt,pqbox} --seed N \
        --seconds S --trace {0,1}

Every measured part runs in a fresh interpreter (perfbench/measure.py), so
peak RSS and the children's CPU time belong to that part alone.  With
``--trace 0`` the run repeats the workload's timed unit for S seconds and
reports end-to-end metrics; set-up is timed in seven fresh interpreters
(the measured one, three before it and three after) and the median is
reported.  With ``--trace 1`` it runs the workload once serially with
spans around the layers' public calls, then once pooled and untraced, and
reports per-layer metrics; the spans are kept in
perfbench/.work/trace-<workload>-seed<N>.json.  The whole run is limited
to RUN_LIMIT_S; a unit still running near that limit is stopped and
counted as failed, and the run reports what it measured with
``correct`` false.

A human-readable report comes first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  The
run exits with code 2 and prints no result when the program's sources
(src/ctflex) are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import measure

WORK_ROOT = os.path.join(measure.HERE, ".work")
SETUP_PROBES = 3         # set-up-only interpreters before and after the run
RUN_LIMIT_S = 170.0      # the whole run, children included
BUDGET_MARGIN_S = 15.0   # left after the measured child's budget


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to the program
    failing a check)."""


def run_child(role: str, args, work: str, deadline: float, extra=()) -> dict:
    result = os.path.join(work, f"{role}-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(measure.HERE, "measure.py"), role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work", work,
           "--result", result, *extra]
    # its own process group, so pool workers are stopped with it
    proc = subprocess.Popen(cmd, cwd=measure.ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise BenchError(f"{role} did not finish within {RUN_LIMIT_S} s")
    if code != 0 or not os.path.exists(result):
        raise BenchError(f"{role} exited with code {code}")
    with open(result) as fp:
        return json.load(fp)


def git_head() -> str:
    if not os.path.isdir(os.path.join(measure.ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", measure.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def budget(deadline: float) -> tuple:
    """The measured child's budget: past it, the unit in progress is
    stopped and counted as failed, so that a run which outgrows the limit
    still reports what it measured instead of being killed."""
    return ("--budget", f"{deadline - time.monotonic() - BUDGET_MARGIN_S:.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ctflex benchmark run")
    parser.add_argument("--workload", choices=sorted(measure.UNITS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(measure.ROOT, "src", "ctflex",
                                       "__init__.py")):
        print(f"error: no program sources under {measure.ROOT}/src/ctflex",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.trace:
            spans = os.path.join(WORK_ROOT, f"trace-{args.workload}"
                                 f"-seed{args.seed}.json")
            res = run_child("trace", args, work, deadline,
                            ("--spans", spans, *budget(deadline)))
            names = measure.PER_LAYER
            values = res["metrics"]
        else:
            # probes on both sides of the measured run, so that a slow
            # spell of the machine does not cover all of them
            setups = [run_child("setup", args, work, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            res = run_child("run", args, work, deadline, budget(deadline))
            setups += [run_child("setup", args, work, deadline)["setup_s"]
                       for _ in range(SETUP_PROBES)] + [res["setup_s"]]
            names = measure.END_TO_END
            values = {**res["metrics"], "setup_s": statistics.median(setups)}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    versions = " ".join(f"{k}={v}" for k, v in res["versions"].items())
    print(f"ctflex benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: cpu_count={res['cpu_count']} {versions} "
          f"git={git_head()}")
    if args.trace:
        self_sum = sum(values[f"self.{layer}_s"] for layer in measure.LAYERS)
        print(f"spans: {spans}")
        print(f"self times: {self_sum:.4f} s in all, of trace.wall_s "
              f"{values['trace.wall_s']:.4f} s")
    else:
        print(f"units: {res['units']}; native solver lines captured: "
              f"{res['native_lines']}")
        print(f"  {'setup_s':<24}{statistics.median(setups):>14.4f} s   "
              f"(median of {len(setups)} interpreters)")
    for name, unit in names.items():
        if name != "setup_s":
            print(f"  {name:<24}{values[name]:>14.6g} {unit}")
    print(f"  {'fail_frac':<24}{failed / attempted:>14.4g}     "
          f"({failed} of {attempted} operations failed)")
    for line in res["mismatches"]:
        print(f"mismatch: {line.strip().splitlines()[-1]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
