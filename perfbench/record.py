"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py

Runs the ct12 and sweep-dt units once each, writes perfbench/reference.json
(every direction's status and objective, and each assessment's M and gap
count) and keeps the ct12 tube in perfbench/data/ as the pqbox input.  Run
it only at a commit whose outputs are accepted as correct.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import check
import measure


def main() -> int:
    ctx = measure.setup("ct12")
    work = tempfile.mkdtemp(prefix="record-", dir=measure.HERE)
    try:
        ct12_out = os.path.join(work, "ct12")
        with measure.native_stdout(os.path.join(work, "native.txt")):
            code = measure.unit_ct12(ctx, ct12_out, ctx.workers)
            cells = measure.unit_sweep(ctx, work, ctx.workers)
        if code != 0:
            raise SystemExit(f"ct12 assess exited with {code}")
        with open(os.path.join(ct12_out, "summary.json")) as fp:
            summary = json.load(fp)
        horizon = summary["horizon"]
        tube = check.read_tube(os.path.join(ct12_out, "tube.csv"), horizon)
        reference = {
            "ct12": {measure.CT12_CELL: {
                "directions": check.tube_objectives(tube, horizon),
                "M": summary["M"], "gaps": len(summary["gaps"])}},
            "sweep-dt": cells,
        }
        with open(measure.REFERENCE, "w") as fp:
            json.dump(reference, fp, indent=1, sort_keys=True)
            fp.write("\n")
        os.makedirs(os.path.dirname(measure.TUBE), exist_ok=True)
        shutil.copyfile(os.path.join(ct12_out, "tube.csv"), measure.TUBE)
        shutil.copyfile(os.path.join(ct12_out, "summary.json"),
                        measure.SUMMARY)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
