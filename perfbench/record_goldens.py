"""Record the golden output of every pool entry into goldens.json.

    python3 perfbench/record_goldens.py [--workload NAME ...]

Run from the root of a checkout of the commit whose outputs are the
reference (the byte-identical contract: later commits must print the same).
Every entry must also pass its independent oracle, or nothing is written.
Takes several minutes; the confluence pool dominates.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import harness
import jobs as J


def record(workload):
    runner = harness.Runner(harness.fresh_import())
    classes = {}
    for jc in J.WORKLOADS[workload]:
        digests = []
        width = None
        for index in range(jc.pool):
            entry = J.pool_entry(workload, jc, index)
            width = width or len(entry)
            if len(entry) != width:
                raise SystemExit(f"{workload}/{jc.name}: entries differ in length")
            J.write_files(entry)
            for job in entry:
                rc, out, _ = runner.run(job)
                problem = "raised" if isinstance(rc, BaseException) else \
                    runner.verify(job, rc, out)
                if problem:
                    raise SystemExit(f"{workload}/{jc.name}/{index}: {problem}: "
                                     f"{' '.join(job.argv)[:200]}")
                digests.append(J.output_digest(rc, out))
        classes[jc.name] = {"spec": J.spec_digest(workload, jc), "jobs": width,
                            "outputs": "".join(digests)}
        print(f"{workload}/{jc.name}: {len(digests)} outputs", file=sys.stderr)
    return classes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(J.WORKLOADS))
    args = ap.parse_args(argv)
    harness.add_source_path()
    try:
        with open(harness.GOLDENS, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    try:
        for workload in args.workload or sorted(J.WORKLOADS):
            data[workload] = record(workload)
    finally:
        shutil.rmtree(J.WORK_DIR, ignore_errors=True)
    with open(harness.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
