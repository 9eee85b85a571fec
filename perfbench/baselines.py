"""Time the re-anchor baseline rows of ROADMAP.md with the benchmark's spans.

    python3 perfbench/baselines.py

Run from the root of a checkout.  Each row is one `cosov` job; it is run
once plainly, then three times through cli.main with spans.  The table
gives the median time of the spans that make up the row's function (for
example find_ambiguities plus every resolve for `confluent`), the median
time of the whole job, and the row's deterministic counter.  The traced
runs' stdout must equal the plain run's.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys

import harness
import jobs as J
import spans

E6 = f"{J.WORK_DIR}/baseline-E6.mat"
EQ4 = f"{J.WORK_DIR}/baseline-Eq4.mat"
FILES = {
    E6: "6 6\n" + "\n".join(" ".join(str(i + 1) if i == j else "0"
                                     for j in range(6)) for i in range(6)) + "\n",
    EQ4: "4 4\n" + "\n".join(" ".join(f"q^{i + 1}" if i == j else "0"
                                      for j in range(4)) for i in range(4)) + "\n",
}
CONFLUENT = ("rewriting.find_ambiguities", "rewriting.resolve")
REPEAT = 3

#: (row, argv, spans timed, counter shown)
ROWS = [
    ("`confluent` H(E,E), 6x6 rational, E = diag(1..6)",
     ["check", "hef", "--E", E6, "--F", E6], CONFLUENT, "presentations.rules"),
    ("`confluent` H(E,E), 4x4 diag(q^k), k = 1..4",
     ["check", "hef", "--E", EQ4, "--F", EQ4], CONFLUENT, "rewriting.ambiguities"),
    ("`reduced_monomials` hq, length 6",
     ["basis", "hq", "--max-len", "6"], ("rewriting.reduced_monomials",),
     "rewriting.monomials"),
    ("`reduced_monomials` hq, length 8 (exit 2: EnumerationBound)",
     ["basis", "hq", "--max-len", "8"], ("job",), "cli.stdout_bytes"),
    ("`fusion_table(8)`",
     ["table", "--max-len", "8"], ("words.fusion_table",), "words.products"),
    ("`verify_pi(q)`",
     ["verify-pi", "--q", "sym"], ("presentations.verify_pi",),
     "cli.stdout_bytes"),
    ("`confluent(build_hplusq(q))`",
     ["check", "hplus", "--q", "sym"], CONFLUENT, "rewriting.ambiguities"),
]


def main():
    harness.add_source_path()
    runner = harness.Runner(harness.fresh_import())
    for path, text in FILES.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    info = harness.machine()
    print(f"nproc {info['nproc']}, {info['cpu']}, Python {info['python']}, "
          f"median of {REPEAT}\n")
    print("| workload | function | whole job | exit | counter |")
    print("| --- | --- | --- | --- | --- |")
    try:
        for row, argv, timed, counter in ROWS:
            job = J.Job("baseline", 0, argv)
            rc, out, _ = runner.run(job)
            fn_s, job_s = [], []
            for _ in range(REPEAT):
                tr, results = spans.traced_pass(runner, [job])
                if results != [(rc, out)]:
                    raise SystemExit(f"traced run differs from plain: {argv}")
                fn_s.append(sum(t1 - t0 for name, t0, t1, _, _ in tr.spans
                                if name in timed) / 1e9)
                job_s.append(sum(t1 - t0 for name, t0, t1, _, _ in tr.spans
                                 if name == "job") / 1e9)
            print(f"| {row} | {statistics.median(fn_s):.3f} s | "
                  f"{statistics.median(job_s):.3f} s | {rc} | "
                  f"{counter} = {tr.counts.get(counter, 0):,} |", flush=True)
    finally:
        shutil.rmtree(J.WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
