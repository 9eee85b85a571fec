"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about two minutes.  Checks that

- the job streams are the same for the same seed and differ between seeds;
- every job pool still matches the specs its goldens were recorded from;
- a short traced run, in which run.py counts any difference between the
  traced pass's stdout and the plain pass's as a wrong output, reports
  correct, and a second process gives identical counters;
- a short end-to-end run of every workload reports correct;
- every printed metric name is declared in BENCHMARK.json and vice versa;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import harness
import jobs as J
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fingerprint(workload, seed, units=2):
    stream = J.Stream(workload, seed)
    return [(job.argv, sorted(job.files.items()))
            for _ in range(units) for job in stream.next_unit()]


def run_bench(workload, trace, cwd=ROOT, seconds="1"):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {"e2e": {m["name"] for m in spec["end_to_end"]},
                "layer": {m["name"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)
        print(("ok   " if ok else "FAIL ") + message, flush=True)

    with open(harness.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    for workload, classes in J.WORKLOADS.items():
        expect(fingerprint(workload, 11) == fingerprint(workload, 11),
               f"{workload}: same seed, same jobs")
        expect(fingerprint(workload, 11) != fingerprint(workload, 12),
               f"{workload}: different seeds, different jobs")
        stale = [jc.name for jc in classes
                 if goldens[workload][jc.name]["spec"] != J.spec_digest(workload, jc)]
        expect(not stale, f"{workload}: pools match the recorded goldens {stale or ''}")

    counted = set(spans.LAYER_TIMES) | set(spans.COUNTERS) | {
        "cli.other_s", "scalars.q_premium_s", "rewriting.resolve_p50_us",
        "rewriting.resolve_p90_us", "words.recursion_errors"}
    expect(counted == declared["layer"], "spans give every per-layer metric")
    traced_fns = {module + "." + attr for module, attr, _, _ in spans.LAYERS}
    expect(len(traced_fns) == len(spans.LAYERS), "each function traced once")

    first = result_of(run_bench("confluence", 1))
    second = result_of(run_bench("iso", 1))
    expect(first["correct"] and first["failed"] == 0,
           "traced pass prints what the plain pass prints")
    expect(set(first["metrics"]) == declared["layer"],
           "per-layer metric names are the declared ones")
    expect(all(first["metrics"][c]["value"] == second["metrics"][c]["value"]
               for c in spans.COUNTERS),
           "counters repeat across processes")
    for workload in J.WORKLOADS:
        plain = result_of(run_bench(workload, 0))
        expect(plain["correct"] and set(plain["metrics"]) == declared["e2e"],
               f"{workload}: end-to-end run is correct, names declared")

    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("fusion", 0, cwd=bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the program, run.py fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
