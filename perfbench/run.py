"""Benchmark of the `cosov` command line: one client, closed loop, in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cosovereign checkout; the program is imported
from ``src/``.  Jobs are sent one at a time, each after the previous one
returned, through ``cosovereign.cli.main(argv)``; every output is checked
against its golden and an independent oracle.

With ``--trace 0`` the run measures the end-to-end metrics for about
``--seconds`` seconds (whole units of the workload, at least 100 jobs).
With ``--trace 1`` it runs a fixed set of jobs through ``cli.main`` with
spans on the program's own functions (``spans.py``), alternating with plain
passes, and reports per-layer metrics.  That job set is the first units of
all four workloads, so every layer is measured in every traced run whatever
``--workload`` says.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import harness
import jobs as J
import spans

IMPORTS_PER_UNIT = 3    # set-ups timed after each unit, so they span the run
MIN_JOBS = 100          # leaves ten samples beyond p90
HARD_STOP_S = 140.0     # keeps a run inside its time limit
HELD_OUT_SEED = 20021   # documented unseen seed for gain claims (README.md)
OUT_DIR = ".perfbench"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(J.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_up(workload, seed):
    """Import the program, generate the first unit, write its files; the
    seconds spent on the inputs come last.

    Later units are made between jobs, outside the job timings."""
    cli = harness.fresh_import()
    t0 = time.perf_counter()
    shutil.rmtree(J.WORK_DIR, ignore_errors=True)
    stream = J.Stream(workload, seed)
    first = stream.next_unit()
    J.write_files(first)
    return cli, stream, first, time.perf_counter() - t0


def import_seconds():
    """Time of `import cosovereign.cli` in a fresh interpreter, the start-up
    every `cosov` call pays, standard-library imports included."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import cosovereign.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code,
                           os.path.join(os.getcwd(), "src")],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout)


def units_of(stream, first):
    """The unit made during set-up, then fresh ones."""
    yield first
    while True:
        jobs = stream.next_unit()
        J.write_files(jobs)
        yield jobs


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.first_problem = None

    def record(self, job, rc, problem):
        self.attempted += 1
        if isinstance(rc, Exception):
            self.failed += 1
            problem = f"raised {rc!r}"
        elif problem:
            self.wrong += 1
        if problem and self.first_problem is None:
            self.first_problem = f"{' '.join(job.argv)[:160]}: {problem}"


def end_to_end(runner, stream, first, seconds, tally):
    lat, imports = [], []
    start = time.perf_counter()
    for jobs in units_of(stream, first):
        for job in jobs:
            rc, out, dt = runner.run(job)
            lat.append(dt)
            tally.record(job, rc, runner.verify(job, rc, out))
        imports.extend(import_seconds() for _ in range(IMPORTS_PER_UNIT))
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(lat) >= MIN_JOBS) or elapsed >= HARD_STOP_S:
            break
    deciles = statistics.quantiles(lat, n=10)
    return {
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p90_ms": deciles[-1] * 1e3,
        "setup_s": statistics.median(imports),
    }, len(lat)


def recursion_probe(runner, seed):
    """How many long-label dim/psi calls still raise RecursionError."""
    errors = 0
    for x in J.recursion_probe_labels(seed):
        for argv in (["dim", x, "3"], ["psi", x]):
            rc, _, _ = runner.run(J.Job("probe", 0, argv))
            errors += isinstance(rc, RecursionError)
    return errors


def traced(runner, seed, seconds, tally):
    """Alternate plain passes and traced passes over a fixed job set, while
    another pair of passes still fits in the time given."""
    jobs = J.trace_set(seed)
    J.write_files(jobs)
    twins = {i: job.twin for i, job in enumerate(jobs)}
    plain_s, traced_s, figures, counts = [], [], [], []
    start = time.perf_counter()
    while True:
        outputs = []
        for job in jobs:
            rc, out, dt = runner.run(job)
            tally.record(job, rc, runner.verify(job, rc, out))
            outputs.append((rc, out, dt))
        plain_s.append(sum(dt for _, _, dt in outputs))
        tr, results = spans.traced_pass(runner, jobs)
        for job, got, plain in zip(jobs, results, outputs):
            problem = None if got == plain[:2] else \
                "traced pass printed something other than the plain pass"
            tally.record(job, got[0], problem)
        fig, t = spans.layer_figures(tr, twins)
        figures.append(fig)
        traced_s.append(t)
        counts.append(tr.counts)
        elapsed = time.perf_counter() - start
        if elapsed * (len(figures) + 1) / len(figures) > seconds:
            break
    if any(c != counts[0] for c in counts):
        tally.wrong += 1
        tally.first_problem = tally.first_problem or \
            "deterministic counters differ between passes"
    metrics = {name: statistics.median(f[name] for f in figures)
               for name in figures[0]}
    for name in spans.COUNTERS:
        metrics[name] = counts[0].get(name, 0)
    metrics["words.recursion_errors"] = recursion_probe(runner, seed)
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
    return metrics, overhead, tr, jobs


def write_spans(workload, seed, tr, jobs):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "machine": harness.machine(),
                             "jobs": [" ".join(j.argv)[:200] for j in jobs]})
                 + "\n")
        for name, t0, t1, parent, job in tr.spans:
            fh.write(json.dumps([name, t0, t1, parent, job]) + "\n")


def declared_units(trace):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    try:
        harness.add_source_path()
        goldens = harness.load_goldens()
    except (harness.NoProgram, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    cli, stream, first, inputs_s = set_up(args.workload, args.seed)
    runner = harness.Runner(cli, goldens)
    tally = Tally()
    try:
        if args.trace:
            metrics, overhead, tr, jobs = traced(runner, args.seed,
                                                 args.seconds, tally)
            write_spans(args.workload, args.seed, tr, jobs)
            jobs_run = tally.attempted
        else:
            metrics, jobs_run = end_to_end(runner, stream, first, args.seconds,
                                           tally)
            metrics["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(J.WORK_DIR, ignore_errors=True)

    units_by_name = declared_units(args.trace)
    info = harness.machine()
    print(f"workload {args.workload}  seed {args.seed}  held-out seed "
          f"{HELD_OUT_SEED}  trace {args.trace}")
    print(f"machine: nproc {info['nproc']}, {info['cpu']}, "
          f"Python {info['python']}")
    print(f"jobs {jobs_run}  failed_frac {tally.failed / tally.attempted:.4f}  "
          f"wrong_outputs {tally.wrong}")
    if tally.first_problem:
        print(f"first problem: {tally.first_problem}")
    if args.trace:
        print(f"trace overhead {overhead:.4f} (traced over plain pass time, "
              f"minus one; the benchmark's own cost)")
    else:
        print(f"inputs {inputs_s:.4f} s (first unit generated and written; "
              f"not in setup_s)")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units_by_name[name]}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units_by_name.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
