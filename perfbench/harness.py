"""Running `cosov` jobs in-process and checking what they print.

The program is imported from ``src/`` of the current directory, which must
be the root of a cosovereign checkout.  Each job runs through
``cosovereign.cli.main(argv)`` with stdout and stderr captured.  Between jobs
every ``functools.lru_cache`` in the package is cleared, so each job starts
from the state a fresh ``cosov`` process would have.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import platform
import sys
import time

import jobs as J

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


class NoProgram(RuntimeError):
    """The current directory holds no cosovereign source tree."""


def add_source_path():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "cosovereign", "cli.py")):
        raise NoProgram(f"no cosovereign sources under {src}; "
                        "run from the root of a checkout")
    if src not in sys.path:
        sys.path.insert(0, src)


def fresh_import():
    """Import the package anew (dropping any loaded copy); returns cli."""
    for name in [n for n in sys.modules
                 if n == "cosovereign" or n.startswith("cosovereign.")]:
        del sys.modules[name]
    return importlib.import_module("cosovereign.cli")


def cache_clearers():
    """cache_clear of every lru_cache-wrapped function in the package."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "cosovereign" or name.startswith("cosovereign."):
            out.extend(obj.cache_clear for obj in vars(mod).values()
                       if callable(getattr(obj, "cache_clear", None)))
    return out


class Runner:
    """Runs jobs through cli.main and checks them against goldens/oracles."""

    def __init__(self, cli, goldens=None):
        self.cli = cli
        self.goldens = goldens
        self._clearers = cache_clearers()

    def reset(self):
        for clear in self._clearers:
            clear()

    def run(self, job, around=None):
        """(exit code or raised exception, stdout, seconds); `around` is a
        context manager entered just around the cli.main call."""
        self.reset()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    around or contextlib.nullcontext():
                rc = self.cli.main(list(job.argv))
        except Exception as exc:  # a job that raises is a failed job
            rc = exc
        return rc, out.getvalue(), time.perf_counter() - t0

    def golden(self, job):
        workload, _ = J.CLASSES[job.cls]
        entry = self.goldens[workload][job.cls]
        width = 8 * entry["jobs"]
        start = job.index * width + 8 * job.pos
        return entry["outputs"][start:start + 8]

    def verify(self, job, rc, out):
        """None when the output is right, else a one-line reason."""
        if self.goldens is not None:
            if J.output_digest(rc, out) != self.golden(job):
                return "exit code or stdout differs from the golden"
        try:
            return J.CLASSES[job.cls][1].check(job, rc, out)
        except Exception as exc:  # an unreadable output is a wrong output
            return f"oracle could not read the output: {exc!r}"


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version()}
