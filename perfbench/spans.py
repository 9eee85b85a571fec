"""Span recording on the program's own functions.

``instrumented(tracer)`` patches a span-recording wrapper onto each function
listed in ``LAYERS``, where ``cosovereign.cli`` or the library looks it up,
and takes the wrappers off again afterwards.  A traced pass then runs every
job through ``cli.main`` itself, so the spans follow whatever the program
calls.  A call made from inside another traced call belongs to the outer
span.  Spans are (name, start_ns, end_ns, parent, job id) tuples kept in
memory.  Spans named ``bench.*`` are the benchmark's own bookkeeping and are
left out of every layer figure.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.job = None
        self._stack = []
        self._inside = False

    def span(self, name):
        return _Span(self, name)

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, count=None):
        """`fn` with a span around its outermost calls; `count` maps a
        result to counter increments."""
        def traced(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                self._inside = False
            if count is not None:
                with self.span("bench.count"):
                    for key, n in count(result).items():
                        self.count(key, n)
            return result
        return traced


class _Span:
    __slots__ = ("tr", "name", "idx", "t0")

    def __init__(self, tr, name):
        self.tr, self.name = tr, name

    def __enter__(self):
        tr = self.tr
        self.idx = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.idx)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        tr = self.tr
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans[self.idx] = (self.name, self.t0, t1, parent, tr.job)
        return False


def _rules(spec):
    return {"presentations.rules": len(spec.rules)}


def _table_counts(table):
    return {"words.products": len(table),
            "words.terms": sum(len(p) for _, _, p in table)}


#: (module under cosovereign, attribute, span, counters of the result).
#: cli's own names are patched on cli, which imported them by name; what
#: the library calls through its module globals is patched on the library.
LAYERS = (
    ("cli", "load_matrix", "matrices.load", None),
    ("matrices", "is_generic", "matrices.is_generic", None),
    ("matrices", "invariant_factors", "matrices.invariant_factors",
     lambda _: {"matrices.invariant_factors_calls": 1}),
    ("presentations", "build_hef", "presentations.build", _rules),
    ("presentations", "build_hq", "presentations.build", _rules),
    ("presentations", "build_hplusq", "presentations.build", _rules),
    ("presentations", "build_slq2", "presentations.build", _rules),
    ("presentations", "build_freeprod", "presentations.build", _rules),
    ("presentations", "verify_pi", "presentations.verify_pi", None),
    ("rewriting", "find_ambiguities", "rewriting.find_ambiguities",
     lambda ambs: {"rewriting.ambiguities": len(ambs)}),
    ("rewriting", "resolve", "rewriting.resolve",
     lambda res: {"rewriting.unresolved": 0 if res[0] else 1}),
    ("cli", "reduced_monomials", "rewriting.reduced_monomials",
     lambda monos: {"rewriting.monomials": len(monos)}),
    ("cli", "is_free_family", "rewriting.free_check", None),
    ("cli", "fuse", "words.fuse",
     lambda fe: {"words.products": 1, "words.terms": len(fe)}),
    ("cli", "dim", "words.dim", None),
    ("cli", "dim_element", "words.dim", None),
    ("cli", "fusion_table", "words.fusion_table", _table_counts),
    ("cli", "psi", "repring.psi", lambda _: {"repring.psi_labels": 1}),
    ("cli", "alt_dim", "repring.psi", None),
    ("cli", "_emit", "cli.render", None),
)


def _parser_builder(tr, build):
    """build_parser whose set-up and parse_args are both cli.parse_args."""
    traced_build = tr.wrap("cli.parse_args", build)

    def build_parser():
        ap = traced_build()
        ap.parse_args = tr.wrap("cli.parse_args", ap.parse_args)
        return ap
    return build_parser


@contextlib.contextmanager
def instrumented(tr):
    """Record spans into `tr` while the block runs jobs through cli.main."""
    saved = []
    try:
        for module, attr, name, count in LAYERS:
            mod = sys.modules["cosovereign." + module]
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tr.wrap(name, fn, count))
        cli = sys.modules["cosovereign.cli"]
        saved.append((cli, "build_parser", cli.build_parser))
        cli.build_parser = _parser_builder(tr, cli.build_parser)
        yield tr
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def traced_pass(runner, jobs):
    """Run `jobs` through cli.main with spans; (tracer, [(rc, stdout)])."""
    tr = Tracer()
    results = []
    with instrumented(tr):
        for i, job in enumerate(jobs):
            tr.job = i
            rc, out, _ = runner.run(job, around=tr.span("job"))
            tr.count("cli.stdout_bytes", len(out.encode()))
            results.append((rc, out))
    return tr, results


# ---------------------------------------------------------------------------
# per-layer figures from one traced pass
# ---------------------------------------------------------------------------

#: Per-layer time metrics: metric name -> the span whose total time it is.
LAYER_TIMES = {
    "rewriting.find_ambiguities_s": "rewriting.find_ambiguities",
    "rewriting.resolve_s": "rewriting.resolve",
    "rewriting.reduced_monomials_s": "rewriting.reduced_monomials",
    "rewriting.free_check_s": "rewriting.free_check",
    "presentations.build_s": "presentations.build",
    "presentations.verify_pi_s": "presentations.verify_pi",
    "matrices.load_s": "matrices.load",
    "matrices.is_generic_s": "matrices.is_generic",
    "matrices.invariant_factors_s": "matrices.invariant_factors",
    "words.fuse_s": "words.fuse",
    "words.dim_s": "words.dim",
    "words.fusion_table_s": "words.fusion_table",
    "repring.psi_s": "repring.psi",
    "cli.parse_args_s": "cli.parse_args",
    "cli.render_s": "cli.render",
}

COUNTERS = ("rewriting.ambiguities", "rewriting.unresolved",
            "rewriting.monomials", "presentations.rules",
            "matrices.invariant_factors_calls", "words.products",
            "words.terms", "repring.psi_labels", "cli.stdout_bytes")


def layer_figures(tr, twins):
    """Times (s) and spans-derived figures of one pass; `twins` maps a job
    id to "q", "rat" or None."""
    total = {}
    child = {}
    job_ns = {}
    bench_ns = 0
    resolve_us = []
    premium_ns = 0
    for name, t0, t1, parent, job in tr.spans:
        d = t1 - t0
        total[name] = total.get(name, 0) + d
        if name == "job":
            job_ns[job] = d
            continue
        if name.startswith("bench."):
            bench_ns += d
        if parent >= 0 and tr.spans[parent][0] == "job":
            child[job] = child.get(job, 0) + d
        if name == "rewriting.resolve":
            resolve_us.append(d / 1e3)
            sign = {"q": 1, "rat": -1}.get(twins.get(job), 0)
            premium_ns += sign * d
    out = {metric: total.get(span, 0) / 1e9 for metric, span in LAYER_TIMES.items()}
    out["cli.other_s"] = sum(job_ns[j] - child.get(j, 0) for j in job_ns) / 1e9
    out["scalars.q_premium_s"] = premium_ns / 1e9
    if len(resolve_us) >= 2:
        q = statistics.quantiles(resolve_us, n=10)
        out["rewriting.resolve_p50_us"] = statistics.median(resolve_us)
        out["rewriting.resolve_p90_us"] = q[-1]
    else:
        out["rewriting.resolve_p50_us"] = out["rewriting.resolve_p90_us"] = \
            resolve_us[0] if resolve_us else 0.0
    traced_s = (sum(job_ns.values()) - bench_ns) / 1e9
    return out, traced_s
