"""Job streams for the four benchmark workloads, and their output oracles.

A workload is a repeating *unit*: a fixed multiset of job classes, each with a
count per unit, so every unit does the same mix of work.  Each class has a
finite pool of job specs; a spec is a pure function of (workload, class,
index), which lets the golden output of every pool entry be recorded once
(``goldens.json``).  The seed only decides which pool entries fill each unit
and in which order, so two seeds run different jobs of the same shape.

Nothing here imports ``cosovereign``: the oracles are independent of the
program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

#: Input files are written here, relative to the checkout root.  The path is
#: part of some outputs (the `check hef` label), so it never varies.
WORK_DIR = ".perfbench/work"


@dataclass
class Job:
    """One `cosov` invocation: its argv, the files it reads, what to expect."""

    cls: str
    index: int
    argv: List[str]
    files: Dict[str, str] = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    twin: Optional[str] = None  # "q" or "rat" for the confluence twins
    pos: int = 0                # position within its pool entry


@dataclass(frozen=True)
class JobClass:
    name: str
    per_unit: int          # pool entries drawn into every unit
    pool: int              # number of distinct pool entries
    make: Callable         # (rng, name, index) -> list of Jobs, fixed length
    check: Callable        # (job, rc, stdout) -> error message or None


# ---------------------------------------------------------------------------
# scalars and matrix files
# ---------------------------------------------------------------------------

_SMALL = [Fraction(v) for v in (1, -1, 2, -2, 3, -3)] + \
    [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2),
     Fraction(5, 3), Fraction(1, 3)]


def _frac_text(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _qmono(c, k):
    """c*q^k in the scalar syntax the program reads."""
    if k == 0:
        return _frac_text(c)
    qk = "q" if k == 1 else f"q^{k}"
    if c == 1:
        return qk
    if c == -1:
        return f"-{qk}"
    return f"{_frac_text(c)}*{qk}"


def _matrix_text(rows):
    n = len(rows)
    return f"{n} {len(rows[0])}\n" + "\n".join(" ".join(r) for r in rows) + "\n"


def _path(cls, index, key):
    return f"{WORK_DIR}/{cls}-{index}-{key}.mat"


# ---------------------------------------------------------------------------
# confluence workload
# ---------------------------------------------------------------------------

_AMB_LINE = re.compile(r"^(\d+) ambiguities \((\d+) inclusion, (\d+) overlap\); "
                       r"confluent: (True|False)$")


def _fmt_args(rng):
    return ["--format", "json"] if rng.random() < 0.5 else []


def _confluence_summary(out):
    """(ambiguity count, confluent) from a text or JSON `check` report."""
    if out.startswith("{"):
        payload = json.loads(out)
        c = payload["counts"]
        if c["inclusion"] + c["overlap"] != len(payload["ambiguities"]):
            raise ValueError("counts disagree with the ambiguity list")
        return len(payload["ambiguities"]), payload["confluent"]
    m = _AMB_LINE.match(out.rstrip("\n").rsplit("\n", 1)[-1])
    if not m:
        raise ValueError("no summary line")
    return int(m.group(1)), m.group(4) == "True"


def _check_confluence(job, rc, out):
    try:
        count, ok = _confluence_summary(out)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    want = job.expect
    if ok != want["confluent"] or rc != (0 if want["confluent"] else 1):
        return f"verdict {ok} rc {rc}, expected {want['confluent']}"
    if "ambiguities" in want and count != want["ambiguities"]:
        return f"{count} ambiguities, expected {want['ambiguities']}"
    return None


#: Nonzero strictly-lower entries of F per size: a fixed count at random
#: places keeps the cost of one size steady from seed to seed.
_LOWER_NONZEROS = {2: 1, 3: 2, 4: 4, 5: 6}


def _make_hef_twins(rng, cls, index, n):
    """check hef on E diagonal, F = E plus random strictly-lower entries
    (which keep both traces); a rational twin and a symbolic-q twin with the
    same sparsity."""
    lower = [(i, j) for i in range(n) for j in range(i)]
    pattern = set(rng.sample(lower, _LOWER_NONZEROS[n]))
    fmt = _fmt_args(rng)
    jobs = []
    for twin in ("rat", "q"):
        if twin == "rat":
            def entry():
                return _frac_text(rng.choice(_SMALL))
        else:
            def entry():
                return _qmono(rng.choice(_SMALL[:4]), rng.choice((-1, 1)))
        diag = [entry() for _ in range(n)]
        e = [[diag[i] if i == j else "0" for j in range(n)] for i in range(n)]
        f = [[diag[i] if i == j else (entry() if (i, j) in pattern else "0")
              for j in range(n)] for i in range(n)]
        name = f"{cls}{twin}"
        pe, pf = _path(name, index, "E"), _path(name, index, "F")
        jobs.append(Job(cls, index,
                        ["check", "hef", "--E", pe, "--F", pf] + fmt,
                        {pe: _matrix_text(e), pf: _matrix_text(f)},
                        {"confluent": True, "ambiguities": 4 * n * n + 2},
                        twin))
    return jobs


def _make_mismatch(rng, cls, index):
    """check hef --unchecked with tr(E) != tr(F): expected non-confluent."""
    n = 2
    ed = [rng.choice(_SMALL) for _ in range(n)]
    fd = list(ed)
    k = rng.randrange(n)
    fd[k] = rng.choice([x for x in _SMALL if x != ed[k]])
    e = [[_frac_text(ed[i]) if i == j else "0" for j in range(n)] for i in range(n)]
    f = [[_frac_text(fd[i]) if i == j else
          (_frac_text(rng.choice(_SMALL)) if j < i else "0")
          for j in range(n)] for i in range(n)]
    # tr(F^-1) of a lower-triangular F is the sum of 1/F_ii
    matched = (sum(ed) == sum(fd) and
               sum(1 / x for x in ed) == sum(1 / x for x in fd))
    pe, pf = _path(cls, index, "E"), _path(cls, index, "F")
    return [Job(cls, index,
                ["check", "hef", "--E", pe, "--F", pf, "--unchecked"]
                + _fmt_args(rng),
                {pe: _matrix_text(e), pf: _matrix_text(f)},
                {"confluent": matched, "ambiguities": 4 * n * n + 2})]


_RATIONAL_Q = ["2", "3", "-2", "3/2", "-1/2", "5/3", "-4/3", "7/2"]


def _make_q_twins(command):
    """`command` with --q sym and with a rational q, same format."""
    def make(rng, cls, index):
        fmt = _fmt_args(rng)
        expect = {"confluent": True}
        if command == ["check", "hq"]:
            expect["ambiguities"] = 18      # H(q) is H(E, F) at m = n = 2
        return [Job(cls, index, command + [f"--q={q}"] + fmt, {}, dict(expect), t)
                for t, q in (("q", "sym"), ("rat", rng.choice(_RATIONAL_Q)))]
    return make


def _check_verify_pi(job, rc, out):
    if out.startswith("{"):
        payload = json.loads(out)
        ok, n = payload["ok"], len(payload["checks"])
    else:
        lines = out.rstrip("\n").split("\n")
        ok = lines[-1] == "morphism well-defined: True"
        n = sum(1 for ln in lines if ln.startswith(("ok ", "FAIL")))
    if not ok or rc != 0 or n != 16:
        return f"verify-pi ok={ok} rc={rc} relations={n}"
    return None


CONFLUENCE = [
    JobClass("hef2", 6, 256, lambda r, c, i: _make_hef_twins(r, c, i, 2),
             _check_confluence),
    JobClass("hef3", 8, 128, lambda r, c, i: _make_hef_twins(r, c, i, 3),
             _check_confluence),
    JobClass("hef4", 1, 64, lambda r, c, i: _make_hef_twins(r, c, i, 4),
             _check_confluence),
    JobClass("hef5", 1, 32, lambda r, c, i: _make_hef_twins(r, c, i, 5),
             _check_confluence),
    JobClass("mismatch", 2, 128, _make_mismatch, _check_confluence),
    JobClass("hq", 7, 8, _make_q_twins(["check", "hq"]), _check_confluence),
    JobClass("hplus", 4, 8, _make_q_twins(["check", "hplus"]),
             _check_confluence),
    JobClass("verifypi", 4, 8, _make_q_twins(["verify-pi"]), _check_verify_pi),
]


# ---------------------------------------------------------------------------
# basis workload
# ---------------------------------------------------------------------------

_PRESET_LETTERS = {
    "hq": ("ds", "cs", "bs", "as", "a", "b", "c", "d"),
    "hplus": ("ds", "cs", "bs", "as", "a", "b", "c", "d", "ti", "t"),
    "slq2": ("a", "b", "c", "d"),
    "freeprod": ("a", "b", "c", "d", "zi", "z"),
}


def _q_arg(rng, kind):
    return "--q=sym" if kind == "sym" else f"--q={rng.choice(_RATIONAL_Q)}"


def _make_basis(preset, length, q_kind):
    def make(rng, cls, index):
        return [Job(cls, index,
                    ["basis", preset, _q_arg(rng, q_kind), "--max-len",
                     str(length), "--format", "json"],
                    {}, {"max_len": length})]
    return make


def _make_hef_basis(n, length):
    def make(rng, cls, index):
        diag = [rng.choice(_SMALL) for _ in range(n)]
        e = [[_frac_text(diag[i]) if i == j else "0" for j in range(n)]
             for i in range(n)]
        f = [[_frac_text(diag[i]) if i == j else
              (_frac_text(rng.choice(_SMALL)) if j < i and rng.random() < 0.6
               else "0") for j in range(n)] for i in range(n)]
        pe, pf = _path(cls, index, "E"), _path(cls, index, "F")
        return [Job(cls, index,
                    ["basis", "hef", "--E", pe, "--F", pf, "--max-len",
                     str(length), "--format", "json"],
                    {pe: _matrix_text(e), pf: _matrix_text(f)},
                    {"max_len": length})]
    return make


def _check_basis(job, rc, out):
    payload = json.loads(out)
    monos = payload["monomials"]
    if rc != 0 or payload["count"] != len(monos) or len(set(monos)) != len(monos):
        return "basis count or duplicates"
    if monos[0] != "1":
        return "basis does not start with the unit"
    lengths = [0] + [m.count(".") + 1 for m in monos[1:]]
    if lengths != sorted(lengths) or lengths[-1] > job.expect["max_len"]:
        return "basis not in length order within max_len"
    return None


def _make_free_check(preset, q_kind):
    def make(rng, cls, index):
        letters = rng.sample(_PRESET_LETTERS[preset], rng.randint(1, 3))
        max_len = max(L for L in range(2, 13) if len(letters) ** L <= 4096)
        return [Job(cls, index,
                    ["free-check", preset, _q_arg(rng, q_kind), "--letters",
                     ",".join(letters), "--max-len", str(max_len)]
                    + _fmt_args(rng), {}, {})]
    return make


def _check_free(job, rc, out):
    if out.startswith("{"):
        free = json.loads(out)["free"]
    else:
        free = out.rstrip("\n").endswith(": True")
    if rc != (0 if free else 1):
        return f"free={free} but rc={rc}"
    return None


BASIS = [
    JobClass("hq6", 1, 16, _make_basis("hq", 6, "rat"), _check_basis),
    JobClass("hplus5", 1, 16, _make_basis("hplus", 5, "sym"), _check_basis),
    JobClass("hq5", 1, 16, _make_basis("hq", 5, "sym"), _check_basis),
    JobClass("hplus4", 1, 16, _make_basis("hplus", 4, "rat"), _check_basis),
    JobClass("hq4", 2, 16, _make_basis("hq", 4, "rat"), _check_basis),
    JobClass("hplus3", 2, 16, _make_basis("hplus", 3, "rat"), _check_basis),
    JobClass("slq2b", 3, 16, _make_basis("slq2", 8, "rat"), _check_basis),
    JobClass("freeprodb", 2, 16, _make_basis("freeprod", 5, "sym"),
             _check_basis),
    JobClass("hef2b", 2, 64, _make_hef_basis(2, 4), _check_basis),
    JobClass("hef3b", 2, 64, _make_hef_basis(3, 2), _check_basis),
    JobClass("freehq", 8, 128, _make_free_check("hq", "sym"), _check_free),
    JobClass("freehplus", 2, 64, _make_free_check("hplus", "rat"), _check_free),
    JobClass("freeslq2", 2, 64, _make_free_check("slq2", "sym"), _check_free),
    JobClass("freefp", 2, 64, _make_free_check("freeprod", "rat"), _check_free),
]


# ---------------------------------------------------------------------------
# fusion workload
# ---------------------------------------------------------------------------


def bar(x):
    return x[::-1].translate(str.maketrans("ab", "ba"))


def ref_dim(x, n):
    """dim U_x by the peel-off recurrence, iteratively from the right."""
    later, cur = 0, 1          # dims of x[i+2:] and x[i+1:]
    for i in range(len(x) - 1, -1, -1):
        other = "b" if x[i] == "a" else "a"
        d = n * cur - (later if x[i + 1:i + 2] == other else 0)
        later, cur = cur, d
    return cur


def _label(rng, lo=1, hi=64):
    if rng.random() < 0.04:
        return ""
    return "".join(rng.choice("ab") for _ in range(rng.randint(lo, hi)))


def _w(x):
    return x if x else "e"


def _parse_combination(text):
    """'ab + 2*e - b' -> {word: multiplicity}."""
    out = {}
    for sign, body in re.findall(r"(^-?|[+-] )([^ ]+)", text):
        mult, _, word = body.rpartition("*")
        c = int(mult) if mult else 1
        out[word if word != "e" else ""] = -c if sign.strip() == "-" else c
    return out


def _make_fuse(with_n, fmt):
    def make(rng, cls, index):
        x, y = _label(rng), _label(rng)
        argv = ["fuse", _w(x), _w(y)]
        expect = {"x": x, "y": y}
        if with_n:
            n = rng.randint(2, 6)
            argv += ["-n", str(n)]
            expect["n"] = n
        return [Job(cls, index, argv + fmt, {}, expect)]
    return make


def _check_fuse(job, rc, out):
    x, y = job.expect["x"], job.expect["y"]
    n = job.expect.get("n", 2)
    if out.startswith("{"):
        payload = json.loads(out)
        product = {(w if w != "e" else ""): c for w, c in payload["product"]}
    else:
        product = _parse_combination(out.split("\n", 1)[0])
    total = sum(c * ref_dim(w, n) for w, c in product.items())
    if rc != 0 or total != ref_dim(x, n) * ref_dim(y, n):
        return f"sum of summand dims {total} != dim x * dim y (n={n})"
    if "n" in job.expect:
        if out.startswith("{"):
            dims = payload["dims"]
            summands, printed = dims["summands"], dims["total"]
        else:
            line = out.rstrip("\n").split("\n")[1]
            lhs = line.split(": ", 1)[1].split(" = ")
            summands, printed = [int(t) for t in lhs[0].split(" + ")], int(lhs[1])
        if sorted(summands) != sorted(ref_dim(w, n) for w, c in product.items()) \
                or printed != total:
            return "printed dimensions disagree with the reference"
    return None


def _make_dual(rng, cls, index):
    x = _label(rng)
    return [Job(cls, index, ["dual", _w(x)], {}, {"x": x})]


def _check_dual(job, rc, out):
    return None if rc == 0 and out == _w(bar(job.expect["x"])) + "\n" \
        else "dual differs from the reversed, letter-swapped word"


def _make_dim(lo, hi):
    def make(rng, cls, index):
        x, n = _label(rng, lo, hi), rng.randint(2, 6)
        return [Job(cls, index, ["dim", _w(x), str(n)], {}, {"x": x, "n": n})]
    return make


def _check_dim(job, rc, out):
    want = ref_dim(job.expect["x"], job.expect["n"])
    return None if rc == 0 and out == f"{want}\n" else "dim differs from the reference"


def _make_psi(fmt, lo=1, hi=64):
    def make(rng, cls, index):
        x = _label(rng, lo, hi)
        return [Job(cls, index, ["psi", _w(x)] + fmt, {}, {"x": x})]
    return make


def _check_psi(job, rc, out):
    if out.startswith("{"):
        d = json.loads(out)["dim"]
    else:
        m = re.search(r"\(dim (\d+)\)\n$", out)
        d = int(m.group(1)) if m else None
    # alt_dim(psi(x)) == dim(x, 2)
    return None if rc == 0 and d == ref_dim(job.expect["x"], 2) \
        else "alt_dim(psi(x)) != dim(x, 2)"


def _make_long(rng, cls, index):
    """Long labels, below the length at which today's recursion fails."""
    if rng.random() < 0.5:
        return _make_dim(250, 400)(rng, cls, index)
    return _make_psi([], 250, 400)(rng, cls, index)


def _check_long(job, rc, out):
    return (_check_dim if job.argv[0] == "dim" else _check_psi)(job, rc, out)


def _make_table(max_len, fmt):
    def make(rng, cls, index):
        return [Job(cls, index, ["table", "--max-len", str(max_len)] + fmt, {},
                    {"max_len": max_len})]
    return make


def _check_table(job, rc, out):
    words = 2 ** (job.expect["max_len"] + 1) - 1
    if out.startswith("{"):
        count = len(json.loads(out)["entries"])
    else:
        count = out.count("\n")
    return None if rc == 0 and count == words * words else "table size"


FUSION = [
    JobClass("fuse", 110, 2048, _make_fuse(False, []), _check_fuse),
    JobClass("fusen", 60, 1024, _make_fuse(True, []), _check_fuse),
    JobClass("fusenj", 40, 1024, _make_fuse(True, ["--format", "json"]),
             _check_fuse),
    JobClass("dual", 50, 1024, _make_dual, _check_dual),
    JobClass("dim", 85, 1024, _make_dim(1, 64), _check_dim),
    JobClass("psi", 90, 2048, _make_psi([]), _check_psi),
    JobClass("psij", 40, 1024, _make_psi(["--format", "json"]), _check_psi),
    JobClass("long", 25, 512, _make_long, _check_long),
    JobClass("table6j", 1, 1, _make_table(6, ["--format", "json"]), _check_table),
    JobClass("table7", 1, 1, _make_table(7, []), _check_table),
]


def recursion_probe_labels(seed, count=8):
    """Labels of 500-2000 letters; today `dim`/`psi` on them raise
    RecursionError.  Run as a separate probe, never as stream jobs."""
    rng = random.Random(f"probe/{seed}")
    return ["".join(rng.choice("ab") for _ in range(rng.randint(500, 2000)))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# iso workload
# ---------------------------------------------------------------------------


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _inverse(m):
    """Gauss-Jordan over Q."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                k = a[r][c]
                a[r] = [x - k * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _unimodular(rng, n):
    """A random integer matrix of determinant 1 and its inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [row[:] for row in p]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]   # P <- (I + c e_ij) P
        for row in pinv:                                   # P^-1 <- P^-1 (I - c e_ij)
            row[j] -= c * row[i]
    return p, pinv


def _conjugate(rng, m):
    p, pinv = _unimodular(rng, len(m))
    return _matmul(_matmul(p, m), pinv)


def _companion(e):
    """Companion matrix of prod (x - r) with elementary symmetric e_1..e_n."""
    n = len(e)
    comp = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        comp[i][i - 1] = Fraction(1)
    for i in range(n):
        k = n - i  # coefficient of x^i is (-1)^k e_k
        comp[i][n - 1] = -((-1) ** k) * e[k - 1]
    return comp


def _esym_of(e, kind):
    """Elementary symmetric functions of the roots of -E, E^-1 or -E^-1."""
    n = len(e)
    full = [Fraction(1)] + list(e)                # e_0 .. e_n
    if kind in ("inv", "neginv"):
        full = [full[n - k] / full[n] for k in range(n + 1)]
    if kind in ("neg", "neginv"):
        full = [(-1) ** k * x for k, x in enumerate(full)]
    return full[1:]


_ISO_ORDER = [("i: F ~ E", "id"), ("i: F ~ -E", "neg"),
              ("ii: tF^-1 ~ E", "inv"), ("ii: tF^-1 ~ -E", "neginv")]


def _generic_esym(rng, n):
    """e_1..e_n with tr(E) = tr(E^-1) (e_1 = e_{n-1}/e_n), e_1 not in
    {-1, 0, 1}: the companion matrix is then generic."""
    t = Fraction(rng.choice((-4, -3, -2, 2, 3, 4)))
    en = Fraction(rng.choice((-2, -1, 1, 2, 3)))
    middle = [Fraction(rng.randint(-3, 3)) for _ in range(n - 3)]
    return [t] + middle + [t * en, en]


def _target(e_sym, kind):
    return e_sym if kind == "id" else _esym_of(e_sym, kind)


def _make_iso(n, related):
    def make(rng, cls, index):
        e_sym = _generic_esym(rng, n)
        e = _conjugate(rng, _companion(e_sym))
        if related:
            kind = rng.choice([k for _, k in _ISO_ORDER])
            # F ~ +-E directly; for condition ii, F = t(M^-1) with M ~ +-E
            base = _target(e_sym, "neg" if kind in ("neg", "neginv") else "id")
            f = _conjugate(rng, _companion(base))
            if kind in ("inv", "neginv"):
                f = [list(r) for r in zip(*_inverse(f))]
            f_sym = _target(e_sym, kind)
        else:
            f_sym = _generic_esym(rng, n)
            while any(f_sym == _target(e_sym, k) for _, k in _ISO_ORDER):
                f_sym = _generic_esym(rng, n)
            f = _conjugate(rng, _companion(f_sym))
        # all these matrices are cyclic, so similarity is equality of
        # characteristic polynomials; the first condition that holds wins
        verdict = next((name for name, k in _ISO_ORDER
                        if f_sym == _target(e_sym, k)), None)
        pe, pf = _path(cls, index, "E"), _path(cls, index, "F")
        return [Job(cls, index, ["iso", "--E", pe, "--F", pf],
                    {pe: _matrix_text([[_frac_text(x) for x in r] for r in e]),
                     pf: _matrix_text([[_frac_text(x) for x in r] for r in f])},
                    {"verdict": verdict})]
    return make


def _check_iso(job, rc, out):
    v = job.expect["verdict"]
    want = (0, f"isomorphic via condition {v}\n") if v else (1, "not isomorphic\n")
    return None if (rc, out) == want else f"expected {want[1].strip()!r}"


ISO = [
    JobClass("iso3r", 10, 512, _make_iso(3, True), _check_iso),
    JobClass("iso3u", 14, 512, _make_iso(3, False), _check_iso),
    JobClass("iso4r", 8, 512, _make_iso(4, True), _check_iso),
    JobClass("iso4u", 8, 512, _make_iso(4, False), _check_iso),
]


WORKLOADS = {"confluence": CONFLUENCE, "basis": BASIS, "fusion": FUSION,
             "iso": ISO}

#: Units of each workload in the traced run's job set; the set covers every
#: layer, whatever the workload being traced.
TRACE_UNITS = {"confluence": 1, "basis": 1, "fusion": 1, "iso": 2}

#: Class name -> (workload, class); names are unique across workloads.
CLASSES = {jc.name: (w, jc) for w, classes in WORKLOADS.items() for jc in classes}


# ---------------------------------------------------------------------------
# pools, streams and goldens
# ---------------------------------------------------------------------------


def pool_entry(workload, jc, index):
    rng = random.Random(f"{workload}/{jc.name}/{index}")
    jobs = jc.make(rng, jc.name, index)
    for pos, job in enumerate(jobs):
        job.pos = pos
    return jobs


class Stream:
    """The endless job stream of one workload and seed, unit by unit."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        # one stream of pool indices per class
        self._draws = {jc.name: random.Random(f"{seed}/{workload}/{jc.name}")
                       for jc in WORKLOADS[workload]}
        self._made = 0

    def next_unit(self):
        slots = [(jc, self._draws[jc.name].randrange(jc.pool))
                 for jc in WORKLOADS[self.workload] for _ in range(jc.per_unit)]
        random.Random(f"{self.seed}/{self.workload}/unit{self._made}").shuffle(slots)
        self._made += 1
        return [job for jc, index in slots
                for job in pool_entry(self.workload, jc, index)]


def write_files(jobs):
    for job in jobs:
        for path, text in job.files.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def output_digest(rc, out):
    """The golden of one job: 8 hex digits of sha256 over exit code and stdout."""
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:8]


def spec_digest(workload, jc):
    """sha256 over every pool entry's argv and files, to detect drift."""
    h = hashlib.sha256()
    for index in range(jc.pool):
        for job in pool_entry(workload, jc, index):
            h.update(json.dumps([job.argv, sorted(job.files.items())]).encode())
    return h.hexdigest()[:16]


def trace_set(seed):
    """The traced run's fixed job set: the first units of every workload."""
    jobs = []
    for workload in WORKLOADS:
        stream = Stream(workload, seed)
        for _ in range(TRACE_UNITS[workload]):
            jobs.extend(stream.next_unit())
    return jobs
