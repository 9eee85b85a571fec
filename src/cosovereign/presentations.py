"""Builders for the concrete presentations fed to the rewriting engine.

The two-parameter algebra H(E, F) has generators u_ij, v_ij (i up to m, j up
to n) and the four relation families obtained by solving the defining matrix
identities u tv = I, v F tu = E, tv u = I, tu E^-1 v = F^-1 for their leading
monomials, with E diagonal and F lower-triangular.  Generators are ordered
with every v below every u, the u's lexicographically by index and the v's in
the reversed lexicographic order; each relation's right side then consists of
strictly smaller monomials, which is what the engine requires.

H(q) is the special case E = F = diag(q^-1, q) with the eight generators
renamed a, b, c, d (matrix u) and as, bs, cs, ds (matrix v).  Its extension
by a grouplike generator t adjoins ten rules mixing t, ti with the eight.
The quantum SL(2) coordinate algebra and its free product with Laurent
polynomials in z are presented with the standard deg-lex quadratic rules.

The morphism check substitutes the images

    a -> z.a   b -> z.b   c -> z.c   d -> z.d
    as -> d.zi   bs -> -q^-1 c.zi   cs -> -q b.zi   ds -> a.zi

into all sixteen H(q) relations and reduces in the free product; every
residual must vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Tuple

from .matrices import ExactMatrix, inverse, trace
from .rewriting import (Alphabet, NCPolynomial, RewriteSystem, Rule,
                        format_presentation, reduce)


@dataclass(frozen=True)
class PresentationSpec:
    """A named rewrite system plus the parameters it was built from."""

    name: str
    parameters: dict
    alphabet: Alphabet
    rules: Tuple[Rule, ...]

    def export(self):
        return format_presentation(self.alphabet, self.rules)


def trace_conditions(e, f):
    """tr(E) = tr(F) and tr(E^-1) = tr(F^-1), exactly."""
    return trace(e) == trace(f) and trace(inverse(e)) == trace(inverse(f))


def _check_q(qv):
    if isinstance(qv, int):
        qv = Fraction(qv)
    if qv == 0:
        raise ValueError("q must be nonzero")
    return qv


def _is_diagonal(m):
    return m.is_square() and all(m[i, j] == 0
                                 for i in range(m.rows)
                                 for j in range(m.cols) if i != j)


def _is_lower_triangular(m):
    return m.is_square() and all(m[i, j] == 0
                                 for i in range(m.rows)
                                 for j in range(i + 1, m.cols))


def build_hef(e, f, unchecked=False):
    """Rewrite system of H(E, F): E diagonal, F lower-triangular, traces matched.

    `unchecked` skips only the trace conditions, so deliberately mismatched
    pairs can be built for non-confluence experiments.
    """
    if not _is_diagonal(e):
        raise ValueError("E must be a diagonal matrix")
    if not _is_lower_triangular(f):
        raise ValueError("F must be a lower-triangular matrix")
    m, n = e.rows, f.rows
    if m < 2 or n < 2:
        raise ValueError("matrix sizes must be at least 2")
    if any(e[i, i] == 0 for i in range(m)):
        raise ValueError("E is singular (zero diagonal entry)")
    if any(f[i, i] == 0 for i in range(n)):
        raise ValueError("F is singular (zero diagonal entry)")
    if not unchecked and not trace_conditions(e, f):
        raise ValueError("trace conditions tr(E) = tr(F), tr(E^-1) = tr(F^-1) "
                         "do not hold; pass unchecked=True to build anyway")

    fmt = "{0}{1}" if max(m, n) <= 9 else "{0}_{1}"

    def uname(i, j):
        return "u" + fmt.format(i, j)

    def vname(i, j):
        return "v" + fmt.format(i, j)

    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    names = [vname(i, j) for (i, j) in reversed(pairs)] + \
            [uname(i, j) for (i, j) in pairs]
    alphabet = Alphabet(names)
    u = {(i, j): alphabet.index(uname(i, j)) for (i, j) in pairs}
    v = {(i, j): alphabet.index(vname(i, j)) for (i, j) in pairs}

    finv = inverse(f)
    f11_inv = Fraction(1) / f[0, 0]
    e_mm = e[m - 1, m - 1]

    rules = []
    # u tv = I_m, leading monomial u_in v_jn
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            terms = {(): Fraction(int(i == j))}
            for k in range(1, n):
                terms[(u[i, k], v[j, k])] = Fraction(-1)
            rules.append(Rule((u[i, n], v[j, n]), NCPolynomial(terms)))
    # v F tu = E, leading monomial v_i1 u_j1
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            terms = {(): f11_inv * e[i - 1, j - 1]}
            for k in range(2, n + 1):
                for l in range(1, n + 1):
                    terms[(v[i, k], u[j, l])] = -(f11_inv * f[k - 1, l - 1])
            rules.append(Rule((v[i, 1], u[j, 1]), NCPolynomial(terms)))
    # tv u = I_n, leading monomial v_1i u_1j
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            terms = {(): Fraction(int(i == j))}
            for k in range(2, m + 1):
                terms[(v[k, i], u[k, j])] = Fraction(-1)
            rules.append(Rule((v[1, i], u[1, j]), NCPolynomial(terms)))
    # tu E^-1 v = F^-1, leading monomial u_mi v_mj
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            terms = {(): e_mm * finv[i - 1, j - 1]}
            for k in range(1, m):
                terms[(u[k, i], v[k, j])] = -(e_mm / e[k - 1, k - 1])
            rules.append(Rule((u[m, i], v[m, j]), NCPolynomial(terms)))

    return PresentationSpec(
        "HEF", {"E": e, "F": f, "unchecked": unchecked}, alphabet, tuple(rules))


#: H(q) name of each H(E, F) generator at m = n = 2.
HQ_OF_HEF = {"u11": "a", "u12": "b", "u21": "c", "u22": "d",
             "v11": "as", "v12": "bs", "v21": "cs", "v22": "ds"}


def matrix_fq(qv):
    """diag(q^-1, q) for a nonzero rational or symbolic q."""
    qv = _check_q(qv)
    return ExactMatrix.diagonal([Fraction(1) / qv, qv])


def build_hq(qv):
    """The sixteen defining rules of H(q), redundant ones included."""
    qv = _check_q(qv)
    fq = matrix_fq(qv)
    hef = build_hef(fq, fq)
    alphabet = Alphabet(HQ_OF_HEF[name] for name in hef.alphabet.names)
    return PresentationSpec("HQ", {"q": qv}, alphabet, hef.rules)


def build_hplusq(qv):
    """H(q) extended by a grouplike t: the sixteen rules plus ten t-rules."""
    qv = _check_q(qv)
    hq = build_hq(qv)
    alphabet = Alphabet(hq.alphabet.names + ("ti", "t"))
    g = alphabet.index
    one = Fraction(1)
    qinv = Fraction(1) / qv
    t, ti = g("t"), g("ti")
    t_rules = [
        Rule((t, ti), NCPolynomial({(ti, t): one})),
        Rule((ti, t), NCPolynomial({(): one})),
        Rule((ti, g("a")), NCPolynomial({(g("ds"), t): one})),
        Rule((t, g("ds")), NCPolynomial({(g("a"), ti): one})),
        Rule((ti, g("b")), NCPolynomial({(g("cs"), t): -qinv})),
        Rule((t, g("cs")), NCPolynomial({(g("b"), ti): -qv})),
        Rule((ti, g("c")), NCPolynomial({(g("bs"), t): -qv})),
        Rule((t, g("bs")), NCPolynomial({(g("c"), ti): -qinv})),
        Rule((ti, g("d")), NCPolynomial({(g("as"), t): one})),
        Rule((t, g("as")), NCPolynomial({(g("d"), ti): one})),
    ]
    return PresentationSpec("HPLUSQ", {"q": qv}, alphabet,
                            hq.rules + tuple(t_rules))


def build_slq2(qv):
    """Quantum SL(2) coordinate algebra as a deg-lex rewrite system.

    The relation tying the two off-diagonal products to ad is oriented as
    bc -> q.ad - q: under deg-lex with a < b < c < d this is the unique
    orientation compatible with the order (ad precedes bc lexicographically,
    so the opposite arrow would enlarge its input).  The familiar identities
    da = q.bc + 1 and cb = bc still hold as equalities of normal forms.
    """
    qv = _check_q(qv)
    alphabet = Alphabet(("a", "b", "c", "d"))
    a, b, c, d = range(4)
    one = Fraction(1)
    rules = (
        Rule((b, a), NCPolynomial({(a, b): qv})),
        Rule((c, a), NCPolynomial({(a, c): qv})),
        Rule((c, b), NCPolynomial({(b, c): one})),
        Rule((d, b), NCPolynomial({(b, d): qv})),
        Rule((d, c), NCPolynomial({(c, d): qv})),
        Rule((b, c), NCPolynomial({(a, d): qv, (): -qv})),
        Rule((d, a), NCPolynomial({(b, c): qv, (): one})),
    )
    return PresentationSpec("SLQ2", {"q": qv}, alphabet, rules)


def build_freeprod(qv):
    """Free product of Laurent polynomials in z with quantum SL(2).

    The factors share no generators, so no new overlaps appear beyond the
    z.zi chains and the quantum SL(2) ambiguities.
    """
    qv = _check_q(qv)
    slq2 = build_slq2(qv)
    alphabet = Alphabet(("a", "b", "c", "d", "zi", "z"))
    zi, z = alphabet.index("zi"), alphabet.index("z")
    one = Fraction(1)
    rules = slq2.rules + (
        Rule((z, zi), NCPolynomial({(): one})),
        Rule((zi, z), NCPolynomial({(): one})),
    )
    return PresentationSpec("FREEPROD", {"q": qv}, alphabet, rules)


def standard_pi_images(qv, freeprod):
    """The defining images of the eight H(q) generators in the free product."""
    g = freeprod.alphabet.index
    qinv = Fraction(1) / qv
    one = Fraction(1)
    z, zi = g("z"), g("zi")
    return {
        "a": NCPolynomial({(z, g("a")): one}),
        "b": NCPolynomial({(z, g("b")): one}),
        "c": NCPolynomial({(z, g("c")): one}),
        "d": NCPolynomial({(z, g("d")): one}),
        "as": NCPolynomial({(g("d"), zi): one}),
        "bs": NCPolynomial({(g("c"), zi): -qinv}),
        "cs": NCPolynomial({(g("b"), zi): -qv}),
        "ds": NCPolynomial({(g("a"), zi): one}),
    }


@dataclass(frozen=True)
class PiCheck:
    relation: str
    residual: NCPolynomial
    ok: bool


@dataclass
class PiReport:
    checks: List[PiCheck]

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def to_text(self, freeprod_alphabet):
        lines = [f"{'ok ' if c.ok else 'FAIL'} {c.relation}"
                 + ("" if c.ok else
                    f"  residual: {c.residual.render(freeprod_alphabet)}")
                 for c in self.checks]
        lines.append(f"morphism well-defined: {self.ok}")
        return "\n".join(lines)


def verify_pi(qv, image_overrides=None):
    """Check the algebra-morphism property of the free-product embedding.

    Substitutes the generator images into every H(q) relation and reduces in
    the free product; returns a report with one residual per relation.
    `image_overrides` replaces named generator images (used to demonstrate
    that a wrong image leaves a nonzero residual).
    """
    qv = _check_q(qv)
    hq = build_hq(qv)
    fp = build_freeprod(qv)
    images = standard_pi_images(qv, fp)
    if image_overrides:
        images.update(image_overrides)
    by_index = [images[name] for name in hq.alphabet.names]

    def substituted(poly):
        out = NCPolynomial()
        for mono, coeff in poly.terms.items():
            term = NCPolynomial({(): coeff})
            for letter in mono:
                term = term * by_index[letter]
            out = out + term
        return out

    system = RewriteSystem(fp.rules)
    checks = []
    for rule in hq.rules:
        image = substituted(NCPolynomial.monomial(rule.lhs) - rule.rhs)
        residual = reduce(image, system)
        checks.append(PiCheck(rule.render(hq.alphabet), residual,
                              residual.is_zero()))
    return PiReport(checks), fp


# ---------------------------------------------------------------------------
# quantum automorphism relations of a measured matrix algebra
# ---------------------------------------------------------------------------


@dataclass
class AautRelations:
    """Relation data only: no orientation or confluence claim is made."""

    alphabet: Alphabet
    families: Dict[str, List[NCPolynomial]]
    parameters: dict = field(default_factory=dict)

    def counts(self):
        return {name: len(polys) for name, polys in self.families.items()}


def build_aaut(f):
    """The four relation families of the quantum automorphism algebra of
    (M_n, tr_F), emitted as polynomials over the n^2 generators X_rs^ij."""
    if not f.is_square():
        raise ValueError("F must be square")
    n = f.rows
    finv = inverse(f)

    fmt = "X{0}{1}^{2}{3}" if n <= 9 else "X{0}_{1}^{2}_{3}"
    rng = range(1, n + 1)
    idx = {key: pos for pos, key in enumerate(product(rng, repeat=4))}
    alphabet = Alphabet(fmt.format(*key) for key in idx)

    def x(lower, upper):
        return idx[lower + upper]

    one = Fraction(1)
    multiplicative = []
    measure = []
    for i, j, k, l, r, s in product(rng, repeat=6):
        multiplicative.append(NCPolynomial(
            [((x((r, t), (i, j)), x((t, s), (k, l))), one) for t in rng]
            + [((x((r, s), (i, l)),), -Fraction(int(j == k)))]))
        measure.append(NCPolynomial(
            [((x((k, l), (i, t)), x((r, s), (p, j))), f[t - 1, p - 1])
             for t in rng for p in rng]
            + [((x((k, s), (i, j)),), -f[l - 1, r - 1])]))

    counit = []
    trace_family = []
    for i, j in product(rng, repeat=2):
        counit.append(NCPolynomial(
            [((x((i, j), (t, t)),), one) for t in rng]
            + [((), -Fraction(int(i == j)))]))
        trace_family.append(NCPolynomial(
            [((x((t, p), (i, j)),), finv[t - 1, p - 1])
             for t in rng for p in rng]
            + [((), -finv[i - 1, j - 1])]))

    return AautRelations(alphabet, {
        "multiplicative": multiplicative,
        "measure": measure,
        "counit": counit,
        "trace": trace_family,
    }, {"F": f})
