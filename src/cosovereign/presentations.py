"""Builders for the concrete presentations fed to the rewriting engine.

The two-parameter algebra H(E, F), E diagonal and F lower-triangular, has
generators u_ij, v_ij (i up to m, j up to n).  Its rules are the entries of
the four defining identities u tv = I, v F tu = E, tv u = I, tu E^-1 v =
F^-1, each oriented by `rewriting.orient`.  Generators are ordered with
every v below every u, the u's lexicographically by index and the v's in
the reversed lexicographic order; the leading monomials are then u_in v_jn,
v_i1 u_j1, v_1i u_1j and u_mi v_mj.  E^-1 and F^-1 come from
`matrices.inverse`, once each, and give both the last identity and the
trace conditions tr(E) = tr(F), tr(E^-1) = tr(F^-1); `trace_conditions`
states these for any invertible square pair.

H(q) is the special case E = F = diag(q^-1, q) with the eight generators
renamed a, b, c, d (matrix u) and as, bs, cs, ds (matrix v).  The table
`_star_pairs` pairs each u-letter x with a v-letter y and a coefficient c.
A grouplike t adds ti.x -> (1/c) y.t and t.y -> c x.ti for each pair, after
t.ti -> ti.t and ti.t -> 1.  The quantum SL(2) coordinate algebra and its
free product with Laurent polynomials in z have the standard deg-lex
quadratic rules.

`verify_pi` is one `rewriting.check_morphism` call: it substitutes the
images x -> z.x and y -> c x.zi

    a -> z.a   b -> z.b   c -> z.c   d -> z.d
    as -> d.zi   bs -> -q^-1 c.zi   cs -> -q b.zi   ds -> a.zi

into all sixteen H(q) relations, each rule read as lhs - rhs, and reduces
in the free product; every residual must vanish identically.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product

from .matrices import ExactMatrix, inverse, trace
from .rewriting import (Alphabet, NCPolynomial, RewriteSystem, Rule,
                        check_morphism, orient)
from .scalars import exact

#: The unit as a `Fraction`, so that `_ONE / c` is never a float.
_ONE = Fraction(1)


def _traces_match(e, f, e_inv, f_inv):
    return trace(e) == trace(f) and trace(e_inv) == trace(f_inv)


def trace_conditions(e, f):
    """tr(E) = tr(F) and tr(E^-1) = tr(F^-1), for invertible square E, F."""
    return _traces_match(e, f, inverse(e), inverse(f))


def _check_q(qv):
    if exact(qv) == 0:
        raise ValueError("q must be nonzero")
    return Fraction(qv) if isinstance(qv, int) else qv


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
    e_inv, f_inv = inverse(e), inverse(f)
    if not unchecked and not _traces_match(e, f, e_inv, f_inv):
        raise ValueError("trace conditions tr(E) = tr(F), tr(E^-1) = tr(F^-1) "
                         "do not hold; pass unchecked=True to build anyway")

    fmt = "{0}{1}" if max(m, n) <= 9 else "{0}_{1}"
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    alphabet = Alphabet([f"v{fmt.format(*p)}" for p in reversed(pairs)]
                        + [f"u{fmt.format(*p)}" for p in pairs])
    u, v = ([[alphabet.index(x + fmt.format(i, j)) for j in range(1, n + 1)]
             for i in range(1, m + 1)] for x in "uv")
    tu, tv = list(zip(*u)), list(zip(*v))

    def entries(x, c, y, d):
        """The entries of d - x.c.ty, row by row, for letter matrices x, y
        and scalar matrices c, d given as lists of rows; with c = I, this
        sign makes -1 the leading coefficient, which `orient` keeps."""
        cs = [(k, l, -ckl) for k, row in enumerate(c)
              for l, ckl in enumerate(row) if ckl]
        for xi, di in zip(x, d):
            for yj, dij in zip(y, di):
                # zero-free, and the rows of x and of y repeat no letter
                terms = {(xi[k], yj[l]): ckl for k, l, ckl in cs}
                if dij:
                    terms[()] = dij
                yield NCPolynomial._of(terms)

    eye_m, eye_n = (ExactMatrix.identity(k).entries for k in (m, n))
    identities = ((u, eye_n, v, eye_m), (v, f.entries, u, e.entries),
                  (tv, eye_m, tu, eye_n),
                  (tu, e_inv.entries, tv, f_inv.entries))
    return RewriteSystem(alphabet, [orient(r) for x, c, y, d in identities
                                    for r in entries(x, c, y, d)])


#: H(q) name of each H(E, F) generator at m = n = 2.
HQ_OF_HEF = {"u11": "a", "u12": "b", "u21": "c", "u22": "d",
             "v11": "as", "v12": "bs", "v21": "cs", "v22": "ds"}


def matrix_fq(qv):
    """diag(q^-1, q) for a nonzero rational or symbolic q."""
    qv = _check_q(qv)
    return ExactMatrix.diagonal([_ONE / qv, qv])


def build_hq(qv):
    """The sixteen defining rules of H(q), redundant ones included."""
    qv = _check_q(qv)
    fq = matrix_fq(qv)
    hef = build_hef(fq, fq)
    alphabet = Alphabet(HQ_OF_HEF[name] for name in hef.alphabet.names)
    return RewriteSystem(alphabet, hef.rules)


def _star_pairs(qv):
    """(x, y, c) for each H(q) generator x of the matrix u and its partner y
    of v: pi sends x to z.x and y to c.x.zi, and t.y = c.x.ti in H+(q)."""
    return (("a", "ds", _ONE), ("b", "cs", -qv), ("c", "bs", -_ONE / qv),
            ("d", "as", _ONE))


def build_hplusq(qv):
    """H(q) extended by a grouplike t: the sixteen rules plus ten t-rules."""
    qv = _check_q(qv)
    hq = build_hq(qv)
    alphabet = Alphabet(hq.alphabet.names + ("ti", "t"))
    g = alphabet.index
    t, ti = g("t"), g("ti")
    t_rules = [Rule((t, ti), NCPolynomial({(ti, t): _ONE})),
               Rule((ti, t), NCPolynomial({(): _ONE}))]
    for x, y, c in _star_pairs(qv):
        t_rules += [Rule((ti, g(x)), NCPolynomial({(g(y), t): 1 / c})),
                    Rule((t, g(y)), NCPolynomial({(g(x), ti): c}))]
    return RewriteSystem(alphabet, hq.rules + tuple(t_rules))


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
    rules = (
        Rule((b, a), NCPolynomial({(a, b): qv})),
        Rule((c, a), NCPolynomial({(a, c): qv})),
        Rule((c, b), NCPolynomial({(b, c): _ONE})),
        Rule((d, b), NCPolynomial({(b, d): qv})),
        Rule((d, c), NCPolynomial({(c, d): qv})),
        Rule((b, c), NCPolynomial({(a, d): qv, (): -qv})),
        Rule((d, a), NCPolynomial({(b, c): qv, (): _ONE})),
    )
    return RewriteSystem(alphabet, rules)


def build_freeprod(qv):
    """Free product of Laurent polynomials in z with quantum SL(2).

    The factors share no generators, so no new overlaps appear beyond the
    z.zi chains and the quantum SL(2) ambiguities.
    """
    qv = _check_q(qv)
    slq2 = build_slq2(qv)
    alphabet = Alphabet(("a", "b", "c", "d", "zi", "z"))
    zi, z = alphabet.index("zi"), alphabet.index("z")
    rules = slq2.rules + (
        Rule((z, zi), NCPolynomial({(): _ONE})),
        Rule((zi, z), NCPolynomial({(): _ONE})),
    )
    return RewriteSystem(alphabet, rules)


def standard_pi_images(qv, freeprod):
    """The defining images of the eight H(q) generators in the free product."""
    qv = _check_q(qv)
    g = freeprod.alphabet.index
    z, zi = g("z"), g("zi")
    images = {}
    for x, y, c in _star_pairs(qv):
        images[x] = NCPolynomial({(z, g(x)): _ONE})
        images[y] = NCPolynomial({(g(x), zi): c})
    return images


def verify_pi(qv):
    """`check_morphism` of the sixteen H(q) relations under the standard
    images in the free product: its alphabet and one (rule text, residual)
    per relation."""
    qv = _check_q(qv)
    hq = build_hq(qv)
    fp = build_freeprod(qv)
    images = standard_pi_images(qv, fp)
    return check_morphism(hq.relations(),
                          [images[name] for name in hq.alphabet.names], fp)


# ---------------------------------------------------------------------------
# quantum automorphism relations of a measured matrix algebra
# ---------------------------------------------------------------------------


#: Relation data only: no orientation or confluence claim is made.
AautRelations = namedtuple("AautRelations", "alphabet families")

#: Hard bound on n for build_aaut; a dense F gives about n^8 terms.
AAUT_MAX_N = 5


def build_aaut(f):
    """The four relation families of the quantum automorphism algebra of
    (M_n, tr_F), emitted as polynomials over the n^4 generators X_rs^ij."""
    if not f.is_square():
        raise ValueError("F must be square")
    n = f.rows
    if n > AAUT_MAX_N:
        raise ValueError(f"aaut relations bound exceeded: F is {n}x{n}, "
                         f"n > {AAUT_MAX_N}")
    finv = inverse(f)

    # n <= AAUT_MAX_N < 10, so every index is one digit
    rng = range(1, n + 1)
    idx = {key: pos for pos, key in enumerate(product(rng, repeat=4))}
    alphabet = Alphabet("X{0}{1}^{2}{3}".format(*key) for key in idx)

    def x(lower, upper):
        return idx[lower + upper]

    multiplicative = []
    measure = []
    for i, j, k, l, r, s in product(rng, repeat=6):
        multiplicative.append(NCPolynomial(
            [((x((r, t), (i, j)), x((t, s), (k, l))), _ONE) for t in rng]
            + [((x((r, s), (i, l)),), -Fraction(int(j == k)))]))
        measure.append(NCPolynomial(
            [((x((k, l), (i, t)), x((r, s), (p, j))), f[t - 1, p - 1])
             for t in rng for p in rng]
            + [((x((k, s), (i, j)),), -f[l - 1, r - 1])]))

    counit = []
    trace_family = []
    for i, j in product(rng, repeat=2):
        counit.append(NCPolynomial(
            [((x((i, j), (t, t)),), _ONE) for t in rng]
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
    })
