"""Shared generators for randomized exact-matrix tests and H(E, F) pairs,
a reference recurrence for label dimensions, the letter-by-letter join of
psi images that the run-based `psi_word` replaced, the splitting sum read off
the definition of the fusion product and the four-similarity isomorphism search that the closed forms replaced,
reference readers for scalars and rule right sides, the printer of scalars
and combinations that `render_terms` replaced, the `cosov table` JSON
payload and text lines that its one-pass writers replaced, a reader of that
JSON for round-trip checks, reducers that check the rewriting engine (a
linear scan over every rule, and rewriting at random redexes), the
ambiguity search over every pair of rules that the lhs indexes replaced,
the H(E, F) builder with each relation family solved by hand for its
leading monomial and the H+(q) t-rules and free-product images written out
one by one, which `orient` and the star-pair table replaced, the morphism
check of the H(q) relations under any free-product images, the `cosov
check` text and JSON that `ConfluenceReport` wrote before the CLI wrote
them, and the `cosov` parser with every subparser built up front."""

import argparse
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from cosovereign import (Alphabet, ExactMatrix, FusionElement, ParseError,
                         Poly, RatFunc, RewriteSystem, Rule, bar,
                         build_freeprod, build_hq, check_morphism, fuse,
                         inverse, is_generic, parse_word, q, similar,
                         word_str, words_up_to)
from cosovereign.cli import COMMANDS
from cosovereign.repring import PSI_A, PSI_B
from cosovereign.rewriting import (Ambiguity, NCPolynomial, deglex_key,
                                   deglex_less)
from cosovereign.scalars import add_term


#: The interpreter's limit on the digits `int()` converts, or 0 without one;
#: an integer literal of `LONG_LITERAL` digits is past it.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG_LITERAL = "1" * (DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="int() converts any number of digits here")


def random_unimodular(rng, n, steps=8):
    """Integer matrix of determinant +-1, built from elementary operations."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
    return ExactMatrix(rows)


def companion(coeffs):
    """Companion matrix of x^n + a_{n-1} x^{n-1} + ... + a_0, coeffs = (a_0, ..., a_{n-1})."""
    n = len(coeffs)
    return ExactMatrix([[(1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i]
                         for j in range(n)] for i in range(n)])


def generic_integer_matrix(rng, n, trace, det_param=None):
    """Random integer matrix with tr(M) = tr(M^-1) = trace, conjugated to
    hide the companion shape.  Needs the constraint a_1 = a_0 * a_{n-1}."""
    t = trace
    d = det_param if det_param is not None else rng.choice((1, -1, 2))
    if n == 2:
        coeffs = (1, -t)
    elif n == 3:
        coeffs = (d, -t * d, -t)
    elif n == 4:
        c = rng.randrange(-3, 4)
        coeffs = (d, -t * d, c, -t)
    else:
        raise ValueError("sizes 2..4 only")
    p = random_unimodular(rng, n)
    return p * companion(coeffs) * inverse(p)


def random_scalar(rng, symbolic):
    """A nonzero exact scalar; with `symbolic`, often one that depends on q."""
    while True:
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if symbolic and rng.random() < 0.6:
            c = c * q ** rng.randint(-2, 2) + rng.randint(-2, 2)
            if rng.random() < 0.3:
                c = c / (q + rng.randint(1, 3))
        if c:
            return c


def random_hef_pair(rng, lo=2, hi=5):
    """(E, F, unchecked): E diagonal and F lower-triangular, m and n from
    `lo` to `hi`.  When m - n is even, the two diagonals often share their
    entries, the longer one adding pairs (x, -x), so both trace conditions
    hold."""
    m, n = rng.randint(lo, hi), rng.randint(lo, hi)
    symbolic = rng.random() < 0.5
    if (m - n) % 2 or rng.random() < 0.3:
        d_e = [random_scalar(rng, symbolic) for _ in range(m)]
        d_f = [random_scalar(rng, symbolic) for _ in range(n)]
        unchecked = True
    else:
        d_e = [random_scalar(rng, symbolic) for _ in range(min(m, n))]
        d_f = list(d_e)
        for _ in range(abs(m - n) // 2):
            x = random_scalar(rng, symbolic)
            (d_e if m > n else d_f).extend((x, -x))
        rng.shuffle(d_e)
        rng.shuffle(d_f)
        unchecked = False
    f = [[0] * n for _ in range(n)]
    for i in range(n):
        f[i][i] = d_f[i]
        for j in range(i):
            if rng.random() < 0.5:
                f[i][j] = random_scalar(rng, symbolic)
    return ExactMatrix.diagonal(d_e), ExactMatrix(f), unchecked


def normalized_2x2(t):
    """Companion of x^2 - t x + 1; trace and inverse-trace both equal t."""
    return ExactMatrix([[0, -1], [1, t]])


def expected_hef_witnesses(alphabet, m, n):
    """The four overlap families and two inclusions of the H(E, F) system."""
    def u(i, j):
        return alphabet.index(f"u{i}{j}")

    def v(i, j):
        return alphabet.index(f"v{i}{j}")

    overlaps = set()
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            overlaps.add((u(i, n), v(1, n), u(1, j)))
            overlaps.add((v(i, 1), u(m, 1), v(m, j)))
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            overlaps.add((v(1, i), u(1, n), v(j, n)))
            overlaps.add((u(m, i), v(m, 1), u(j, 1)))
    inclusions = {(v(1, 1), u(1, 1)), (u(m, n), v(m, n))}
    return overlaps, inclusions


def prefix_dim(x, n):
    """dim by peeling off the last letter instead of the first:
    x.a = x (*) a - x[:-1] when x ends in b, and symmetrically."""
    d1, d2 = 1, 0
    for i in range(len(x)):
        d = n * d1
        if i and x[i - 1] != x[i]:
            d -= d2
        d1, d2 = d, d1
    return d1


def reference_psi_word(x):
    """psi_word by joining the letter images [Z^1 V_1] and [V_1 Z^-1] one
    letter at a time: neighbours of one kind add exponents, and a Z exponent
    that sums to 0 drops out, so the V factors on either side merge."""
    out = []
    for letter in x:
        if letter not in ("a", "b"):
            raise ValueError(f"invalid word letter {letter!r}")
        for kind, idx in PSI_A if letter == "a" else PSI_B:
            if out and out[-1][0] == kind:
                idx += out.pop()[1]
                if not idx:
                    continue
            out.append((kind, idx))
    return tuple(out)


# runs of one letter and alternating runs, so that long V_j factors and long
# cancellations occur
labels = st.lists(st.tuples(st.sampled_from(("a", "b", "ab", "ba")),
                            st.integers(1, 60)), max_size=24).map(
    lambda runs: "".join(piece * k for piece, k in runs)[:400])


def splitting_summands(x, y):
    """The words a.b over every g with x = a.g and y = bar(g).b, found by
    trying every suffix g of x, shortest first (so leading term first),
    each as often as it occurs."""
    out = []
    for cut in range(len(x), -1, -1):
        a, g = x[:cut], x[cut:]
        gb = bar(g)
        if y.startswith(gb):
            out.append(a + y[len(gb):])
    return out


def reference_fuse(x, y):
    """x (*) y as the `FusionElement` of `splitting_summands`."""
    out = {}
    for w in splitting_summands(x, y):
        out[w] = out.get(w, 0) + 1
    return FusionElement(out)


# ---------------------------------------------------------------------------
# reducers that share nothing with the engine, built on `apply_rule_at`
# ---------------------------------------------------------------------------


def apply_rule_at(m, rule, pos):
    """One rewriting step on a monomial; the match is assumed."""
    if m[pos:pos + len(rule.lhs)] != rule.lhs:
        raise ValueError("rule does not match at given position")
    a, b = m[:pos], m[pos + len(rule.lhs):]
    return NCPolynomial._of({a + t + b: c for t, c in rule.rhs.terms.items()})


def _scan_match_at(m, pos, rules):
    """Best rule matching at pos: deg-lex-largest lhs, then lowest index."""
    best = None
    for idx, rule in enumerate(rules):
        l = rule.lhs
        if m[pos:pos + len(l)] == l:
            if best is None or deglex_less(rules[best].lhs, l):
                best = idx
    return best


def scan_find_redex(m, rules):
    """(pos, rule) of the leftmost redex by a scan over every rule."""
    for pos in range(len(m)):
        idx = _scan_match_at(m, pos, rules)
        if idx is not None:
            return pos, rules[idx]
    return None


def scan_reduce(p, rules):
    """`reduce` with `scan_find_redex` in place of the lhs index."""
    work = dict(p.terms)
    done = {}
    while work:
        m = max(work, key=deglex_key)
        c = work.pop(m)
        hit = scan_find_redex(m, rules)
        if hit is None:
            add_term(done, m, c)
            continue
        pos, rule = hit
        a, b = m[:pos], m[pos + len(rule.lhs):]
        for t, cc in rule.rhs.terms.items():
            add_term(work, a + t + b, c * cc)
    return NCPolynomial(done)


def scan_ambiguities(rules):
    """`find_ambiguities` by a scan over every ordered pair of rules."""
    out = []
    for i, ri in enumerate(rules):
        for j, rj in enumerate(rules):
            li, lj = ri.lhs, rj.lhs
            for k in range(1, min(len(li), len(lj))):
                if li[len(li) - k:] == lj[:k]:
                    out.append(Ambiguity("overlap", i, j,
                                         li + lj[k:], len(li) - k))
            if i == j:
                continue
            if len(lj) < len(li):
                for p in range(len(li) - len(lj) + 1):
                    if li[p:p + len(lj)] == lj:
                        out.append(Ambiguity("inclusion", i, j, li, p))
            elif len(lj) == len(li) and li == lj and i < j:
                out.append(Ambiguity("inclusion", i, j, li, 0))
    out.sort(key=lambda a: (a.kind, deglex_key(a.witness), a.i, a.j))
    return out


def reference_resolve(amb, rules):
    """The residual as two normal forms, one per one-step reduct of the
    witness, reduced separately by `scan_reduce` and then subtracted."""
    w = amb.witness
    return (scan_reduce(apply_rule_at(w, rules[amb.i], 0), rules)
            - scan_reduce(apply_rule_at(w, rules[amb.j], amb.pos_j), rules))


def random_reduce(p, rules, rng):
    """A normal form of `p` reached by rewriting, step by step, a redex drawn
    by `rng` among all redexes of all monomials: any position, and any rule
    whose lhs matches there, rules with equal lhs counted apart."""
    terms = dict(p.terms)
    while True:
        redexes = [(m, pos, rule) for m in terms for rule in rules
                   for pos in range(len(m) - len(rule.lhs) + 1)
                   if m[pos:pos + len(rule.lhs)] == rule.lhs]
        if not redexes:
            return NCPolynomial(terms)
        m, pos, rule = rng.choice(redexes)
        c = terms.pop(m)
        for t, cc in apply_rule_at(m, rule, pos).terms.items():
            add_term(terms, t, c * cc)


def negated(m):
    return ExactMatrix([[-x for x in row] for row in m.entries])


def reference_hef(e, f):
    """H(E, F) with each of the four families solved by hand; the matrices
    are assumed valid, as `build_hef` checks them."""
    m, n = e.rows, f.rows
    fmt = "{0}{1}" if max(m, n) <= 9 else "{0}_{1}"
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    alphabet = Alphabet(["v" + fmt.format(i, j) for (i, j) in reversed(pairs)]
                        + ["u" + fmt.format(i, j) for (i, j) in pairs])
    u = {p: alphabet.index("u" + fmt.format(*p)) for p in pairs}
    v = {p: alphabet.index("v" + fmt.format(*p)) for p in pairs}
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
    return RewriteSystem(alphabet, rules)


def reference_hplusq(qv):
    """H+(q) with its ten t-rules written out; qv a nonzero Fraction or
    RatFunc."""
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
    return RewriteSystem(alphabet, hq.rules + tuple(t_rules))


def reference_pi_images(qv, freeprod):
    """The eight free-product images of the H(q) generators, written out."""
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


def pi_check(qv, images):
    """`check_morphism` of the H(q) relations, as `verify_pi` reads them,
    under `images`: free-product polynomials keyed by H(q) generator name."""
    hq = build_hq(qv)
    return check_morphism(hq.relations(),
                          [images[name] for name in hq.alphabet.names],
                          build_freeprod(qv))


def reference_iso_witness(e, f):
    """The isomorphism witness by up to four similarity tests, each on
    matrices built explicitly: F ~ E, F ~ -E, tF^-1 ~ E, tF^-1 ~ -E."""
    for name, mat in (("E", e), ("F", f)):
        if not is_generic(mat):
            raise ValueError(f"matrix {name} is not generic")
    if e.rows != f.rows:
        return None
    tf_inv = inverse(f).transpose()
    for cond, detail, lhs, rhs in (("i", "F ~ E", f, e),
                                   ("i", "F ~ -E", f, negated(e)),
                                   ("ii", "tF^-1 ~ E", tf_inv, e),
                                   ("ii", "tF^-1 ~ -E", tf_inv, negated(e))):
        if similar(lhs, rhs):
            return f"{cond}: {detail}"
    return None


# ---------------------------------------------------------------------------
# the scalar and rule right-side readers that the expression reader replaced,
# kept as oracles: on every text they accept, the new reader must agree
# ---------------------------------------------------------------------------


class _Scan:
    def __init__(self, text, offset=0):
        self.text = text
        self.i = 0
        self.offset = offset

    def err(self, message):
        raise ParseError(message, pos=self.offset + self.i)

    def ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            self.err(f"expected {ch!r}")

    def integer(self):
        j = self.i
        if self.peek() and self.peek() in "+-":
            self.i += 1
        if not self.peek().isdigit():
            self.err("expected an integer")
        while self.peek().isdigit():
            self.i += 1
        return int(self.text[j:self.i])


def _parse_laurent(sc):
    """Sum of c*q^k terms -> (dict exponent -> Fraction, saw_q flag)."""
    out = {}
    saw_q = False
    sign = 1
    sc.ws()
    if sc.take("-"):
        sign = -1
    elif sc.take("+"):
        pass
    while True:
        sc.ws()
        coeff, exp, saw = _parse_term(sc)
        saw_q = saw_q or saw
        out[exp] = out.get(exp, Fraction(0)) + sign * coeff
        sc.ws()
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            break
    return {k: c for k, c in out.items() if c}, saw_q


def _parse_term(sc):
    """One c, c*q^k, or q^k term -> (coefficient, exponent, saw_q)."""
    if sc.peek() == "q":
        sc.i += 1
        return Fraction(1), _parse_exponent(sc), True
    if not (sc.peek().isdigit()):
        sc.err("expected a number or q")
    n = sc.integer()
    coeff = Fraction(n)
    if sc.take("/"):
        d = sc.integer()
        if d == 0:
            sc.err("zero denominator")
        coeff = Fraction(n, d)
    if sc.take("*"):
        if not sc.take("q"):
            sc.err("expected q after '*'")
        return coeff, _parse_exponent(sc), True
    return coeff, 0, False


def _parse_exponent(sc):
    if sc.take("^"):
        return sc.integer()
    return 1


def _laurent_to_scalar(terms, saw_q):
    if not terms:
        return RatFunc(Poly()) if saw_q else Fraction(0)
    lo = min(terms)
    if not saw_q:
        return terms.get(0, Fraction(0))
    shift = -lo if lo < 0 else 0
    coeffs = [Fraction(0)] * (max(terms) + shift + 1)
    for k, c in terms.items():
        coeffs[k + shift] = c
    return RatFunc(Poly(coeffs), Poly([0] * shift + [1]))


def reference_parse_scalar(text, offset=0):
    """The scalar reader `parse_scalar` used before the expression reader:
    a rational literal, a Laurent q-expression, or (p)/(p).

    Returns a Fraction unless the value depends on q, and a RatFunc then.
    """
    sc = _Scan(text, offset)
    sc.ws()
    neg = False
    if sc.peek() == "-":
        # could be a negated parenthesized form; plain terms handle their own sign
        j = sc.i
        sc.i += 1
        sc.ws()
        if sc.peek() == "(":
            neg = True
        else:
            sc.i = j
    if sc.peek() == "(":
        sc.expect("(")
        num_terms, saw1 = _parse_laurent(sc)
        sc.ws()
        sc.expect(")")
        sc.ws()
        if sc.take("/"):
            sc.ws()
            sc.expect("(")
            den_terms, saw2 = _parse_laurent(sc)
            sc.ws()
            sc.expect(")")
            num = _laurent_to_scalar(num_terms, True)
            den = _laurent_to_scalar(den_terms, True)
            if den == 0:
                sc.err("zero denominator")
            value = num / den
        else:
            value = _laurent_to_scalar(num_terms, saw1)
    else:
        terms, saw_q = _parse_laurent(sc)
        value = _laurent_to_scalar(terms, saw_q)
    sc.ws()
    if sc.i != len(sc.text):
        sc.err("unexpected trailing input")
    if neg:
        value = -value
    return value


def _split_top_level(text, seps):
    """Split on separator characters at paren depth zero; keeps separators."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in seps and cur:
            parts.append("".join(cur))
            cur = []
        cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def _try_monomial(text, alphabet):
    """The monomial `text` spells, or None if it is not one."""
    try:
        return alphabet.word(*(t.strip() for t in text.split(".")))
    except KeyError:
        return None


def _parse_poly_text(text, alphabet, line_no, col):
    """Polynomial from stripped `text`, which starts at 1-based `col`."""
    terms = {}
    for part in _split_top_level(text, "+-"):
        # every part starts at a sign or at the start of the text
        chunk = part.rstrip()
        at, col = col, col + len(part)
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            body = chunk[1:].lstrip()
            if not body:
                raise ParseError("empty term in polynomial", line=line_no,
                                 col=at)
            at += len(chunk) - len(body)
            chunk = body
        coeff, mono = _parse_term_text(chunk, alphabet, line_no, at)
        add_term(terms, mono, -coeff if sign < 0 else coeff)
    return NCPolynomial._of(terms)


def _parse_term_text(chunk, alphabet, line_no, col):
    mono = _try_monomial(chunk, alphabet)
    if mono is not None:
        return Fraction(1), mono
    stars = []
    depth = 0
    for pos, ch in enumerate(chunk):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "*" and depth == 0:
            stars.append(pos)
    for pos in reversed(stars):
        mono = _try_monomial(chunk[pos + 1:], alphabet)
        if mono is not None:
            try:
                coeff = reference_parse_scalar(chunk[:pos].strip())
            except ParseError as exc:
                raise ParseError(exc.message, line=line_no,
                                 col=col + exc.pos) from None
            return coeff, mono
    try:
        coeff = reference_parse_scalar(chunk)
    except ParseError as exc:
        raise ParseError(f"not a term: {chunk!r} ({exc.message})",
                         line=line_no, col=col) from None
    return coeff, ()


def reference_parse_rhs(text, alphabet):
    """A rule right side as the presentation reader read it before the
    expression reader: terms split at top-level signs."""
    return _parse_poly_text(text.strip(), alphabet, 1, 1)


def _reference_laurent_terms(poly, shift):
    """(exponent, coefficient) pairs of poly * q**shift, descending exponent."""
    return [(i + shift, c) for i in range(poly.degree(), -1, -1)
            for c in [poly.coeffs[i]] if c]


def _reference_laurent_str(pairs, compact):
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    parts = []
    for k, c in pairs:
        mag = c if c > 0 else -c
        if k == 0:
            body = str(mag)
        else:
            head = "q" if k == 1 else f"q^{k}"
            body = head if mag == 1 else f"{mag}*{head}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((plus if c > 0 else minus) + body)
    return "".join(parts)


def reference_format_scalar(s, compact=False):
    """`format_scalar` as it was before `render_terms`: a Laurent polynomial
    and the two sides of a quotient, with its power of q multiplied out,
    each print through their own loop."""
    if isinstance(s, (int, Fraction)):
        return str(s)
    if s.bot == Poly([1]):
        return _reference_laurent_str(_reference_laurent_terms(s.top, s.val),
                                      compact)
    num = s.top.shift(s.val) if s.val > 0 else s.top
    den = s.bot.shift(-s.val) if s.val < 0 else s.bot
    num = _reference_laurent_str(_reference_laurent_terms(num, 0), compact)
    den = _reference_laurent_str(_reference_laurent_terms(den, 0), compact)
    return f"({num})/({den})"


def _reference_coeff_text(c):
    """A coefficient magnitude, parenthesized when its text has a sign
    outside parentheses."""
    text = reference_format_scalar(c, compact=True)
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return f"({text})"
    return text


def reference_render(combination, render_key):
    """`Combination.render` as it was before `render_terms`: the sign read
    off each coefficient, and the parentheses off its printed text."""
    parts = []
    for k, c in combination.pairs():
        if isinstance(c, RatFunc):
            neg = c.top.leading() < 0
        else:
            neg = c < 0
        mag = -c if neg else c
        if mag == 1:
            body = render_key(k)
        elif k:
            body = f"{_reference_coeff_text(mag)}*{render_key(k)}"
        else:
            body = _reference_coeff_text(mag)
        if parts:
            parts.append(" - " if neg else " + ")
        elif neg:
            parts.append("-")
        parts.append(body)
    return "".join(parts) or "0"


def _reference_table(max_len):
    """(x, y, fuse(x, y)) for every pair of words up to max_len."""
    ws = words_up_to(max_len)
    return [(x, y, fuse(x, y)) for x in ws for y in ws]


def reference_table_payload(max_len, seed):
    """The payload `cosov table --format json` printed as
    `json.dumps(payload, indent=2)` before it wrote its JSON in one pass."""
    return {"max_len": max_len, "seed": seed,
            "entries": [{"x": word_str(x), "y": word_str(y),
                         "product": p.to_pairs()}
                        for x, y, p in _reference_table(max_len)]}


def element_from_pairs(pairs):
    """The `FusionElement` whose `to_pairs()` is `pairs`."""
    return FusionElement({parse_word(w): c for w, c in pairs})


def parse_table_payload(blob):
    """`cosov table --format json` read back as (x, y, product) triples."""
    return [(parse_word(e["x"]), parse_word(e["y"]),
             element_from_pairs(e["product"]))
            for e in json.loads(blob)["entries"]]


def reference_table_lines(max_len):
    """The lines `cosov table` printed through `FusionElement.render`."""
    return [f"{word_str(x)} {word_str(y)} -> {p.render()}"
            for x, y, p in _reference_table(max_len)]


# texts in the grammar the reference readers accept: terms c, c/d, c*q^k and
# q^k joined by signs, optionally as -(p) or (p)/(p); rule right sides join
# monomials, coefficient*monomial and coefficient terms by top-level signs
_DIGITS = st.integers(0, 30).map(str)
_SIGNED = st.builds(str.__add__, st.sampled_from(["", "+", "-"]), _DIGITS)
_Q = st.builds(str.__add__, st.just("q"),
               st.one_of(st.just(""), _SIGNED.map("^".__add__)))
_NUMBER = st.builds(str.__add__, _DIGITS,
                    st.one_of(st.just(""), _SIGNED.map("/".__add__)))
_TERM = st.one_of(_Q, st.builds(str.__add__, _NUMBER, st.one_of(
    st.just(""), _Q.map("*".__add__))))


@st.composite
def _laurent_texts(draw):
    parts = [draw(st.sampled_from(["", "-", "+", " -"]))]
    for k in range(draw(st.integers(1, 4))):
        if k:
            parts.append(draw(st.sampled_from(["+", "-", " + ", " - "])))
        parts.append(draw(_TERM))
    return "".join(parts)


@st.composite
def scalar_texts(draw):
    """Texts in the grammar of `reference_parse_scalar`."""
    text = draw(_laurent_texts())
    form = draw(st.integers(0, 2))
    if form:
        text = draw(st.sampled_from(["", "-", "- "])) + f"({text})"
    if form == 2:
        text += draw(st.sampled_from(["/", " / "])) + f"({draw(_laurent_texts())})"
    return text


@st.composite
def rhs_texts(draw, generators):
    """Rule right sides in the grammar of `reference_parse_rhs`."""
    monomials = st.lists(st.sampled_from(generators), min_size=1,
                         max_size=3).map(".".join)
    parts = []
    for k in range(draw(st.integers(1, 4))):
        parts.append(draw(st.sampled_from(
            [" + ", " - ", "+", "-"] if k else ["", "-", "+"])))
        coeff = draw(scalar_texts())
        if draw(st.booleans()):
            coeff = f"({coeff})"
        kind = draw(st.integers(0, 2))
        parts.append(draw(monomials) if kind == 0 else coeff if kind == 1
                     else f"{coeff}*{draw(monomials)}")
    return "".join(parts)


def is_confluent(checks):
    """Whether every residual of `confluent`'s (ambiguity, residual) pairs
    is zero."""
    return all(r.is_zero() for _, r in checks)


def confluence_counts(checks):
    """The ambiguities of `checks` counted by kind."""
    inc = sum(1 for a, _ in checks if a.kind == "inclusion")
    return {"inclusion": inc, "overlap": len(checks) - inc}


def reference_check_text(alphabet, checks):
    """`ConfluenceReport.to_text`, the body of the `cosov check` text
    report after its presentation and seed lines."""
    lines = []
    for a, residual in checks:
        status = ("ok" if residual.is_zero()
                  else f"FAIL residual {residual.render(alphabet)}")
        lines.append(f"{a.kind:9s} rules ({a.i:2d},{a.j:2d}) "
                     f"witness {alphabet.render(a.witness):30s} {status}")
    c = confluence_counts(checks)
    lines.append(f"{len(checks)} ambiguities "
                 f"({c['inclusion']} inclusion, {c['overlap']} overlap); "
                 f"confluent: {is_confluent(checks)}")
    return "\n".join(lines)


def reference_check_payload(alphabet, checks):
    """`ConfluenceReport.to_payload`, the "ambiguities" of the `cosov check`
    JSON report."""
    return [{
        "kind": a.kind,
        "rules": [a.i, a.j],
        "witness": alphabet.render(a.witness),
        "resolved": residual.is_zero(),
        "residual": residual.render(alphabet),
    } for a, residual in checks]


def reference_parser():
    """The `cosov` parser as `cli.build_parser` built it before set-up
    waited for the command: every subparser added, in `COMMANDS` order."""
    ap = argparse.ArgumentParser(
        prog="cosov",
        description="Exact fusion rules and rewriting checks for universal "
                    "cosovereign Hopf algebras.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_text, specs) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, options in specs:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return ap
