"""Noncommutative rewriting engine built on the diamond lemma.

Monomials are words over an ordered alphabet, compared by degree first and
then lexicographically by generator position (deg-lex).  A rule rewrites its
left-hand monomial to a polynomial whose monomials are all strictly smaller;
that compatibility is enforced at construction and guarantees termination of
reduction, since deg-lex is a well-order that respects concatenation on both
sides.  Reduction keeps one redex order (leftmost redex, longest lhs, lowest
rule index), so a monomial is always rewritten the same way and `reduce` is
linear, whether or not the rules are confluent.  It keys each power of q
with its monomial and carries an int over one shared int denominator, the
same ring at rational and Laurent coefficients, unless one is a true
quotient; only the normal form regroups the powers of q into scalars.

An ambiguity is a monomial reducible by two rules in two ways: an overlap
(a proper suffix of one left side equals a proper prefix of another) or an
inclusion (one left side occurs inside another; two distinct rules sharing a
left side count as an inclusion too).  The system is confluent when every
ambiguity resolves, i.e. the difference of its two one-step reducts reduces
to zero; the diamond lemma then makes the reduced monomials a linear basis.

The engine is presentation-agnostic: nothing here knows which algebra the
rules present.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .scalars import (NAME, Combination, ParseError, _ring, add_term, clear,
                      parse_expression, render_terms, uncleared)


def _name_error(name, seen):
    """Why `name` cannot follow the generators `seen`, or None."""
    if not NAME.fullmatch(name):
        return f"invalid generator name {name!r}"
    if name in seen:
        return f"duplicate generator name {name!r}"
    return None


class Alphabet:
    """Ordered generator names; list position is the total order."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet needs at least one generator")
        index = {}
        for name in names:
            problem = _name_error(name, index)
            if problem:
                raise ValueError(problem)
            index[name] = len(index)
        self.names = names
        self._index = index

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def word(self, *names):
        """Monomial from generator names."""
        return tuple(self.index(n) for n in names)

    def render(self, monomial):
        if not monomial:
            return "1"
        return ".".join(self.names[g] for g in monomial)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        if isinstance(other, Alphabet):
            return self.names == other.names
        return NotImplemented

    def __repr__(self):
        return f"Alphabet({list(self.names)!r})"


def deglex_key(m):
    return (len(m), m)


def deglex_less(a, b):
    return deglex_key(a) < deglex_key(b)


class NCPolynomial(Combination):
    """Finite scalar combination of monomials; immutable, zero-free."""

    __slots__ = ()
    # deg-lex descending: longest first, then larger generators first
    _order = staticmethod(lambda m: (-len(m), tuple(-g for g in m)))
    _times = staticmethod(lambda m1, m2: ((m1 + m2, 1),))

    @classmethod
    def monomial(cls, m, coeff=1):
        return cls({tuple(m): coeff})

    def render(self, alphabet):
        return render_terms(self.pairs(), alphabet.render)


class RuleOrderError(ValueError):
    """A proposed rule is not compatible with the deg-lex order: rhs
    `monomial` is not smaller than `lhs`."""

    def __init__(self, lhs, monomial):
        self.lhs, self.monomial = lhs, monomial
        super().__init__(self.message(str))

    def message(self, render):
        """The error text with monomials shown by `render`."""
        return (f"rule is not order-compatible: rhs monomial "
                f"{render(self.monomial)} is not smaller than lhs "
                f"{render(self.lhs)}")


class Rule(namedtuple("Rule", "lhs rhs")):
    """lhs monomial -> rhs polynomial, with every rhs monomial < lhs."""

    __slots__ = ()

    def __new__(cls, lhs, rhs):
        if not lhs:
            raise ValueError("rule left side must be a nonempty monomial")
        for m in rhs.terms:
            if not deglex_less(m, lhs):
                raise RuleOrderError(lhs, m)
        return super().__new__(cls, lhs, rhs)

    def render(self, alphabet):
        return f"{alphabet.render(self.lhs)} -> {self.rhs.render(alphabet)}"


_MINUS_ONE = Fraction(-1)


def orient(relation):
    """The `Rule` of `relation = 0`: its deg-lex leading monomial rewrites
    to the rest, times minus the reciprocal of the leading coefficient (so
    the rest as it is when that coefficient is -1)."""
    if relation.is_zero():
        raise ValueError("a zero relation has no leading monomial to orient")
    terms = relation.terms
    lhs = max(terms, key=deglex_key)
    rest = {m: c for m, c in terms.items() if m != lhs}
    if terms[lhs] != -1:
        scale = _MINUS_ONE / terms[lhs]
        rest = {m: c * scale for m, c in rest.items()}
    return Rule(lhs, NCPolynomial._of(rest))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


class RewriteSystem:
    """A presentation: generators plus rules, compiled for matching.

    `index` maps each distinct lhs to the lowest rule index with that lhs;
    `lengths` lists the distinct lhs lengths, longest first; `cleared`, each
    rule's right side as `scalars.clear` gives it, or None if one does not
    clear; `steps`, `cleared` or else (1, [(t, 0, scalar)]) per rule.
    Every letter of every rule must lie in the alphabet.
    """

    __slots__ = ("alphabet", "rules", "index", "lengths", "cleared", "steps")

    def __init__(self, alphabet, rules):
        self.alphabet = alphabet
        self.rules = tuple(rules)
        letters = range(len(alphabet))
        index = {}
        for i, rule in enumerate(self.rules):
            if not all(g in letters for m in (rule.lhs, *rule.rhs.terms)
                       for g in m):
                raise ValueError(f"rule {i} uses a letter outside the "
                                 f"alphabet of {len(alphabet)} generators")
            index.setdefault(rule.lhs, i)
        self.index = index
        self.lengths = tuple(sorted({len(l) for l in index}, reverse=True))
        cleared = [clear(rule.rhs.terms.items()) for rule in self.rules]
        self.cleared = None if None in cleared else cleared
        self.steps = self.cleared or _scalar_steps(self.rules)

    def export(self):
        """The presentation file text, which `parse_presentation` reads."""
        lines = ["generators:", *self.alphabet.names, "rules:"]
        lines.extend(rule.render(self.alphabet) for rule in self.rules)
        return "\n".join(lines) + "\n"

    def relations(self):
        """Each rule as (its text, lhs - rhs), the relation it presents."""
        return [(rule.render(self.alphabet),
                 NCPolynomial.monomial(rule.lhs) - rule.rhs)
                for rule in self.rules]


def _leftmost(m, index, lengths):
    """(pos, lhs length, rule index) of the leftmost redex, or None.

    At one position at most one lhs of each length matches, so trying the
    lengths longest first picks the deg-lex-largest matching lhs, and the
    index holds the lowest rule index for it.
    """
    n = len(m)
    for pos in range(n):
        room = n - pos
        for size in lengths:
            if size <= room:
                idx = index.get(m[pos:pos + size])
                if idx is not None:
                    return pos, size, idx
    return None


def _scalar_steps(rules):
    """Each rule's right side as (1, [(t, 0, scalar)])."""
    return [(1, [(t, 0, c) for t, c in rule.rhs.terms.items()])
            for rule in rules]


def reduce(p, system):
    """Normal form of a polynomial under the rules, a linear map.

    Terminates for order-compatible rules because every step replaces a
    monomial by strictly smaller ones.  Each monomial is rewritten at its
    leftmost redex, so its normal form does not depend on the rest of `p`.
    The coefficients are ints over one shared int denominator, one per
    monomial and power of q (`scalars.clear`), or the scalars themselves
    when the rules or `p` have a true quotient coefficient.
    """
    cleared = system.cleared is not None and clear(p.terms.items())
    den, terms = cleared or (None, [(m, 0, c) for m, c in p.terms.items()])
    return _normal_form({(len(m), m, e): c for m, e, c in terms}, den,
                        system)


def _normal_form(work, den, system):
    """`reduce` of the sum of c/den*q^e*m over `work`, which maps (len(m), m,
    e) to the nonzero int c (so `max` needs no key function; a popped m
    never comes back), or of the scalars c*q^e if `den` is None.  By
    linearity each (m, e) is rewritten on its own: a step by a rule over d
    divides c by g = gcd(c, d), multiplies den and the rest by d/g, and puts
    c*n at exponent e + j for each (t, j, n) of the rule."""
    steps = (system.steps if den is not None or system.cleared is None
             else _scalar_steps(system.rules))
    index, lengths = system.index, system.lengths
    done = {}
    while work:
        key = max(work)
        c = work.pop(key)
        _, m, e = key
        hit = _leftmost(m, index, lengths)
        if hit is None:
            done[key] = c
            continue
        pos, size, idx = hit
        d, triples = steps[idx]
        if d != 1:
            g = gcd(d, c)
            c //= g
            if g != d:
                den *= d // g
                for values in (work, done):
                    for k, v in values.items():
                        values[k] = v * (d // g)
        a, b = m[:pos], m[pos + size:]
        for t, j, n in triples:
            w = a + t + b
            key = (len(w), w, e + j)
            v = c * n
            cur = work.get(key)
            if cur is None:
                work[key] = v
            else:
                cur += v
                if cur:
                    work[key] = cur
                else:
                    del work[key]
    powers = {}
    for (_, m, e), c in done.items():
        powers.setdefault(m, {})[e] = c
    return NCPolynomial._of({m: p[0] if den is None
                             else uncleared(_ring(p), den)
                             for m, p in powers.items()})


# ---------------------------------------------------------------------------
# ambiguities and confluence
# ---------------------------------------------------------------------------


#: A monomial reducible by two rules; kind is 'overlap' or 'inclusion'.
#: lhs_i starts the witness, and lhs_j starts at pos_j.
Ambiguity = namedtuple("Ambiguity", "kind i j witness pos_j")


def find_ambiguities(rules):
    """All overlap and inclusion ambiguities, in a deterministic order.

    Overlaps are ordered pairs (a proper suffix of lhs_i equals a proper
    prefix of lhs_j, including i == j); inclusions place the shorter lhs
    inside the longer one, and two distinct rules with identical lhs give a
    single inclusion.  Each rule finds its partners through two indexes,
    one from every proper lhs prefix and one from every lhs to its rules:
    the overlaps by its proper suffixes, the inclusions by its factors.
    """
    prefixes, lhss = {}, {}
    for j, rule in enumerate(rules):
        lj = rule.lhs
        for k in range(1, len(lj)):
            prefixes.setdefault(lj[:k], []).append(j)
        lhss.setdefault(lj, []).append(j)
    out = []
    for i, rule in enumerate(rules):
        li = rule.lhs
        n = len(li)
        for p in range(1, n):
            for j in prefixes.get(li[p:], ()):
                out.append(Ambiguity("overlap", i, j,
                                     li + rules[j].lhs[n - p:], p))
        for p in range(n):
            for end in range(p + 1, n + 1 - (p == 0)):
                for j in lhss.get(li[p:end], ()):
                    out.append(Ambiguity("inclusion", i, j, li, p))
        for j in lhss[li]:
            if j > i:
                out.append(Ambiguity("inclusion", i, j, li, 0))
    out.sort(key=lambda a: (a.kind, deglex_key(a.witness), a.i, a.j))
    return out


def resolve(amb, system):
    """(resolved, residual), the residual being the normal form of the
    difference of the witness's two one-step reducts, built from the
    rules' (t, e, n) steps over the product of their two denominators."""
    w, rules, steps = amb.witness, system.rules, system.steps
    (di, first), (dj, second) = steps[amb.i], steps[amb.j]
    work = {}
    for pos, k, triples, scale in ((0, amb.i, first, dj),
                                   (amb.pos_j, amb.j, second, -di)):
        a, b = w[:pos], w[pos + len(rules[k].lhs):]
        for t, e, n in triples:
            m = a + t + b
            add_term(work, (len(m), m, e), n * scale)
    residual = _normal_form(
        work, None if system.cleared is None else di * dj, system)
    return residual.is_zero(), residual


def confluent(system):
    """The system's alphabet and, per ambiguity in `find_ambiguities`
    order, the ambiguity and its residual; the system is confluent when
    every residual is zero."""
    return system.alphabet, [(amb, resolve(amb, system)[1])
                             for amb in find_ambiguities(system.rules)]


def check_morphism(relations, images, target):
    """The target's alphabet and, per (label, relation), the label and the
    normal form in `target` of the relation with `images[g]` substituted
    for each letter g.  A zero residual puts that image in the ideal of
    `target`; for a confluent target, a nonzero one disproves the map."""
    def image(mono, coeff):
        term = NCPolynomial({(): coeff})
        for letter in mono:
            term = term * images[letter]
        return term
    return target.alphabet, [
        (label, reduce(sum((image(*t) for t in p.terms.items()),
                           NCPolynomial()), target))
        for label, p in relations]


# ---------------------------------------------------------------------------
# reduced monomials
# ---------------------------------------------------------------------------


class EnumerationBound(ValueError):
    pass


def _ends_with_lhs(word, system):
    # a suffix longer than the word is the word itself, which is then an lhs
    index = system.index
    return any(word[-size:] in index for size in system.lengths)


#: Hard bound for reduced_monomials; word counts grow geometrically.
BASIS_MAX_SIZE = 10 ** 6


def reduced_monomials(system, max_len):
    """Monomials of length <= max_len with no rule lhs as a factor.

    Canonical (length, lex) order; enumeration aborts past
    `BASIS_MAX_SIZE` entries.
    """
    out = [()]
    level = [()]
    letters = range(len(system.alphabet))
    for _ in range(max_len):
        nxt = []
        for w in level:
            for g in letters:
                w2 = w + (g,)
                if not _ends_with_lhs(w2, system):
                    nxt.append(w2)
                    if len(out) + len(nxt) > BASIS_MAX_SIZE:
                        raise EnumerationBound(
                            f"more than {BASIS_MAX_SIZE} reduced monomials")
        out.extend(nxt)
        level = nxt
    return out


def is_free_family(system, subset, max_len):
    """Whether all words of length <= max_len over the named generators
    stay reduced.

    The rules must be confluent (checked); the diamond lemma then makes the
    reduced monomials a basis, so an all-reduced family is linearly free.
    A word over the subset contains an lhs only if that lhs is itself a word
    over the subset, so no words need listing: the family is free exactly
    when no lhs of length <= max_len uses only subset letters.
    """
    subset = {system.alphabet.index(s) for s in subset}
    if not all(r.is_zero() for _, r in confluent(system)[1]):
        raise ValueError("rewrite system is not confluent; "
                         "the reduced-monomial basis is unavailable")
    return not any(len(lhs) <= max_len and set(lhs) <= subset
                   for lhs in system.index)


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------


def parse_presentation(text):
    """Parse the presentation file format into a `RewriteSystem`."""
    names = []
    rule_lines = []
    section = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        col = len(raw) - len(raw.lstrip()) + 1
        # one generators section, then one rules section
        if (line, section) in (("generators:", None), ("rules:", "generators")):
            section = line[:-1]
        elif section and line in ("generators:", "rules:"):
            raise ParseError(f"repeated {line!r} header", line=no, col=col)
        elif section == "generators":
            problem = _name_error(line, names)
            if problem:
                raise ParseError(problem, line=no, col=col)
            names.append(line)
        elif section == "rules":
            rule_lines.append((no, raw, col))
        else:
            raise ParseError("expected 'generators:' section first", line=no,
                             col=col)
    if not names:
        raise ParseError("no generators declared", line=1, col=1)
    alphabet = Alphabet(names)
    generators = {name: NCPolynomial.monomial((i,), Fraction(1))
                  for i, name in enumerate(names)}
    rules = []
    # col is the column of the first character, where the lhs starts
    for no, raw, col in rule_lines:
        if "->" not in raw:
            raise ParseError("rule line needs '->'", line=no, col=col)
        arrow = raw.index("->")
        lhs_text, rhs_text = raw[:arrow], raw[arrow + 2:]
        try:
            lhs = alphabet.word(*(t.strip() for t in lhs_text.split(".")))
        except KeyError:
            raise ParseError(f"invalid rule left side {lhs_text.strip()!r}",
                             line=no, col=col) from None
        try:
            rhs = (parse_expression(rhs_text, generators)
                   if rhs_text.strip() else 0)
        except ParseError as exc:
            raise ParseError(exc.message, line=no,
                             col=arrow + 3 + exc.pos) from None
        if not isinstance(rhs, NCPolynomial):
            rhs = NCPolynomial({(): rhs})
        try:
            rules.append(Rule(lhs, rhs))
        except RuleOrderError as exc:
            raise ParseError(exc.message(alphabet.render),
                             line=no, col=col) from None
    return RewriteSystem(alphabet, rules)
