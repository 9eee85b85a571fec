"""Noncommutative rewriting engine built on the diamond lemma.

Monomials are words over an ordered alphabet, compared by degree first and
then lexicographically by generator position (deg-lex).  A rule rewrites its
left-hand monomial to a polynomial whose monomials are all strictly smaller;
that compatibility is enforced at construction and guarantees termination of
reduction, since deg-lex is a well-order that respects concatenation on both
sides.

An ambiguity is a monomial reducible by two rules in two ways: an overlap
(a proper suffix of one left side equals a proper prefix of another) or an
inclusion (one left side occurs inside another; two distinct rules sharing a
left side count as an inclusion too).  The system is confluent when every
ambiguity resolves, i.e. both one-step reducts share a normal form; the
diamond lemma then makes the reduced monomials a linear basis.

The engine is presentation-agnostic: nothing here knows which algebra the
rules present.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .scalars import Combination, ParseError, add_term, parse_scalar

Monomial = Tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_^]*")


class Alphabet:
    """Ordered generator names; list position is the total order."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet needs at least one generator")
        for name in names:
            if not _NAME_RE.fullmatch(name) or name == "q":
                raise ValueError(f"invalid generator name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

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

    @classmethod
    def monomial(cls, m, coeff=1):
        return cls({tuple(m): coeff})

    scaled = Combination.__rmul__

    def __mul__(self, other):
        """Concatenation product."""
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                add_term(out, m1 + m2, c1 * c2)
        return self._of(out)

    def render(self, alphabet):
        return self._render(alphabet.render)


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


@dataclass(frozen=True)
class Rule:
    """lhs monomial -> rhs polynomial, with every rhs monomial < lhs."""

    lhs: Monomial
    rhs: NCPolynomial

    def __post_init__(self):
        if not self.lhs:
            raise ValueError("rule left side must be a nonempty monomial")
        for m in self.rhs.terms:
            if not deglex_less(m, self.lhs):
                raise RuleOrderError(self.lhs, m)

    def render(self, alphabet):
        return f"{alphabet.render(self.lhs)} -> {self.rhs.render(alphabet)}"


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewriteSystem:
    """A rule tuple compiled for matching.

    `index` maps each distinct lhs to the lowest rule index with that lhs;
    `lengths` lists the distinct lhs lengths, longest first.
    """

    rules: Tuple[Rule, ...]
    index: Dict[Monomial, int] = field(init=False, repr=False, compare=False)
    lengths: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rules = tuple(self.rules)
        index = {}
        for i, rule in enumerate(rules):
            index.setdefault(rule.lhs, i)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "lengths",
                           tuple(sorted({len(l) for l in index}, reverse=True)))

    @classmethod
    def of(cls, rules):
        """`rules` itself when already compiled, else its compilation."""
        return rules if isinstance(rules, cls) else cls(rules)


def _find_redex(m, system, strategy):
    """(pos, rule) of the first redex in strategy order, or None.

    At one position at most one lhs of each length matches, so trying the
    lengths longest first picks the deg-lex-largest matching lhs, and the
    index holds the lowest rule index for it.
    """
    n = len(m)
    positions = range(n) if strategy == "leftmost" else range(n - 1, -1, -1)
    index, lengths = system.index, system.lengths
    for pos in positions:
        room = n - pos
        for size in lengths:
            if size <= room:
                idx = index.get(m[pos:pos + size])
                if idx is not None:
                    return pos, system.rules[idx]
    return None


def apply_rule_at(m, rule, pos):
    """One rewriting step on a monomial; the match is assumed."""
    if m[pos:pos + len(rule.lhs)] != rule.lhs:
        raise ValueError("rule does not match at given position")
    a, b = m[:pos], m[pos + len(rule.lhs):]
    return NCPolynomial._of({a + t + b: c for t, c in rule.rhs.terms.items()})


def reduce(p, rules, strategy="leftmost"):
    """Normal form of a polynomial under the rules.

    Terminates for order-compatible rules because every step replaces a
    monomial by strictly smaller ones.  For confluent systems the result is
    strategy-independent; 'leftmost' and 'rightmost' pick which occurrence
    fires first.  `rules` is a rule sequence or a compiled `RewriteSystem`.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    system = RewriteSystem.of(rules)
    work = dict(p.terms)
    done: Dict[Monomial, object] = {}
    while work:
        m = max(work, key=deglex_key)
        c = work.pop(m)
        hit = _find_redex(m, system, strategy)
        if hit is None:
            add_term(done, m, c)
            continue
        pos, rule = hit
        a, b = m[:pos], m[pos + len(rule.lhs):]
        for t, cc in rule.rhs.terms.items():
            add_term(work, a + t + b, c * cc)
    return NCPolynomial._of(done)


# ---------------------------------------------------------------------------
# ambiguities and confluence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ambiguity:
    """A monomial reducible by two rules; kind is 'overlap' or 'inclusion'."""

    kind: str
    i: int
    j: int
    witness: Monomial
    pos_i: int
    pos_j: int

    def render(self, alphabet, rules):
        return (f"{self.kind} ({alphabet.render(rules[self.i].lhs)}, "
                f"{alphabet.render(rules[self.j].lhs)}) "
                f"at {alphabet.render(self.witness)}")


def find_ambiguities(rules):
    """All overlap and inclusion ambiguities, in a deterministic order.

    Overlaps are ordered pairs (a proper suffix of lhs_i equals a proper
    prefix of lhs_j, including i == j); inclusions place the shorter lhs
    inside the longer one, and two distinct rules with identical lhs give a
    single inclusion.
    """
    out = []
    for i, ri in enumerate(rules):
        for j, rj in enumerate(rules):
            li, lj = ri.lhs, rj.lhs
            for k in range(1, min(len(li), len(lj))):
                if li[len(li) - k:] == lj[:k]:
                    out.append(Ambiguity("overlap", i, j,
                                         li + lj[k:], 0, len(li) - k))
            if i == j:
                continue
            if len(lj) < len(li):
                for p in range(len(li) - len(lj) + 1):
                    if li[p:p + len(lj)] == lj:
                        out.append(Ambiguity("inclusion", i, j, li, 0, p))
            elif len(lj) == len(li) and li == lj and i < j:
                out.append(Ambiguity("inclusion", i, j, li, 0, 0))
    out.sort(key=lambda a: (a.kind, deglex_key(a.witness), a.i, a.j))
    return out


def resolve(amb, rules):
    """Reduce the witness along both parent rules; (resolved, residual)."""
    system = RewriteSystem.of(rules)
    rules = system.rules
    r1 = reduce(apply_rule_at(amb.witness, rules[amb.i], amb.pos_i), system)
    r2 = reduce(apply_rule_at(amb.witness, rules[amb.j], amb.pos_j), system)
    residual = r1 - r2
    return residual.is_zero(), residual


@dataclass(frozen=True)
class AmbiguityResult:
    ambiguity: Ambiguity
    resolved: bool
    residual: NCPolynomial


@dataclass
class ConfluenceReport:
    results: List[AmbiguityResult]

    @property
    def ok(self):
        return all(r.resolved for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.resolved]

    def counts(self):
        inc = sum(1 for r in self.results if r.ambiguity.kind == "inclusion")
        return {"inclusion": inc, "overlap": len(self.results) - inc}

    def to_text(self, alphabet, rules):
        lines = []
        for r in self.results:
            a = r.ambiguity
            status = "ok" if r.resolved else f"FAIL residual {r.residual.render(alphabet)}"
            lines.append(f"{a.kind:9s} rules ({a.i:2d},{a.j:2d}) "
                         f"witness {alphabet.render(a.witness):30s} {status}")
        c = self.counts()
        lines.append(f"{len(self.results)} ambiguities "
                     f"({c['inclusion']} inclusion, {c['overlap']} overlap); "
                     f"confluent: {self.ok}")
        return "\n".join(lines)

    def to_payload(self, alphabet):
        return [{
            "kind": r.ambiguity.kind,
            "rules": [r.ambiguity.i, r.ambiguity.j],
            "witness": alphabet.render(r.ambiguity.witness),
            "resolved": r.resolved,
            "residual": r.residual.render(alphabet),
        } for r in self.results]


def confluent(rules):
    """Resolve every ambiguity; report ok plus per-ambiguity residuals."""
    system = RewriteSystem.of(rules)
    results = []
    for amb in find_ambiguities(system.rules):
        ok, residual = resolve(amb, system)
        results.append(AmbiguityResult(amb, ok, residual))
    return ConfluenceReport(results)


# ---------------------------------------------------------------------------
# reduced monomials
# ---------------------------------------------------------------------------


class EnumerationBound(ValueError):
    pass


def _ends_with_lhs(word, system):
    # a suffix longer than the word is the word itself, which is then an lhs
    index = system.index
    return any(word[-size:] in index for size in system.lengths)


def reduced_monomials(rules, alphabet, max_len, limit=10 ** 6):
    """Monomials of length <= max_len with no rule lhs as a factor.

    Canonical (length, lex) order; enumeration aborts past `limit` entries.
    """
    system = RewriteSystem.of(rules)
    out = [()]
    level = [()]
    letters = range(len(alphabet))
    for _ in range(max_len):
        nxt = []
        for w in level:
            for g in letters:
                w2 = w + (g,)
                if not _ends_with_lhs(w2, system):
                    nxt.append(w2)
                    if len(out) + len(nxt) > limit:
                        raise EnumerationBound(
                            f"more than {limit} reduced monomials")
        out.extend(nxt)
        level = nxt
    return out


def is_free_family(rules, alphabet, subset, max_len):
    """Whether all words of length <= max_len over the named generators
    stay reduced.

    The rules must be confluent (checked); the diamond lemma then makes the
    reduced monomials a basis, so an all-reduced family is linearly free.
    A word over the subset contains an lhs only if that lhs is itself a word
    over the subset, so no words need listing: the family is free exactly
    when no lhs of length <= max_len uses only subset letters.
    """
    subset = {alphabet.index(s) for s in subset}
    system = RewriteSystem.of(rules)
    if not confluent(system).ok:
        raise ValueError("rewrite system is not confluent; "
                         "the reduced-monomial basis is unavailable")
    return not any(len(lhs) <= max_len and set(lhs) <= subset
                   for lhs in system.index)


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------


def format_presentation(alphabet, rules):
    lines = ["generators:"]
    lines.extend(alphabet.names)
    lines.append("rules:")
    for rule in rules:
        lines.append(rule.render(alphabet))
    return "\n".join(lines) + "\n"


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
    text = text.strip()
    if not text:
        return None
    names = [t.strip() for t in text.split(".")]
    if all(n in alphabet._index for n in names):
        return tuple(alphabet._index[n] for n in names)
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
                coeff = parse_scalar(chunk[:pos].strip())
            except ParseError as exc:
                raise ParseError(exc.message, line=line_no,
                                 col=col + exc.pos) from None
            return coeff, mono
    try:
        coeff = parse_scalar(chunk)
    except ParseError as exc:
        raise ParseError(f"not a term: {chunk!r} ({exc.message})",
                         line=line_no, col=col) from None
    return coeff, ()


def parse_presentation(text):
    """Parse the presentation file format; returns (alphabet, rules)."""
    names = []
    rule_lines = []
    section = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "generators:":
            section = "generators"
            continue
        if line == "rules:":
            section = "rules"
            continue
        if section == "generators":
            names.append(line)
        elif section == "rules":
            rule_lines.append((no, raw))
        else:
            raise ParseError("expected 'generators:' section first", line=no,
                             col=len(raw) - len(raw.lstrip()) + 1)
    if not names:
        raise ParseError("no generators declared", line=1, col=1)
    alphabet = Alphabet(names)
    rules = []
    for no, raw in rule_lines:
        # column of the first character, which is where the lhs starts
        col = len(raw) - len(raw.lstrip()) + 1
        if "->" not in raw:
            raise ParseError("rule line needs '->'", line=no, col=col)
        arrow = raw.index("->")
        lhs_text, rhs_text = raw[:arrow], raw[arrow + 2:]
        lhs = _try_monomial(lhs_text, alphabet)
        if not lhs:
            raise ParseError(f"invalid rule left side {lhs_text.strip()!r}",
                             line=no, col=col)
        rhs_col = arrow + 3 + len(rhs_text) - len(rhs_text.lstrip())
        rhs = _parse_poly_text(rhs_text.strip(), alphabet, no, rhs_col)
        try:
            rules.append(Rule(lhs, rhs))
        except RuleOrderError as exc:
            raise ParseError(exc.message(alphabet.render),
                             line=no, col=col) from None
    return alphabet, rules
