import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from cosovereign import (Alphabet, EnumerationBound, FusionElement,
                         NCPolynomial, ParseError, RepElement, RewriteSystem,
                         Rule, RuleOrderError, apply_rule_at, confluent,
                         find_ambiguities, format_presentation, is_free_family,
                         parse_presentation, reduce, reduced_monomials,
                         resolve, q)
from cosovereign.rewriting import _find_redex, deglex_key, deglex_less
from cosovereign.scalars import add_term


def mono(alphabet, text):
    return alphabet.word(*text.split("."))


def poly(alphabet, terms):
    return NCPolynomial({mono(alphabet, t) if t else (): c
                         for t, c in terms.items()})


@pytest.fixture
def ab():
    return Alphabet(("a", "b"))


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("ok", "not ok"))
    with pytest.raises(ValueError):
        Alphabet(("q",))
    al = Alphabet(("x1", "X1^22"))
    assert al.index("X1^22") == 1


def test_rule_compatibility_enforced(ab):
    Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))
    # b.a -> a.b is fine, a.b -> b.a is not
    Rule(mono(ab, "b.a"), poly(ab, {"a.b": 1}))
    with pytest.raises(RuleOrderError):
        Rule(mono(ab, "a.b"), poly(ab, {"b.a": 1}))
    with pytest.raises(RuleOrderError):
        Rule(mono(ab, "a"), poly(ab, {"a": 1}))
    with pytest.raises(ValueError):
        Rule((), NCPolynomial())


def test_single_rule_no_ambiguities(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))]
    assert find_ambiguities(rules) == []
    assert confluent(rules).ok


def test_two_rule_overlaps(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)})),
             Rule(mono(ab, "b.a"), NCPolynomial({(): Fraction(1)}))]
    ambs = find_ambiguities(rules)
    assert len(ambs) == 2
    witnesses = {ab.render(a.witness) for a in ambs}
    assert witnesses == {"a.b.a", "b.a.b"}
    assert all(a.kind == "overlap" for a in ambs)
    assert confluent(rules).ok  # the free group on one generator


def test_inclusion_with_duplicate_lhs(ab):
    r1 = Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))
    r2 = Rule(mono(ab, "a.b"), poly(ab, {"a.a": 1}))
    ambs = find_ambiguities([r1, r2])
    assert [a.kind for a in ambs] == ["inclusion"]
    ok, residual = resolve(ambs[0], [r1, r2])
    assert not ok
    assert residual == poly(ab, {"": 1, "a.a": -1})


def test_inclusion_proper_factor(ab):
    r1 = Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))
    r2 = Rule(mono(ab, "b"), poly(ab, {"a": 1}))
    ambs = find_ambiguities([r1, r2])
    assert [a.kind for a in ambs] == ["inclusion"]
    report = confluent([r1, r2])
    assert not report.ok
    fail = report.failures()[0]
    assert fail.residual == poly(ab, {"": 1, "a.a": -1})


def test_reduce_basics(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))]
    p = poly(ab, {"a.a.b": 2, "b": 1})
    out = reduce(p, rules)
    assert out == poly(ab, {"a": 2, "b": 1})
    # idempotent
    assert reduce(out, rules) == out
    # already reduced monomial is a fixpoint
    assert reduce(poly(ab, {"b.a": 1}), rules) == poly(ab, {"b.a": 1})


def test_reduce_empty_rule_list(ab):
    p = poly(ab, {"a.b": 1})
    assert reduce(p, []) == p


def test_apply_rule_at(ab):
    rule = Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))
    out = apply_rule_at(mono(ab, "b.a.b.a"), rule, 1)
    assert out == poly(ab, {"b.a": 1})
    with pytest.raises(ValueError):
        apply_rule_at(mono(ab, "b.a.b.a"), rule, 0)


def _slq2_rules():
    from cosovereign import build_slq2
    return build_slq2(q)


def test_strategy_independence_on_confluent_system():
    spec = _slq2_rules()
    rng = random.Random(9)
    letters = range(4)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(6)))
            terms[w] = terms.get(w, 0) + Fraction(rng.randrange(-3, 4))
        p = NCPolynomial(terms)
        left = reduce(p, spec.rules, strategy="leftmost")
        right = reduce(p, spec.rules, strategy="rightmost")
        assert left == right


def test_reduce_linearity():
    spec = _slq2_rules()
    rng = random.Random(29)
    for _ in range(30):
        def rand_poly():
            return NCPolynomial({
                tuple(rng.choice(range(4)) for _ in range(rng.randrange(5))):
                Fraction(rng.randrange(-3, 4)) for _ in range(3)})
        p, r = rand_poly(), rand_poly()
        c = Fraction(rng.randrange(-3, 4))
        lhs = reduce(p + r.scaled(c), spec.rules)
        rhs = reduce(p, spec.rules) + reduce(r, spec.rules).scaled(c)
        assert lhs == rhs


def test_reduced_monomials(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))]
    monos = reduced_monomials(rules, ab, 2)
    assert [ab.render(m) for m in monos] == ["1", "a", "b", "a.a", "b.a", "b.b"]
    assert reduced_monomials([], ab, 0) == [()]


def test_reduced_monomials_guard(ab):
    with pytest.raises(EnumerationBound):
        reduced_monomials([], ab, 25, limit=1000)


def test_is_free_family(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)})),
             Rule(mono(ab, "b.a"), NCPolynomial({(): Fraction(1)}))]
    assert is_free_family(rules, ab, ["a"], 5)
    assert not is_free_family(rules, ab, ["a", "b"], 2)
    assert is_free_family(rules, ab, [], 4)
    bad = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)})),
           Rule(mono(ab, "b"), poly(ab, {"a": 1}))]
    with pytest.raises(ValueError, match="not confluent"):
        is_free_family(bad, ab, ["a"], 2)


def test_presentation_round_trip():
    from cosovereign import build_hq, build_hef, ExactMatrix
    for spec in (build_hq(q), build_hq(Fraction(3, 2)),
                 build_hef(ExactMatrix.diagonal([1, 2]),
                           ExactMatrix([[1, 0], [1, 2]]))):
        text = format_presentation(spec.alphabet, spec.rules)
        alphabet, rules = parse_presentation(text)
        assert alphabet == spec.alphabet
        assert tuple(rules) == spec.rules


def test_parse_presentation_errors():
    with pytest.raises(ParseError, match="generators"):
        parse_presentation("rules:\na -> 1\n")
    with pytest.raises(ParseError, match="->"):
        parse_presentation("generators:\na\nrules:\na = 1\n")
    with pytest.raises(ParseError, match="left side"):
        parse_presentation("generators:\na\nrules:\nc -> 1\n")
    with pytest.raises(ParseError):
        parse_presentation("generators:\na\nrules:\na.a -> 2*z\n")


@pytest.mark.parametrize("rules, line, col, message", [
    ("  c -> 1", 4, 3, "left side 'c'"),
    ("a.a -> a + 2*z", 4, 12, "not a term: '2*z'"),
    ("a.a ->  a - 1/0*a", 4, 16, "zero denominator"),
    ("a.a -> a +", 4, 10, "empty term"),
    ("a.a -> 1\n   a -> a.a", 5, 4, "not order-compatible"),
])
def test_parse_presentation_error_columns(rules, line, col, message):
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse_presentation(f"generators:\na\nrules:\n{rules}\n")
    assert (exc.value.line, exc.value.col) == (line, col)


def test_parse_presentation_terms():
    text = """
generators:
a
b
rules:
b.a -> (q^2)*a.b - 1/2*a + 3
"""
    alphabet, rules = parse_presentation(text)
    rhs = rules[0].rhs
    assert rhs.coefficient(alphabet.word("a", "b")) == q ** 2
    assert rhs.coefficient(alphabet.word("a")) == Fraction(-1, 2)
    assert rhs.coefficient(()) == 3


def test_ncpolynomial_rejects_floats():
    # every Combination subclass shares the check; one key type each
    for cls, key in ((NCPolynomial, (0,)), (FusionElement, "ab"),
                     (RepElement, (("Z", 1),))):
        with pytest.raises(TypeError, match="inexact"):
            cls({key: 0.5})
        with pytest.raises(TypeError, match="inexact"):
            0.5 * cls({key: 1})
        # a Fraction stays exact instead of being truncated to 0
        half = cls({key: Fraction(1, 2)})
        assert not half.is_zero() and half.coefficient(key) == Fraction(1, 2)


# -- the indexed matcher against a linear scan over every rule --------------


def _scan_match_at(m, pos, rules):
    """Best rule matching at pos: deg-lex-largest lhs, then lowest index."""
    best = None
    for idx, rule in enumerate(rules):
        l = rule.lhs
        if m[pos:pos + len(l)] == l:
            if best is None or deglex_less(rules[best].lhs, l):
                best = idx
    return best


def _scan_find_redex(m, rules, strategy):
    positions = range(len(m)) if strategy == "leftmost" else range(len(m) - 1, -1, -1)
    for pos in positions:
        idx = _scan_match_at(m, pos, rules)
        if idx is not None:
            return pos, rules[idx]
    return None


def _scan_reduce(p, rules, strategy):
    work = dict(p.terms)
    done = {}
    while work:
        m = max(work, key=deglex_key)
        c = work.pop(m)
        hit = _scan_find_redex(m, rules, strategy)
        if hit is None:
            add_term(done, m, c)
            continue
        pos, rule = hit
        a, b = m[:pos], m[pos + len(rule.lhs):]
        for t, cc in rule.rhs.terms.items():
            add_term(work, a + t + b, c * cc)
    return NCPolynomial(done)


_LETTERS = 3
_words = st.lists(st.integers(0, _LETTERS - 1), max_size=7).map(tuple)


@st.composite
def _rule_systems(draw):
    """Order-compatible rules over three letters; some lhs are repeated and
    some sit inside others."""
    lhss = draw(st.lists(st.lists(st.integers(0, _LETTERS - 1), min_size=1,
                                  max_size=4).map(tuple),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        l = draw(st.sampled_from(lhss))
        lo = draw(st.integers(0, len(l) - 1))
        hi = draw(st.integers(lo + 1, len(l)))
        lhss.insert(draw(st.integers(0, len(lhss))), l[lo:hi])
    for _ in range(draw(st.integers(0, 2))):
        lhss.insert(draw(st.integers(0, len(lhss))), draw(st.sampled_from(lhss)))
    rules = []
    for l in lhss:
        smaller = draw(st.lists(
            st.lists(st.integers(0, _LETTERS - 1), max_size=len(l)).map(tuple)
            .filter(lambda m, l=l: deglex_less(m, l)), max_size=3))
        rhs = NCPolynomial({m: Fraction(draw(st.integers(-3, 3)))
                            for m in smaller})
        rules.append(Rule(l, rhs))
    return rules


@seed(1978)
@settings(max_examples=150, deadline=None, database=None)
@given(_rule_systems(), st.lists(_words, min_size=1, max_size=6),
       st.sampled_from(["leftmost", "rightmost"]))
def test_indexed_redex_matches_linear_scan(rules, words, strategy):
    system = RewriteSystem(rules)
    for m in words:
        assert _find_redex(m, system, strategy) == \
            _scan_find_redex(m, rules, strategy)
    p = NCPolynomial({m: Fraction(i + 1) for i, m in enumerate(words)})
    assert reduce(p, system, strategy) == _scan_reduce(p, rules, strategy)
    assert reduce(p, rules, strategy) == _scan_reduce(p, rules, strategy)


def test_compiled_system_is_accepted_everywhere(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)})),
             Rule(mono(ab, "b.a"), NCPolynomial({(): Fraction(1)})),
             Rule(mono(ab, "a.b"), poly(ab, {"a": 1}))]
    system = RewriteSystem(rules)
    assert system.index == {mono(ab, "a.b"): 0, mono(ab, "b.a"): 1}
    assert RewriteSystem.of(system) is system
    p = poly(ab, {"a.b.a": 1})
    assert reduce(p, system) == reduce(p, rules)
    assert confluent(system).to_payload(ab) == confluent(rules).to_payload(ab)
    assert reduced_monomials(system, ab, 3) == reduced_monomials(rules, ab, 3)


def _free_by_enumeration(rules, alphabet, subset, max_len):
    """Reference for `is_free_family` on a confluent system: extend every
    word over the subset one letter at a time and test whether it now ends
    with an lhs (its shorter prefixes were tested one level earlier)."""
    subset = [alphabet.index(s) for s in subset]
    lhss = {r.lhs for r in rules}
    level = [()]
    for _ in range(max_len):
        level = [w + (g,) for w in level for g in subset]
        if any(w[-len(l):] == l for w in level for l in lhss):
            return False
    return True


@st.composite
def _monomial_systems(draw):
    """Rules lhs -> 0 over up to four letters (always confluent: both sides
    of every ambiguity reduce to 0), a subset of names and a length."""
    alphabet = Alphabet(f"g{i}" for i in range(draw(st.integers(1, 4))))
    letters = st.integers(0, len(alphabet) - 1)
    lhss = draw(st.lists(st.lists(letters, min_size=1, max_size=4).map(tuple),
                         max_size=6))
    subset = draw(st.lists(st.sampled_from(alphabet.names),
                           max_size=len(alphabet)))
    return (alphabet, [Rule(l, NCPolynomial()) for l in lhss], subset,
            draw(st.integers(0, 5)))


@seed(1978)
@settings(max_examples=200, deadline=None, database=None)
@given(_monomial_systems())
def test_free_family_matches_enumeration_on_monomial_systems(case):
    alphabet, rules, subset, max_len = case
    assert is_free_family(rules, alphabet, subset, max_len) == \
        _free_by_enumeration(rules, alphabet, subset, max_len)


def test_free_family_matches_enumeration_on_presets():
    from cosovereign import (ExactMatrix, build_freeprod, build_hef,
                             build_hplusq, build_hq, build_slq2)
    specs = [build_hq(q), build_hplusq(Fraction(3, 2)), build_freeprod(q),
             build_slq2(q),
             build_hef(ExactMatrix.diagonal([1, 2]),
                       ExactMatrix([[1, 0], [1, 2]]))]
    rng = random.Random(1978)
    answers = set()
    for spec in specs:
        system = RewriteSystem(spec.rules)
        for _ in range(40):
            subset = rng.sample(spec.alphabet.names, rng.randint(1, 3))
            max_len = rng.randint(0, 4)
            free = is_free_family(system, spec.alphabet, subset, max_len)
            assert free == _free_by_enumeration(spec.rules, spec.alphabet,
                                                subset, max_len)
            answers.add(free)
    assert answers == {True, False}


def test_free_family_takes_names_only(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))]
    with pytest.raises(KeyError, match="unknown generator"):
        is_free_family(rules, ab, [1], 2)
