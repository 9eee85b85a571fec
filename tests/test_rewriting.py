import itertools
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from cosovereign import (Alphabet, EnumerationBound, ExactMatrix,
                         FusionElement, NCPolynomial, ParseError, RatFunc,
                         RepElement, RewriteSystem, Rule, RuleOrderError,
                         build_freeprod, build_hef, build_hplusq, build_hq,
                         build_slq2, check_morphism, confluent,
                         find_ambiguities, is_free_family, parse_presentation,
                         parse_scalar, reduce, reduced_monomials, resolve, q)
from cosovereign import rewriting
from cosovereign.rewriting import _leftmost, deglex_less, orient
from _helpers import (LONG_LITERAL, apply_rule_at, is_confluent,
                      needs_digit_limit, random_hef_pair, random_reduce,
                      random_scalar, reference_parse_rhs, reference_resolve,
                      rhs_texts, scan_ambiguities, scan_find_redex,
                      scan_reduce)


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


def test_orient_picks_the_deglex_leading_monomial(ab):
    # b.a leads a.b (same degree, larger first letter) and a.a.a leads both
    rule = orient(poly(ab, {"a.b": 1, "b.a": -1, "": 2}))
    assert rule == Rule(mono(ab, "b.a"), poly(ab, {"a.b": 1, "": 2}))
    rule = orient(poly(ab, {"b.b": 1, "a.a.a": 3, "a": 1}))
    assert rule.lhs == mono(ab, "a.a.a")


@pytest.mark.parametrize("lead,scale", [
    (Fraction(2, 3), Fraction(-3, 2)), (4, Fraction(-1, 4)), (q, -q ** -1)])
def test_orient_divides_exactly_by_the_leading_coefficient(ab, lead, scale):
    rule = orient(NCPolynomial({mono(ab, "b.a"): lead, mono(ab, "a"): 1,
                                (): Fraction(1, 2)}))
    assert rule.rhs == NCPolynomial({mono(ab, "a"): scale,
                                     (): Fraction(1, 2) * scale})
    for c in rule.rhs.terms.values():
        assert type(c) is type(scale)


def test_orient_rejects_zero_and_constant_relations(ab):
    with pytest.raises(ValueError, match="zero relation"):
        orient(NCPolynomial())
    with pytest.raises(ValueError, match="nonempty monomial"):
        orient(NCPolynomial({(): Fraction(3)}))


def test_records_keep_fields_repr_and_immutability(ab):
    rule = Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))
    assert repr(rule) == ("Rule(lhs=(0, 1), "
                          "rhs=NCPolynomial({(): Fraction(1, 1)}))")
    twin = Rule((0, 1), NCPolynomial({(): Fraction(1)}))
    assert rule == twin and hash(rule) == hash(twin)
    amb = find_ambiguities([rule, Rule((1, 0), NCPolynomial())])[0]
    assert repr(amb) == ("Ambiguity(kind='overlap', i=0, j=1, "
                         "witness=(0, 1, 0), pos_j=1)")
    for record, field in ((rule, "lhs"), (amb, "witness")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_rewrite_system_rejects_letters_outside_alphabet(ab):
    with pytest.raises(ValueError, match="rule 0 uses a letter outside"):
        RewriteSystem(Alphabet(["a"]), [Rule((0, 5), NCPolynomial())])
    ok = Rule((1, 1), NCPolynomial({(0,): Fraction(1)}))
    with pytest.raises(ValueError, match="rule 1 uses a letter outside"):
        RewriteSystem(ab, [ok, Rule((1, 1), NCPolynomial({(2,): 1}))])
    with pytest.raises(ValueError, match="outside"):
        RewriteSystem(ab, [Rule((-1, 0), NCPolynomial())])
    assert RewriteSystem(ab, [ok]).export() == \
        "generators:\na\nb\nrules:\nb.b -> a\n"


def test_single_rule_no_ambiguities(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))]
    assert find_ambiguities(rules) == []
    assert is_confluent(confluent(RewriteSystem(ab, rules))[1])


def test_two_rule_overlaps(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)})),
             Rule(mono(ab, "b.a"), NCPolynomial({(): Fraction(1)}))]
    ambs = find_ambiguities(rules)
    assert len(ambs) == 2
    witnesses = {ab.render(a.witness) for a in ambs}
    assert witnesses == {"a.b.a", "b.a.b"}
    assert all(a.kind == "overlap" for a in ambs)
    # the free group on one generator
    assert is_confluent(confluent(RewriteSystem(ab, rules))[1])


def test_inclusion_with_duplicate_lhs(ab):
    r1 = Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))
    r2 = Rule(mono(ab, "a.b"), poly(ab, {"a.a": 1}))
    ambs = find_ambiguities([r1, r2])
    assert [a.kind for a in ambs] == ["inclusion"]
    ok, residual = resolve(ambs[0], RewriteSystem(ab, [r1, r2]))
    assert not ok
    assert residual == poly(ab, {"": 1, "a.a": -1})


def test_inclusion_proper_factor(ab):
    r1 = Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))
    r2 = Rule(mono(ab, "b"), poly(ab, {"a": 1}))
    ambs = find_ambiguities([r1, r2])
    assert [a.kind for a in ambs] == ["inclusion"]
    _, checks = confluent(RewriteSystem(ab, [r1, r2]))
    assert not is_confluent(checks)
    fail, = [r for _, r in checks if not r.is_zero()]
    assert fail == poly(ab, {"": 1, "a.a": -1})


def test_reduce_basics(ab):
    rules = RewriteSystem(
        ab, [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))])
    p = poly(ab, {"a.a.b": 2, "b": 1})
    out = reduce(p, rules)
    assert out == poly(ab, {"a": 2, "b": 1})
    # idempotent
    assert reduce(out, rules) == out
    # already reduced monomial is a fixpoint
    assert reduce(poly(ab, {"b.a": 1}), rules) == poly(ab, {"b.a": 1})


def test_reduce_empty_rule_list(ab):
    p = poly(ab, {"a.b": 1})
    assert reduce(p, RewriteSystem(ab, [])) == p


def test_apply_rule_at(ab):
    rule = Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))
    out = apply_rule_at(mono(ab, "b.a.b.a"), rule, 1)
    assert out == poly(ab, {"b.a": 1})
    with pytest.raises(ValueError):
        apply_rule_at(mono(ab, "b.a.b.a"), rule, 0)


def test_reduce_linearity():
    spec = build_slq2(q)
    rng = random.Random(29)
    for _ in range(30):
        def rand_poly():
            return NCPolynomial({
                tuple(rng.choice(range(4)) for _ in range(rng.randrange(5))):
                Fraction(rng.randrange(-3, 4)) for _ in range(3)})
        p, r = rand_poly(), rand_poly()
        c = Fraction(rng.randrange(-3, 4))
        lhs = reduce(p + c * r, spec)
        rhs = reduce(p, spec) + c * reduce(r, spec)
        assert lhs == rhs


def test_reduced_monomials(ab):
    rules = RewriteSystem(
        ab, [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))])
    monos = reduced_monomials(rules, 2)
    assert [ab.render(m) for m in monos] == ["1", "a", "b", "a.a", "b.a", "b.b"]
    assert reduced_monomials(RewriteSystem(ab, []), 0) == [()]


def test_reduced_monomials_guard(ab, monkeypatch):
    monkeypatch.setattr(rewriting, "BASIS_MAX_SIZE", 1000)
    with pytest.raises(EnumerationBound,
                       match="^more than 1000 reduced monomials$"):
        reduced_monomials(RewriteSystem(ab, []), 25)


def test_is_free_family(ab):
    rules = RewriteSystem(
        ab, [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)})),
             Rule(mono(ab, "b.a"), NCPolynomial({(): Fraction(1)}))])
    assert is_free_family(rules, ["a"], 5)
    assert not is_free_family(rules, ["a", "b"], 2)
    assert is_free_family(rules, [], 4)
    bad = RewriteSystem(
        ab, [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)})),
             Rule(mono(ab, "b"), poly(ab, {"a": 1}))])
    with pytest.raises(ValueError, match="not confluent"):
        is_free_family(bad, ["a"], 2)


def test_presentation_round_trip():
    from cosovereign import (ExactMatrix, build_freeprod, build_hef,
                             build_hplusq, build_hq, build_slq2)
    specs = [build_hef(ExactMatrix.diagonal([1, 2]),
                       ExactMatrix([[1, 0], [1, 2]]))]
    for qv in (q, Fraction(3, 2)):
        specs += [builder(qv) for builder in
                  (build_hq, build_hplusq, build_slq2, build_freeprod)]
    for spec in specs:
        parsed = parse_presentation(spec.export())
        assert parsed.alphabet == spec.alphabet
        assert parsed.rules == spec.rules


def test_parse_presentation_errors():
    with pytest.raises(ParseError, match="generators"):
        parse_presentation("rules:\na -> 1\n")
    with pytest.raises(ParseError, match="generators") as exc:
        parse_presentation("# rules first\nrules:\ngenerators:\na\n")
    assert (exc.value.line, exc.value.col) == (2, 1)
    with pytest.raises(ParseError, match="->"):
        parse_presentation("generators:\na\nrules:\na = 1\n")
    with pytest.raises(ParseError, match="left side"):
        parse_presentation("generators:\na\nrules:\nc -> 1\n")
    with pytest.raises(ParseError):
        parse_presentation("generators:\na\nrules:\na.a -> 2*z\n")


@pytest.mark.parametrize("rules, line, col, message", [
    ("  c -> 1", 4, 3, "left side 'c'"),
    ("a.zz -> 1", 4, 1, "invalid rule left side 'a.zz'"),
    (" a . zz -> 1", 4, 2, "invalid rule left side 'a . zz'"),
    ("a. -> 1", 4, 1, "invalid rule left side 'a.'"),
    ("   -> 1", 4, 4, "invalid rule left side ''"),
    ("a.a -> a + 2*z", 4, 12, "not a term: '2*z'"),
    ("a.a ->  a - 1/0*a", 4, 16, "zero denominator"),
    ("a.a -> a +", 4, 10, "empty term"),
    ("a.a.a -> 1\na.a -> a/a", 5, 9, "divisor must be a scalar"),
    ("a.a -> 1\n   a -> a.a", 5, 4, "not order-compatible"),
    ("a.a -> 1\ngenerators:\nb", 5, 1, "repeated 'generators:' header"),
    ("a.a -> 1\n\trules:", 5, 2, "repeated 'rules:' header"),
])
def test_parse_presentation_error_columns(rules, line, col, message):
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse_presentation(f"generators:\na\nrules:\n{rules}\n")
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("generators, line, col, message", [
    ("q", 2, 1, "invalid generator name 'q'"),
    ("a\n1a", 3, 1, "invalid generator name '1a'"),
    ("  a b", 2, 3, "invalid generator name 'a b'"),
    ("a\n b\n\n   a", 5, 4, "duplicate generator name 'a'"),
    ("a\n  generators:\nb", 3, 3, "repeated 'generators:' header"),
    ("q^2", 2, 1, "invalid generator name 'q^2'"),
])
def test_parse_presentation_generator_error_columns(generators, line, col,
                                                    message):
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse_presentation(f"generators:\n{generators}\nrules:\n")
    assert (exc.value.line, exc.value.col) == (line, col)


def test_parse_presentation_left_sides_allow_spaces_around_dots():
    system = parse_presentation(
        "generators:\na\nb\nrules:\na . b -> a\n b.\tb  -> a . a\n")
    word = system.alphabet.word
    assert [r.lhs for r in system.rules] == [word("a", "b"), word("b", "b")]
    assert system.rules[1].rhs == NCPolynomial({word("a", "a"): 1})


def test_parse_presentation_terms():
    text = """
generators:
a
b
rules:
b.a -> (q^2)*a.b - 1/2*a + 3
"""
    system = parse_presentation(text)
    alphabet, rules = system.alphabet, system.rules
    rhs = rules[0].rhs
    assert rhs.coefficient(alphabet.word("a", "b")) == q ** 2
    assert rhs.coefficient(alphabet.word("a")) == Fraction(-1, 2)
    assert rhs.coefficient(()) == 3


def test_parse_presentation_reads_q_powers_and_empty_sides():
    system = parse_presentation(
        "generators:\na\nb\nrules:\nb.a -> q^-1*a.b\na.a ->\n")
    ab = system.alphabet.word("a", "b")
    assert system.rules[0].rhs == NCPolynomial({ab: q ** -1})
    assert system.rules[1].rhs == NCPolynomial()


@pytest.mark.parametrize("rhs, message", [
    ("0.5", "'.' joins"), ("1.5*a", "'.' joins"), ("2.a", "'.' joins"),
    ("a.2", "'.' joins"), ("(" * 1000 + "a" + ")" * 1000, "nested deeper"),
    ("-" * 1000 + "a", "nested deeper"),
    ("a*q^10000*q^10000", "q degree beyond 10000")],
    ids=["0.5", "1.5*a", "2.a", "a.2", "parentheses", "signs", "q-degree"])
def test_parse_presentation_rejects_floats_and_deep_nesting(rhs, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_presentation(f"generators:\na\nb\nrules:\nb.a -> {rhs}\n")
    assert exc.value.line == 5


@needs_digit_limit
@pytest.mark.parametrize("rhs", [f"{LONG_LITERAL}*a", f"a - q^{LONG_LITERAL}"])
def test_overlong_literal_in_a_right_side_is_a_parse_error(rhs):
    with pytest.raises(ParseError, match="too many digits") as exc:
        parse_presentation(f"generators:\na\nb\nrules:\nb.a -> {rhs}\n")
    assert (exc.value.line, exc.value.col) == (5, 8 + rhs.index(LONG_LITERAL))


_GENERATORS = ["b", "a", "qa", "x1", "c^2"]


@seed(2002)
@settings(max_examples=300, deadline=None, database=None)
@given(rhs_texts(_GENERATORS))
def test_rule_right_sides_match_reference(text):
    alphabet = Alphabet(_GENERATORS)
    try:
        expected = reference_parse_rhs(text, alphabet)
    except ParseError:
        return
    lines = ["generators:", *_GENERATORS, "rules:",
             f"c^2.c^2.c^2.c^2 -> {text}"]
    rhs = parse_presentation("\n".join(lines)).rules[0].rhs
    assert rhs == expected
    assert rhs.render(alphabet) == expected.render(alphabet)


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
        for c in (1j, Decimal("0.5"), "2"):
            with pytest.raises(TypeError, match="inexact"):
                cls({key: c})
            with pytest.raises(TypeError, match="inexact"):
                c * cls({key: 1})
    # an int stays an int, so fusion multiplicities stay JSON-ready
    assert type(FusionElement({"ab": 2}).coefficient("ab")) is int


# -- the engine against reducers written apart from it ----------------------


_LETTERS = 3
_words = st.lists(st.integers(0, _LETTERS - 1), max_size=7).map(tuple)


@st.composite
def _rule_systems(draw, coefficients=st.integers(-3, 3).map(Fraction)):
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
        rhs = NCPolynomial({m: draw(coefficients) for m in smaller})
        rules.append(Rule(l, rhs))
    return rules


@seed(1978)
@settings(max_examples=150, deadline=None, database=None)
@given(_rule_systems(), st.lists(_words, min_size=1, max_size=6))
def test_indexed_redex_matches_linear_scan(rules, words):
    system = RewriteSystem(Alphabet(("a", "b", "c")), rules)
    for m in words:
        hit = _leftmost(m, system.index, system.lengths)
        found = hit and (hit[0], system.rules[hit[2]])
        assert found == scan_find_redex(m, rules)
    p = NCPolynomial({m: Fraction(i + 1) for i, m in enumerate(words)})
    assert reduce(p, system) == scan_reduce(p, rules)


#: Coefficients that `reduce` carries as integral Laurent polynomials over
#: one shared denominator, and true quotients, which it keeps as scalars.
_CLEARABLE = (1, -1, 2, Fraction(-5, 3), Fraction(7, 2),
              Fraction(3, 2) * q ** -2, q, 2 * q ** 3 - Fraction(1, 4),
              3 - q ** -1)
_QUOTIENTS = (1 / (q + 1), Fraction(2, 3) * (q ** 2 + 1) / (q - 2))


@st.composite
def _mixed_systems(draw):
    """`_rule_systems` with coefficients of every kind; in some draws one
    coefficient is a true quotient, so that the system does not clear."""
    rules = draw(_rule_systems(st.sampled_from(_CLEARABLE)))
    with_rhs = [i for i, rule in enumerate(rules) if rule.rhs.terms]
    if with_rhs and draw(st.booleans()):
        i = draw(st.sampled_from(with_rhs))
        terms = dict(rules[i].rhs.terms)
        terms[draw(st.sampled_from(sorted(terms)))] = draw(
            st.sampled_from(_QUOTIENTS))
        rules[i] = Rule(rules[i].lhs, NCPolynomial(terms))
    return rules


_A, _B = (0,), (1,)


@seed(1978)
@settings(max_examples=150, deadline=None, database=None)
@given(_mixed_systems(),
       st.lists(st.tuples(_words, st.sampled_from(_CLEARABLE + _QUOTIENTS)),
                min_size=1, max_size=6))
# a quotient input into a system that clears
@example([Rule(_B + _A, NCPolynomial({_A + _B: q, _A: Fraction(7, 2)}))],
         [(_B + _A, _QUOTIENTS[0]), (_B + _B + _A, Fraction(-5, 3))])
# a system with a quotient coefficient
@example([Rule(_B + _A, NCPolynomial({_A + _B: _QUOTIENTS[1], _A: 2}))],
         [(_B + _B + _A, Fraction(3, 2) * q ** -2)])
def test_reduce_matches_linear_scan_in_both_rings(rules, terms):
    """`reduce` and `resolve` against `scan_reduce` on rules and inputs with
    int, rational and Laurent coefficients, and sometimes a quotient."""
    system = RewriteSystem(Alphabet(("a", "b", "c")), rules)
    p = NCPolynomial(terms)
    assert reduce(p, system) == scan_reduce(p, rules)
    for amb in find_ambiguities(rules):
        assert resolve(amb, system)[1] == reference_resolve(amb, rules)


#: (e, c, full): a power c*q^e of an input coefficient, and whether the
#: reduct subtracted from it cancels that power fully or only partly.
_powers = st.lists(st.tuples(st.integers(-3, 3),
                             st.sampled_from((1, -1, 2, Fraction(-5, 3),
                                              Fraction(7, 2))),
                             st.booleans()),
                   min_size=2, max_size=4, unique_by=lambda t: t[0])


@seed(1978)
@settings(max_examples=150, deadline=None, database=None)
@given(_rule_systems(st.sampled_from(_CLEARABLE)), _words, _powers)
# q^-1 cancels fully and -5/3*q^2 partly, at a.b and at a
@example([Rule(_B + _A, NCPolynomial({_A + _B: q, _A: Fraction(7, 2)}))],
         _B + _A, [(-1, 1, True), (2, Fraction(-5, 3), False)])
def test_reduce_cancels_powers_of_q_on_one_monomial(rules, m, powers):
    """`reduce` against `scan_reduce` on L*m - L'*r, where L is a Laurent
    coefficient of 2-4 terms, r the one-step reduct of m at its leftmost
    redex (m itself when it has none), and L' agrees with L on the powers
    marked full and is twice it on the others, so that as m is rewritten
    some powers of q cancel in the work fully and some partly."""
    system = RewriteSystem(Alphabet(("a", "b", "c")), rules)
    coeff = sum(c * q ** e for e, c, _ in powers)
    other = sum((c if full else 2 * c) * q ** e for e, c, full in powers)
    hit = scan_find_redex(m, rules)
    reduct = (apply_rule_at(m, hit[1], hit[0]) if hit
              else NCPolynomial.monomial(m))
    p = NCPolynomial({m: coeff}) - NCPolynomial({(): other}) * reduct
    assert reduce(p, system) == scan_reduce(p, rules)
    assert reduce(p, system) == scan_reduce(
        NCPolynomial({m: coeff - other}), rules)


@pytest.mark.parametrize("size", [3, 4])
def test_reduce_matches_linear_scan_on_hef(size):
    """`reduce` against `scan_reduce` on random polynomials in H(E, F)
    with rational and symbolic-q entries, and on the differences of the
    one-step reducts of its ambiguities, which do not reduce to zero when
    E and F fail the trace conditions."""
    rng = random.Random(size)
    kinds = set()
    for _ in range(8):
        e, f, unchecked = random_hef_pair(rng, size, size)
        system = build_hef(e, f, unchecked=unchecked)
        rules = system.rules
        lhss = [r.lhs for r in rules]
        letters = range(len(system.alphabet))

        def word():
            # lhs factors make reductions chain
            return sum((rng.choice(lhss) if rng.random() < 0.6
                        else (rng.choice(letters),)
                        for _ in range(rng.randint(1, 3))), ())

        for _ in range(6):
            p = NCPolynomial({word(): random_scalar(rng, True)
                              for _ in range(rng.randint(1, 4))})
            assert reduce(p, system) == scan_reduce(p, rules)
        ambs = find_ambiguities(rules)
        picked = [a for a in ambs if a.kind == "inclusion"]
        picked += rng.sample([a for a in ambs if a.kind == "overlap"], 6)
        nonzero = False
        for amb in picked:
            w = amb.witness
            p = (apply_rule_at(w, rules[amb.i], 0)
                 - apply_rule_at(w, rules[amb.j], amb.pos_j))
            residual = reduce(p, system)
            assert residual == scan_reduce(p, rules)
            nonzero = nonzero or not residual.is_zero()
        assert nonzero == unchecked
        kinds.add((unchecked, e.mode == "q" or f.mode == "q"))
    assert len(kinds) == 4


def _hef(e_diagonal, f_rows):
    """H(E, F), unchecked, for E diagonal and F lower-triangular, their
    entries given as text."""
    return build_hef(
        ExactMatrix.diagonal([parse_scalar(x) for x in e_diagonal]),
        ExactMatrix([[parse_scalar(x) for x in row] for row in f_rows]),
        unchecked=True)


#: E's diagonal and F's rows of pairs that fail the trace conditions.
_MISMATCHED = {
    "rational-2x2": (["1/2", "3"], [["2/3", "0"], ["5/7", "-3/2"]]),
    "rational-3x3": (["-5/3", "7/2", "1"],
                     [["2", "0", "0"], ["1/3", "-1/4", "0"],
                      ["3/5", "0", "7/2"]]),
    "laurent-2x2": (["q", "2*q^-1"], [["q", "0"], ["1/2", "3*q^-1"]]),
    "laurent-3x3": (["q", "3/2*q^-2", "-1"],
                    [["q^2", "0", "0"], ["1/3", "q^-1", "0"],
                     ["q", "2/5", "7/2"]]),
    "quotient-2x2": (["(q^2+1)/(q-2)", "q"],
                     [["(q^2+1)/(q-2)", "0"], ["1/(q+1)", "q^2"]]),
    "quotient-3x3": (["(q^2+1)/(q-2)", "q", "2/(q+3)"],
                     [["(q^2+1)/(q-2)", "0", "0"], ["1/(q+1)", "q", "0"],
                      ["q^2", "(q-1)/(q+2)", "1/(q+3)"]]),
}


@pytest.mark.parametrize("e_diagonal, f_rows", list(_MISMATCHED.values()),
                         ids=list(_MISMATCHED))
def test_nonzero_residuals_stay_exact(e_diagonal, f_rows):
    """Every residual of a mismatched pair equals the difference of the two
    reducts' normal forms, each reduced by `scan_reduce`."""
    system = _hef(e_diagonal, f_rows)
    rules, unresolved = system.rules, 0
    for amb in find_ambiguities(rules):
        resolved, residual = resolve(amb, system)
        expected = reference_resolve(amb, rules)
        assert residual == expected and resolved == expected.is_zero()
        assert (residual.render(system.alphabet)
                == expected.render(system.alphabet))
        unresolved += not resolved
    assert unresolved


def test_quotient_images_into_a_laurent_target():
    """A relation whose image has quotient coefficients reduces in a target
    whose rules all clear, as `scan_reduce` reduces it."""
    target = _hef(*_MISMATCHED["laurent-2x2"])
    assert target.cleared is not None
    images = [NCPolynomial.monomial((g,), 1 / (q + 1) if g % 2 else q - 2)
              for g in range(len(target.alphabet))]
    relations = target.relations()
    _, checks = check_morphism(relations, images, target)
    quotients = 0
    for (label, relation), (checked, residual) in zip(relations, checks):
        image = NCPolynomial()
        for m, c in relation.terms.items():
            term = NCPolynomial({(): c})
            for g in m:
                term = term * images[g]
            image = image + term
        assert checked == label
        assert residual == scan_reduce(image, target.rules)
        quotients += any(isinstance(c, RatFunc) and c.bot.degree() > 0
                         for c in residual.terms.values())
    assert quotients


@st.composite
def _lhs_lists(draw):
    """One to eight rules lhs -> 0 over two or three letters, lhs lengths
    one to five; some lhs are repeated."""
    letters = st.integers(0, draw(st.integers(1, 2)))
    lhss = draw(st.lists(st.lists(letters, min_size=1, max_size=5).map(tuple),
                         min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        if len(lhss) < 8:
            lhss.insert(draw(st.integers(0, len(lhss))),
                        draw(st.sampled_from(lhss)))
    return [Rule(l, NCPolynomial()) for l in lhss]


@seed(1978)
@settings(max_examples=300, deadline=None, database=None)
@given(_lhs_lists())
def test_indexed_ambiguities_match_pair_scan(rules):
    assert find_ambiguities(rules) == scan_ambiguities(rules)


def test_indexed_ambiguities_match_pair_scan_on_presets():
    specs = [build(qv) for build in (build_hq, build_hplusq, build_slq2,
                                     build_freeprod)
             for qv in (q, Fraction(3, 2))]
    rng = random.Random(1978)
    specs += [build_hef(e, f, unchecked=unchecked)
              for e, f, unchecked in (random_hef_pair(rng)
                                      for _ in range(12))]
    for spec in specs:
        ambs = find_ambiguities(spec.rules)
        assert ambs and ambs == scan_ambiguities(spec.rules)


def _words_up_to(letters, max_len):
    return [m for n in range(max_len + 1)
            for m in itertools.product(range(letters), repeat=n)]


def _check_against_oracles(system, words):
    """Whether the system is confluent, after checking every residual
    against two normal forms reduced apart and then subtracted, and, when
    it is confluent, `reduce` on each of `words` against three runs at
    random redexes.  A missed ambiguity shows as a confluent verdict with
    normal forms that depend on the redex order."""
    alphabet, rules = system.alphabet, system.rules
    for amb in find_ambiguities(rules):
        ok, residual = resolve(amb, system)
        expected = reference_resolve(amb, rules)
        assert ok == expected.is_zero()
        assert residual == expected
        assert residual.render(alphabet) == expected.render(alphabet)
    if not is_confluent(confluent(system)[1]):
        return False
    rng = random.Random(1978)
    for m in words:
        p = NCPolynomial.monomial(m)
        normal_form = reduce(p, system)
        for _ in range(3):
            assert random_reduce(p, rules, rng) == normal_form
    return True


@seed(1978)
@settings(max_examples=400, deadline=None, database=None)
@given(_rule_systems())
# one rule each, whose only ambiguities are self-overlaps, and these fail:
# a.a.a and a.b.b.a.b.b.a have two normal forms
@example([Rule((0, 0), NCPolynomial({(2,): Fraction(1)}))])
@example([Rule((0, 1, 1, 0), NCPolynomial({(): Fraction(-2)}))])
def test_resolve_and_reduce_match_oracles(rules):
    # an ambiguity's witness is an lhs followed by at most 3 more letters
    words = set(_words_up_to(_LETTERS, 4))
    words.update(r.lhs + w for r in rules for w in _words_up_to(_LETTERS, 3))
    _check_against_oracles(RewriteSystem(Alphabet(("a", "b", "c")), rules),
                           sorted(words))


@pytest.mark.parametrize("build", [lambda: build_slq2(Fraction(3, 2)),
                                   lambda: build_hq(2)],
                         ids=["slq2(3/2)", "hq(2)"])
def test_presets_match_oracles(build):
    system = build()
    assert _check_against_oracles(system, _words_up_to(len(system.alphabet), 4))


def test_compiled_system_is_accepted_everywhere(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)})),
             Rule(mono(ab, "b.a"), NCPolynomial({(): Fraction(1)})),
             Rule(mono(ab, "a.b"), poly(ab, {"a": 1}))]
    system = RewriteSystem(ab, rules)
    assert system.index == {mono(ab, "a.b"): 0, mono(ab, "b.a"): 1}


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
    assert is_free_family(RewriteSystem(alphabet, rules), subset, max_len) == \
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
        for _ in range(40):
            subset = rng.sample(spec.alphabet.names, rng.randint(1, 3))
            max_len = rng.randint(0, 4)
            free = is_free_family(spec, subset, max_len)
            assert free == _free_by_enumeration(spec.rules, spec.alphabet,
                                                subset, max_len)
            answers.add(free)
    assert answers == {True, False}


def test_free_family_takes_names_only(ab):
    rules = [Rule(mono(ab, "a.b"), NCPolynomial({(): Fraction(1)}))]
    with pytest.raises(KeyError, match="unknown generator"):
        is_free_family(RewriteSystem(ab, rules), [1], 2)
