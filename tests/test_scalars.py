import copy
import pickle
import time
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, seed, settings, strategies as st

from cosovereign import (Alphabet, FusionElement, NCPolynomial, ParseError,
                         Poly, RatFunc, RepElement, format_scalar, multiply,
                         parse_scalar, psi_word, q, render_alt_word, word_str)
from cosovereign.scalars import (_ring, add_term, clear, parse_expression,
                                 uncleared)
from _helpers import (LONG_LITERAL, needs_digit_limit, reference_format_scalar,
                      reference_fuse, reference_parse_scalar,
                      reference_render, scalar_texts)


def test_parse_rationals():
    assert parse_scalar("3") == Fraction(3)
    assert parse_scalar("-5/7") == Fraction(-5, 7)
    assert parse_scalar("0") == 0
    assert isinstance(parse_scalar("3"), Fraction)


def test_parse_q_expressions():
    assert parse_scalar("q") == q
    assert parse_scalar("q^-1") == 1 / q
    assert parse_scalar("-q^2") == -(q * q)
    assert parse_scalar("2*q^2+1") == 2 * q * q + 1
    assert parse_scalar("1/2*q - 3") == q / 2 - 3
    assert parse_scalar("(q^2+1)/(q)") == q + 1 / q
    assert parse_scalar("(q^2 - 1)/(q - 1)") == q + 1
    assert parse_scalar("-(q^2)") == -(q ** 2)


@pytest.mark.parametrize("text", ["", "x", "3/", "q^", "(q", "(q)/(0)", "1 2", "3*"])
def test_parse_errors_carry_positions(text):
    with pytest.raises(ParseError) as exc:
        parse_scalar(text)
    assert exc.value.pos is not None


@seed(2002)
@settings(max_examples=300, deadline=None, database=None)
@given(scalar_texts())
def test_parse_scalar_matches_reference(text):
    try:
        expected = reference_parse_scalar(text)
    except ParseError:
        with pytest.raises(ParseError):
            parse_scalar(text)
        return
    value = parse_scalar(text)
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("text, value", [
    ("2*3", Fraction(6)), ("q/2", q / 2), ("--1", Fraction(1)),
    ("1/2/3", Fraction(1, 6)), ("q^-1*q^2", q), ("-(1/2)*(q+1)", -(q + 1) / 2),
])
def test_parse_scalar_reads_more_than_reference(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text", ["0.5", "1.5", "2.", ".5", "2.q"])
def test_parse_scalar_rejects_floats(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["(" * 1000 + "1" + ")" * 1000,
                                  "-" * 1000 + "1", "-(" * 500 + "q" + ")" * 500],
                         ids=["parentheses", "signs", "both"])
def test_parse_scalar_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested deeper"):
        parse_scalar(text)


_Q_BOUND_ERRORS = [
    ("q^10001", "q exponent", 2), ("2*q^-99999999", "q exponent", 4),
    ("q^" + "9" * 60, "q exponent", 2),
    # values built from bounded literals are bounded at the operator
    ("q^10000*q^10000", "q degree", 7), ("q^10000/q^-1", "q degree", 7),
    ("q^10000+q^-10000", "q degree", 7)]


@pytest.mark.parametrize("text, message, pos", _Q_BOUND_ERRORS,
                         ids=[text for text, _, _ in _Q_BOUND_ERRORS])
def test_parse_scalar_bounds_q_exponents(text, message, pos):
    # numerators and denominators are dense, so these would ask for
    # gigabytes, overflow or take minutes
    with pytest.raises(ParseError, match=f"{message} beyond 10000") as exc:
        parse_scalar(text)
    assert exc.value.pos == pos
    assert parse_scalar("q^10000") * parse_scalar("q^-10000") == 1
    assert parse_scalar("q^5000*q^5000") == q ** 10_000
    assert parse_scalar("q^10000*q^-10000") == 1


#: Sums whose running value first passes the degree bound at the operator
#: at `pos`, cancellations included: a term that cancels narrows the sum
#: again, and a quotient term leaves the Laurent fast path.
_LONG_SUM = "+".join(f"q^{k}" for k in range(0, 10_001, 7))
_SUM_BOUND_ERRORS = [
    ("1+q^10000+q^-1", 9), ("q^10000 + 1 - q^10000 + q^-10000 + q", 33),
    ("q^10000 + q^2 - q^10000 + q^-9999 - q^2 + q^-1 - q^-1", 24),
    ("1/(q-1) + q^10000", 8), ("q^-10000 + 1/(q-1) - 1/(q-1) + q", 9),
    (_LONG_SUM + "+q^-1+q^-2+q^-3+q^-4-q^-5", len(_LONG_SUM) + 20)]


@pytest.mark.parametrize("text, pos", _SUM_BOUND_ERRORS,
                         ids=[text[:40] for text, _ in _SUM_BOUND_ERRORS])
def test_sum_degree_error_positions(text, pos):
    with pytest.raises(ParseError, match="q degree beyond 10000") as exc:
        parse_scalar(text)
    assert exc.value.pos == pos


def test_sum_degree_error_in_a_combination():
    a = NCPolynomial({(0,): 1})
    with pytest.raises(ParseError, match="q degree beyond 10000") as exc:
        parse_expression("a + q^10000*a + q^-1*a", {"a": a})
    assert exc.value.pos == 14
    value = parse_expression("q^10000*a - q^10000*a + q^-10000*a + 2", {"a": a})
    assert value == NCPolynomial({(0,): q ** -10_000, (): 2})


@pytest.mark.parametrize("text, value", [
    ("q^10000 - q^10000 + q^-10000", q ** -10_000),
    ("(q^10000 - q^10000) + q^-10000 + (q^3 - q^3)", q ** -10_000),
    ("q^5000 + q^10000 - q^10000 + q^-5000 + q^-1 + 1",
     q ** 5000 + 1 + 1 / q + q ** -5000),
    (_LONG_SUM + "+q^-1+q^-2+q^-3+q^-4",
     sum((q ** k for k in range(0, 10_001, 7)), Fraction(0))
     + sum(q ** -k for k in range(1, 5))),
    ("1 + 2 - 3", Fraction(0)), ("q - q", Fraction(0)),
    ("(q + 1) - q", Fraction(1)), ("1/(q-1) + q - q", 1 / (q - 1))],
    ids=lambda v: v[:40] if isinstance(v, str) else "")
def test_sums_within_the_bound(text, value):
    got = parse_scalar(text)
    assert got == value and type(got) is type(value)


def test_long_sums_read_in_linear_time():
    # adding each term into one dense numerator took about 13 s at n = 4000
    text = "+".join(f"q^{k}" for k in range(4000))
    start = time.perf_counter()
    value = parse_scalar(text)
    assert time.perf_counter() - start < 3
    assert value == RatFunc(Poly([1] * 4000))


@needs_digit_limit
@pytest.mark.parametrize("prefix, pos", [
    ("", 0), ("-", 1), ("2*q^", 4), ("q^-", 2), ("3/", 2), ("(1 + ", 5)])
def test_parse_scalar_reports_overlong_literals(prefix, pos):
    # int() refuses them with a ValueError that names no position; a q
    # exponent's sign belongs to its literal
    with pytest.raises(ParseError, match="too many digits") as exc:
        parse_scalar(prefix + LONG_LITERAL + ")" * prefix.count("("))
    assert exc.value.pos == pos


@pytest.mark.parametrize("power", [lambda: q ** 10_001, lambda: q ** -10_001,
                                   lambda: (1 + q ** 2) ** 5_001,
                                   lambda: Poly([1, 1]) ** 10_001],
                         ids=["q^10001", "q^-10001", "(1+q^2)^5001",
                              "Poly(1+q)^10001"])
def test_powers_are_bounded_like_the_reader(power):
    # powers are dense, so the degree is bounded before any multiplying
    with pytest.raises(ValueError, match="degree beyond 10000"):
        power()


def test_powers_at_the_bound():
    q_10000 = Poly([0] * 10_000 + [1])
    assert q ** 10_000 == RatFunc(q_10000)
    assert q ** -10_000 == RatFunc(Poly([1]), q_10000)
    assert q ** 10_000 * q ** -10_000 == 1
    assert (1 + q) ** 3 == 1 + 3 * q + 3 * q ** 2 + q ** 3
    assert Poly([2]) ** 20_000 == Poly([2 ** 20_000])


def test_render_round_trip():
    samples = ["3", "-5/7", "q", "q^-1", "2*q^2-q+1/2", "(q^2+1)/(q^2+q)", "0"]
    for text in samples:
        value = parse_scalar(text)
        assert parse_scalar(format_scalar(value)) == value


def test_canonical_form():
    # denominator is monic and coprime to the numerator
    r = RatFunc(Poly([0, 0, 2]), Poly([0, 4]))  # 2q^2 / 4q
    assert r == q / 2
    assert (r.val, r.top, r.bot) == (1, Poly([Fraction(1, 2)]), Poly([1]))
    s = parse_scalar("(q^2-1)/(2*q^2+2*q)")  # (q-1)/(2*q)
    assert (s.val, s.top, s.bot) == (
        -1, Poly([Fraction(-1, 2), Fraction(1, 2)]), Poly([1]))
    s = parse_scalar("(q^3-q)/(2*q^4+2*q^2)")  # (q^2-1)/(2*q*(q^2+1))
    assert (s.val, s.top, s.bot) == (
        -1, Poly([Fraction(-1, 2), 0, Fraction(1, 2)]), Poly([1, 0, 1]))
    assert type(q - q) is Fraction and q - q == 0


@pytest.mark.parametrize("text, value", [
    ("q/q", 1), ("q^0", 1), ("q-q", 0), ("2*q/q", 2), ("(q^2-1)/(q+1)-q", -1)])
def test_constant_q_expressions_are_fractions(text, value):
    got = parse_scalar(text)
    assert type(got) is Fraction and got == value


def test_pickle_and_copy_round_trip():
    values = [q, q ** -3, parse_scalar("(q^2+1)/(q+1)"),
              NCPolynomial({(0, 1): q ** -3, (1,): (q + 1) / (q - 2), (): 5})]
    for x in values:
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                  copy.deepcopy(x)):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)


def test_mixed_mode_arithmetic():
    assert Fraction(1, 2) + q == q + Fraction(1, 2)
    assert (1 - q) * (1 + q) == 1 - q ** 2
    assert q ** -2 == 1 / (q * q)
    assert (q + 1) / (q + 1) == 1
    assert (q + 2) / (q + 1) - 2 == -q / (q + 1)
    with pytest.raises(ZeroDivisionError):
        q / (q - q)


_fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
_polys = st.lists(st.integers(-5, 5), min_size=0, max_size=3).map(Poly)
_ratfuncs = st.builds(RatFunc, _polys, _polys.filter(lambda p: not p.is_zero()))
_scalars = st.one_of(_fracs, _ratfuncs)


@seed(2002)
@settings(max_examples=80, deadline=None, database=None)
@given(_scalars, _scalars, _scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@seed(2002)
@settings(max_examples=80, deadline=None, database=None)
@given(_scalars)
def test_multiplicative_inverse(a):
    if a == 0:
        return
    if isinstance(a, Fraction):
        assert a * (1 / a) == 1
    else:
        assert a * a ** -1 == 1


def test_poly_divmod_and_gcd():
    f = Poly([2, 0, 1])          # q^2 + 2
    g = Poly([1, 1])             # q + 1
    quo, rem = divmod(f, g)
    assert quo * g + rem == f
    a = Poly([1, 1]) * Poly([-2, 1])
    b = Poly([1, 1]) * Poly([3, 1])
    assert Poly.gcd(a, b) == Poly([1, 1])


#: Values that are no exact scalar: neither rounded nor parsed.
INEXACT = [1j, Decimal("0.1"), "1/2"]


def test_poly_rejects_floats():
    with pytest.raises(TypeError, match="inexact"):
        Poly([1, 0.1])
    for c in INEXACT:
        with pytest.raises(TypeError, match="inexact"):
            Poly([1, c])


def test_ratfunc_rejects_floats():
    with pytest.raises(TypeError, match="inexact"):
        RatFunc(0.5)
    with pytest.raises(TypeError, match="inexact"):
        RatFunc(1, 0.5)
    for c in INEXACT:
        with pytest.raises(TypeError, match="inexact"):
            RatFunc(c)
        with pytest.raises(TypeError, match="inexact"):
            RatFunc(Poly([1, 1]), c)


def test_poly_refuses_foreign_operands():
    p = Poly([1, 2])
    for op in (lambda: p + 1, lambda: p - 1, lambda: p * 0.5,
               lambda: 0.5 * p, lambda: p * 1j, lambda: divmod(p, 2),
               lambda: p // 2, lambda: p % 2):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()
    # scaling by an exact number still works
    assert p * 2 == 2 * p == Poly([2, 4])
    assert p * Fraction(1, 2) == Poly([Fraction(1, 2), 1])


def _parts(x):
    """(numerator, denominator) of a scalar, constants over 1: q**val *
    top/bot with the power of q multiplied into the side it divides."""
    if not isinstance(x, RatFunc):
        return Poly([x]), Poly([1])
    num = x.top * Poly([0] * max(x.val, 0) + [1])
    return num, x.bot * Poly([0] * max(-x.val, 0) + [1])


def _assert_canonical(x, expected):
    """`x` has the canonical quotient `expected`: it is a Fraction exactly
    when that quotient is constant, and otherwise a RatFunc in the form
    q**val * top/bot."""
    assert _parts(x) == expected
    num, den = expected
    if num.degree() <= 0 and den == Poly([1]):
        assert type(x) is Fraction
        return
    assert type(x) is RatFunc
    top, bot = x.top, x.bot
    assert top.coeffs[0] != 0 and bot.coeffs[0] != 0
    assert bot.leading() == 1 and Poly.gcd(top, bot) == Poly([1])
    assert all(type(c) is Fraction for c in top.coeffs + bot.coeffs)


def _euclidean_canonical(num, den):
    """Canonical form by a Euclidean gcd, the path general denominators take."""
    if num.is_zero():
        return Poly(), Poly([1])
    g = Poly.gcd(num, den)
    num, den = num // g, den // g
    lc = den.leading()
    return num * (1 / lc), den * (1 / lc)


def _sympy_canonical(num, den):
    x = sympy.Symbol("q")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(p.coeffs))

    n, d = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
    lc = sympy.Poly(d, x).LC()

    def ours(e):
        cs = reversed(sympy.Poly(e / lc, x).all_coeffs())
        return Poly([Fraction(int(c.p), int(c.q)) for c in cs])

    return ours(n), ours(d)


@seed(2002)
@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(-6, 6), max_size=7),
       _fracs.filter(lambda c: c != 0), st.integers(0, 5))
def test_laurent_denominator_matches_euclidean_and_sympy(coeffs, c, k):
    num = Poly(coeffs)
    den = Poly([0] * k + [c])
    r = RatFunc(num, den)
    expected = _euclidean_canonical(num, den)
    _assert_canonical(r, expected)
    if not num.is_zero():
        assert expected == _sympy_canonical(num, den)


# -- Laurent scalars against the general cross-multiplication path ----------

def _schoolbook(a, b):
    """Product of two Polys by the textbook double loop."""
    if a.is_zero() or b.is_zero():
        return Poly()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(out)


def _cross(op, a, b):
    """Canonical (num, den) of `a op b` by cross-multiplying, or None when
    dividing by zero."""
    (an, ad), (bn, bd) = _parts(a), _parts(b)
    if op == "+":
        num = _schoolbook(an, bd) + _schoolbook(bn, ad)
        den = _schoolbook(ad, bd)
    elif op == "-":
        num = _schoolbook(an, bd) - _schoolbook(bn, ad)
        den = _schoolbook(ad, bd)
    elif op == "*":
        num, den = _schoolbook(an, bn), _schoolbook(ad, bd)
    elif bn.is_zero():
        return None
    else:
        num, den = _schoolbook(an, bd), _schoolbook(ad, bn)
    return _euclidean_canonical(num, den)


_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b}

_nonzero = _fracs.filter(lambda c: c != 0)
_coeff_lists = st.lists(_fracs, max_size=5)
_monomials = st.builds(lambda c, k: Poly([0] * k + [c]), _nonzero,
                       st.integers(0, 6))
_any_polys = st.one_of(_monomials, _coeff_lists.map(Poly), st.just(Poly()))
# a nonzero constant term keeps the whole c*q^k denominator, k >= 1
_laurents = st.builds(
    lambda c, cs, d, k: RatFunc(Poly([c] + cs), Poly([0] * k + [d])),
    _nonzero, _coeff_lists, _nonzero, st.integers(1, 6))
_generals = st.builds(RatFunc, _coeff_lists.map(Poly),
                      _coeff_lists.map(Poly).filter(lambda p: p.degree() > 0))
_constants = st.one_of(st.integers(-4, 4), _fracs)
_operands = st.one_of(_laurents, _constants, _generals,
                      _coeff_lists.map(lambda cs: RatFunc(Poly(cs))),
                      st.integers(-6, 6).map(lambda k: q ** k))


@seed(2002)
@settings(max_examples=150, deadline=None, database=None)
@given(_any_polys, _any_polys)
def test_poly_mul_matches_schoolbook(a, b):
    p = a * b
    assert p == _schoolbook(a, b)
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0


@seed(2002)
@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(sorted(_OPS)), _laurents, _operands, st.booleans())
def test_laurent_arithmetic_matches_cross_multiplication(op, r, x, flip):
    a, b = (x, r) if flip else (r, x)
    expected = _cross(op, a, b)
    if expected is None:
        with pytest.raises(ZeroDivisionError):
            _OPS[op](a, b)
        return
    got = _OPS[op](a, b)
    _assert_canonical(got, expected)
    assert hash(got) == hash(RatFunc(*expected))
    if not expected[0].is_zero():
        assert expected == _sympy_canonical(*expected)


def _assert_never_constant(x):
    """A RatFunc depends on q, and pickles and copies to an equal value."""
    if type(x) is RatFunc:
        assert x.val or x.top.degree() > 0 or x.bot.degree() > 0
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is RatFunc and y == x and hash(y) == hash(x)
    else:
        assert type(x) is Fraction


@seed(2002)
@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(sorted(_OPS)), _operands, _operands,
       _coeff_lists.map(Poly), _coeff_lists.map(Poly), st.integers(-4, 4))
def test_no_constant_ratfunc_can_be_built(op, a, b, num, den, val):
    if not (isinstance(a, int) and isinstance(b, int)):
        try:
            _assert_never_constant(_OPS[op](a, b))
        except ZeroDivisionError:
            assert op == "/" and b == 0
    if not den.is_zero():
        _assert_never_constant(RatFunc(num, den, val))
    for x in (a, b):
        if isinstance(x, RatFunc):
            _assert_never_constant(-x)
            _assert_never_constant(x ** 0)
            _assert_never_constant(x ** -1)


# -- cleared coefficients ----------------------------------------------------

_clearable = st.one_of(st.integers(-9, 9).filter(bool), _nonzero, _laurents,
                       st.builds(lambda c, k: c * q ** k, _nonzero,
                                 st.integers(-6, 6)))


def _regrouped(triples, den):
    """The scalar sum of n*q^e/den over the (e, n) `triples`, regrouped into
    one exponent -> int dict, as `reduce` regroups its normal form."""
    powers = {}
    for e, n in triples:
        add_term(powers, e, n)
    return uncleared(_ring(powers), den)


@seed(2002)
@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(_clearable, min_size=1, max_size=4))
# a product and a sum whose powers of q cancel
@example([Fraction(3, 2) * q ** 2, 5 * q ** -2, 2 - Fraction(3, 2) * q ** 2])
def test_clear_round_trip(scalars):
    """`clear` puts each scalar over the shared denominator as one (key, e,
    n) triple per nonzero power q^e, with n an int; `uncleared` gives back
    the scalar from its key's triples, in its one form, a Fraction for
    every constant.  Merging two keys' triples gives the scalars' sum, and
    convolving their exponents gives their product."""
    den, triples = clear(list(enumerate(scalars)))
    by_key = {}
    for key, e, n in triples:
        assert type(e) is int and type(n) is int and n
        assert e not in dict(by_key.get(key, ()))
        by_key.setdefault(key, []).append((e, n))
    assert list(by_key) == list(range(len(scalars)))
    for key, c in enumerate(scalars):
        if not isinstance(c, RatFunc):
            assert [e for e, _ in by_key[key]] == [0]
        assert _regrouped(by_key[key], den) == c
        _assert_never_constant(_regrouped(by_key[key], den))
    x, a = by_key[0], scalars[0]
    for y, b in zip(by_key.values(), scalars):
        product = [(e + f, m * n) for e, m in x for f, n in y]
        for got, expected in ((_regrouped(x + y, den), a + b),
                              (_regrouped(product, den * den), a * b)):
            assert got == expected
            _assert_never_constant(got)


@pytest.mark.parametrize("quotient", [1 / (q + 1), (q - 1) / (q ** 2 + 2)])
def test_clear_refuses_quotients(quotient):
    for terms in ([("a", quotient)], [("a", 2), ("b", q), ("c", quotient)]):
        assert clear(terms) is None


def _assert_same_form(got, expected):
    """`got` is `expected` part for part: the same type, and for a RatFunc
    the same `val`, `top` and `bot`, in canonical form."""
    assert type(got) is type(expected) and got == expected
    assert hash(got) == hash(expected)
    if type(got) is RatFunc:
        assert (got.val, got.top, got.bot) == (
            expected.val, expected.top, expected.bot)
        _assert_canonical(got, _parts(expected))


@seed(2002)
@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(_laurents, _generals).filter(lambda x: type(x) is RatFunc),
       _constants, st.integers(-3, 3))
# x - 2 = -q/(q+1): the numerator gains a factor q
@example((q + 2) / (q + 1), 2, 0)
def test_gcd_free_results_match_the_constructor(x, c, k):
    """Negation, inversion, powers, scaling by a constant and adding a
    constant build their results without a gcd; each equals the one the
    constructor builds."""
    top, bot, val = x.top, x.bot, x.val
    _assert_same_form(-x, RatFunc(-top, bot, val))
    num, den = _parts(x)
    _assert_same_form(x + c, RatFunc(num + den * Poly([c]), den))
    _assert_same_form(c - x, RatFunc(den * Poly([c]) - num, den))
    _assert_same_form(x - c, RatFunc(num - den * Poly([c]), den))
    _assert_same_form(1 / x, RatFunc(bot, top, -val))
    _assert_same_form(x * c, RatFunc(top * Poly([c]), bot, val))
    _assert_same_form(c * x, RatFunc(top * Poly([c]), bot, val))
    if k >= 0:
        _assert_same_form(x ** k, RatFunc(top ** k, bot ** k, val * k))
    else:
        _assert_same_form(x ** k, RatFunc(bot ** -k, top ** -k, val * k))
    if c:
        _assert_same_form(x / c, RatFunc(top, bot * Poly([c]), val))
        _assert_same_form(c / x, RatFunc(bot * Poly([c]), top, -val))


# Laurent scalars of either sign of val: c*q^k, q^k times a sum, and more
_any_laurents = st.builds(lambda cs, k: RatFunc(Poly(cs), 1, k),
                          _coeff_lists, st.integers(-3, 3)).filter(
                              lambda x: type(x) is RatFunc)


@st.composite
def _laurent_pairs(draw):
    """Two Laurent scalars, often related so that their sum, difference or
    product is a constant or zero."""
    x = draw(_any_laurents)
    how = draw(st.sampled_from(["apart", "same", "plus", "minus", "inverse"]))
    if how == "apart":
        y = draw(_any_laurents)
    elif how == "same":
        y = x
    elif how == "plus":
        y = x + draw(_nonzero)
    elif how == "minus":
        y = draw(_nonzero) - x
    else:
        c, k = draw(_nonzero), draw(st.integers(-3, 3).filter(bool))
        x, y = c * q ** k, draw(_nonzero) * q ** -k
    return x, y


@seed(2002)
@settings(max_examples=200, deadline=None, database=None)
@given(_laurent_pairs())
@example((q, q ** -1))
@example((q + 1, q))
@example((q, q))
def test_laurent_results_match_the_constructor(pair):
    """Two Laurent scalars multiply, add and subtract without the
    constructor's gcd; each result equals the one the constructor builds,
    a Fraction when it does not depend on q."""
    x, y = pair
    (xn, xd), (yn, yd) = _parts(x), _parts(y)
    assert type(y) is not RatFunc or y.bot == Poly([1])
    _assert_same_form(x * y, RatFunc(xn * yn, xd * yd))
    _assert_same_form(y * x, RatFunc(xn * yn, xd * yd))
    _assert_same_form(x + y, RatFunc(xn * yd + yn * xd, xd * yd))
    _assert_same_form(x - y, RatFunc(xn * yd - yn * xd, xd * yd))
    _assert_same_form(y - x, RatFunc(yn * xd - xn * yd, xd * yd))


def test_laurent_results_collapse_to_fractions():
    for got, value in ((q * q ** -1, 1), ((q + 1) - q, 1), (q - q, 0),
                       (2 * q ** 2 * (q ** -2 / 4), Fraction(1, 2)),
                       ((q ** -1 + 3) + (-q ** -1), 3)):
        assert type(got) is Fraction and got == value


@st.composite
def _cancelling_polys(draw):
    """Two coefficient lists whose top coefficients often cancel in a sum
    or a difference."""
    a = draw(_coeff_lists)
    b = draw(_coeff_lists)
    top = draw(st.integers(0, len(a)))
    if top:
        sign = draw(st.sampled_from([1, -1]))
        b = b[:len(a) - top] + [sign * c for c in a[len(a) - top:]]
    return a, b


@seed(2002)
@settings(max_examples=200, deadline=None, database=None)
@given(_cancelling_polys(), _constants)
@example(([1, 2, 3], [0, 1, -3]), 0)
@example(([1, 2, 3], [1, 2, 3]), 2)
def test_poly_sums_and_scaling_strip_trailing_zeros(lists, c):
    """`+`, `-`, negation and scaling by a constant equal the constructor
    on the same coefficients, with no trailing zero."""
    a, b = lists
    pa, pb = Poly(a), Poly(b)
    a, b = list(pa.coeffs), list(pb.coeffs)
    size = max(len(a), len(b))
    a, b = a + [0] * (size - len(a)), b + [0] * (size - len(b))
    for got, expected in (
            (pa + pb, [x + y for x, y in zip(a, b)]),
            (pa - pb, [x - y for x, y in zip(a, b)]),
            (-pa, [-x for x in a]),
            (pa * c, [x * c for x in a]), (c * pa, [c * x for x in a])):
        assert got == Poly(expected) and got.coeffs == Poly(expected).coeffs
        assert not got.coeffs or got.coeffs[-1] != 0
        assert all(type(x) is Fraction for x in got.coeffs)


@seed(2002)
@settings(max_examples=150, deadline=None, database=None)
@given(_constants, st.integers(0, 3), _constants)
def test_constant_comparison_matches_general_path(c, k, d):
    r = RatFunc(Poly([c]), Poly([0] * k + [1]))     # c / q^k
    _assert_canonical(r, _euclidean_canonical(Poly([c]), Poly([0] * k + [1])))
    for x in (c, d, 0):
        general = _parts(r) == _parts(x)
        assert (r == x) is general
        if general:
            assert hash(r) == hash(Fraction(x))
    assert (r == c) is (k == 0 or c == 0)


# -- Combination: the arithmetic shared by the three rings ------------------


def _dict_sum(pairs):
    """Plain-dict reference: sum the (key, coefficient) pairs, drop zeros."""
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c != 0}


_KEYS = {
    FusionElement: ["", "a", "b", "ab", "ba"],
    RepElement: [(), (("Z", 1),), (("V", 1),), (("Z", 1), ("V", 2))],
    NCPolynomial: [(), (0,), (1,), (0, 1), (1, 0)],
}
#: the product of two keys as (key, multiplicity) pairs, by other code
_TIMES = {
    FusionElement: lambda x, y: reference_fuse(x, y).terms.items(),
    RepElement: lambda x, y: multiply(x, y).terms.items(),
    NCPolynomial: lambda x, y: [(x + y, 1)],
}
_COEFFS = {
    FusionElement: st.integers(-3, 3),
    RepElement: st.integers(-3, 3),
    NCPolynomial: st.one_of(st.integers(-3, 3), _fracs, _ratfuncs),
}


@pytest.mark.parametrize("cls", [FusionElement, RepElement, NCPolynomial])
@seed(2002)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_combination_arithmetic_matches_dict_reference(cls, data):
    pairs = st.lists(st.tuples(st.sampled_from(_KEYS[cls]), _COEFFS[cls]),
                     max_size=6)
    pa, pb, s = data.draw(pairs), data.draw(pairs), data.draw(_COEFFS[cls])
    a, b = cls(pa), cls(pb)
    assert a.terms == _dict_sum(pa) and b.terms == _dict_sum(pb)
    for got, ref in ((a + b, pa + pb),
                     (a - b, pa + [(k, -c) for k, c in pb]),
                     (-a, [(k, -c) for k, c in pa]),
                     (s * a, [(k, s * c) for k, c in pa])):
        assert type(got) is cls
        assert got.terms == _dict_sum(ref)
        assert all(c != 0 for c in got.terms.values())
        assert len(got) == len(got.terms)
    product = a * b
    assert type(product) is cls
    assert product.terms == _dict_sum(
        [(k, ca * cb * n) for ka, ca in pa for kb, cb in pb
         for k, n in _TIMES[cls](ka, kb)])
    assert (a == b) is (_dict_sum(pa) == _dict_sum(pb))
    assert a + b == b + a and hash(a + b) == hash(b + a)
    shuffled = cls(reversed(pa))
    assert shuffled == a and hash(shuffled) == hash(a)
    assert (a - a).is_zero() and a - a == cls()
    if cls is NCPolynomial:
        # a constant never becomes a RatFunc, so no coefficient has two forms
        assert all(type(RatFunc(Poly([c]))) is Fraction
                   for _, c in pa if not isinstance(c, RatFunc))


def test_product_needs_one_combination_type():
    f = FusionElement({"ab": 1})
    with pytest.raises(TypeError):
        NCPolynomial({(0,): 1}) * f
    with pytest.raises(TypeError):
        f * 2
    with pytest.raises(TypeError):
        NCPolynomial({(0,): 1}) / q
    assert 2 * f == FusionElement({"ab": 2})


def test_combination_equality_is_per_type():
    assert NCPolynomial({(): 2}) != RepElement({(): 2})


# -- one printer against the two loops it replaced --------------------------

_ALPHABET = Alphabet(["a", "b"])
_GENERATORS = {name: NCPolynomial.monomial((i,), Fraction(1))
               for i, name in enumerate(_ALPHABET.names)}
# scalars as the printer meets them: Fractions, c*q^k on either side of q^0,
# Laurent sums of several terms and quotients, each also negated, so that
# negative leading coefficients occur in every form
_printed = st.one_of(
    _fracs,
    st.builds(lambda c, k: c * q ** k, _nonzero,
              st.integers(-6, 6).filter(bool)),
    st.lists(st.tuples(_nonzero, st.integers(-4, 4)), min_size=2,
             max_size=5).map(lambda ts: sum(c * q ** k for c, k in ts)),
    st.builds(lambda g, k: g * q ** k, _generals, st.integers(-3, 3)))
_printed_scalars = st.one_of(_printed, _printed.map(lambda x: -x))
_nc_terms = st.dictionaries(st.lists(st.integers(0, 1), max_size=3).map(tuple),
                            _printed_scalars, max_size=5)


@example(q ** -1)
@example(-(q + 1) / (q ** 2 - 1) * q ** -2)
@seed(2002)
@settings(max_examples=300, deadline=None, database=None)
@given(_printed_scalars)
def test_format_scalar_matches_reference(x):
    assert format_scalar(x) == reference_format_scalar(x)
    assert (format_scalar(x, compact=True)
            == reference_format_scalar(x, compact=True))


@pytest.mark.parametrize("terms, text", [
    ({(0,): q ** -1}, "(q^-1)*a"),
    ({(0,): -q ** -1, (): q ** -1}, "-(q^-1)*a + (q^-1)"),
    ({(1, 0): -(q + 1 + q ** -1), (0,): 2 * q ** 3},
     "-(q+1+q^-1)*b.a + 2*q^3*a"),
    ({(0,): (q ** 2 + 1) / (q - 1), (): -q}, "(q^2+1)/(q-1)*a - q"),
    ({(): -1}, "-1"), ({(): -q - 1}, "-(q+1)"), ({}, "0")])
def test_ncpolynomial_render_examples(terms, text):
    assert NCPolynomial(terms).render(_ALPHABET) == text


@example({(0,): q ** -1})
@seed(2002)
@settings(max_examples=200, deadline=None, database=None)
@given(_nc_terms)
def test_ncpolynomial_render_matches_reference(terms):
    p = NCPolynomial(terms)
    assert p.render(_ALPHABET) == reference_render(p, _ALPHABET.render)


@seed(2002)
@settings(max_examples=200, deadline=None, database=None)
@given(_nc_terms)
def test_ncpolynomial_render_round_trip(terms):
    p = NCPolynomial(terms)
    got = parse_expression(p.render(_ALPHABET), _GENERATORS)
    if not isinstance(got, NCPolynomial):
        got = NCPolynomial({(): got})
    assert got == p


@example({"": 1, "a": -1})
@example({"": -3, "ab": 2})
@seed(2002)
@settings(max_examples=150, deadline=None, database=None)
@given(st.dictionaries(st.text("ab", max_size=3), st.integers(-3, 3),
                       max_size=5))
def test_fusion_and_rep_element_render_match_reference(terms):
    # psi_word("") is the empty alternated word, so both units occur
    for x, render_key in (
            (FusionElement(terms), word_str),
            (RepElement({psi_word(w): c for w, c in terms.items()}),
             render_alt_word)):
        assert x.render() == reference_render(x, render_key)
