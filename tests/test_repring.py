import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st
from sympy import Rational, chebyshevu

from cosovereign import (ParseError, RepElement, alt_dim, check_alt_word,
                         clebsch_gordan, dim, fuse, multiply, odot,
                         parse_alt_word, psi, psi_word, render_alt_word,
                         so3_fuse, words_up_to)
from cosovereign.repring import PSI_A, PSI_B
from _helpers import (LONG_LITERAL, labels, needs_digit_limit, prefix_dim,
                      reference_psi_word)

Z, V = "Z", "V"


def rep(*factor_words):
    return RepElement({check_alt_word(w): 1 for w in factor_words})


def rank1_oracle(i, j):
    """Decomposition of V_i (x) V_j using only the rank-one recursion
    V_k (x) V_1 = V_{k-1} (+) V_{k+1}; independent of the closed form."""
    def times_v1(multiset):
        out = Counter()
        for k, c in multiset.items():
            if k == 0:
                out[1] += c
            else:
                out[k - 1] += c
                out[k + 1] += c
        return out

    if j == 0:
        return Counter({i: 1})
    prev2, prev1 = Counter({i: 1}), times_v1(Counter({i: 1}))
    for _ in range(2, j + 1):
        nxt = times_v1(prev1)
        nxt.subtract(prev2)
        assert all(c >= 0 for c in nxt.values())
        prev2, prev1 = prev1, Counter({k: c for k, c in nxt.items() if c})
    return prev1


def test_clebsch_gordan_examples():
    assert clebsch_gordan(1, 1) == [0, 2]
    assert clebsch_gordan(2, 1) == [1, 3]
    assert clebsch_gordan(2, 2) == [0, 2, 4]
    assert clebsch_gordan(0, 5) == [5]


def test_clebsch_gordan_against_rank1_oracle():
    for i in range(9):
        for j in range(9):
            assert Counter(clebsch_gordan(i, j)) == rank1_oracle(i, j)


def test_clebsch_gordan_dimension_sum():
    for i in range(13):
        for j in range(13):
            assert sum(k + 1 for k in clebsch_gordan(i, j)) == (i + 1) * (j + 1)


def test_alt_word_validation():
    check_alt_word(((Z, 1), (V, 2), (Z, -1)))
    with pytest.raises(ValueError):
        check_alt_word(((Z, 0),))
    with pytest.raises(ValueError):
        check_alt_word(((V, 0),))
    with pytest.raises(ValueError):
        check_alt_word(((Z, 1), (Z, 2)))
    with pytest.raises(ValueError):
        check_alt_word(((V, 1), (V, 1)))


def test_alt_dim():
    assert alt_dim(((Z, 1), (V, 2), (Z, -1))) == 3
    assert alt_dim(()) == 1
    assert alt_dim(((V, 1), (Z, -1), (V, 1), (Z, -1))) == 4
    assert alt_dim(((V, 3), (Z, 1), (V, 2)), 3) == 21 * 8
    assert alt_dim(((Z, -2),), 5) == 1


def test_alt_dim_is_chebyshev_u():
    # V_j has dimension U_j(n) when V_1 has dimension n; sympy's U_j has
    # U_1(x) = 2x, hence the argument n/2
    for n in range(2, 8):
        for j in range(41):
            assert alt_dim(((V, j),), n) == chebyshevu(j, Rational(n, 2))


def test_float_parameters_are_rejected():
    for bad in (2.9, Fraction(5, 2)):
        with pytest.raises(TypeError):
            alt_dim(((V, 2),), bad)
    with pytest.raises(TypeError):
        check_alt_word([("V", 1.5), ("Z", -1.2)])
    with pytest.raises(TypeError):
        check_alt_word([("V", Fraction(2))])


def test_render_parse_alt_words():
    w = ((Z, 1), (V, 2), (Z, -1))
    assert render_alt_word(w) == "Z^1 V_2 Z^-1"
    assert parse_alt_word("Z^1 V_2 Z^-1") == w
    assert parse_alt_word("1") == ()
    assert render_alt_word(()) == "1"


@needs_digit_limit
def test_parse_alt_word_overlong_exponent_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_alt_word("Z^" + LONG_LITERAL)
    assert exc.value.message == "integer literal has too many digits"
    assert exc.value.pos == 2  # where the literal starts, as in every reader


@pytest.mark.parametrize("text, pos", [
    ("Z^1 X", 4), ("  Z^1 V_2 Z^-1 1", 15), ("Z^1 Z^2", 4), ("V_1 V_0", 4),
    ("Z^0", 0), ("Z^1 V_-1", 4), ("Z^+1", 0), ("Z^1 V_1\tV_2", 8)])
def test_parse_alt_word_errors_carry_positions(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_alt_word(text)
    assert exc.value.pos == pos


def test_multiply_examples():
    assert multiply(((Z, 2),), ((Z, -2),)) == RepElement.trivial
    assert multiply(((V, 1), (Z, -1)), ((Z, 1), (V, 1))) == \
        RepElement.trivial + rep(((V, 2),))
    assert multiply(((Z, 1), (V, 1)), ((V, 1), (Z, -1))) == \
        rep(((Z, 1), (V, 2), (Z, -1))) + RepElement.trivial


def test_multiply_merges_z_exponents():
    out = multiply(((V, 1), (Z, 2)), ((Z, 3), (V, 1)))
    assert out == rep(((V, 1), (Z, 5), (V, 1)))


def test_multiply_long_cancellation():
    # every junction collapses: V_1 V_1 leaves V_2 and the inner product,
    # Z^1 Z^-1 cancels, so the product walks 1400 factors inward
    u = ((Z, 1), (V, 1)) * 700
    v = ((V, 1), (Z, -1)) * 700
    out = multiply(u, v)
    assert len(out) == 701
    assert all(c == 1 for _, c in out.pairs())
    assert sum(c * alt_dim(w) for w, c in out.pairs()) == \
        alt_dim(u) * alt_dim(v) == 4 ** 700


def _random_alt_word(rng):
    n = rng.randrange(4)
    kinds = [rng.choice((Z, V))]
    for _ in range(n - 1 if n else 0):
        kinds.append(V if kinds[-1] == Z else Z)
    if not n:
        kinds = []
    return tuple((k, rng.choice((1, 2, 3)) if k == V
                  else rng.choice((-3, -2, -1, 1, 2, 3))) for k in kinds)


def test_multiply_associativity_random():
    rng = random.Random(3)
    for _ in range(100):
        u = RepElement({_random_alt_word(rng): rng.choice((1, 2, -1))})
        v = RepElement({_random_alt_word(rng): 1})
        w = RepElement({_random_alt_word(rng): rng.choice((1, -2))})
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
        assert (u + w) * v == multiply(u + w, v) == u * v + w * v


def test_psi_examples():
    assert psi_word("ab") == ((Z, 1), (V, 2), (Z, -1))
    assert psi_word("ba") == ((V, 2),)
    assert psi_word("aba") == ((Z, 1), (V, 3))
    assert psi_word("bb") == ((V, 1), (Z, -1), (V, 1), (Z, -1))
    assert psi("") == RepElement.trivial


def test_psi_rejects_other_letters():
    for bad in ("ac", "c", "abx", "aB", "a b"):
        for fn in (psi_word, psi, lambda x: dim(x, 2)):
            with pytest.raises(ValueError, match="invalid word letter"):
                fn(bad)


def test_psi_closed_forms():
    for n in range(6):
        ab, ba = "ab" * n, "ba" * n
        assert psi_word(ab) == (((Z, 1), (V, 2 * n), (Z, -1)) if n else ())
        assert psi_word(ba) == (((V, 2 * n),) if n else ())
        assert psi_word(ab + "a") == ((Z, 1), (V, 2 * n + 1))
        assert psi_word(ba + "b") == ((V, 2 * n + 1), (Z, -1))


def test_psi_is_simple_and_structured():
    for x in words_up_to(6):
        w = psi_word(x)
        if x.startswith("a"):
            assert w[0] == (Z, 1)
        if x.startswith("b"):
            assert w[0][0] == V
        if x.endswith("a"):
            assert w[-1][0] == V
        if x.endswith("b"):
            assert w[-1] == (Z, -1)


def test_psi_morphism_small():
    ws = words_up_to(3)
    for x in ws:
        for y in ws:
            image = RepElement()
            for w, c in odot(x, y).pairs():
                image = image + c * psi(w)
            assert image == multiply(psi(x), psi(y))


def test_psi_injective_small():
    seen = {}
    for x in words_up_to(4):
        w = psi_word(x)
        assert w not in seen, (x, seen[w])
        seen[w] = x


def _psi_by_peeling(x):
    """psi by peeling off the first letter through multiply:
    psi(l.y) = psi(l) psi(y) - psi(y[1:]) when y starts with the other
    letter, psi(l) psi(y) otherwise."""
    p1, p2 = RepElement.trivial, None
    for i in range(len(x) - 1, -1, -1):
        out = multiply(PSI_A if x[i] == "a" else PSI_B, p1)
        if i + 1 < len(x) and x[i + 1] != x[i]:
            out = out - p2
        p1, p2 = out, p1
    return p1


@seed(2002)
@settings(max_examples=80, deadline=None, database=None)
@given(labels)
def test_closed_forms_match_peel_off(x):
    assert _psi_by_peeling(x) == psi(x)
    assert psi(x).single_word() == check_alt_word(psi_word(x))
    for n in range(2, 7):
        assert dim(x, n) == prefix_dim(x, n)


# words of 0-2000 letters: long repeats of one letter, so long aa and bb
# stretches; fully alternating words; mixes of both; letters one by one
run_words = st.one_of(
    st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 1000)),
             max_size=4),
    st.tuples(st.sampled_from(("ab", "ba")), st.integers(0, 2000)).map(
        lambda pk: [(pk[0], pk[1] // 2), (pk[0][:1], pk[1] % 2)]),
    st.lists(st.tuples(st.sampled_from(("a", "b", "ab", "ba")),
                       st.integers(1, 400)), max_size=8),
).map(lambda pieces: "".join(p * k for p, k in pieces)[:2000]) | st.text(
    "ab", max_size=2000)


@seed(2029)
@settings(max_examples=200, deadline=None, database=None)
@given(run_words)
def test_runs_match_letter_join_and_peel_off(x):
    assert psi_word(x) == reference_psi_word(x)
    for n in range(2, 7):
        want = prefix_dim(x, n)
        assert dim(x, n) == want == alt_dim(reference_psi_word(x), n)


@seed(2029)
@settings(max_examples=100, deadline=None, database=None)
@given(run_words, st.data())
def test_runs_name_the_first_invalid_letter(x, data):
    pos = data.draw(st.integers(0, len(x)))
    bad = data.draw(st.sampled_from(("c", "A", " ", "0", "\n", "\xe9")))
    later = data.draw(st.sampled_from(("", "c", "z")))
    word = x[:pos] + bad + x[pos:] + later
    with pytest.raises(ValueError) as want:
        reference_psi_word(word)
    for fn in (psi_word, psi, lambda w: dim(w, 3)):
        with pytest.raises(ValueError) as got:
            fn(word)
        assert str(got.value) == str(want.value)
    assert str(want.value) == f"invalid word letter {bad!r}"


def test_dim_bridge_small():
    for x in words_up_to(5):
        assert dim(x, 2) == alt_dim(psi_word(x))


def test_so3_fuse():
    assert so3_fuse(1, 1) == [0, 1, 2]
    assert so3_fuse(5, 0) == [5]
    assert so3_fuse(2, 1) == [1, 2, 3]
    # even part of the doubled decomposition, indices halved
    for k in range(6):
        for l in range(6):
            evens = [m // 2 for m in clebsch_gordan(2 * k, 2 * l) if m % 2 == 0]
            assert so3_fuse(k, l) == evens


def test_so3_fuse_is_fuse_on_powers_of_ab():
    """Under r_k -> (ab)^k the SO(3)-type rules are the fusion rules: each
    summand of (ab)^k (*) (ab)^l is a power of ab, the exponents are
    so3_fuse(k, l), and (ab)^k has the SO(3) dimension 2k + 1 at n = 2."""
    for k in range(12):
        assert dim("ab" * k, 2) == 2 * k + 1
        for l in range(12):
            words = [w for w, _ in fuse("ab" * k, "ab" * l).pairs()]
            assert all(w == "ab" * (len(w) // 2) for w in words)
            assert sorted(len(w) // 2 for w in words) == so3_fuse(k, l)
