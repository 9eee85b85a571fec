import random
from collections import Counter

import pytest

from cosovereign import (RepElement, alt_dim, check_alt_word, clebsch_gordan,
                         dim, multiply, odot, parse_alt_word, psi, psi_word,
                         render_alt_word, so3_fuse, words_up_to)

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


def test_render_parse_alt_words():
    w = ((Z, 1), (V, 2), (Z, -1))
    assert render_alt_word(w) == "Z^1 V_2 Z^-1"
    assert parse_alt_word("Z^1 V_2 Z^-1") == w
    assert parse_alt_word("1") == ()
    assert render_alt_word(()) == "1"


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


def test_psi_examples():
    assert psi_word("ab") == ((Z, 1), (V, 2), (Z, -1))
    assert psi_word("ba") == ((V, 2),)
    assert psi_word("aba") == ((Z, 1), (V, 3))
    assert psi_word("bb") == ((V, 1), (Z, -1), (V, 1), (Z, -1))
    assert psi("") == RepElement.trivial


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
