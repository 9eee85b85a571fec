import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from cosovereign import (FusionElement, ParseError, bar, dim, dim_element,
                         dual, fuse, fusion_table, odot, parse_word, summands,
                         word_str, words_up_to)
from cosovereign.words import TABLE_MAX_LEN
from _helpers import (element_from_pairs, labels, reference_fuse,
                      splitting_summands)


def fe(*words):
    return FusionElement({w: 1 for w in words})


def test_parse_word():
    assert parse_word("e") == ""
    assert parse_word("ab") == "ab"
    with pytest.raises(ParseError):
        parse_word("axb")
    with pytest.raises(ParseError):
        parse_word("")


def test_bar():
    assert bar("") == ""
    assert bar("ab") == "ab"
    assert bar("aab") == "abb"
    assert dual("a") == "b" and dual("") == ""


def test_bar_involution_and_antimultiplicativity():
    ws = words_up_to(4)
    for x in ws:
        assert bar(bar(x)) == x
    for x in ws:
        for y in ws:
            assert bar(x + y) == bar(y) + bar(x)


def test_odot_examples():
    assert odot("", "ab") == fe("ab")
    assert odot("aba", "b") == fe("abab", "ab")
    assert odot("a", "a") == fe("aa")
    assert odot("b", "a") == fe("ba", "")


def test_odot_is_bilinear():
    x = 2 * fe("ab") - fe("ba")
    y = fe("a") + 3 * fe("")
    expected = FusionElement()
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            expected = expected + (cx * cy) * reference_fuse(wx, wy)
    assert odot(x, y) == expected
    assert expected.render() == "2*aba - baa + 6*ab - 3*ba + 2*a"
    assert x * y == odot(x, y) and odot("ab", y) == fe("ab") * y


def test_fuse_golden_values():
    assert fuse("a", "b") == fe("ab", "")
    assert fuse("ab", "") == fe("ab")
    # confirmed by enumerating all splittings: a single simple summand
    assert fuse("ab", "ba") == fe("abba")


def test_unit_element():
    for x in words_up_to(6):
        assert odot("", x) == fe(x)
        assert odot(x, "") == fe(x)


def test_associativity_small():
    ws = words_up_to(2)
    for x, y, z in itertools.product(ws, repeat=3):
        assert odot(odot(x, y), z) == odot(x, odot(y, z))


def test_multiplicity_freeness():
    for x in words_up_to(5):
        for y in words_up_to(5):
            assert all(c == 1 for _, c in fuse(x, y).pairs())


def test_fuse_inserts_summands_in_leading_term_order():
    """`cosov table` prints a product as its words in insertion order."""
    for x in words_up_to(5):
        for y in words_up_to(5):
            p = fuse(x, y)
            assert list(p.terms) == [w for w, _ in p.pairs()]
            assert set(p.terms.values()) == {1}


def test_term_count_matches_splitting_count():
    # one summand per suffix g of x whose bar is a prefix of y
    for x in words_up_to(5):
        for y in words_up_to(5):
            count = sum(1 for k in range(len(x) + 1)
                        if y.startswith(bar(x[len(x) - k:])))
            assert len(fuse(x, y)) == count


def test_fuse_is_the_splitting_sum_small():
    ws = words_up_to(6)
    for x in ws:
        for y in ws:
            assert fuse(x, y) == reference_fuse(x, y)


@st.composite
def _meeting_labels(draw):
    """(x, y), where half the time y starts with bar of a suffix of x, so
    that long cancellations occur."""
    x = draw(labels)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(x)))
        return x, (bar(x[len(x) - k:]) + draw(labels))[:400]
    return x, draw(labels)


@seed(2002)
@settings(max_examples=150, deadline=None, database=None)
@given(_meeting_labels())
def test_fuse_is_the_splitting_sum(xy):
    x, y = xy
    assert fuse(x, y) == reference_fuse(x, y)
    assert odot(x, y) == fuse(x, y)


def test_duality_detection():
    for x in words_up_to(4):
        for y in words_up_to(4):
            c = fuse(x, y).coefficient("")
            assert c == (1 if y == bar(x) else 0)


def test_dim_examples():
    for n in (2, 3, 7):
        assert dim("a", n) == n and dim("b", n) == n
    assert dim("ab", 2) == 3
    assert dim("aa", 2) == 4
    assert dim("", 5) == 1
    with pytest.raises(ValueError):
        dim("a", 1)


def test_dim_rejects_non_integer_n():
    for bad in (2.9, Fraction(5, 2), 3.7):
        with pytest.raises(TypeError):
            dim("ab", bad)
        with pytest.raises(TypeError):
            dim_element(fuse("a", "b"), bad)


def test_dim_element_checks_n_without_summands():
    # the zero element has no summand whose dim could check n
    for bad in (2.5, Fraction(5, 2)):
        with pytest.raises(TypeError):
            dim_element(FusionElement(), bad)
    for bad in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            dim_element(FusionElement(), bad)
        with pytest.raises(ValueError, match="at least 2"):
            dim("ab", bad)
    assert dim_element(FusionElement(), 2) == 0


def test_dim_is_multiplicative_small():
    for n in (2, 3):
        for x in words_up_to(4):
            for y in words_up_to(4):
                assert dim_element(fuse(x, y), n) == dim(x, n) * dim(y, n)


def test_fusion_element_arithmetic_and_render():
    el = fuse("aba", "b")
    assert el.render() == "abab + ab"
    assert fuse("b", "a").render() == "ba + e"
    assert (el - el).is_zero()
    assert (2 * el).coefficient("abab") == 2
    neg = -el
    assert neg.render() == "-abab - ab"
    assert element_from_pairs(el.to_pairs()) == el
    assert (el + fuse("ab", "")).render() == "abab + 2*ab"
    assert (2 * FusionElement.from_word("")).render() == "2"


def test_words_up_to_order():
    assert words_up_to(1) == ["", "a", "b"]
    assert words_up_to(2)[:5] == ["", "a", "b", "aa", "ab"]


def test_fusion_table():
    table = fusion_table(1)
    assert len(table) == 9
    lookup = {(x, y): p for x, y, p in table}
    assert lookup[("a", "b")] == ("ab", "")
    assert lookup[("b", "b")] == ("bb",)
    assert len(fusion_table(2)) == 49
    with pytest.raises(ValueError):
        fusion_table(9)


@pytest.mark.parametrize("max_len", range(6))
def test_fusion_table_is_the_splitting_sum(max_len):
    """Every product is the tuple of summands the definition gives, leading
    term first, each once."""
    ws = words_up_to(max_len)
    table = fusion_table(max_len)
    assert [(x, y) for x, y, _ in table] == [(x, y) for x in ws for y in ws]
    for x, y, p in table:
        assert type(p) is tuple
        assert list(p) == splitting_summands(x, y)


@pytest.mark.parametrize("max_len", [6, 7, TABLE_MAX_LEN])
def test_fusion_table_is_the_closed_form(max_len):
    """The recurrence's products at the deepest levels, where a wrong row
    or tail index would first show, equal `summands` on every pair."""
    ws = words_up_to(max_len)
    assert fusion_table(max_len) == [(x, y, summands(x, y))
                                     for x in ws for y in ws]


_SHORT_WORDS = st.text(alphabet="ab", max_size=40)


@st.composite
def _meeting_words(draw):
    """(x, y) of up to 40 letters, where half the time y starts with bar of
    a suffix of x, so that long cancellations occur."""
    x = draw(_SHORT_WORDS)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(x)))
        return x, (bar(x[len(x) - k:]) + draw(_SHORT_WORDS))[:40]
    return x, draw(_SHORT_WORDS)


@seed(2002)
@settings(max_examples=300, deadline=None, database=None)
@given(_meeting_words())
def test_summands_are_the_splitting_sum(xy):
    x, y = xy
    assert list(summands(x, y)) == splitting_summands(x, y)


def test_random_associativity_long_words():
    rng = random.Random(17)
    for _ in range(40):
        x, y, z = ("".join(rng.choice("ab") for _ in range(rng.randrange(7)))
                   for _ in range(3))
        assert odot(odot(x, y), z) == odot(x, odot(y, z))
