import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors as sympy_factors

from cosovereign import (ExactMatrix, NonSquareError, ParseError,
                         SingularMatrixError, determinant, format_matrix,
                         hopf_isomorphic, hopf_isomorphism_witness,
                         invariant_factors, inverse, is_generic,
                         is_normalizable, is_normalized, matrix_fq,
                         Poly, parse_matrix, similar, trace, q)
from _helpers import LONG_LITERAL, companion, generic_integer_matrix, \
    needs_digit_limit, negated, normalized_2x2, random_unimodular, \
    reference_iso_witness


def test_trace_examples():
    assert trace(matrix_fq(q)) == q + q ** -1
    assert trace(ExactMatrix.identity(3)) == 3
    assert trace(ExactMatrix.diagonal([Fraction(1, 2), 2])) == Fraction(5, 2)
    with pytest.raises(NonSquareError):
        trace(ExactMatrix([[1, 2, 3], [4, 5, 6]]))


def test_inverse_examples():
    assert inverse(matrix_fq(q)) == ExactMatrix.diagonal([q, q ** -1])
    assert inverse(ExactMatrix([[2]])) == ExactMatrix([[Fraction(1, 2)]])
    m = ExactMatrix([[1, 0], [1, 1]])
    mi = inverse(m)
    assert mi == ExactMatrix([[1, 0], [-1, 1]])
    assert m * mi == ExactMatrix.identity(2)


def test_exact_matrix_rejects_inexact_entries_and_ragged_rows():
    for c in (1j, Decimal("0.5"), "1/2"):
        with pytest.raises(TypeError, match="inexact"):
            ExactMatrix([[1, 0], [0, c]])
    with pytest.raises(ValueError, match="ragged rows in matrix"):
        ExactMatrix([[1, 2], [3]])


def test_singular_rejected_with_diagnostic():
    with pytest.raises(SingularMatrixError, match="determinant is zero"):
        inverse(ExactMatrix([[1, 2], [2, 4]]))


def test_double_inverse_random():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(6):
            m = ExactMatrix([[rng.randrange(-4, 5) for _ in range(n)]
                             for _ in range(n)])
            if determinant(m) == 0:
                continue
            assert inverse(inverse(m)) == m
            assert m * inverse(m) == ExactMatrix.identity(n)


def test_is_normalized():
    assert is_normalized(matrix_fq(q))
    assert not is_normalized(ExactMatrix.diagonal([1, 2]))
    # orthogonal-like matrices satisfy F = tF^-1, hence are normalized
    for perm in (ExactMatrix([[0, 1], [1, 0]]),
                 ExactMatrix([[0, -1], [1, 0]]),
                 ExactMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])):
        assert inverse(perm).transpose() == perm
        assert is_normalized(perm)


def test_is_normalizable():
    both_zero = ExactMatrix([[0, -1], [1, 0]])
    assert trace(both_zero) == 0 and trace(inverse(both_zero)) == 0
    assert is_normalizable(both_zero)
    # tr = 0 but tr of the inverse is not
    m = companion([-1, 1, 0])
    assert trace(m) == 0 and trace(inverse(m)) != 0
    assert not is_normalizable(m)
    assert not is_normalizable(inverse(m).transpose())
    assert is_normalizable(ExactMatrix.diagonal([1, 2]))
    assert is_normalizable(matrix_fq(q))


def test_is_generic():
    assert is_generic(normalized_2x2(3))
    assert is_generic(normalized_2x2(-2))
    assert is_generic(normalized_2x2(2))
    for t in (-1, 0, 1):
        assert not is_generic(normalized_2x2(t))
    assert not is_generic(ExactMatrix.diagonal([1, 2]))  # not normalized
    with pytest.raises(ValueError):
        is_generic(matrix_fq(q))


def test_generic_implies_normalized():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        m = generic_integer_matrix(rng, n, rng.choice((3, 4, 5, -3)))
        assert is_generic(m)
        assert is_normalized(m)


def test_invariant_factors_product_is_charpoly():
    m = companion([2, -3, 1])
    facs = invariant_factors(m)
    prod = facs[0]
    for f in facs[1:]:
        prod = prod * f
    # char poly of the companion of x^3 + x^2 - 3x + 2
    from cosovereign import Poly
    assert prod == Poly([2, -3, 1, 1])


def test_invariant_factors_divisibility_chain():
    from cosovereign import Poly
    rng = random.Random(31)
    for _ in range(12):
        n = rng.choice((2, 3, 4, 5))
        m = ExactMatrix([[rng.randrange(-2, 3) for _ in range(n)]
                         for _ in range(n)])
        facs = invariant_factors(m)
        assert sum(f.degree() for f in facs) == n
        for a, b in zip(facs, facs[1:]):
            assert (b % a).is_zero()
        assert all(f.leading() == 1 for f in facs)
    # a matrix whose Smith form needs the divisibility fix-up: scalar blocks
    d = ExactMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert invariant_factors(d) == (Poly([-2, 1]),) * 3


def _sympy_invariant_factors(m):
    """sympy's invariant factors of xI - M over Q[x], monic, constants
    dropped."""
    x = sympy.Symbol("x")
    sm = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(
        m[i, j].numerator, m[i, j].denominator))
    facs = (sympy.Poly(f, x).monic() for f in sympy_factors(
        x * sympy.eye(m.rows) - sm, domain=sympy.QQ[x]))
    return tuple(Poly([Fraction(int(c.p), int(c.q))
                       for c in reversed(f.all_coeffs())])
                 for f in facs if f.degree() >= 1)


def _jordan_type(rng, n):
    """Jordan blocks with eigenvalues from {0, 1, 2}, so that eigenvalues
    repeat across blocks, conjugated by a unimodular matrix."""
    rows = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        size = rng.randint(1, n - start)
        lam = rng.choice((0, 1, 2))
        for i in range(start, start + size):
            rows[i][i] = lam
            if i > start:
                rows[i - 1][i] = 1
        start += size
    if n == 1:
        return ExactMatrix(rows)
    p = random_unimodular(rng, n)
    return p * ExactMatrix(rows) * inverse(p)


def test_invariant_factors_and_similar_match_sympy():
    rng = random.Random(2002)
    mats = []
    for _ in range(75):
        n = rng.randint(1, 6)
        mats.append(ExactMatrix([[rng.randrange(-3, 4) for _ in range(n)]
                                 for _ in range(n)]))
        mats.append(_jordan_type(rng, rng.randint(1, 6)))
    factors = [_sympy_invariant_factors(m) for m in mats]
    for m, facs in zip(mats, factors):
        assert invariant_factors(m) == facs
    verdicts = set()
    for (a, fa), (b, fb) in itertools.combinations(zip(mats[1::2],
                                                       factors[1::2]), 2):
        if a.rows == b.rows:
            verdicts.add(similar(a, b))
            assert similar(a, b) == (fa == fb)
    assert verdicts == {True, False}


def test_similar_examples():
    assert similar(ExactMatrix([[0, -1], [1, 0]]), ExactMatrix([[0, 1], [-1, 0]]))
    assert not similar(ExactMatrix.diagonal([1, 2]), ExactMatrix.diagonal([1, 3]))
    with pytest.raises(ValueError):
        similar(ExactMatrix.identity(2), ExactMatrix.identity(3))


def test_similar_needs_full_invariant_factors():
    # nilpotent with Jordan blocks (2,2) vs (2,1,1): same char and minimal
    # polynomials, different invariant factors
    j22 = ExactMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    j211 = ExactMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert not similar(j22, j211)
    assert similar(j22, j22)


def test_similar_is_equivalence_on_conjugates():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.choice((2, 3, 4))
        a = ExactMatrix([[rng.randrange(-3, 4) for _ in range(n)]
                         for _ in range(n)])
        p = random_unimodular(rng, n)
        r = random_unimodular(rng, n)
        b = p * a * inverse(p)
        c = r * b * inverse(r)
        assert similar(a, a)
        assert similar(a, b) and similar(b, a)
        assert similar(a, b) and similar(b, c) and similar(a, c)


def test_hopf_isomorphic():
    rng = random.Random(7)
    e = generic_integer_matrix(rng, 3, 4)
    p = random_unimodular(rng, 3)
    assert hopf_isomorphic(e, p * e * inverse(p))
    assert hopf_isomorphic(e, inverse(e).transpose())
    assert hopf_isomorphism_witness(e, p * e * inverse(p)).startswith("i")
    # different sizes are never isomorphic
    e2 = generic_integer_matrix(rng, 2, 4)
    assert not hopf_isomorphic(e2, e)
    # non-generic inputs violate the hypothesis and are rejected
    with pytest.raises(ValueError, match="generic"):
        hopf_isomorphic(ExactMatrix.diagonal([1, 2]), e)


_WITNESSES = {"i: F ~ E", "i: F ~ -E", "ii: tF^-1 ~ E", "ii: tF^-1 ~ -E",
              None}


def test_iso_witness_matches_four_similarity_search():
    # F conjugate to E, -E, t(E^-1) or t(-E)^-1, or an unrelated generic
    # matrix; det_param 2 or 3 keeps a 3x3 or 4x4 E from its own transpose
    # inverse, so that condition ii is the first to hold
    rng = random.Random(2002)
    seen = set()
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        e = generic_integer_matrix(rng, n, rng.choice((2, 3, 4, 5, -3)),
                                   det_param=rng.choice((1, -1, 2, 3)))
        kind = rng.randrange(5)
        if kind == 4:
            f = generic_integer_matrix(rng, n, rng.choice((6, 7, -5)))
        else:
            g = negated(e) if kind % 2 else e
            if kind >= 2:
                g = inverse(g).transpose()
            p = random_unimodular(rng, n)
            f = p * g * inverse(p)
        witness = reference_iso_witness(e, f)
        assert hopf_isomorphism_witness(e, f) == witness
        seen.add(witness)
    assert seen == _WITNESSES
    e, f = generic_integer_matrix(rng, 3, 4), generic_integer_matrix(rng, 2, 4)
    assert hopf_isomorphism_witness(e, f) is None
    assert reference_iso_witness(e, f) is None


def test_matrix_parse_and_format():
    text = "2 2\n1 -3/2\n0 q^-1\n"
    m = parse_matrix(text)
    assert m.mode == "q"
    assert m[0, 1] == Fraction(-3, 2)
    assert m[1, 1] == q ** -1
    again = parse_matrix(format_matrix(m))
    assert again == m


def test_matrix_mode_is_q_exactly_when_an_entry_depends_on_q():
    m = parse_matrix("2 2\nq/(2*q) 0\n0 2*q/q\n")
    assert m.mode == "rational"
    assert m.entries == ((Fraction(1, 2), 0), (0, 2))
    assert all(type(x) is Fraction for row in m.entries for x in row)
    m = parse_matrix("2 2\n1 0\n0 q\n")
    assert m.mode == "q" and type(m[0, 0]) is Fraction


def test_matrix_parse_errors_have_position():
    with pytest.raises(ParseError) as exc:
        parse_matrix("2 2\n1 2\n3 x\n")
    assert exc.value.line == 3 and exc.value.col == 3
    with pytest.raises(ParseError, match="expected 2 entries"):
        parse_matrix("2 2\n1 2 3\n4 5\n")
    with pytest.raises(ParseError, match="header"):
        parse_matrix("nonsense\n")
    with pytest.raises(ParseError) as exc:
        parse_matrix("0 2\n")
    assert str(exc.value) == ("matrix dimensions must be positive "
                              "(line 1, column 1)")


def test_matrix_comments_and_trailing_lines():
    assert parse_matrix("2 2\n1 0\n# c\n\n0 1\n# end\n") == \
        ExactMatrix.diagonal([1, 1])
    with pytest.raises(ParseError, match="found more") as exc:
        parse_matrix("2 2\n1 0\n0 1\ngarbage here\n")
    assert (exc.value.line, exc.value.col) == (4, 1)


@pytest.mark.parametrize("header", ["--2 2", "\u00b2 2", "2 +-2", "1_0 2"])
def test_matrix_header_needs_ascii_integers(header):
    with pytest.raises(ParseError, match="header") as exc:
        parse_matrix(f"# size\n{header}\n1 0\n0 1\n")
    assert (exc.value.line, exc.value.col) == (2, 1)


@needs_digit_limit
@pytest.mark.parametrize("text, line, col", [
    (f"2 2\n1 0\n0 -{LONG_LITERAL}\n", 3, 4),
    (f"2 2\n1 0\n0 q^{LONG_LITERAL}\n", 3, 5),
    (f"# size\n 2 {LONG_LITERAL}\n1 0\n0 1\n", 2, 4),
    (f"{LONG_LITERAL} 2\n1 0\n0 1\n", 1, 1)])
def test_matrix_overlong_literals_are_parse_errors(text, line, col):
    with pytest.raises(ParseError, match="too many digits") as exc:
        parse_matrix(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_matrix_entry_nesting_is_bounded():
    entry = "(" * 1000 + "1" + ")" * 1000
    with pytest.raises(ParseError, match="nested deeper") as exc:
        parse_matrix(f"1 2\n1 {entry}\n")
    assert exc.value.line == 2
