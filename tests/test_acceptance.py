"""Acceptance suite: every exit criterion, exact arithmetic throughout.

Each test prints one `[criterion N] PASS` line with its runtime; a failing
assert surfaces as the usual pytest failure for that criterion.  Randomized
sweeps use fixed seeds so runs are reproducible.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from cosovereign import (ExactMatrix, NCPolynomial, RepElement, alt_dim,
                         build_freeprod, build_hef, build_hplusq, build_hq,
                         clebsch_gordan, confluent, dim, dim_element,
                         find_ambiguities, hopf_isomorphic, inverse,
                         is_generic, is_normalizable, multiply, odot, psi,
                         psi_word, reduce, reduced_monomials, so3_fuse,
                         standard_pi_images, trace, verify_pi, words_up_to, q)
from _helpers import (confluence_counts, expected_hef_witnesses,
                      generic_integer_matrix, is_confluent, normalized_2x2,
                      pi_check, random_unimodular)

Z, V = "Z", "V"

E22 = ExactMatrix.diagonal([1, 2])
F22 = ExactMatrix([[1, 0], [1, 2]])
# 3x3 diagonal against 2x2 lower-triangular with matching trace pairs
# (tr = 16/3, tr of inverse = 25/12), found by exact search
E32 = ExactMatrix.diagonal([Fraction(1), Fraction(3), Fraction(4, 3)])
F32 = ExactMatrix([[Fraction(24, 5), 0], [1, Fraction(8, 15)]])


class _criterion:
    def __init__(self, number, label, limit_s):
        self.number, self.label, self.limit = number, label, limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"[criterion {self.number}] PASS {self.label} "
                  f"({elapsed:.2f}s, limit {self.limit}s)")
            assert elapsed < self.limit, f"runtime {elapsed:.2f}s over limit"
        else:
            print(f"[criterion {self.number}] FAIL {self.label}")
        return False


def _random_word(rng, max_len):
    return "".join(rng.choice("ab") for _ in range(rng.randrange(max_len + 1)))


def _psi_of_element(el):
    out = RepElement()
    for w, c in el.pairs():
        out = out + c * psi(w)
    return out


def test_criterion_01_fusion_ring_axioms():
    with _criterion(1, "fusion ring axioms", 5):
        ws3 = words_up_to(3)
        assert len(ws3) == 15
        triples = 0
        for x, y, z in itertools.product(ws3, repeat=3):
            assert odot(odot(x, y), z) == odot(x, odot(y, z))
            triples += 1
        assert triples == 3375
        rng = random.Random(101)
        for _ in range(200):
            x, y, z = (_random_word(rng, 6) for _ in range(3))
            assert odot(odot(x, y), z) == odot(x, odot(y, z))
        for x in words_up_to(6):
            one_x = odot("", x)
            assert one_x == odot(x, "")
            assert one_x.pairs() == [(x, 1)]
        for x in words_up_to(5):
            for y in words_up_to(5):
                assert all(c == 1 for _, c in odot(x, y).pairs())


def test_criterion_02_closed_form_images():
    with _criterion(2, "closed-form alternated images", 1):
        for n in range(6):
            ab, ba = "ab" * n, "ba" * n
            assert psi_word(ab) == (((Z, 1), (V, 2 * n), (Z, -1)) if n else ())
            assert psi_word(ba) == (((V, 2 * n),) if n else ())
            assert psi_word(ab + "a") == ((Z, 1), (V, 2 * n + 1))
            assert psi_word(ba + "b") == ((V, 2 * n + 1), (Z, -1))


def test_criterion_03_psi_is_a_ring_embedding():
    with _criterion(3, "psi morphism, simplicity, injectivity", 30):
        ws4 = words_up_to(4)
        assert len(ws4) ** 2 == 961
        for x in ws4:
            px = psi(x)
            for y in ws4:
                assert _psi_of_element(odot(x, y)) == multiply(px, psi(y))
        rng = random.Random(303)
        for _ in range(200):
            x, y = _random_word(rng, 6), _random_word(rng, 6)
            assert _psi_of_element(odot(x, y)) == multiply(psi(x), psi(y))
        ws6 = words_up_to(6)
        assert len(ws6) == 127
        images = {}
        for x in ws6:
            w = psi_word(x)  # raises unless a single coefficient-1 word
            assert w not in images
            images[w] = x


def test_criterion_04_dimension_bridge():
    with _criterion(4, "dimension bridge and multiplicativity", 10):
        for x in words_up_to(6):
            assert dim(x, 2) == alt_dim(psi_word(x))
        ws5 = words_up_to(5)
        for n in (2, 3, 5):
            dims = {x: dim(x, n) for x in ws5}
            assert all(d > 0 for d in dims.values())
            for x in ws5:
                for y in ws5:
                    assert dim_element(odot(x, y), n) == dims[x] * dims[y]


def test_criterion_05_ambiguity_census():
    with _criterion(5, "ambiguity census and confluence", 10):
        spec = build_hef(E22, F22)
        ambs = find_ambiguities(spec.rules)
        overlaps = {a.witness for a in ambs if a.kind == "overlap"}
        inclusions = {a.witness for a in ambs if a.kind == "inclusion"}
        exp_over, exp_inc = expected_hef_witnesses(spec.alphabet, 2, 2)
        assert len(ambs) == 18
        assert overlaps == exp_over and len(overlaps) == 16
        assert inclusions == exp_inc and len(inclusions) == 2
        _, checks = confluent(spec)
        assert is_confluent(checks)
        assert all(r.is_zero() for _, r in checks)

        spec32 = build_hef(E32, F32)
        assert trace(E32) == trace(F32)
        assert trace(inverse(E32)) == trace(inverse(F32))
        _, checks32 = confluent(spec32)
        assert is_confluent(checks32)
        assert confluence_counts(checks32) == {"inclusion": 2, "overlap": 24}


def test_criterion_06_free_subalgebra_at_desk_scale():
    with _criterion(6, "u-monomials reduced up to length 4", 5):
        spec = build_hef(E22, F22)
        al = spec.alphabet
        u_letters = [al.index(n) for n in ("u11", "u12", "u21", "u22")]
        lhss = [r.lhs for r in spec.rules]
        count = 0
        for length in range(1, 5):
            for word in itertools.product(u_letters, repeat=length):
                count += 1
                assert not any(word[i:i + len(l)] == l
                               for l in lhss
                               for i in range(len(word) - len(l) + 1))
        assert count == 340


def test_criterion_07_trace_necessity():
    with _criterion(7, "trace conditions are necessary", 5):
        # first trace mismatched, second matched
        e = ExactMatrix.diagonal([1, 2])
        f = ExactMatrix([[Fraction(1, 2), 0], [1, -2]])
        assert trace(e) != trace(f)
        assert trace(inverse(e)) == trace(inverse(f))
        spec = build_hef(e, f, unchecked=True)
        inc = {a.witness: r for a, r in confluent(spec)[1]
               if a.kind == "inclusion"}
        bad = inc[spec.alphabet.word("v11", "u11")]
        assert not bad.is_zero()
        assert set(bad.terms) == {()}
        assert bad.coefficient(()) / (trace(e) - trace(f)) != 0
        assert inc[spec.alphabet.word("u22", "v22")].is_zero()

        # second trace mismatched, first matched
        e2 = ExactMatrix.diagonal([2, 2])
        f2 = ExactMatrix([[1, 0], [5, 3]])
        assert trace(e2) == trace(f2)
        assert trace(inverse(e2)) != trace(inverse(f2))
        spec2 = build_hef(e2, f2, unchecked=True)
        inc2 = {a.witness: r for a, r in confluent(spec2)[1]
                if a.kind == "inclusion"}
        bad2 = inc2[spec2.alphabet.word("u22", "v22")]
        assert not bad2.is_zero()
        gap = trace(inverse(e2)) - trace(inverse(f2))
        assert bad2.coefficient(()) / gap != 0
        assert inc2[spec2.alphabet.word("v11", "u11")].is_zero()


def test_criterion_08_extension_by_grouplike():
    with _criterion(8, "grouplike extension confluent over Q(q)", 60):
        hq = build_hq(q)
        hp = build_hplusq(q)
        _, checks = confluent(hp)
        assert is_confluent(checks)
        assert all(r.is_zero() for _, r in checks)
        for mono in reduced_monomials(hq, 4):
            p = NCPolynomial.monomial(mono)
            assert reduce(p, hp) == p


def test_criterion_09_free_product_embedding():
    with _criterion(9, "morphism residuals vanish over Q(q)", 30):
        alphabet, checks = verify_pi(q)
        assert len(checks) == 16
        assert all(r.is_zero() for _, r in checks)
        zc = NCPolynomial.monomial((alphabet.index("z"), alphabet.index("c")))
        images = standard_pi_images(q, build_freeprod(q))
        images["b"] = zc
        _, corrupted = pi_check(q, images)
        assert not all(r.is_zero() for _, r in corrupted)


def test_criterion_10_genericity_predicates():
    with _criterion(10, "genericity and normalizability predicates", 1):
        for t in (Fraction(3), Fraction(-5, 2), Fraction(2), Fraction(-2),
                  Fraction(7, 3)):
            assert is_generic(normalized_2x2(t))
        for t in (Fraction(-1), Fraction(0), Fraction(1)):
            assert not is_generic(normalized_2x2(t))
        zero_zero = ExactMatrix([[0, -1], [1, 0]])
        assert is_normalizable(zero_zero)
        from _helpers import companion
        zero_nonzero = companion([-1, 1, 0])  # tr 0, tr of inverse 1
        assert trace(zero_nonzero) == 0
        assert trace(inverse(zero_nonzero)) != 0
        assert not is_normalizable(zero_nonzero)
        assert not is_normalizable(inverse(zero_nonzero).transpose())
        assert is_normalizable(ExactMatrix.diagonal([1, 2]))


def test_criterion_11_isomorphism_classification():
    with _criterion(11, "isomorphism criterion on random generic pairs", 10):
        rng = random.Random(777)
        sizes = [2, 3, 4]
        for k in range(20):
            n = sizes[k % 3]
            t = rng.choice((3, 4, 5, -3, -4))
            e = generic_integer_matrix(rng, n, t)
            assert is_generic(e)
            p = random_unimodular(rng, n)
            assert hopf_isomorphic(e, p * e * inverse(p))
            assert hopf_isomorphic(e, inverse(e).transpose())
            other = t + rng.choice((2, 3)) if t > 0 else t - 2
            g = generic_integer_matrix(rng, n, other)
            assert not hopf_isomorphic(e, g)


def test_criterion_12_clebsch_gordan_conservation():
    with _criterion(12, "tensor dimension conservation", 1):
        for i in range(13):
            for j in range(13):
                assert sum(k + 1 for k in clebsch_gordan(i, j)) == \
                    (i + 1) * (j + 1)
        for k in range(9):
            for l in range(9):
                assert len(so3_fuse(k, l)) == k + l - abs(k - l) + 1
