import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from cosovereign import (AAUT_MAX_N, ExactMatrix, NCPolynomial,
                         SingularMatrixError, build_aaut, build_freeprod,
                         build_hef, build_hplusq, build_hq, build_slq2,
                         check_morphism, confluent, find_ambiguities, inverse,
                         is_free_family, matrix_fq, reduce, reduced_monomials,
                         trace, standard_pi_images, trace_conditions,
                         verify_pi, q)
from _helpers import (is_confluent, pi_check, random_hef_pair, random_scalar,
                      random_unimodular, reference_hef, reference_hplusq,
                      reference_pi_images)

E22 = ExactMatrix.diagonal([1, 2])
F22 = ExactMatrix([[1, 0], [1, 2]])


def test_trace_conditions():
    assert trace_conditions(matrix_fq(q), matrix_fq(q))
    assert trace_conditions(E22, F22)
    assert not trace_conditions(ExactMatrix.identity(2), E22)
    # any invertible square pair: upper-triangular and full matrices too
    assert trace_conditions(E22, ExactMatrix([[1, 1], [0, 2]]))
    assert trace_conditions(ExactMatrix([[2, 1], [1, 1]]),
                            ExactMatrix([[1, 1], [1, 2]]))
    assert not trace_conditions(E22, ExactMatrix([[1, 1], [1, 2]]))
    with pytest.raises(SingularMatrixError):
        trace_conditions(E22, ExactMatrix([[3, 0], [1, 0]]))


def test_trace_conditions_hold_for_similar_matrices():
    # tr(PDP^-1) = tr(D) and (PDP^-1)^-1 = PD^-1P^-1, so the conditions hold
    # for D and any conjugate of it; doubling one diagonal entry of D moves
    # tr(D) and breaks them
    rng = random.Random(11)
    kinds = set()
    for _ in range(40):
        _, d, _ = random_hef_pair(rng)
        p = random_unimodular(rng, d.rows)
        assert trace_conditions(d, p * d * inverse(p))
        i = rng.randrange(d.rows)
        changed = ExactMatrix([[2 * x if r == c == i else x
                                for c, x in enumerate(row)]
                               for r, row in enumerate(d.entries)])
        assert not trace_conditions(d, p * changed * inverse(p))
        kinds.add(d.mode)
    assert kinds == {"rational", "q"}


def test_build_hef_preconditions():
    with pytest.raises(ValueError, match="lower-triangular"):
        build_hef(E22, ExactMatrix([[1, 1], [0, 2]]))
    with pytest.raises(ValueError, match="diagonal"):
        build_hef(F22, F22)
    with pytest.raises(ValueError, match="singular"):
        build_hef(ExactMatrix.diagonal([1, 0]), F22)
    with pytest.raises(ValueError, match="trace conditions"):
        build_hef(ExactMatrix.diagonal([1, 3]), F22)
    build_hef(ExactMatrix.diagonal([1, 3]), F22, unchecked=True)
    with pytest.raises(ValueError, match="at least 2"):
        build_hef(ExactMatrix.diagonal([2]), F22)


from _helpers import expected_hef_witnesses as _expected_witnesses


@pytest.mark.parametrize("e,f,m,n", [
    (E22, F22, 2, 2),
    (ExactMatrix.diagonal([Fraction(1), Fraction(3), Fraction(4, 3)]),
     ExactMatrix([[Fraction(24, 5), 0], [1, Fraction(8, 15)]]), 3, 2),
])
def test_hef_ambiguity_census_and_confluence(e, f, m, n):
    spec = build_hef(e, f)
    assert len(spec.rules) == 2 * (m * m + n * n)
    ambs = find_ambiguities(spec.rules)
    overlaps = {a.witness for a in ambs if a.kind == "overlap"}
    inclusions = {a.witness for a in ambs if a.kind == "inclusion"}
    exp_over, exp_inc = _expected_witnesses(spec.alphabet, m, n)
    assert overlaps == exp_over and len(overlaps) == 4 * m * n
    assert inclusions == exp_inc and len(inclusions) == 2
    # each family is multiplicity-free: one ambiguity per witness
    assert len(ambs) == 4 * m * n + 2
    assert is_confluent(confluent(spec)[1])


def _diagonal_inverse_trace(m):
    """tr(M^-1) of a triangular M: the sum of the 1/M_ii."""
    return sum((1 / m[i, i] for i in range(m.rows)), Fraction(0))


def test_trace_conditions_match_the_inverse_traces():
    # the trace of the eliminated inverse of a triangular M agrees with
    # tr(M^-1) read off its diagonal, on pairs that match and that do not
    rng = random.Random(5)
    kinds = set()
    for _ in range(120):
        e, f, _ = random_hef_pair(rng)
        if rng.random() < 0.3:
            e = ExactMatrix([[rng.choice([0, random_scalar(rng, True)])
                              if j < i else e[i, j] for j in range(e.cols)]
                             for i in range(e.rows)])
        expected = (trace(e) == trace(f) and _diagonal_inverse_trace(e)
                    == _diagonal_inverse_trace(f))
        assert trace_conditions(e, f) == expected
        kinds.add((expected, e.mode == "q" or f.mode == "q"))
    assert len(kinds) == 4


def test_hef_matches_the_hand_solved_builder():
    rng = random.Random(17)
    kinds = set()
    for _ in range(220):
        e, f, unchecked = random_hef_pair(rng)
        kinds.add((unchecked, e.mode == "q" or f.mode == "q"))
        assert (build_hef(e, f, unchecked=unchecked).export()
                == reference_hef(e, f).export())
    assert len(kinds) == 4


_QUOTIENT = (q ** 2 + 1) / (q - 2)


@pytest.mark.parametrize("e_diagonal, f_rows, matched", [
    ([q + 1, _QUOTIENT], [[q + 1, 0], [3, _QUOTIENT]], True),
    ([q + 1, _QUOTIENT], [[q + 1, 0], [Fraction(1, 2), 2 * q]], False),
    ([2, q + 1, 1 / (q + 3)],
     [[q + 1, 0, 0], [q, 2, 0], [1, q ** -1, 1 / (q + 3)]], True)])
def test_hef_with_a_non_monomial_lead_matches_the_hand_solved_builder(
        e_diagonal, f_rows, matched):
    """F_11 = q + 1 and a quotient last entry of E lead two of the four
    identities, so `build_hef` divides them by coefficients that are not
    monomials c*q^k; checked and `unchecked`."""
    e, f = ExactMatrix.diagonal(e_diagonal), ExactMatrix(f_rows)
    expected = reference_hef(e, f).export()
    assert build_hef(e, f, unchecked=True).export() == expected
    if matched:
        assert build_hef(e, f).export() == expected
    else:
        with pytest.raises(ValueError, match="trace conditions"):
            build_hef(e, f)


@pytest.mark.parametrize("qv", [q, Fraction(3, 2), Fraction(-2)])
def test_hq_hplus_and_pi_match_the_written_out_builders(qv):
    fq = matrix_fq(qv)
    hq = build_hq(qv)
    assert hq.rules == reference_hef(fq, fq).rules
    assert build_hplusq(qv).export() == reference_hplusq(qv).export()
    fp = build_freeprod(qv)
    written_out = reference_pi_images(qv, fp)
    assert standard_pi_images(qv, fp) == written_out
    alphabet, checks = verify_pi(qv)
    assert all(r.is_zero() for _, r in checks)
    assert (alphabet, checks) == pi_check(qv, written_out)


def test_u_family_free_but_mixed_family_not():
    spec = build_hef(E22, F22)
    u_names = ["u11", "u12", "u21", "u22"]
    assert is_free_family(spec, u_names, 4)
    assert not is_free_family(spec, ["u11", "v11"], 2)


def test_reduce_relation_example():
    spec = build_hef(E22, F22)
    al = spec.alphabet
    out = reduce(NCPolynomial.monomial(al.word("u12", "v12")), spec)
    assert out == NCPolynomial({(): Fraction(1), al.word("u11", "v11"): Fraction(-1)})


def _constant_of(poly):
    assert set(poly.terms) <= {()}
    return poly.coefficient(())


def _inclusion_residuals(spec):
    _, checks = confluent(spec)
    return checks, {a.witness: r for a, r in checks if a.kind == "inclusion"}


def test_trace_necessity_first_trace():
    # tr(E) != tr(F) while tr(E^-1) = tr(F^-1): the duplicate-lhs inclusion
    # at v11.u11 fails with residual proportional to the trace gap, while
    # the u22.v22 inclusion still resolves
    e = ExactMatrix.diagonal([1, 2])
    f = ExactMatrix([[Fraction(1, 2), 0], [1, -2]])
    assert trace(e) != trace(f)
    assert trace(inverse(e)) == trace(inverse(f))
    spec = build_hef(e, f, unchecked=True)
    checks, inc = _inclusion_residuals(spec)
    assert not is_confluent(checks)
    bad = inc[spec.alphabet.word("v11", "u11")]
    assert not bad.is_zero()
    assert _constant_of(bad) / (trace(e) - trace(f)) != 0
    assert inc[spec.alphabet.word("u22", "v22")].is_zero()


def test_trace_necessity_second_trace():
    # tr(E) = tr(F) while tr(E^-1) != tr(F^-1): now u22.v22 is the failure
    e = ExactMatrix.diagonal([2, 2])
    f = ExactMatrix([[1, 0], [5, 3]])
    assert trace(e) == trace(f)
    assert trace(inverse(e)) != trace(inverse(f))
    spec = build_hef(e, f, unchecked=True)
    checks, inc = _inclusion_residuals(spec)
    assert not is_confluent(checks)
    bad = inc[spec.alphabet.word("u22", "v22")]
    assert not bad.is_zero()
    gap = trace(inverse(e)) - trace(inverse(f))
    assert _constant_of(bad) / gap != 0
    assert inc[spec.alphabet.word("v11", "u11")].is_zero()


def test_build_hq_rules():
    spec = build_hq(q)
    assert len(spec.rules) == 16
    assert spec.alphabet.names == ("ds", "cs", "bs", "as", "a", "b", "c", "d")
    rules = {(spec.alphabet.render(r.lhs), r) for r in spec.rules}
    by_lhs = {}
    for name, r in rules:
        by_lhs.setdefault(name, []).append(r)
    # the two redundant relations are kept, so two left sides repeat
    assert len(by_lhs["as.a"]) == 2
    assert len(by_lhs["d.ds"]) == 2
    al = spec.alphabet
    # b.bs -> 1 - a.as
    (r,) = by_lhs["b.bs"]
    assert r.rhs == NCPolynomial({(): Fraction(1), al.word("a", "as"): Fraction(-1)})
    # cs.c -> q^2 - q^2 ds.d
    (r,) = by_lhs["cs.c"]
    assert r.rhs == NCPolynomial({(): q ** 2, al.word("ds", "d"): -(q ** 2)})
    # the two as.a right sides: 1 - q^2 bs.b and 1 - cs.c
    rhss = {rr.rhs for rr in by_lhs["as.a"]}
    assert NCPolynomial({(): Fraction(1), al.word("bs", "b"): -(q ** 2)}) in rhss
    assert NCPolynomial({(): Fraction(1), al.word("cs", "c"): Fraction(-1)}) in rhss


@pytest.mark.parametrize("qv", [q, Fraction(3, 2)])
def test_hq_is_hef_at_fq_renamed(qv):
    renamed = {"u11": "a", "u12": "b", "u21": "c", "u22": "d",
               "v11": "as", "v12": "bs", "v21": "cs", "v22": "ds"}
    fq = matrix_fq(qv)
    hef = build_hef(fq, fq).export()
    expected = re.sub(r"\b[uv]\d\d\b", lambda m: renamed[m.group()], hef)
    assert build_hq(qv).export() == expected


@pytest.mark.parametrize("qv", [q, Fraction(1), Fraction(3, 2), Fraction(-2)])
def test_hq_confluent(qv):
    assert is_confluent(confluent(build_hq(qv))[1])


def test_q_zero_rejected():
    for builder in (build_hq, build_hplusq, build_slq2, build_freeprod):
        with pytest.raises(ValueError):
            builder(0)
    with pytest.raises(ValueError, match="q must be nonzero"):
        standard_pi_images(0, build_freeprod(q))


def test_inexact_q_rejected():
    fp = build_freeprod(q)
    for builder in (build_slq2, build_hq, matrix_fq,
                    lambda qv: standard_pi_images(qv, fp)):
        for qv in (1j, Decimal("1.5"), "3/2"):
            with pytest.raises(TypeError, match="inexact"):
                builder(qv)


def test_build_hplusq():
    spec = build_hplusq(q)
    assert len(spec.rules) == 26
    assert spec.rules[:16] == build_hq(q).rules
    assert spec.alphabet.names[-2:] == ("ti", "t")
    ambs = find_ambiguities(spec.rules)
    al = spec.alphabet
    witnesses = {a.witness for a in ambs}
    assert al.word("t", "ti", "a") in witnesses
    assert is_confluent(confluent(spec)[1])


def test_hq_reduced_monomials_stay_reduced():
    hq = build_hq(q)
    hp = build_hplusq(q)
    hq_reduced = reduced_monomials(hq, 4)
    # the generator indices agree between the two alphabets
    for mono in hq_reduced:
        p = NCPolynomial.monomial(mono)
        assert reduce(p, hp) == p


def test_t_rule_reduction_example():
    spec = build_hplusq(q)
    al = spec.alphabet
    out = reduce(NCPolynomial.monomial(al.word("t", "ti", "a")), spec)
    assert out == NCPolynomial.monomial(al.word("a"))


def test_build_slq2():
    spec = build_slq2(q)
    assert is_confluent(confluent(spec)[1])
    al = spec.alphabet
    # the displayed identities hold as equalities of normal forms
    da = reduce(NCPolynomial.monomial(al.word("d", "a")), spec)
    qbc1 = reduce(NCPolynomial({al.word("b", "c"): q, (): Fraction(1)}), spec)
    assert da == qbc1
    cb = reduce(NCPolynomial.monomial(al.word("c", "b")), spec)
    bc = reduce(NCPolynomial.monomial(al.word("b", "c")), spec)
    assert cb == bc
    # PBW-style filtration: 9 reduced words of length 2, 14 of length <= 2
    monos = reduced_monomials(spec, 2)
    assert sum(1 for m in monos if len(m) == 2) == 9
    assert len(monos) == 14


def test_build_freeprod():
    spec = build_freeprod(q)
    assert is_confluent(confluent(spec)[1])
    al = spec.alphabet
    out = reduce(NCPolynomial.monomial(al.word("z", "zi", "a")), spec)
    assert out == NCPolynomial.monomial(al.word("a"))
    slq2 = build_slq2(q)
    extra = {a.witness for a in find_ambiguities(spec.rules)} - \
        {a.witness for a in find_ambiguities(slq2.rules)}
    assert extra == {al.word("z", "zi", "z"), al.word("zi", "z", "zi")}


def test_verify_pi_symbolic():
    alphabet, checks = verify_pi(q)
    assert alphabet == build_freeprod(q).alphabet
    assert [label for label, _ in checks] == [
        text for text, _ in build_hq(q).relations()]
    assert all(r.is_zero() for _, r in checks)


def test_verify_pi_corrupted_image():
    fp = build_freeprod(q)
    zc = NCPolynomial.monomial((fp.alphabet.index("z"), fp.alphabet.index("c")))
    images = standard_pi_images(q, fp)
    images["b"] = zc
    _, checks = pi_check(q, images)
    assert not all(r.is_zero() for _, r in checks)


@pytest.mark.parametrize("qv", [q, Fraction(3, 2), Fraction(-2)])
@pytest.mark.parametrize("build", [build_hq, build_hplusq, build_slq2,
                                   build_freeprod])
def test_identity_map_leaves_no_residual(build, qv):
    # every letter to itself: a rule's relation reduces to zero unless an
    # earlier rule shares its left side and the two right sides disagree
    system = build(qv)
    letters = [NCPolynomial.monomial((g,)) for g in range(len(system.alphabet))]
    alphabet, checks = check_morphism(system.relations(), letters, system)
    assert alphabet == system.alphabet
    assert len(checks) == len(system.rules)
    assert all(r.is_zero() for _, r in checks)


def test_identity_map_residual_is_the_inclusion_residual():
    # mismatched traces: rules 4 and 8 share the left side v11.u11 and
    # disagree, so rule 8 alone leaves a residual, the one `confluent`
    # reports for the inclusion (4, 8)
    system = build_hef(E22, ExactMatrix([[Fraction(1, 2), 0], [1, -2]]),
                       unchecked=True)
    letters = [NCPolynomial.monomial((g,)) for g in range(len(system.alphabet))]
    _, checks = check_morphism(system.relations(), letters, system)
    assert [i for i, (_, r) in enumerate(checks) if not r.is_zero()] == [8]
    residual = checks[8][1]
    assert residual.render(system.alphabet) == "9"
    inclusion = [r for a, r in confluent(system)[1]
                 if a.kind == "inclusion" and (a.i, a.j) == (4, 8)]
    assert inclusion == [residual]


def test_basis_count_matches_fusion_dimensions():
    # Peter-Weyl-style cross-check tying the two halves of the library:
    # the reduced monomials of length <= d span the coefficients of the
    # simple labels of length <= d, so their count must equal the sum of
    # squared dimensions (mixed products dim(x,m)*dim(x,n) for H(E,F)).
    from cosovereign import dim, reduced_monomials, words_up_to

    hq = build_hq(q)
    for d in range(5):
        count = len(reduced_monomials(hq, d))
        assert count == sum(dim(x, 2) ** 2 for x in words_up_to(d))

    e = ExactMatrix.diagonal([Fraction(1), Fraction(3), Fraction(4, 3)])
    f = ExactMatrix([[Fraction(24, 5), 0], [1, Fraction(8, 15)]])
    hef = build_hef(e, f)
    for d in range(4):
        count = len(reduced_monomials(hef, d))
        assert count == sum(dim(x, 3) * dim(x, 2) for x in words_up_to(d))


def test_build_aaut_counts_and_samples():
    rel = build_aaut(matrix_fq(q))
    assert len(rel.alphabet.names) == 16
    assert {name: len(polys) for name, polys in rel.families.items()} == {
        "multiplicative": 64, "measure": 64, "counit": 4, "trace": 4}
    al = rel.alphabet
    counit_11 = rel.families["counit"][0]
    assert counit_11 == NCPolynomial({
        (al.index("X11^11"),): Fraction(1),
        (al.index("X11^22"),): Fraction(1),
        (): Fraction(-1)})
    tr_11 = rel.families["trace"][0]
    assert tr_11.coefficient((al.index("X11^11"),)) == q
    assert tr_11.coefficient((al.index("X22^11"),)) == q ** -1
    assert tr_11.coefficient(()) == -q


def _aaut_failures(e, f, unchecked=False):
    """Per family, how many `build_aaut(f)` relations leave a residual when
    X_rs^ij is mapped to u_ri.v_sj and the image is reduced in H(E, F)."""
    rel = build_aaut(f)
    hef = build_hef(e, f, unchecked=unchecked)
    g = hef.alphabet.index
    rng = range(1, f.rows + 1)
    # build_aaut numbers X_rs^ij in the order of (r, s, i, j)
    images = [NCPolynomial.monomial((g(f"u{r}{i}"), g(f"v{s}{j}")))
              for r, s, i, j in product(rng, repeat=4)]
    _, checks = check_morphism([(name, p) for name, polys
                                in rel.families.items() for p in polys],
                               images, hef)
    failures = dict.fromkeys(rel.families, 0)
    for name, residual in checks:
        failures[name] += not residual.is_zero()
    return failures


@pytest.mark.parametrize("diagonal", [
    [2, 3], [q ** -1, q], [1, 2, 5], [q, 2, q ** 2]])
def test_aaut_relations_hold_in_hef(diagonal):
    # H(F, F) is H(F), and the quantum automorphism relations of (M_n, tr_F)
    # hold there under X_rs^ij -> u_ri.v_sj
    f = ExactMatrix.diagonal(diagonal)
    assert _aaut_failures(f, f) == {"multiplicative": 0, "measure": 0,
                                    "counit": 0, "trace": 0}


def test_aaut_relations_fail_in_a_mismatched_hef():
    # traces match but E != F: the measure and trace families need E = F
    e = ExactMatrix.diagonal([Fraction(1, 2), 2])
    f = ExactMatrix.diagonal([2, Fraction(1, 2)])
    assert _aaut_failures(e, f, unchecked=True) == {
        "multiplicative": 0, "measure": 32, "counit": 0, "trace": 4}


def test_aaut_rejects_singular():
    with pytest.raises(SingularMatrixError):
        build_aaut(ExactMatrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="square"):
        build_aaut(ExactMatrix([[1, 0, 0], [0, 1, 0]]))
    # the bound is checked before F is inverted, so a singular F past it
    # names the bound
    with pytest.raises(ValueError, match=f"n > {AAUT_MAX_N}"):
        build_aaut(ExactMatrix.diagonal([0] * (AAUT_MAX_N + 1)))
    assert len(build_aaut(ExactMatrix.identity(AAUT_MAX_N)).families[
        "counit"]) == AAUT_MAX_N ** 2
