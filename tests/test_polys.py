import math
import random
import sys
from fractions import Fraction

import pytest

from dvrcert.certify import certify
from dvrcert.errors import HypothesisViolationError, InternalCheckError
from dvrcert.groups import conjugacy_classes, generate_group
from dvrcert.linalg import RING_K, RING_O, RING_RESIDUE, ExactMatrix, RowEchelon, char_poly
from dvrcert.polys import (
    MultiPoly,
    _common_denominator,
    _cyclotomic,
    _eliminated_basis,
    _exact_quotient,
    _integer_char_series_denominator,
    _monomial_actions,
    _orbit_basis,
    _series_quotient,
    act,
    action_matrix,
    element_action_matrix,
    fixed_by_generators,
    hilbert_product_truncation,
    invariant_basis,
    molien_series,
    monomials,
    reynolds,
)
from dvrcert.scalars import DvrDescriptor

from conftest import (
    benchmark_workloads,
    conjugated_over_t,
    constant_ratfunc_groups,
    int_batch_conjugates,
    over_1_plus_t,
    random_unimodular,
)
from oracles import (
    DenseRowEchelon,
    _char_series_denominator,
    act_bruteforce,
    action_matrix_bruteforce,
    det_cofactor,
    element_matrices,
    element_matrix,
    field_p,
    generators_of,
    invariant_dimension_bruteforce,
    inverse_dense,
    molien_coefficients_bruteforce,
    molien_series_field,
    molien_series_per_class,
    poly_coefficient,
    poly_monomial,
    poly_scale,
    poly_variable,
    poly_zero,
    reynolds_flat,
    series_inverse_field,
    square_matrix,
    to_fraction_field,
)


def _x(descriptor, n, i, ring=RING_K):
    return poly_variable(ring, descriptor, n, i)


def test_monomial_enumeration_is_graded_lex():
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomials(1, 4) == ((4,),)
    assert monomials(2, 0) == ((0, 0),)


def test_act_examples(z3):
    swap = ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])
    x1, x2 = _x(z3, 2, 0), _x(z3, 2, 1)
    assert act(swap, x1) == x2
    f = x1 * x2 * x2 + x1
    assert act(ExactMatrix.identity(RING_O, z3, 2), f) == f
    sign = ExactMatrix.from_ints(RING_O, z3, [[1, 0], [0, -1]])
    assert act(sign, x1 * x2 * x2) == x1 * x2 * x2


def test_act_is_degree_preserving_ring_map(z5):
    rng = random.Random(11)
    g = ExactMatrix.from_ints(RING_O, z5, [[1, 2, 0], [0, 1, 1], [1, 1, 1]])
    for _ in range(20):
        f1 = _random_poly(z5, 3, rng)
        f2 = _random_poly(z5, 3, rng)
        assert act(g, f1 * f2) == act(g, f1) * act(g, f2)
        assert act(g, f1 + f2) == act(g, f1) + act(g, f2)


def _mixed_poly(descriptor, n, ring, rng):
    """A polynomial with one term in each degree 0 to 3: integral over O,
    with a 1/pi over K, nonzero residues over k."""
    terms = {}
    for d in range(4):
        exp = [0] * n
        for _ in range(d):
            exp[rng.randrange(n)] += 1
        k = rng.randint(1, descriptor.p - 1)
        if ring == RING_RESIDUE:
            terms[tuple(exp)] = k
        elif ring == RING_O:
            terms[tuple(exp)] = descriptor.from_int(k) * (descriptor.one() + descriptor.uniformizer())
        else:
            terms[tuple(exp)] = descriptor.from_int(k) / descriptor.uniformizer()
    return MultiPoly(ring, descriptor, n, terms)


def test_act_and_action_matrix_match_the_power_oracle(s3_z5, b2_f5t_twisted):
    rng = random.Random(23)
    for group in (s3_z5, b2_f5t_twisted):
        n = group.n
        for ring in (RING_O, RING_K, RING_RESIDUE):
            zero = poly_zero(ring, group.descriptor, n)
            for g in element_matrices(group, ring):
                f = _mixed_poly(group.descriptor, n, ring, rng)
                assert not f.is_homogeneous()
                assert act(g, f) == act_bruteforce(g, f)
                assert act(g, zero) == zero
                for d in range(4):
                    rho = action_matrix(g, n, d)
                    if ring == RING_RESIDUE:
                        rho = _over_F_p(group, rho)
                    assert square_matrix(rho, g) == action_matrix_bruteforce(g, n, d)
            # the memoised images step up, and a lower degree is rebuilt; the
            # int kind's side over K is read off its Molien series and its
            # lifts, so its elements' action matrices are built over k alone
            if group.descriptor.kind == "int-localized" and ring != RING_RESIDUE:
                continue
            idx = group.order - 1
            g = element_matrix(group, idx, ring)
            for d in (2, 3, 1, 4, 0, 4):
                rho = element_action_matrix(group, ring, idx, d)
                if ring == RING_RESIDUE:
                    rho = _over_F_p(group, rho)
                assert square_matrix(rho, g) == action_matrix_bruteforce(g, n, d)
            assert {sum(e) for e in group.memo["images", ring, idx]} == {4}
        # over k, rho_d of the residue rows in ints mod p is that of the k-matrix
        for rows, g in zip(group.residue_rows(), element_matrices(group, RING_RESIDUE)):
            for d in range(4):
                assert square_matrix(_over_F_p(
                    group, action_matrix(rows, n, d, p=group.descriptor.p)), g) == (
                    action_matrix_bruteforce(g, n, d)
                )


def _over_F_p(group, rows) -> list[dict]:
    """Sparse rows over F_p, ints in [0, p), as they are; a stored int
    outside [1, p) fails."""
    p = group.descriptor.p
    assert all(0 < a < p for row in rows for a in row.values())
    return rows


def _random_poly(descriptor, n, rng, max_degree=3, ring=RING_K):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(exp) > max_degree:
            continue
        if ring == RING_RESIDUE:
            coeff = rng.randrange(descriptor.p)
        else:
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if coeff:
            terms[exp] = coeff
    return MultiPoly(ring, descriptor, n, terms)


def test_reynolds_examples(z3, s2_z3):
    x1, x2 = _x(z3, 2, 0), _x(z3, 2, 1)
    half = Fraction(1, 2)
    assert reynolds(s2_z3, [x1, x1 * x2, x1 * x1]) == (
        poly_scale(x1 + x2, half), x1 * x2, poly_scale(x1 * x1 + x2 * x2, half))
    assert reynolds(s2_z3, []) == ()


def test_reynolds_gate(s2_z2):
    x1 = _x(s2_z2.descriptor, 2, 0)
    with pytest.raises(HypothesisViolationError):
        reynolds(s2_z2, [x1])


def test_the_integer_average_and_invariance_test_equal_the_flat_ones(
    s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5, b2_z5_halved,
    b2_f5t_twisted,
):
    # `reynolds` and `fixed_by_generators` run the int kind's polynomials
    # over O and K on the integer forms A / D, in ints; the oracle averages
    # and tests them with `Fraction` matrices.  B_2 conjugated by diag(2, 1)
    # has forms with D = 2, so the scale D^-d is exercised.  Over k, and
    # for the ratfunc group, the oracle's averages are the invariants that
    # `fixed_by_generators` must find fixed
    assert {form.den for form in b2_z5_halved.elements} == {1, 2}
    groups = [s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5, b2_z5_halved]
    groups += int_batch_conjugates(random.Random(26))
    rng = random.Random(2626)
    outcomes = set()  # whether each polynomial before averaging was fixed
    for group in groups + [b2_f5t_twisted]:
        descriptor, n = group.descriptor, group.n
        one = descriptor.one()
        over_k = [_random_poly(descriptor, n, rng, ring=RING_RESIDUE) for _ in range(6)]
        over = {RING_RESIDUE: over_k}
        if descriptor.kind == "int-localized":
            over[RING_K] = ([f.lift(RING_K) for f in over_k[:2]]
                            + [poly_monomial(RING_K, descriptor, e, one)
                               for e in monomials(n, 2)]
                            + [_random_poly(descriptor, n, rng) for _ in range(2)])
            over[RING_O] = [f.lift(RING_O) for f in over_k[2:]]
        for ring, polys in over.items():
            averaged = tuple(reynolds_flat(group, f) for f in polys)
            if ring != RING_RESIDUE:
                assert reynolds(group, polys) == averaged, (group, ring)
            candidates = polys + list(averaged)
            gens = [element_matrix(group, i, ring) for i in group.generator_indices]
            expected = tuple(all(act_bruteforce(g, f) == f for g in gens) for f in candidates)
            assert fixed_by_generators(group, candidates) == expected, (group, ring)
            assert expected[len(polys):] == (True,) * len(polys)
            outcomes.update(expected[:len(polys)])
    assert outcomes == {True, False}


def _coefficient(descriptor, ring, rng):
    """A nonzero coefficient of O, K or k: over K with a pole at pi."""
    if ring == RING_RESIDUE:
        return rng.randrange(1, descriptor.p)
    c = descriptor.from_int(rng.choice((-3, -1, 1, 2, 4)))
    if descriptor.kind != "int-localized":
        c = c + descriptor.from_int(rng.randrange(descriptor.p)) * descriptor.uniformizer()
    return c / descriptor.uniformizer() if ring == RING_K else c


def test_the_invariance_test_matches_the_power_oracle_on_every_fixture(
    s2_z3, s3_z5, b2_z3, b2_z5_halved, c4_f5t, b2_f5t_twisted, neg_identity_z23,
    reflection_and_sign_z5, s2_z2, wa4_z7, wa4_z5,
):
    # `fixed_by_generators` against each generator acting by
    # `act_bruteforce` on the oracles' own matrices, over O, K and k for
    # the int kind and over k for the ratfunc kind: X_1, which every
    # fixture moves, a random polynomial, and the orbit sums sum_g g.f of
    # both, invariant for every p.  Over k the package reads the residue
    # rows mod p
    groups = [s2_z3, s3_z5, b2_z3, b2_z5_halved, c4_f5t, b2_f5t_twisted, neg_identity_z23,
              reflection_and_sign_z5, s2_z2, wa4_z7, wa4_z5, over_1_plus_t(b2_f5t_twisted)]
    rng = random.Random(3131)
    for group in groups:
        descriptor, n = group.descriptor, group.n
        int_kind = descriptor.kind == "int-localized"
        for ring in (RING_O, RING_K, RING_RESIDUE) if int_kind else (RING_RESIDUE,):
            x1 = poly_monomial(ring, descriptor, (1,) + (0,) * (n - 1),
                                    _coefficient(descriptor, ring, rng))
            mixed = MultiPoly(ring, descriptor, n, {
                tuple(rng.randint(0, 2) for _ in range(n)): _coefficient(descriptor, ring, rng)
                for _ in range(3)})
            elements = element_matrices(group, ring)
            orbit_sums = [sum((act_bruteforce(g, f) for g in elements),
                              poly_zero(ring, descriptor, n)) for f in (x1, mixed)]
            candidates = [x1, mixed] + orbit_sums
            gens = [element_matrix(group, i, ring) for i in group.generator_indices]
            expected = tuple(all(act_bruteforce(g, f) == f for g in gens) for f in candidates)
            assert expected[0] is False and expected[2:] == (True, True), (group, ring)
            assert fixed_by_generators(group, candidates) == expected, (group, ring)


def test_polynomials_averaged_together_must_share_the_group_s_ring(
        s2_z3, z3, z5, c4_f5t, f5t):
    with pytest.raises(ValueError, match="different rings are acted on apart"):
        reynolds(s2_z3, [_x(z3, 2, 0), _x(z3, 2, 0, RING_RESIDUE)])
    with pytest.raises(ValueError, match="for a group over"):
        fixed_by_generators(s2_z3, [_x(z5, 2, 0)])
    # the Reynolds average runs on the int kind's integer forms alone, and
    # the invariance test reads a ratfunc group's residue rows alone
    with pytest.raises(ValueError, match="not over k"):
        reynolds(s2_z3, [_x(z3, 2, 0, RING_RESIDUE)])
    for ring in (RING_O, RING_K):
        x = _x(f5t, 1, 0, ring)
        for average_or_test in (reynolds, fixed_by_generators):
            with pytest.raises(ValueError, match="ratfunc group"):
                average_or_test(c4_f5t, [x])


def test_invariant_basis_examples(s2_z3, z3):
    # over K = Q by the averaging oracle: the package solves no system there
    assert invariant_dimension_bruteforce(s2_z3, 2, RING_K) == 2
    assert invariant_basis(s2_z3, 2, RING_RESIDUE).dimension == 2
    assert invariant_dimension_bruteforce(s2_z3, 0, RING_K) == 1
    assert invariant_basis(s2_z3, 0, RING_RESIDUE).dimension == 1
    for poly in invariant_basis(s2_z3, 2, RING_RESIDUE).polys:
        assert poly.is_homogeneous()
        assert {sum(e) for e in poly.terms} == {2}


def _conjugated_off_the_monomials(rng: random.Random, *groups) -> list:
    """Each group conjugated by a random basis change: an int group by
    `random_unimodular`, a ratfunc one by `conjugated_over_t`."""
    out = []
    for group in groups:
        if group.descriptor.kind == "ratfunc-localized":
            out.append(conjugated_over_t(group, rng))
            continue
        t = random_unimodular(group.descriptor, group.n, rng)
        t_inv = inverse_dense(t)
        out.append(generate_group([t * g * t_inv for g in generators_of(group)]))
    return out


def test_invariant_basis_matches_bruteforce(s2_z3, s3_z5, b2_z3, c4_f5t):
    # an int-kind group's dimensions over K = Q are its Molien coefficients;
    # the conjugated copies are not monomial over k, so their bases over k
    # are eliminated, and the elimination keeps its brute-force check
    given = [s2_z3, s3_z5, b2_z3, c4_f5t]
    conjugated = _conjugated_off_the_monomials(
        random.Random(1), s2_z3, s3_z5, b2_z3, constant_ratfunc_groups()[0])
    assert all(_monomial_actions(group) is not None for group in given)
    assert all(_monomial_actions(group) is None for group in conjugated)
    for group in given + conjugated:
        int_kind = group.descriptor.kind == "int-localized"
        molien = molien_series(group, 4).coefficients
        for d in range(5):
            for ring in (RING_K, RING_RESIDUE):
                dimension = (molien[d] if int_kind and ring == RING_K
                             else invariant_basis(group, d, ring).dimension)
                assert dimension == invariant_dimension_bruteforce(group, d, ring)


def test_the_orbit_basis_is_the_eliminated_basis(s2_z3, s3_z5, b2_z3, c4_f5t, neg_identity_z23,
                                                 reflection_and_sign_z5, s2_z2):
    # every monomial fixture, S_2 over Z_(2), where p divides |G|, included:
    # the same polynomials in the same order, the reduced echelon basis
    groups = [s2_z3, s3_z5, b2_z3, c4_f5t, neg_identity_z23, reflection_and_sign_z5, s2_z2,
              *constant_ratfunc_groups()]
    for group in groups:
        actions = _monomial_actions(group)
        assert actions is not None and group.memo[("monomial", RING_RESIDUE)] is actions
        for d in range(9):
            assert _orbit_basis(group, d, actions) == _eliminated_basis(group, d, RING_RESIDUE)


def test_orbits_whose_scalars_disagree_carry_no_invariant(f5t, monkeypatch):
    # -I sends X^e to (-1)^|e| X^e, and diag(2, 2) over F_5(t) to 2^|e| X^e,
    # 2 of order 4 in F_5: every orbit is one monomial, whose one edge
    # disagrees unless the scalar is 1
    def refused(group, d, ring):
        raise AssertionError("a monomial group's basis over k was eliminated")

    monkeypatch.setattr(sys.modules["dvrcert.polys"], "_eliminated_basis", refused)
    negated = generate_group([ExactMatrix.from_ints(
        RING_O, DvrDescriptor("int-localized", 23), [[-1, 0], [0, -1]])])
    scaled = generate_group([ExactMatrix.from_ints(RING_O, f5t, [[2, 0], [0, 2]])])
    for d in range(9):
        assert invariant_basis(negated, d, RING_RESIDUE).dimension == (0 if d % 2 else d + 1)
        assert invariant_basis(scaled, d, RING_RESIDUE).dimension == (0 if d % 4 else d + 1)


def test_molien_pinned_examples(s2_z3, s3_z5, z3):
    assert molien_series(s2_z3, 4).coefficients == (1, 1, 2, 2, 3)
    assert molien_series(generate_group([], z3, n=2), 2).coefficients == (1, 2, 3)
    assert molien_series(s3_z5, 6).coefficients == (1, 1, 2, 3, 4, 5, 7)


def test_molien_inverts_each_distinct_denominator_once(s3_z5, c4_f5t, monkeypatch):
    # S_3 has three classes of characteristic polynomial: 1, 3 and 2
    # elements.  The int kind divides L by each once and runs one
    # recurrence to the bound; the ratfunc kind inverts each distinct
    # denominator mod p, C_4 = <2> over F_5(t) four of them
    polys_module = sys.modules["dvrcert.polys"]
    original = polys_module._series_quotient
    calls = []

    def counted(num, den, bound):
        calls.append((num, den, bound))
        return original(num, den, bound)

    monkeypatch.setattr(polys_module, "_series_quotient", counted)
    fresh = generate_group(generators_of(s3_z5))
    assert molien_series(fresh, 24).coefficients == hilbert_product_truncation((1, 2, 3), 24)
    # L = (1 - z)(1 - z^2)(1 - z^3), so N = |G|: one recurrence to the bound
    common = (1, -1, -1, 0, 1, 1, -1)
    assert [c for c in calls if c[2] == 24] == [([6, 0, 0, 0], common, 24)]
    assert [c[1] for c in calls if c[0] == common] == list(
        dict.fromkeys(_class_denominators(fresh)))
    # kept in the group's memo: asked again, for the graded table, it is read
    count = len(calls)
    assert molien_series(fresh, 24) is fresh.memo["molien", 24, RING_K]
    assert len(calls) == count
    del calls[:]
    fresh = generate_group(generators_of(c4_f5t))
    assert molien_series(fresh, 8).coefficients == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert sorted(c[1] for c in calls) == [(1, 1), (1, 2), (1, 3), (1, 4)]
    assert all(c[0] == (1,) and c[2] == 8 for c in calls)


def _class_denominators(group) -> list:
    """det(I - z g) of a representative of each conjugacy class, in ints."""
    return [_integer_char_series_denominator(group.element(members[0]))
            for members in conjugacy_classes(group)]


def _conjugated(group, rng):
    t = random_unimodular(group.descriptor, group.n, rng)
    t_inv = inverse_dense(t)
    return generate_group([t * g * t_inv for g in generators_of(group)],
                          descriptor=group.descriptor)


def test_molien_over_the_common_denominator_equals_the_per_class_sum(
    s2_z3, s3_z5, b2_z3, b2_z5_halved, neg_identity_z23, reflection_and_sign_z5, wa4_z7, wf4_z5,
):
    # one recurrence for N / L against one inversion per distinct class
    # denominator, at the default bound |G| of each int fixture past the
    # gate, of seeded conjugates of the small ones and of W(A_4), and of the
    # benchmark batch's int groups conjugated as the batch conjugates them
    fixtures = [s2_z3, s3_z5, b2_z3, b2_z5_halved, neg_identity_z23,
                reflection_and_sign_z5, wa4_z7, wf4_z5]
    for seed in range(3):
        rng = random.Random(700 + seed)
        fixtures += [_conjugated(g, rng) for g in (s3_z5, b2_z3, reflection_and_sign_z5)]
        fixtures += int_batch_conjugates(rng, copies=1)
    fixtures.append(_conjugated(wa4_z7, random.Random(703)))
    for group in fixtures:
        series = molien_series(group, group.order)
        assert not series.mod_p
        assert list(series.coefficients) == molien_series_per_class(group, group.order), group


def _product_of_one_minus_z_to_the(degrees) -> tuple:
    out = [1]
    for d in degrees:
        out = [a - (out[i - d] if i >= d else 0) for i, a in enumerate(out + [0] * d)]
    return tuple(out)


def test_common_denominator_is_prod_one_minus_z_to_the_degrees(s3_z5, b2_z3, wa4_z7, wf4_z5, z5):
    # Springer: for a rational reflection group the lcm of the det(I - z g)
    # is prod_i (1 - z^{d_i}) over its fundamental degrees
    wb4 = generate_group([ExactMatrix.from_ints(RING_O, z5, g)
                          for g in benchmark_workloads().hyperoctahedral(4)])
    for group, degrees in ((s3_z5, (1, 2, 3)), (b2_z3, (2, 4)), (wb4, (2, 4, 6, 8)),
                           (wa4_z7, (2, 3, 4, 5)), (wf4_z5, (2, 6, 8, 12))):
        common = _common_denominator(_class_denominators(group), group.order, group.n)
        assert common == _product_of_one_minus_z_to_the(degrees), degrees
    # W(B_4): 14 distinct denominators, over an L with 6 terms past its constant
    assert len(set(_class_denominators(wb4))) == 14
    assert _product_of_one_minus_z_to_the((2, 4, 6, 8)) == (
        1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, -1, 0, -1, 0, 1)


def test_a_denominator_that_is_not_cyclotomic_is_refused():
    with pytest.raises(InternalCheckError, match="not a product of cyclotomic"):
        _common_denominator([(1, -1), (1, -2)], 2, 1)
    # 1 + z is Psi_2, but 2 does not divide the order 3
    with pytest.raises(InternalCheckError, match="not a product of cyclotomic"):
        _common_denominator([(1, -1), (1, 1)], 3, 1)
    assert _common_denominator([(1, -1), (1, 1)], 2, 1) == (1, 0, -1)


def test_cyclotomic_polynomials_and_exact_quotients():
    # prod_{d | k} Psi_d = 1 - z^k, and deg Psi_k = phi(k)
    for k in range(1, 31):
        product = (1,)
        for d in range(1, k + 1):
            if k % d == 0:
                psi = _cyclotomic(d)
                product = tuple(
                    sum(product[j] * psi[i - j] for j in range(len(product)) if 0 <= i - j < len(psi))
                    for i in range(len(product) + len(psi) - 1))
        assert product == (1,) + (0,) * (k - 1) + (-1,), k
        assert len(_cyclotomic(k)) - 1 == sum(math.gcd(j, k) == 1 for j in range(1, k + 1))
    assert _cyclotomic(12) == (1, 0, -1, 0, 1)
    assert _exact_quotient((1, 0, -1), (1, -1)) == (1, 1)
    assert _exact_quotient((1, 0, 1), (1, -1)) is None


def test_molien_matches_bruteforce_dimensions(s2_z3, s3_z5, b2_z3):
    for group in (s2_z3, s3_z5, b2_z3):
        series = molien_series(group, 5)
        assert not series.mod_p
        assert list(series.coefficients) == molien_coefficients_bruteforce(group, 5)


def _assert_integer_path_matches_field_path(group, bound):
    pairs = {
        (_integer_char_series_denominator(form), _char_series_denominator(m))
        for form, m in zip(group.elements, element_matrices(group, RING_K))
    }
    for integer_denom, field_denom in pairs:
        assert integer_denom == field_denom
        inverse = _series_quotient((1,), integer_denom, bound)
        assert all(type(b) is int for b in inverse)
        assert inverse == series_inverse_field(field_denom, bound, Fraction(0), Fraction(1))
    assert list(molien_series(group, bound).coefficients) == molien_series_field(group, bound)


@pytest.mark.parametrize("seed", range(3))
def test_integer_molien_of_conjugated_groups_matches_field_recurrence(s3_z5, b2_z3, seed):
    rng = random.Random(300 + seed)
    for group in (s3_z5, b2_z3):
        t = random_unimodular(group.descriptor, group.n, rng)
        t_inv = inverse_dense(t)
        conjugated = generate_group([t * g * t_inv for g in generators_of(group)],
                                    descriptor=group.descriptor)
        # the entries leave Z, but det(I - z g) only depends on g's
        # eigenvalues, roots of unity: its coefficients stay integers
        assert any(a.denominator != 1 for m in element_matrices(conjugated, RING_O)
                   for row in m.entries for a in row)
        _assert_integer_path_matches_field_path(conjugated, 12)
        assert molien_series(conjugated, 12) == molien_series(group, 12)
        assert list(molien_series(conjugated, 4).coefficients) == (
            molien_coefficients_bruteforce(conjugated, 4)
        )


def test_integer_molien_of_wb3_matches_field_recurrence(z5):
    wb3 = generate_group([
        ExactMatrix.from_ints(RING_O, z5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    ])
    assert wb3.order == 48
    _assert_integer_path_matches_field_path(wb3, 48)
    # the fundamental degrees of W(B_3) are 2, 4 and 6
    assert molien_series(wb3, 48).coefficients == hilbert_product_truncation((2, 4, 6), 48)


def test_ratfunc_series_inverse_matches_field_recurrence(b2_f5t_twisted):
    # the ratfunc kind's denominators are those of the residue rows mod p,
    # inverted in ints and read mod p: the field recurrence on the elements'
    # own denominators over F_5(t), whose coefficients are constants, reduced
    group, descriptor = b2_f5t_twisted, b2_f5t_twisted.descriptor
    zero, one = descriptor.zero(), descriptor.one()
    pairs = {(tuple(c % 5 for c in char_poly(rows, 0, 1)), _char_series_denominator(m))
             for rows, m in zip(group.residue_rows(), element_matrices(group, RING_K))}
    # the identity, the four reflections, -I and the two rotations of order 4
    assert len(pairs) == 4
    for denom, field_denom in pairs:
        assert denom == tuple(descriptor.reduce(c) for c in field_denom)
        assert [b % 5 for b in _series_quotient((1,), denom, 12)] == [
            descriptor.reduce(b) for b in series_inverse_field(field_denom, 12, zero, one)]


def test_series_inverse_refuses_a_constant_term_other_than_one():
    with pytest.raises(InternalCheckError, match="constant term 2"):
        _series_quotient((1,), (2, -1), 4)
    assert _series_quotient((1,), (1, -1), 4) == [1, 1, 1, 1, 1]
    # (1 + z) / (1 - z) = 1 + 2z + 2z^2 + ...; a numerator past the bound is cut
    assert _series_quotient((1, 1), (1, -1), 4) == [1, 2, 2, 2, 2]
    assert _series_quotient((1, 1, 5), (1,), 1) == [1, 1]


def test_integer_denominator_is_read_off_the_integer_form():
    from dvrcert.linalg import IntMatrix

    # [[0, 1/2], [2, 0]] = [[0, 1], [4, 0]] / 2: det(I - z g) = 1 - z^2, as ints
    swap = IntMatrix(2, [[0, 1], [4, 0]])
    assert _integer_char_series_denominator(swap) == (1, 0, -1)
    assert all(type(c) is int for c in _integer_char_series_denominator(swap))
    # [[1/2]] has det(I - z g) = 1 - z/2: not integral, so refused
    with pytest.raises(InternalCheckError, match="non-integer"):
        _integer_char_series_denominator(IntMatrix(2, [[1]]))


def test_molien_ratfunc_is_mod_p(c4_f5t):
    series = molien_series(c4_f5t, 4)
    assert series.mod_p
    assert series.coefficients == (1, 0, 0, 0, 1)
    brute = molien_coefficients_bruteforce(c4_f5t, 4)
    assert [c % 5 for c in brute] == list(series.coefficients)


@pytest.mark.parametrize("kind", ["int-localized", "ratfunc-localized"])
def test_char_series_denominator_trace_and_det(kind):
    descriptor = DvrDescriptor(kind, 5)
    rng = random.Random(7)
    for _ in range(20):
        g = ExactMatrix.from_ints(
            RING_K, descriptor, [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        )
        coeffs = _char_series_denominator(g)
        trace = g.entry(0, 0) + g.entry(1, 1) + g.entry(2, 2)
        assert len(coeffs) == 4
        assert coeffs[0] == descriptor.one()
        assert coeffs[1] == -trace
        assert coeffs[3] == -det_cofactor(g)  # (-1)^3 det(g)


def test_hilbert_product_truncation():
    assert hilbert_product_truncation([2, 4], 8) == (1, 0, 1, 0, 2, 0, 2, 0, 3)
    assert hilbert_product_truncation([1, 2, 3], 6) == (1, 1, 2, 3, 4, 5, 7)
    assert hilbert_product_truncation([4], 4) == (1, 0, 0, 0, 1)


def test_reynolds_is_idempotent_projection(s3_z5):
    rng = random.Random(5)
    for _ in range(15):
        f = _random_poly(s3_z5.descriptor, 3, rng)
        (rf,) = reynolds(s3_z5, [f])
        assert reynolds(s3_z5, [rf]) == (rf,)
        for g in element_matrices(s3_z5, RING_K):
            assert act(g, rf) == rf


def _constant_groups(c4_f5t):
    """Ratfunc groups inside GL_n(F_p), with the degree bound each is tested to:
    C_4, then B_2, <diag(1, 3)> and G(4,1,2) (`constant_ratfunc_groups`)."""
    return [(c4_f5t, 8)] + list(zip(constant_ratfunc_groups(), (8, 8, 12)))


def test_the_basis_over_K_of_a_group_over_F_p_is_the_lifted_basis_over_k(c4_f5t):
    # the lifted basis must be the reduced echelon kernel of the stacked
    # RatFunc rows rho_d(g) - I over F_p(t), eliminated here by the oracle
    for group, bound in _constant_groups(c4_f5t):
        assert group.conjugator() is None
        descriptor = group.descriptor
        zero, one = descriptor.zero(), descriptor.one()
        gens = [to_fraction_field(g) for g in generators_of(group)]
        for d in range(bound + 1):
            basis = monomials(group.n, d)
            stacked = DenseRowEchelon()
            for g in gens:
                rho = action_matrix_bruteforce(g, group.n, d).entries
                for r, row in enumerate(rho):
                    stacked.add([a - one if c == r else a for c, a in enumerate(row)])
            lifted = invariant_basis(group, d, RING_K)
            assert [tuple(poly_coefficient(f, e) for e in basis) for f in lifted.polys] == (
                stacked.kernel(len(basis), zero, one)
            )
            assert all(f.ring == RING_K for f in lifted.polys)
            # and coefficientwise it is the basis over k
            assert [{e: descriptor.reduce(c) for e, c in f.terms.items()}
                    for f in lifted.polys] == [
                f.terms for f in invariant_basis(group, d, RING_RESIDUE).polys
            ]


def test_a_group_over_F_p_builds_no_action_matrix_over_K(c4_f5t, b2_f5t_twisted, monkeypatch):
    # no ratfunc group past the gate, inside GL_n(F_p) or conjugated out of
    # it, builds an action matrix over K or eliminates rows of RatFunc values
    # in `certify`: its K side is its k side lifted, and carried by act(A, .)
    # when it is conjugated
    polys_module = sys.modules["dvrcert.polys"]
    built, eliminated = [], set()

    def counted(g, n, d, **kwargs):
        built.append(RING_RESIDUE if kwargs.get("p") else RING_K)
        return action_matrix(g, n, d, **kwargs)

    def counted_add(self, row, _original=RowEchelon.add):
        eliminated.update(type(a) for a in row.values())
        return _original(self, row)

    monkeypatch.setattr(polys_module, "action_matrix", counted)
    monkeypatch.setattr(RowEchelon, "add", counted_add)
    rng = random.Random(21)
    jobs = [(group, bound, True) for group, bound in _constant_groups(c4_f5t)]
    # a conjugate in GL_1 is the group itself
    jobs.append((over_1_plus_t(c4_f5t), 8, True))
    jobs += [(conjugated_over_t(group, rng), 8, False) for group in constant_ratfunc_groups()]
    jobs += [(over_1_plus_t(jobs[1][0]), 8, False), (b2_f5t_twisted, 8, False)]
    for group, bound, is_constant in jobs:
        built.clear()
        eliminated.clear()
        fresh = generate_group(generators_of(group), descriptor=group.descriptor)
        assert (fresh.conjugator() is None) is is_constant
        assert certify(fresh, bound).verdict == "certified"
        assert built and RING_K not in built
        assert eliminated == {int}


def test_reynolds_span_equals_invariant_basis_span(s2_z3, b2_z3):
    # over K = Q the averages span a space of the dimension the averaging
    # oracle counts; over k the oracle's averages span the solved
    # invariant basis
    from dvrcert.linalg import ring_one, ring_zero

    for group, degree in ((s2_z3, 3), (b2_z3, 4)):
        basis = monomials(group.n, degree)
        index = {e: i for i, e in enumerate(basis)}
        for ring in (RING_K, RING_RESIDUE):
            zero = ring_zero(ring, group.descriptor)

            def coefficient_row(poly):
                row = [zero] * len(basis)
                for e, c in poly.terms.items():
                    row[index[e]] = c
                return row

            averaged = DenseRowEchelon(p=field_p(ring, group.descriptor))
            monomial_polys = [
                poly_monomial(ring, group.descriptor, e, ring_one(ring, group.descriptor))
                for e in basis]
            for poly in (reynolds(group, monomial_polys) if ring == RING_K
                         else [reynolds_flat(group, f) for f in monomial_polys]):
                averaged.add(coefficient_row(poly))
            assert averaged.rank == invariant_dimension_bruteforce(group, degree, ring)
            if ring == RING_RESIDUE:
                solved = invariant_basis(group, degree, ring)
                assert averaged.rank == solved.dimension
                for poly in solved.polys:
                    assert averaged.contains(coefficient_row(poly))


def test_action_matrix_respects_composition(s3_z5):
    a = element_matrix(s3_z5, 1)
    b = element_matrix(s3_z5, 2)
    rho = [square_matrix(action_matrix(g, 3, 2), g) for g in (a * b, a, b)]
    assert rho[0] == rho[1] * rho[2]


def test_poly_serialization_is_graded_lex(z3):
    x1, x2 = _x(z3, 2, 0), _x(z3, 2, 1)
    f = x2 * x2 + x1 * x2 + x1 + MultiPoly.constant(RING_K, z3, 2, z3.from_int(7))
    assert str(f) == "7 + 1 * X1^1 + 1 * X1^1*X2^1 + 1 * X2^2"
