import random
import sys
from fractions import Fraction

import pytest

from dvrcert.errors import HypothesisViolationError
from dvrcert.groups import trivial_group
from dvrcert.linalg import RING_K, RING_O, RING_RESIDUE, ExactMatrix
from dvrcert.polys import (
    MultiPoly,
    act,
    hilbert_product_truncation,
    invariant_basis,
    molien_series,
    monomials,
    reynolds,
)
from dvrcert.scalars import FractionScalar

from oracles import (
    det_cofactor,
    invariant_dimension_bruteforce,
    molien_coefficients_bruteforce,
)


def _x(descriptor, n, i, ring=RING_K):
    return MultiPoly.variable(ring, descriptor, n, i)


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


def _random_poly(descriptor, n, rng, max_degree=3, ring=RING_K):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(exp) > max_degree:
            continue
        if ring == RING_RESIDUE:
            from dvrcert.scalars import ResidueScalar

            coeff = ResidueScalar(descriptor, rng.randrange(descriptor.p))
        else:
            coeff = FractionScalar(descriptor, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        if not coeff.is_zero():
            terms[exp] = coeff
    return MultiPoly(ring, descriptor, n, terms)


def test_reynolds_examples(z3, s2_z3):
    x1, x2 = _x(z3, 2, 0), _x(z3, 2, 1)
    half = FractionScalar(z3, Fraction(1, 2))
    assert reynolds(s2_z3, x1) == (x1 + x2).scale(half)
    assert reynolds(s2_z3, x1 * x2) == x1 * x2
    assert reynolds(s2_z3, x1 * x1) == (x1 * x1 + x2 * x2).scale(half)


def test_reynolds_gate(s2_z2):
    x1 = _x(s2_z2.descriptor, 2, 0)
    with pytest.raises(HypothesisViolationError):
        reynolds(s2_z2, x1)


def test_invariant_basis_examples(s2_z3, z3):
    assert invariant_basis(s2_z3, 2, RING_K).dimension == 2
    assert invariant_basis(s2_z3, 2, RING_RESIDUE).dimension == 2
    assert invariant_basis(s2_z3, 0, RING_K).dimension == 1
    for poly in invariant_basis(s2_z3, 2, RING_K).polys:
        assert poly.is_homogeneous()
        assert poly.total_degree() == 2


def test_invariant_basis_matches_bruteforce(s2_z3, s3_z5, b2_z3, c4_f5t):
    for group in (s2_z3, s3_z5, b2_z3, c4_f5t):
        for d in range(5):
            for ring in (RING_K, RING_RESIDUE):
                assert (
                    invariant_basis(group, d, ring).dimension
                    == invariant_dimension_bruteforce(group, d, ring)
                )


def test_molien_pinned_examples(s2_z3, s3_z5, z3):
    assert molien_series(s2_z3, 4).coefficients == (1, 1, 2, 2, 3)
    assert molien_series(trivial_group(z3, 2), 2).coefficients == (1, 2, 3)
    assert molien_series(s3_z5, 6).coefficients == (1, 1, 2, 3, 4, 5, 7)


def test_molien_inverts_each_distinct_denominator_once(s3_z5, monkeypatch):
    # S_3 has three classes of characteristic polynomial: 1, 3 and 2 elements
    polys_module = sys.modules["dvrcert.polys"]
    original = polys_module._series_inverse
    calls = []

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(polys_module, "_series_inverse", counted)
    assert molien_series(s3_z5, 6).coefficients == (1, 1, 2, 3, 4, 5, 7)
    assert len(calls) == 3


def test_molien_matches_bruteforce_dimensions(s2_z3, s3_z5, b2_z3):
    for group in (s2_z3, s3_z5, b2_z3):
        series = molien_series(group, 5)
        assert not series.mod_p
        assert list(series.coefficients) == molien_coefficients_bruteforce(group, 5)


def test_molien_ratfunc_is_mod_p(c4_f5t):
    series = molien_series(c4_f5t, 4)
    assert series.mod_p
    assert series.coefficients == (1, 0, 0, 0, 1)
    brute = molien_coefficients_bruteforce(c4_f5t, 4)
    assert [c % 5 for c in brute] == list(series.coefficients)


@pytest.mark.parametrize("kind", ["int-localized", "ratfunc-localized"])
def test_char_series_denominator_trace_and_det(kind):
    from dvrcert.polys import _char_series_denominator
    from dvrcert.scalars import DvrDescriptor

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
        rf = reynolds(s3_z5, f)
        assert reynolds(s3_z5, rf) == rf
        for g in s3_z5.elements:
            assert act(g.to_field(), rf) == rf


def test_reynolds_span_equals_invariant_basis_span(s2_z3, b2_z3):
    from dvrcert.linalg import RowEchelon, ring_zero

    for group, degree in ((s2_z3, 3), (b2_z3, 4)):
        basis = monomials(group.n, degree)
        index = {e: i for i, e in enumerate(basis)}
        zero = ring_zero(RING_K, group.descriptor)

        def coefficient_row(poly):
            row = [zero] * len(basis)
            for e, c in poly.terms.items():
                row[index[e]] = c
            return row

        averaged = RowEchelon()
        for e in basis:
            mono = MultiPoly.monomial(RING_K, group.descriptor, e, group.descriptor.one())
            averaged.add(coefficient_row(reynolds(group, mono)))
        solved = invariant_basis(group, degree, RING_K)
        assert averaged.rank == solved.dimension
        for poly in solved.polys:
            assert averaged.contains(coefficient_row(poly))


def test_action_matrix_respects_composition(s3_z5):
    from dvrcert.polys import action_matrix

    a = s3_z5.elements[1].to_field()
    b = s3_z5.elements[2].to_field()
    assert action_matrix(a * b, 3, 2) == action_matrix(a, 3, 2) * action_matrix(b, 3, 2)


def test_poly_serialization_is_graded_lex(z3):
    x1, x2 = _x(z3, 2, 0), _x(z3, 2, 1)
    f = x2 * x2 + x1 * x2 + x1 + MultiPoly.constant(RING_K, z3, 2, z3.from_int(7))
    assert str(f) == "7 + 1 * X1^1 + 1 * X1^1*X2^1 + 1 * X2^2"


def test_primitive_scaled_moves_k_polys_into_the_ring(z3):
    x1 = _x(z3, 2, 0)
    third = FractionScalar(z3, Fraction(1, 3))
    f = x1.scale(third) + _x(z3, 2, 1).scale(FractionScalar(z3, Fraction(2, 3)))
    scaled = f.primitive_scaled()
    assert scaled.ring == RING_O
    assert min(c.valuation() for c in scaled.terms.values()) == 0
    already = (x1 + _x(z3, 2, 1)).primitive_scaled()
    assert already.ring == RING_O
    assert already.terms == (x1 + _x(z3, 2, 1)).terms
