import sys

import pytest

from dvrcert.errors import CertificateConditionError, DegreeBoundExhaustedError
from dvrcert.certify import (
    FundamentalInvariants,
    certify,
    fundamental_invariants,
    graded_isomorphism_check,
    h1_dimension,
    jacobian_independence,
    lift_fundamentals,
)
from dvrcert.groups import generate_group, trivial_group
from dvrcert.linalg import RING_K, RING_O, RING_RESIDUE, ExactMatrix, inverse
from dvrcert.polys import MultiPoly, act
from dvrcert.scalars import DvrDescriptor, ResidueScalar

from oracles import h1_bruteforce, invariant_dimension_bruteforce


# -- fundamental invariants -------------------------------------------------------


def test_fundamental_invariants_s2_residue(s2_z3):
    inv = fundamental_invariants(s2_z3, RING_RESIDUE, 4)
    assert inv.degrees == (1, 2)
    gens = [reduce_gen for reduce_gen in inv.generators]
    # the degree-1 generator must be (a multiple of) X1 + X2
    lead = gens[0]
    assert lead.coefficient((1, 0)) == lead.coefficient((0, 1))


def test_fundamental_invariants_b2(b2_z3):
    for ring in (RING_K, RING_RESIDUE):
        inv = fundamental_invariants(b2_z3, ring, 8)
        assert inv.degrees == (2, 4)


def test_fundamental_invariants_c4(c4_f5t):
    for ring in (RING_K, RING_RESIDUE):
        inv = fundamental_invariants(c4_f5t, ring, 4)
        assert inv.degrees == (4,)


def test_fundamental_invariants_exhaustion(c4_f5t):
    with pytest.raises(DegreeBoundExhaustedError):
        fundamental_invariants(c4_f5t, RING_K, 3)


def test_fundamental_invariants_rejects_non_reflection_groups(neg_identity_z23):
    # invariants of {+-I} need three generators in two variables
    with pytest.raises((CertificateConditionError, DegreeBoundExhaustedError)):
        fundamental_invariants(neg_identity_z23, RING_K, 4)


def test_fundamental_generators_are_invariant(s3_z5):
    inv = fundamental_invariants(s3_z5, RING_K, 6)
    assert inv.degrees == (1, 2, 3)
    for f in inv.generators:
        for g in s3_z5.elements:
            assert act(g.to_field(), f) == f


def test_degree_multiset_survives_variable_relabeling(s3_z5):
    # conjugating by a permutation matrix relabels the variables, which
    # permutes the monomial order used for pivoting
    perm = ExactMatrix.from_ints(RING_O, s3_z5.descriptor, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    moved = generate_group(
        [perm * g * inverse(perm) for g in s3_z5.generators],
        descriptor=s3_z5.descriptor,
    )
    inv = fundamental_invariants(moved, RING_K, 6)
    assert inv.degrees == (1, 2, 3)


# -- Jacobian ---------------------------------------------------------------------


def _poly_from_ints(descriptor, n, ring, mapping):
    if ring == RING_RESIDUE:
        terms = {e: ResidueScalar(descriptor, c) for e, c in mapping.items()}
    else:
        terms = {e: descriptor.from_int(c) for e, c in mapping.items()}
    return MultiPoly(ring, descriptor, n, terms)


def test_jacobian_examples(z3):
    e1 = _poly_from_ints(z3, 2, RING_K, {(1, 0): 1, (0, 1): 1})
    e2 = _poly_from_ints(z3, 2, RING_K, {(1, 1): 1})
    assert jacobian_independence(FundamentalInvariants(RING_K, (e1, e2), (1, 2)))

    x1 = _poly_from_ints(z3, 2, RING_K, {(1, 0): 1})
    x1sq = _poly_from_ints(z3, 2, RING_K, {(2, 0): 1})
    assert not jacobian_independence(FundamentalInvariants(RING_K, (x1, x1sq), (1, 2)))

    f5 = DvrDescriptor("int-localized", 5)
    x4 = _poly_from_ints(f5, 1, RING_RESIDUE, {(4,): 1})
    assert jacobian_independence(FundamentalInvariants(RING_RESIDUE, (x4,), (4,)))


def test_jacobian_vanishes_for_pth_powers():
    f3 = DvrDescriptor("int-localized", 3)
    cube = _poly_from_ints(f3, 1, RING_RESIDUE, {(3,): 1})
    assert not jacobian_independence(FundamentalInvariants(RING_RESIDUE, (cube,), (3,)))


# -- graded comparison ---------------------------------------------------------------


def test_graded_isomorphism_examples(s3_z5, b2_z3):
    table = graded_isomorphism_check(s3_z5, 4)
    row = table[4]
    assert row == (4, 4, 4, True)
    assert all(eq for _, _, _, eq in graded_isomorphism_check(b2_z3, 8))
    assert graded_isomorphism_check(s3_z5, 0)[0] == (0, 1, 1, True)


def test_graded_dimensions_match_bruteforce(b2_z3):
    for d, dim_frac, dim_res, _ in graded_isomorphism_check(b2_z3, 6):
        assert dim_frac == invariant_dimension_bruteforce(b2_z3, d, RING_K)
        assert dim_res == invariant_dimension_bruteforce(b2_z3, d, RING_RESIDUE)


# -- first cohomology -----------------------------------------------------------------


def test_h1_vanishes_when_order_is_invertible(s2_z3, z3):
    assert h1_dimension(s2_z3, 1, RING_RESIDUE) == 0
    assert h1_dimension(s2_z3, 1, RING_K) == 0
    assert h1_dimension(trivial_group(z3, 2), 3, RING_K) == 0


def test_h1_modular_control_matches_bruteforce(s2_z2):
    # the hypothesis fails here (p = 2 divides the order), and the
    # obstruction shows up already in low degree
    value = h1_dimension(s2_z2, 1, RING_RESIDUE)
    assert value == h1_bruteforce(s2_z2, 1, RING_RESIDUE)
    assert value == 1


def test_h1_matches_bruteforce_on_invertible_groups(s2_z3, b2_z3, c4_f5t):
    for group in (s2_z3, b2_z3, c4_f5t):
        for ring in (RING_K, RING_RESIDUE):
            for d in range(3):
                assert h1_dimension(group, d, ring) == h1_bruteforce(group, d, ring)


def test_per_degree_quantities_are_computed_once_per_group(z3, monkeypatch):
    # the package attribute `dvrcert.certify` is the function, not the module
    certify_module = sys.modules["dvrcert.certify"]
    polys_module = sys.modules["dvrcert.polys"]
    computed = []
    reduced = []
    for module in (sys.modules["dvrcert.groups"], polys_module, certify_module):
        if hasattr(module, "reduce_matrix"):
            def counted_reduce(m, _original=module.reduce_matrix):
                reduced.append(m)
                return _original(m)

            monkeypatch.setattr(module, "reduce_matrix", counted_reduce)
    for module, name in ((polys_module, "_invariant_basis"),
                         (certify_module, "_h1_exact_degree")):
        original = getattr(module, name)

        def counted(group, degree, ring, _name=name, _original=original):
            computed.append((_name, degree, ring))
            return _original(group, degree, ring)

        monkeypatch.setattr(module, name, counted)
    b2 = generate_group([
        ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]]),
        ExactMatrix.from_ints(RING_O, z3, [[1, 0], [0, -1]]),
    ])
    assert certify(b2, 8).verdict == "certified"
    assert len(computed) == len(set(computed))
    # bases: degrees 0..8 over K and k; H^1: degrees 0..5 over K and k
    assert len(computed) == 2 * 9 + 2 * 6
    # every element is reduced to the residue field once, by all stages together
    assert sorted(map(b2.index_of, reduced)) == list(range(b2.order))
    assert certify(b2, 8, ["invariants", "graded", "h1"]).verdict == "complete"
    assert len(computed) == 2 * 9 + 2 * 6
    assert len(reduced) == b2.order


# -- lifts ------------------------------------------------------------------------------


def test_lift_fundamentals_s2(s2_z3):
    residue_inv = fundamental_invariants(s2_z3, RING_RESIDUE, 2)
    lifts, ok, notes = lift_fundamentals(s2_z3, residue_inv)
    assert ok and not notes
    assert len(lifts) == 2
    for lifted, original in zip(lifts, residue_inv.generators):
        assert lifted.ring == RING_O
        assert lifted.reduce() == original
        for g in s2_z3.elements:
            assert act(g, lifted) == lifted


def test_lift_fundamentals_c4(c4_f5t):
    residue_inv = fundamental_invariants(c4_f5t, RING_RESIDUE, 4)
    lifts, ok, _ = lift_fundamentals(c4_f5t, residue_inv)
    assert ok
    assert lifts[0].reduce() == residue_inv.generators[0]


# -- the certificate -----------------------------------------------------------------------


def test_certify_s3(s3_z5):
    cert = certify(s3_z5, 6)
    assert cert.verdict == "certified"
    assert cert.fundamental_K.degrees == (1, 2, 3)
    assert cert.fundamental_k.degrees == (1, 2, 3)
    assert tuple(cert.molien.coefficients) == (1, 1, 2, 3, 4, 5, 7)
    assert cert.h1_ok and cert.graded_ok and cert.lift_verified


def test_certify_non_reflection_group_is_inconclusive(neg_identity_z23):
    cert = certify(neg_identity_z23, 4)
    assert cert.verdict == "inconclusive"
    assert cert.hypothesis_ok
    assert cert.eta_injective is True
    assert cert.reflection_report.generated_by_reflections is False


def test_certify_hypothesis_violation(s2_z2):
    cert = certify(s2_z2, 4)
    assert cert.verdict == "refuted-hypothesis"
    assert not cert.hypothesis_ok
    assert cert.eta_injective is None


def test_certificate_serialization_schema(s3_z5):
    doc = certify(s3_z5, 6).to_dict()
    for key in (
        "verdict", "group_order", "reflections", "eta_injective",
        "fundamental_degrees_k", "fundamental_degrees_K", "graded_table",
        "molien", "h1", "lift_verified", "bases",
    ):
        assert key in doc
    assert doc["verdict"] == "certified"
    assert doc["group_order"] == 6
    assert len(doc["reflections"]) == 3
    assert doc["molien"] == ["1", "1", "2", "3", "4", "5", "7"]
    assert all(entry["verified"] for entry in doc["bases"])
