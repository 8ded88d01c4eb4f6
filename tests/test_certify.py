import gc
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from dvrcert.cli import EXIT_OK, parse_jobspec, run
from dvrcert.errors import (
    CertificateConditionError,
    DegreeBoundExhaustedError,
    InternalCheckError,
)
from dvrcert.certify import (
    FundamentalInvariants,
    _check_fundamental_conditions,
    certify,
    degree_identity_failures,
    fundamental_invariants,
    graded_isomorphism_check,
    h1_dimension,
    jacobian_independence,
    lift_fundamentals,
)
from dvrcert.groups import (
    MatrixGroup,
    _check_constant_model,
    classify_reflections,
    conjugacy_classes,
    generate_group,
)
from dvrcert.linalg import RING_K, RING_O, RING_RESIDUE, ExactMatrix, det_of_rows
from dvrcert.polys import (
    MultiPoly,
    _evaluation_points,
    act,
    action_matrix,
    hilbert_product_truncation,
    invariant_basis,
    monomials,
    nonzero_at_a_point,
    polynomial_det_is_nonzero,
)
from dvrcert.ratfunc import RatFunc
from dvrcert.scalars import DvrDescriptor

from conftest import (
    benchmark_workloads,
    conjugated_over_t,
    constant_ratfunc_groups,
    group_of,
    halved_b2_z5,
    int_batch_conjugates,
    over_1_plus_t,
)
from oracles import (
    DenseRowEchelon,
    _h1_exact_degree_bruteforce,
    act_bruteforce,
    action_matrix_bruteforce,
    element_matrices,
    generators_of,
    h1_bruteforce,
    invariant_dimension_bruteforce,
    inverse_dense,
    poly_coefficient,
    poly_matrix_det,
    poly_scale,
    poly_zero,
    to_fraction_field,
)


# -- four-variable reflection groups, full certificate ------------------------------


def _matrix(n: int, entry) -> list:
    """The n x n jobspec matrix whose (r, j) entry is entry(r, j)."""
    return [[str(entry(r, j)) for j in range(n)] for r in range(n)]


def _swap(n: int, i: int) -> list:
    """The transposition (i, i+1) of the coordinates of O^n."""
    image = {i: i + 1, i + 1: i}
    return _matrix(n, lambda r, j: int(j == image.get(r, r)))


def _weighted_count(degrees, m: int) -> int:
    """Monomials of weighted degree m in variables of the given degrees: the
    coefficient of z^m in prod_i 1/(1 - z^{d_i})."""
    return sum(
        1 for e in product(range(m + 1), repeat=len(degrees))
        if sum(a * d for a, d in zip(e, degrees)) == m
    )


# W(B_4) = S_4 and the sign change of the last coordinate; S_4 alone.  Both
# are reflection groups of order prime to 5, so over Z_(5) the invariants are
# polynomial in degrees whose product is |G| and whose excess over 1 sums
# to the number of reflections; H^1 vanishes since |G| is invertible.
S4_SWAPS = [_swap(4, i) for i in range(3)]
LAST_SIGN = _matrix(4, lambda r, j: (-1 if r == 3 else 1) * (r == j))  # diag(1, 1, 1, -1)
FOUR_VARIABLE_GROUPS = {  # generators, fundamental degrees, reflection count
    "wb4": (S4_SWAPS + [LAST_SIGN], (2, 4, 6, 8), 16),
    "s4": (S4_SWAPS, (1, 2, 3, 4), 6),
}


@pytest.mark.parametrize("name", sorted(FOUR_VARIABLE_GROUPS))
def test_four_variable_reflection_groups_are_certified_over_z5(name):
    generators, degrees, reflections = FOUR_VARIABLE_GROUPS[name]
    report, code = run(parse_jobspec({
        "dvr": {"kind": "int-localized", "p": 5},
        "n": 4,
        "generators": generators,
        "degree_bound": 8,
        "checks": ["certify"],
    }))
    hilbert = [_weighted_count(degrees, m) for m in range(9)]
    assert (report["verdict"], code) == ("certified", EXIT_OK)
    assert len(report["reflections"]) == reflections
    assert report["fundamental_degrees_K"] == report["fundamental_degrees_k"] == list(degrees)
    assert report["graded_table"] == [[d, c, c] for d, c in enumerate(hilbert)]
    assert report["molien"] == [str(c) for c in hilbert]
    assert report["h1"] == [[d, 0, 0] for d in range(6)]


def test_weyl_a4_on_its_root_lattice_is_certified_over_z7(wa4_z7, wa4_z5):
    # W(A_4) = S_5 acting on its root lattice, the first fixture that is not
    # monomial: S_5 has no subgroup of index 4, so no faithful monomial
    # representation of degree 4.  From theory: order 5! = 120, 10
    # reflections (the transpositions, each of eigenvalue -1), fundamental
    # degrees 2, 3, 4, 5, and the Molien series prod 1 / (1 - z^d).  7 does
    # not divide 120, so it is certified over Z_(7); 5 does, so over Z_(5)
    # the hypothesis is refuted
    degrees = (2, 3, 4, 5)
    group = generate_group(generators_of(wa4_z7))  # no memo of another test
    residues = group.residue_rows()
    assert max(sum(1 for a in row if a) for i in group.generator_indices
               for row in residues[i]) == 3
    cert = certify(group, 5)
    assert cert.verdict == "certified", cert.notes
    assert group.order == 120 == math.prod(degrees)
    report = cert.reflection_report
    assert report.count == 10 == sum(d - 1 for d in degrees)
    assert {(lam, order) for _, lam, order in report.reflections} == {(-1, 2)}
    assert cert.fundamental_K.degrees == cert.fundamental_k.degrees == degrees
    assert cert.molien.coefficients == hilbert_product_truncation(degrees, 5) \
        == (1, 0, 1, 1, 2, 2)
    assert [a for _, a, _, _ in cert.graded_table] == list(cert.molien.coefficients)
    assert cert.h1_ok and cert.lift_verified and cert.bases_ok
    refuted = certify(wa4_z5, 5)
    assert (refuted.verdict, refuted.hypothesis_ok) == ("refuted-hypothesis", False)
    assert wa4_z5.order == 120


def test_weyl_f4_passes_its_checks_over_z5(wf4_z5, wf4_z3):
    # W(F_4), whose generator (e1 - e2 - e3 - e4) / 2 gives its forms A / D
    # the denominator 2.  From theory: order 1152 = 2 * 6 * 8 * 12, 24
    # reflections (the sum of d - 1 over its degrees 2, 6, 8, 12), each of
    # eigenvalue -1, and the Molien series prod 1 / (1 - z^d); 5 does not
    # divide 1152, so the checks run and every diagonalizing basis is
    # verified over Z_(5); 3 does, so over Z_(3) the hypothesis is refuted.
    # The full certificate is left out: its Reynolds lifts average over all
    # 1152 elements up to degree 12, far slower than these checks
    degrees, bound = (2, 6, 8, 12), 12
    checks = ("reflections", "eta", "basis", "molien")
    cert = certify(wf4_z5, bound, checks)
    assert cert.verdict == "complete", cert.notes
    assert wf4_z5.order == 1152 == math.prod(degrees)
    report = cert.reflection_report
    assert report.count == 24 == sum(d - 1 for d in degrees)
    assert {(lam, order) for _, lam, order in report.reflections} == {(-1, 2)}
    assert report.generated_by_reflections and cert.reduced_reflection_generated
    assert cert.eta_injective
    assert len(cert.bases) == 24 and cert.bases_ok
    assert {basis.eigenvalue for _, basis, _ in cert.bases} == {-1}
    assert cert.molien.coefficients == hilbert_product_truncation(degrees, bound) \
        == (1, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 5)
    assert {f.den for f in wf4_z5.elements} == {1, 2}
    refuted = certify(wf4_z3, bound, checks)
    assert (refuted.verdict, refuted.hypothesis_ok) == ("refuted-hypothesis", False)
    assert wf4_z3.order == 1152


def test_the_paths_over_q_are_refused(s2_z3, c4_f5t, z5, f5t):
    # an int-kind group's dimensions over K are its Molien coefficients, and
    # a polynomial determinant is taken over k alone; a ratfunc group still
    # solves its invariants over F_p(t), as H^1 over K needs
    with pytest.raises(ValueError, match="Molien series"):
        invariant_basis(s2_z3, 2, RING_K)
    assert invariant_basis(c4_f5t, 4, RING_K).dimension == 1
    with pytest.raises(ValueError, match="over a field"):
        fundamental_invariants(s2_z3, RING_O, 2)
    for descriptor in (z5, f5t):
        for ring in (RING_O, RING_K, RING_RESIDUE):
            one = _poly_from_ints(descriptor, 3, ring, {(0, 0, 0): 1})
            x = _poly_from_ints(descriptor, 3, ring, {(1, 0, 0): 1})
            rows = [[x if r == c == 0 else one if r == c else one - one for c in range(3)]
                    for r in range(3)]
            for check in (nonzero_at_a_point, polynomial_det_is_nonzero):
                if ring == RING_RESIDUE:
                    assert check(rows)
                else:
                    with pytest.raises(ValueError, match="taken over k"):
                        check(rows)


# -- fundamental invariants -------------------------------------------------------


def test_fundamental_invariants_s2_residue(s2_z3):
    inv = fundamental_invariants(s2_z3, RING_RESIDUE, 4)
    assert inv.degrees == (1, 2)
    gens = [reduce_gen for reduce_gen in inv.generators]
    # the degree-1 generator must be (a multiple of) X1 + X2
    lead = gens[0]
    assert poly_coefficient(lead, (1, 0)) == poly_coefficient(lead, (0, 1))


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
        for g in element_matrices(s3_z5, RING_K):
            assert act(g, f) == f


def test_degree_multiset_survives_variable_relabeling(s3_z5):
    # conjugating by a permutation matrix relabels the variables, which
    # permutes the monomial order used for pivoting
    perm = ExactMatrix.from_ints(RING_O, s3_z5.descriptor, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    moved = generate_group(
        [perm * g * inverse_dense(perm) for g in generators_of(s3_z5)],
        descriptor=s3_z5.descriptor,
    )
    inv = fundamental_invariants(moved, RING_K, 6)
    assert inv.degrees == (1, 2, 3)


# -- Jacobian ---------------------------------------------------------------------


def _poly_from_ints(descriptor, n, ring, mapping):
    if ring == RING_RESIDUE:
        return MultiPoly(ring, descriptor, n, mapping)
    terms = {e: descriptor.from_int(c) for e, c in mapping.items()}
    return MultiPoly(ring, descriptor, n, terms)


def test_jacobian_examples(z3):
    # over k by `jacobian_independence`; over K = Q, where the package takes
    # no Jacobian, by the cofactor oracle
    for ring in (RING_K, RING_RESIDUE):
        e1 = _poly_from_ints(z3, 2, ring, {(1, 0): 1, (0, 1): 1})
        e2 = _poly_from_ints(z3, 2, ring, {(1, 1): 1})
        x1 = _poly_from_ints(z3, 2, ring, {(1, 0): 1})
        x1sq = _poly_from_ints(z3, 2, ring, {(2, 0): 1})
        for gens, independent in (((e1, e2), True), ((x1, x1sq), False)):
            jacobian = [[f.partial_derivative(j) for j in range(2)] for f in gens]
            assert poly_matrix_det(jacobian).is_zero() is not independent
            if ring == RING_RESIDUE:
                inv = FundamentalInvariants(ring, gens, (1, 2))
                assert jacobian_independence(inv) is independent

    f5 = DvrDescriptor("int-localized", 5)
    x4 = _poly_from_ints(f5, 1, RING_RESIDUE, {(4,): 1})
    assert jacobian_independence(FundamentalInvariants(RING_RESIDUE, (x4,), (4,)))


def test_jacobian_vanishes_for_pth_powers():
    f3 = DvrDescriptor("int-localized", 3)
    cube = _poly_from_ints(f3, 1, RING_RESIDUE, {(3,): 1})
    assert not jacobian_independence(FundamentalInvariants(RING_RESIDUE, (cube,), (3,)))


def _random_poly_entry(descriptor, n, ring, rng):
    """A seeded polynomial of degree at most 2 with up to three terms, often zero."""
    terms = {}
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        exp = tuple(rng.randint(0, 1) for _ in range(n))
        terms[exp] = terms.get(exp, 0) + rng.choice((1, -1, 2, 3))
    return _poly_from_ints(descriptor, n, ring, terms)


def _count_polynomial_dets(monkeypatch) -> list:
    """Record each `det_of_rows` call of `polys` on polynomial entries,
    the fallback after every evaluation point gave zero."""
    polys_module = sys.modules["dvrcert.polys"]
    calls = []

    def counted(rows, zero, one, _original=polys_module.det_of_rows):
        if isinstance(zero, MultiPoly):
            calls.append(len(rows))
        return _original(rows, zero, one)

    monkeypatch.setattr(polys_module, "det_of_rows", counted)
    return calls


@pytest.mark.parametrize("kind", ["int-localized", "ratfunc-localized"])
@pytest.mark.parametrize("ring", [RING_K, RING_RESIDUE])
def test_jacobian_determinant_matches_the_cofactor_oracle(kind, ring, monkeypatch):
    descriptor = DvrDescriptor(kind, 5)
    rng = random.Random(f"jacobian-{kind}-{ring}")
    fallbacks = _count_polynomial_dets(monkeypatch)
    singular_from_3 = 0
    for n in range(1, 5):
        zero = poly_zero(ring, descriptor, n)
        one = _poly_from_ints(descriptor, n, ring, {(0,) * n: 1})
        singular = 0
        for case in range(8):
            rows = [[_random_poly_entry(descriptor, n, ring, rng) for _ in range(n)]
                    for _ in range(n)]
            if case % 4 == 3:  # the last row a polynomial combination of the first
                f = _random_poly_entry(descriptor, n, ring, rng)
                rows[-1] = [a * f for a in rows[0]] if n > 1 else [zero]
            expected = poly_matrix_det(rows)
            assert det_of_rows(rows, zero, one) == expected
            singular += expected.is_zero()
            if ring == RING_K:  # the package takes no polynomial determinant over K
                for refused in (nonzero_at_a_point, polynomial_det_is_nonzero):
                    with pytest.raises(ValueError, match="taken over k"):
                        refused(rows)
                continue
            # every nonsingular one shows it at one of the points
            assert nonzero_at_a_point(rows) is not expected.is_zero()
            assert polynomial_det_is_nonzero(rows) is not expected.is_zero()
        assert 2 <= singular <= 6
        singular_from_3 += singular if n > 2 else 0
    # 1 x 1 and 2 x 2 go to the polynomial determinant at once, the larger
    # ones only when singular; the test's own `det_of_rows` calls are not counted
    assert len(fallbacks) == (0 if ring == RING_K else 2 * 8 + singular_from_3)
    # a Jacobian proper: the generators x + y and x*y, then x and x^2 + y
    x = _poly_from_ints(descriptor, 2, ring, {(1, 0): 1})
    y = _poly_from_ints(descriptor, 2, ring, {(0, 1): 1})
    for gens, independent in (((x + y, x * y), True), ((x, x * x), False)):
        jacobian = [[f.partial_derivative(j) for j in range(2)] for f in gens]
        assert poly_matrix_det(jacobian).is_zero() is not independent
        if ring == RING_RESIDUE:
            assert jacobian_independence(FundamentalInvariants(ring, gens, (1, 2))) is independent


@pytest.mark.parametrize("p,n", [(3, 2), (5, 3)])
def test_jacobian_over_k_where_it_vanishes_on_k_points(p, n, monkeypatch):
    # B_n over F_p: det J is x_1 ... x_n prod (x_i^2 - x_j^2) up to a unit,
    # zero at every point of k^n, but not at the points of F_p[t]^n
    descriptor = DvrDescriptor("int-localized", p)
    swaps = [[[int(c == (r + 1 if r == i else r - 1 if r == i + 1 else r)) for c in range(n)]
              for r in range(n)] for i in range(n - 1)]
    sign = [[(-1 if r == c == n - 1 else int(r == c)) for c in range(n)] for r in range(n)]
    group = generate_group([ExactMatrix.from_ints(RING_O, descriptor, m)
                            for m in swaps + [sign]])
    assert group.order == 2 ** n * math.factorial(n)
    inv = fundamental_invariants(group, RING_RESIDUE, 2 * n)
    jacobian = [[f.partial_derivative(j) for j in range(n)] for f in inv.generators]
    det = poly_matrix_det(jacobian)
    assert not det.is_zero()
    for point in product(range(p), repeat=n):
        assert sum(c * math.prod(v ** e for v, e in zip(point, exp))
                   for exp, c in det.terms.items()) % p == 0
    assert nonzero_at_a_point(jacobian)
    fallbacks = _count_polynomial_dets(monkeypatch)
    assert jacobian_independence(inv)
    assert fallbacks == ([] if n > 2 else [n])


def _form_vanishing_at(point, descriptor, n: int) -> MultiPoly:
    """A nonzero form over k = F_p, of the least degree, that vanishes at a
    point of F_p[t]^n: a kernel vector of the system whose column for X^e
    holds the t-coefficients of the point's value of X^e."""
    p = descriptor.p
    for d in range(1, 10):
        basis = monomials(n, d)
        values = [math.prod((x ** k for x, k in zip(point, e) if k), start=RatFunc.one(p))
                  for e in basis]
        assert all(v.den.degree == 0 for v in values)  # the point lies in F_p[t]^n
        top = max(v.num.degree for v in values)
        system = DenseRowEchelon(p=p)
        for k in range(top + 1):
            system.add([v.num.coeffs[k] if k < len(v.num.coeffs) else 0 for v in values])
        kernel = system.kernel(len(basis), 0, 1)
        if kernel:
            return MultiPoly(RING_RESIDUE, descriptor, n,
                             {e: int(c) for e, c in zip(basis, kernel[0])})
    raise AssertionError("no form of degree below 10 vanishes at the point")


@pytest.mark.parametrize("kind", ["int-localized", "ratfunc-localized"])
def test_polynomial_det_zero_at_every_point_reaches_the_fallback(kind, monkeypatch):
    # a product of forms over k, one vanishing at each tried point of
    # F_p[t]^n: nonzero, but zero at each of them
    descriptor = DvrDescriptor(kind, 5)
    fallbacks = _count_polynomial_dets(monkeypatch)
    for n in (3, 4):
        one = MultiPoly.constant(RING_RESIDUE, descriptor, n, 1)
        vanishing = one
        for point in _evaluation_points(descriptor.p, n):
            vanishing = vanishing * _form_vanishing_at(point, descriptor, n)
        assert not vanishing.is_zero()
        rows = [[vanishing if r == c == 0 else one if r == c else one - one
                 for c in range(n)] for r in range(n)]
        assert not nonzero_at_a_point(rows)
        assert polynomial_det_is_nonzero(rows)
        assert fallbacks == [n]
        fallbacks.clear()


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
    assert h1_dimension(generate_group([], z3, n=2), 3, RING_K) == 0


def test_h1_modular_control_matches_bruteforce(s2_z2):
    # the hypothesis fails here (p = 2 divides the order), and the
    # obstruction shows up already in low degree; a nonzero piece reads
    # every relation, so this checks the loop that runs to the end
    assert h1_dimension(s2_z2, 1, RING_RESIDUE) == 1
    for ring in (RING_K, RING_RESIDUE):
        for d in range(4):
            assert h1_dimension(s2_z2, d, ring) == h1_bruteforce(s2_z2, d, ring)


def test_h1_matches_bruteforce_on_invertible_groups(s2_z3, b2_z3, c4_f5t, s3_z5, b2_f5t_twisted):
    for group in (s2_z3, b2_z3, c4_f5t, s3_z5, b2_f5t_twisted):
        for ring in (RING_K, RING_RESIDUE):
            for d in range(4):
                assert h1_dimension(group, d, ring) == h1_bruteforce(group, d, ring)


def test_a_negative_degree_is_refused_before_anything_is_computed(s2_z3):
    group = generate_group(generators_of(s2_z3))
    for ring in (RING_K, RING_RESIDUE):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            invariant_basis(group, -1, ring)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            h1_dimension(group, -1, ring)
    assert group.memo == {}
    assert h1_dimension(group, 0, RING_K) == 0


def test_h1_survives_a_deep_breadth_first_tree():
    # C_1200 = <11> in GL_1 over F_1201(t): the tree is a path of 1199 edges
    f1201t = DvrDescriptor("ratfunc-localized", 1201)
    cyclic = generate_group([ExactMatrix.from_ints(RING_O, f1201t, [[11]])])
    assert cyclic.order == 1200
    for ring in (RING_K, RING_RESIDUE):
        assert h1_dimension(cyclic, 2, ring) == 0


def test_h1_stops_once_the_cocycles_are_coboundaries(z5, monkeypatch):
    built = Counter()

    def counted(g, n, d, **kwargs):
        # over k the element is its residue rows, given with p
        built[d, RING_RESIDUE if kwargs.get("p") else g.ring] += 1
        return action_matrix(g, n, d, **kwargs)

    for name in ("dvrcert.polys", "dvrcert.certify"):
        if hasattr(sys.modules[name], "action_matrix"):
            monkeypatch.setattr(sys.modules[name], "action_matrix", counted)
    s4 = generate_group([
        ExactMatrix.from_ints(RING_O, z5, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    ])
    assert s4.order == 24
    for ring in (RING_K, RING_RESIDUE):
        assert h1_dimension(s4, 3, ring) == 0
    # the invariant bases' generator matrices included; the k pieces are 0,
    # so nothing is built over K
    assert sorted(built) == [(d, RING_RESIDUE) for d in range(4)]
    assert not any(ring == RING_K for _, ring in built)
    assert max(built.values()) < s4.order, built


def _transvection_f3t():
    """<[[1, 1], [0, 1]]> over F_3(t): |G| = 3 = p, and K = F_3(t) has
    characteristic 3 too, so H^1 over K need not vanish: its pieces for
    d = 0..3 are 1, 1, 0, 1."""
    f3t = DvrDescriptor("ratfunc-localized", 3)
    return generate_group([ExactMatrix.from_ints(RING_O, f3t, [[1, 1], [0, 1]])])


def test_h1_over_K_is_read_off_the_residue_piece(
    s2_z3, b2_z3, c4_f5t, s3_z5, b2_f5t_twisted, s2_z2, monkeypatch
):
    transvection = _transvection_f3t()
    assert transvection.order == 3
    # (a) the bound dim H^1_K <= dim H^1_k, piece by piece, by the oracle
    for group in (s2_z3, b2_z3, c4_f5t, s3_z5, b2_f5t_twisted, s2_z2, transvection):
        for d in range(4):
            assert (_h1_exact_degree_bruteforce(group, d, RING_K)
                    <= _h1_exact_degree_bruteforce(group, d, RING_RESIDUE))
    assert [_h1_exact_degree_bruteforce(transvection, d, RING_K) for d in range(3)] == [1, 1, 0]

    certify_module = sys.modules["dvrcert.certify"]
    solved = []

    def counted(group, degree, ring, _original=certify_module._h1_exact_degree):
        solved.append(ring)
        return _original(group, degree, ring)

    monkeypatch.setattr(certify_module, "_h1_exact_degree", counted)
    # (b) a certified job solves nothing over K
    for group, bound in ((generate_group(generators_of(b2_z3)), 8),
                         (generate_group(generators_of(b2_f5t_twisted)), 4)):
        assert certify(group, bound).verdict == "certified"
    assert solved and RING_K not in solved
    # (c) a ratfunc group's nonzero k piece still solves over K, and exactly
    group = _transvection_f3t()
    solved.clear()
    for d in range(4):
        assert h1_dimension(group, d, RING_K) == h1_bruteforce(group, d, RING_K)
    assert RING_K in solved
    # (d) the int kind's K pieces are 0 by theorem, also where p | |G| and
    # the k piece is not: nothing is solved over Q, and the solve over Q,
    # in the oracles, agrees
    group = generate_group(generators_of(s2_z2))
    solved.clear()
    for d in range(4):
        assert h1_dimension(group, d, RING_K) == 0 == h1_bruteforce(group, d, RING_K)
        assert _h1_exact_degree_bruteforce(group, d, RING_K) == 0
    assert h1_dimension(group, 3, RING_RESIDUE) > 0
    assert RING_K not in solved


def test_h1_of_a_non_constant_shear_is_solved_over_K_through_make(monkeypatch):
    # <[[1, t], [0, 1]]> over F_3(t), of order 3 = p: its cocycle system
    # over K has entries outside F_3, so the solve leaves the denominator-1
    # path of `RatFunc` arithmetic and normalises through `RatFunc.make`;
    # over K the table stays below the one over k from d = 1 on
    f3t = DvrDescriptor("ratfunc-localized", 3)
    one, t = f3t.one(), f3t.uniformizer()
    group = generate_group([ExactMatrix(RING_O, f3t, [[one, t], [f3t.zero(), one]])])
    assert group.order == 3
    certify_module = sys.modules["dvrcert.certify"]
    made = []
    solved = {}

    def counted_make(num, den, _original=RatFunc.make):
        made.append((num, den))
        return _original(num, den)

    def counted_solve(group, degree, ring, _original=certify_module._h1_exact_degree):
        before = len(made)
        piece = _original(group, degree, ring)
        solved[degree, ring] = len(made) - before
        return piece

    monkeypatch.setattr(RatFunc, "make", staticmethod(counted_make))
    monkeypatch.setattr(certify_module, "_h1_exact_degree", counted_solve)
    table = [(h1_dimension(group, d, RING_K), h1_dimension(group, d, RING_RESIDUE))
             for d in range(4)]
    assert table == [(1, 1), (2, 3), (2, 6), (3, 10)]
    assert table == [(h1_bruteforce(group, d, RING_K), h1_bruteforce(group, d, RING_RESIDUE))
                     for d in range(4)]
    # each K piece of positive degree is solved through `make`; over k the
    # values are ints
    assert all(solved[d, RING_K] for d in range(1, 4)), solved
    assert not any(solved[d, RING_RESIDUE] for d in range(4)), solved


def test_h1_over_K_above_the_residue_piece_is_an_internal_error(monkeypatch):
    # only a ratfunc group solves H^1 over K; the int kind reads it as 0
    certify_module = sys.modules["dvrcert.certify"]
    pieces = {RING_K: 2, RING_RESIDUE: 1}
    monkeypatch.setattr(
        certify_module, "_h1_exact_degree", lambda group, degree, ring: pieces[ring]
    )
    with pytest.raises(InternalCheckError, match="degree 0 is 2 over K but 1 over k"):
        h1_dimension(constant_ratfunc_groups()[0], 0, RING_K)


def test_h1_note_names_the_failing_degrees(s3_z5, monkeypatch):
    certify_module = sys.modules["dvrcert.certify"]
    # each K piece at most its k piece, as `h1_dimension` checks
    nonzero = {(2, RING_RESIDUE): 1, (3, RING_K): 2, (3, RING_RESIDUE): 2}
    monkeypatch.setattr(
        certify_module, "_h1_exact_degree",
        lambda group, degree, ring: nonzero.get((degree, ring), 0),
    )
    cert = certify(constant_ratfunc_groups()[0], 4, ["h1"])
    assert cert.h1_table == ((0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 2, 3), (4, 2, 3))
    assert cert.h1_ok is False
    assert cert.notes == (
        "nonzero first cohomology in degree 2 over k, degree 3 over K, degree 3 over k",
    )
    # the int kind's K pieces are 0 by theorem, whatever the k pieces
    cert = certify(generate_group(generators_of(s3_z5)), 4, ["h1"])
    assert cert.h1_table == ((0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 0, 3), (4, 0, 3))
    assert cert.notes == ("nonzero first cohomology in degree 2 over k, degree 3 over k",)


def test_constant_entries_run_no_gcd(f5t, monkeypatch):
    # every entry of C_4 = <2> over F_5(t) is a constant of F_5, so each sum,
    # product and quotient has denominator 1 and its gcd is known to be 1
    c4 = generate_group([ExactMatrix.from_ints(RING_O, f5t, [[2]])])
    ratfunc_module = sys.modules["dvrcert.ratfunc"]
    calls = []

    def counted(a, b, _original=ratfunc_module.fp_gcd):
        calls.append((a, b))
        return _original(a, b)

    monkeypatch.setattr(ratfunc_module, "fp_gcd", counted)
    assert certify(c4, 4).verdict == "certified"
    assert calls == []


def test_per_degree_quantities_are_computed_once_per_group(z3, monkeypatch):
    # the package attribute `dvrcert.certify` is the function, not the module
    certify_module = sys.modules["dvrcert.certify"]
    polys_module = sys.modules["dvrcert.polys"]
    computed = []
    reduced = []  # the int kind reduces each point of the row orbit with `reduce_form`
    for module in (sys.modules["dvrcert.groups"], polys_module, certify_module):
        if hasattr(module, "reduce_form"):
            def counted_reduce(form, p, _original=module.reduce_form):
                reduced.append(form)
                return _original(form, p)

            monkeypatch.setattr(module, "reduce_form", counted_reduce)
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
    # bases: degrees 0..8 over k only, since the generators over K are the
    # Reynolds lifts and the graded K column is the Molien series; H^1:
    # degrees 0..5 over k only, since over Q every piece is 0
    assert len(computed) == 9 + 6
    assert {ring for _, _, ring in computed} == {RING_RESIDUE}
    # every point of the orbit of the rows, +-e_1 and +-e_2, is reduced to
    # the residue field once, as a one-row form, by all stages together
    assert len(b2.orbit) == 4 < b2.order
    assert sorted((f.den, *f.rows[0]) for f in reduced) == sorted(b2.orbit)
    assert certify(b2, 8, ["invariants", "graded", "h1"]).verdict == "complete"
    assert len(computed) == 9 + 6
    assert len(reduced) == len(b2.orbit)


def test_reflections_are_classified_once_per_group(s3_z5, monkeypatch):
    groups_module = sys.modules["dvrcert.groups"]
    classified = []

    def counted(m, _original=groups_module.reflection_eigenvalue):
        classified.append(m)
        return _original(m)

    monkeypatch.setattr(groups_module, "reflection_eigenvalue", counted)
    group = generate_group(generators_of(s3_z5))
    report = classify_reflections(group)
    # one test per conjugacy class: the identity, the transpositions, the 3-cycles
    assert len(classified) == len(conjugacy_classes(group)) == 3
    assert report.count == 3
    # the fundamental-invariant check reads the report the group keeps
    assert fundamental_invariants(group, RING_K, 6).degrees == (1, 2, 3)
    assert len(classified) == 3
    assert classify_reflections(group) is report


def test_certify_reduces_the_group_once(s3_z5, monkeypatch):
    groups_module = sys.modules["dvrcert.groups"]
    reduced = []

    def counted(group, _original=groups_module.reduction_map):
        reduced.append(group)
        return _original(group)

    for module in (groups_module, sys.modules["dvrcert.certify"]):
        monkeypatch.setattr(module, "reduction_map", counted)
    group = generate_group(generators_of(s3_z5))
    assert certify(group, 6).verdict == "certified"
    assert reduced == [group]


def test_h1_refuses_a_ring_that_is_not_a_field(s3_z5):
    group = generate_group(generators_of(s3_z5))
    for ring in (RING_O, "X"):
        with pytest.raises(ValueError, match=r"over a field \(K or k\)"):
            h1_dimension(group, 2, ring)
        with pytest.raises(ValueError, match=r"over a field \(K or k\)"):
            invariant_basis(group, 2, ring)
    assert not any(key[0] == "h1" for key in group.memo)


# -- lifts ------------------------------------------------------------------------------


def test_lift_fundamentals_s2(s2_z3):
    residue_inv = fundamental_invariants(s2_z3, RING_RESIDUE, 2)
    lifts, ok, notes = lift_fundamentals(s2_z3, residue_inv)
    assert ok and not notes
    assert len(lifts) == 2
    for lifted, original in zip(lifts, residue_inv.generators):
        assert lifted.ring == RING_O
        assert lifted.reduce() == original
        for g in element_matrices(s2_z3, RING_O):
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


def test_groups_given_by_a_non_reflection_are_certified_through_the_word_walk(
        s3_z5, z5):
    # S_3 = <(0 1), (0 1 2)> and W(B_2) = <rotation of order 4, diag(1, -1)>
    # over Z_(5): a closure generator is no reflection, so whether the
    # reflections generate G is decided by carrying elements down their
    # words in the breadth-first tree (`_generated_by`), past its early
    # return; the tables are those of the reflection presentations
    def group(*rows):
        return generate_group([ExactMatrix.from_ints(RING_O, z5, g) for g in rows])

    b2 = group([[0, 1], [1, 0]], [[1, 0], [0, -1]])
    cases = (
        (group([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
         s3_z5, (1, 2, 3)),
        (group([[0, -1], [1, 0]], [[1, 0], [0, -1]]), b2, (2, 4)),
    )
    for given, reflection_presented, degrees in cases:
        report = classify_reflections(given)
        assert not set(given.generator_indices) <= {i for i, _, _ in report.reflections}
        cert, expected = certify(given, given.order), certify(reflection_presented, given.order)
        assert cert.verdict == expected.verdict == "certified"
        assert cert.reflection_report.generated_by_reflections
        assert cert.reduced_reflection_generated
        assert cert.fundamental_K.degrees == cert.fundamental_k.degrees == degrees
        assert cert.molien.coefficients == expected.molien.coefficients
        assert cert.graded_table == expected.graded_table
        assert cert.h1_table == expected.h1_table


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


# -- the conjugator of a ratfunc group onto its constant twins ----------------------------------


def _conjugated_ratfunc_pairs():
    """(group as given, conjugate) for B_2/F_5(t), <diag(1, 3)>/F_7(t) and
    G(4,1,2)/F_5(t), each conjugated by a seeded basis change with entries
    a + b t, and B_2/F_5(t) conjugated by diag(1 + t, 1), whose entries have
    1 + t in their denominators."""
    rng = random.Random(23)
    pairs = [(group, conjugated_over_t(group, rng)) for group in constant_ratfunc_groups()]
    b2 = pairs[0][0]
    return pairs + [(b2, over_1_plus_t(b2))]


def test_a_conjugated_ratfunc_job_reports_what_the_group_as_given_does():
    for given, conjugate in _conjugated_ratfunc_pairs():
        assert given.conjugator() is None and conjugate.conjugator() is not None
        expected, cert = certify(given, 8), certify(conjugate, 8)
        assert cert.verdict == expected.verdict == "certified"
        for field in ("degrees_match", "graded_table", "molien", "h1_table", "lift_verified"):
            assert getattr(cert, field) == getattr(expected, field), field
        assert cert.fundamental_K.degrees == expected.fundamental_K.degrees
        assert cert.fundamental_k.degrees == expected.fundamental_k.degrees


def test_printed_generators_and_lifts_are_invariants_of_the_jobspec_group():
    for _, conjugate in _conjugated_ratfunc_pairs():
        cert = certify(conjugate, 8)
        jobspec = generators_of(conjugate)
        # carried back: the printed generators over K are not the lifts of
        # those over k, which the conjugate does not fix
        lifted = [f.lift(RING_K) for f in cert.fundamental_k.generators]
        assert list(cert.fundamental_K.generators) != lifted
        for f in cert.fundamental_K.generators + cert.lifts:
            for g in jobspec:
                assert act(g, f) == f
        assert all(lift.ring == RING_O for lift in cert.lifts)
        for lift, f_bar in zip(cert.lifts, cert.fundamental_k.generators, strict=True):
            assert lift.reduce() == f_bar


def _problems_over_K(group, inv: FundamentalInvariants) -> list[str]:
    """The conditions that `_check_fundamental_conditions` asks of
    generators over k, asked of generators over K by the oracles: n
    homogeneous nonzero generators, the degree identities with the
    group's reflection count, invariance under the jobspec's generators by
    `act_bruteforce`, and a Jacobian nonzero by cofactor expansion."""
    problems = []
    if inv.n != group.n:
        problems.append(f"{inv.n} generators for {group.n} variables")
    if degree_identity_failures(inv.degrees, group.order,
                                classify_reflections(group).count) != (None, None):
        problems.append(f"the degrees {inv.degrees} fail an identity")
    gens = generators_of(group)
    for i, f in enumerate(inv.generators):
        if not f.is_homogeneous() or f.is_zero():
            problems.append(f"generator {i} is not homogeneous and nonzero")
        if any(act_bruteforce(g, f) != f for g in gens):
            problems.append(f"generator {i} is not invariant")
    if poly_matrix_det([[f.partial_derivative(j) for j in range(f.n)]
                        for f in inv.generators]).is_zero():
        problems.append("Jacobian determinant vanishes")
    return problems


def test_the_generators_over_K_pass_every_check_over_K_on_the_jobspec_group():
    # `certify` checks a ratfunc group's generators over K only over k,
    # where the search returns them; here the checks run over K on the
    # group as the jobspec gives it, by the oracles: invariance under its
    # generators, which are not constant for a conjugate, the degree
    # identities, and a nonzero Jacobian
    for given, conjugate in _conjugated_ratfunc_pairs():
        for group in (given, conjugate):
            cert = certify(group, 8)
            assert cert.fundamental_K.ring == RING_K
            assert _check_fundamental_conditions(group, cert.fundamental_k) == []
            assert _problems_over_K(group, cert.fundamental_K) == []
        # the checks see a generator set that is not carried
        lifted = FundamentalInvariants(
            RING_K, tuple(f.lift(RING_K) for f in cert.fundamental_k.generators),
            cert.fundamental_k.degrees)
        assert any("not invariant" in problem
                   for problem in _problems_over_K(conjugate, lifted))


def test_the_constant_model_conjugates_the_group_onto_its_reduction():
    for given, conjugate in _conjugated_ratfunc_pairs():
        descriptor, n = conjugate.descriptor, conjugate.n
        a = conjugate.conjugator()
        assert conjugate.conjugator() is a  # built once
        # the twins, the residue rows, multiply by the group's product table
        twins = [ExactMatrix.from_ints(RING_RESIDUE, descriptor, rows)
                 for rows in conjugate.residue_rows()]
        for i, row in enumerate(conjugate.products):
            for gi, j in zip(conjugate.generator_indices, row, strict=True):
                assert twins[i] * twins[gi] == twins[j]
        # A in GL_n(O), A = I mod t, and g A = A gbar for all of G
        assert all(descriptor.is_integral(x) for row in a.entries for x in row)
        assert descriptor.is_unit(det_of_rows(a.entries, descriptor.zero(), descriptor.one()))
        assert [[descriptor.reduce(x) for x in row] for row in a.entries] == [
            [int(i == j) for j in range(n)] for i in range(n)]
        for g, rows in zip(conjugate.elements, conjugate.residue_rows(), strict=True):
            assert g * a == a * ExactMatrix.from_ints(RING_O, descriptor, rows)
        # a group inside GL_n(F_p) is its own twin: nothing is carried
        assert given.conjugator() is None


def test_a_wrong_conjugating_matrix_is_an_internal_error(s2_z3):
    conjugate = _conjugated_ratfunc_pairs()[0][1]
    descriptor, n = conjugate.descriptor, conjugate.n
    a = conjugate.conjugator()
    t = descriptor.uniformizer()
    for wrong, message in ((a.scale(t.inverse()), "outside O"),
                           (a.scale(t), "not a unit"),
                           (a.scale(descriptor.from_int(2)), "does not reduce"),
                           (ExactMatrix.identity(RING_O, descriptor, n), "differs from A gbar")):
        with pytest.raises(InternalCheckError, match=message):
            _check_constant_model(conjugate, wrong)
    _check_constant_model(conjugate, a)
    with pytest.raises(ValueError, match="constant group"):
        s2_z3.conjugator()


def test_the_K_column_of_a_conjugated_job_matches_elimination_over_F_p_t():
    # `certify` solves no system over F_p(t) for these groups; the oracle
    # eliminates the stacked RatFunc rows rho_d(g) - I of the jobspec
    # generators over F_p(t)
    for _, conjugate in _conjugated_ratfunc_pairs():
        descriptor, n = conjugate.descriptor, conjugate.n
        gens = [to_fraction_field(g) for g in generators_of(conjugate)]
        for d, dim_K, dim_k, _ in graded_isomorphism_check(conjugate, 6):
            stacked = DenseRowEchelon()
            for g in gens:
                for r, row in enumerate(action_matrix_bruteforce(g, n, d).entries):
                    stacked.add([x - descriptor.one() if c == r else x for c, x in enumerate(row)])
            assert dim_K == len(monomials(n, d)) - stacked.rank == dim_k, d


def test_a_conjugated_ratfunc_group_computes_its_k_side_once(monkeypatch):
    certify_module = sys.modules["dvrcert.certify"]
    polys_module = sys.modules["dvrcert.polys"]
    computed, built = [], []
    for module, name in ((polys_module, "_invariant_basis"),
                         (certify_module, "_h1_exact_degree"),
                         (certify_module, "_greedy_fundamentals")):
        def counted(group, *args, _name=name, _original=getattr(module, name)):
            computed.append((_name, *args))
            return _original(group, *args)

        monkeypatch.setattr(module, name, counted)

    def counted_init(group, *args, _original=MatrixGroup.__init__):
        built.append(args)
        _original(group, *args)

    given = constant_ratfunc_groups()[0]
    monkeypatch.setattr(MatrixGroup, "__init__", counted_init)
    conjugate = conjugated_over_t(given, random.Random(23))
    assert certify(conjugate, 8).verdict == "certified"
    # the group is read over k; nothing is solved over K, and no second
    # group is built for its constant twins
    assert sorted(computed) == sorted(
        [("_invariant_basis", d, RING_RESIDUE) for d in range(9)]
        + [("_h1_exact_degree", d, RING_RESIDUE) for d in range(6)]
        + [("_greedy_fundamentals", 8)])
    assert len(built) == 1


def _live_groups() -> int:
    return sum(isinstance(obj, MatrixGroup) for obj in gc.get_objects())


@pytest.mark.parametrize("bound", [8, 2])
def test_a_conjugated_ratfunc_group_is_freed_without_the_collector(bound):
    # the group keeps its conjugator and every result, over O, K and k, in
    # its one `memo`; at bound 2 the search over k fails, the failure is
    # kept, and nothing is carried, so A is not built.  Nothing in the memo
    # refers back to the group, so `del` frees it with the collector off
    gc.collect()
    gc.disable()
    try:
        before = _live_groups()
        group = conjugated_over_t(constant_ratfunc_groups()[0], random.Random(23))
        cert = certify(group, bound)
        assert cert.verdict == ("certified" if bound == 8 else "inconclusive")
        assert (("conjugator", RING_O) in group.memo) == (bound == 8)
        found = group.memo["fundamental", bound, RING_RESIDUE]
        assert isinstance(found, DegreeBoundExhaustedError) == (bound == 2)
        del found
        del group, cert
        assert _live_groups() == before
    finally:
        gc.enable()


def test_a_conjugated_ratfunc_job_applies_A_once_per_generator(monkeypatch):
    # the generators over K and the lifts carry the same lifts of the
    # generators over k by act(A, .), once each
    conjugate = _conjugated_ratfunc_pairs()[0][1]
    a = conjugate.conjugator()
    certify_module = sys.modules["dvrcert.certify"]
    carried = []

    def counted(g, f, _original=certify_module.act):
        if g is a:
            carried.append(f)
        return _original(g, f)

    monkeypatch.setattr(certify_module, "act", counted)
    report = certify(conjugate, 8).to_dict()
    assert report["verdict"] == "certified"
    assert len(carried) == conjugate.n
    # the report is what carrying each field on its own gives
    over_k = fundamental_invariants(conjugate, RING_RESIDUE, 8).generators
    assert report["fundamental_generators_K"] == [str(act(a, f.lift(RING_K))) for f in over_k]
    assert report["lifts"] == [str(act(a, f.lift(RING_O))) for f in over_k]


def test_a_conjugated_ratfunc_job_asks_invariance_once(monkeypatch):
    # the generators over k are checked for invariance once, together, on
    # the residue rows of the group's generators, when the search over k
    # returns them; the generators over K and the lifts are their lifts
    # carried by A, and neither the lifts nor the constant twins are asked
    # again
    group = conjugated_over_t(constant_ratfunc_groups()[0], random.Random(23))
    a = group.conjugator()
    certify_module = sys.modules["dvrcert.certify"]
    calls, asked = Counter(), []
    for module in (certify_module, sys.modules["dvrcert.polys"]):
        def counted(g, f, _original=module.act):
            calls["A" if g is a else g.ring] += 1
            return _original(g, f)

        monkeypatch.setattr(module, "act", counted)

    def counted_fixed(group, polys, _original=certify_module.fixed_by_generators):
        asked.append(tuple(f.ring for f in polys))
        return _original(group, polys)

    monkeypatch.setattr(certify_module, "fixed_by_generators", counted_fixed)
    assert certify(group, 8).verdict == "certified"
    assert calls == {"A": 2}
    assert asked == [(RING_RESIDUE,) * group.n]


# -- the int kind's side over K: Reynolds lifts, Molien and a theorem ----------------


def _int_groups_past_the_gate() -> list:
    """Fresh reflection groups over Z_(p) with p not dividing |G|: the
    benchmark batch's int groups, as given and in seeded
    `conjugate_generators` copies, and B_2 over Z_(5) conjugated by
    diag(2, 1), whose forms have D = 2."""
    workloads = benchmark_workloads()
    groups = [group_of(workloads._doc(kind, p, gens))
              for key, kind, p, gens, _, _ in workloads.BATCH_GROUPS
              if kind == workloads.INT and key != "s2-z2"]
    groups += int_batch_conjugates(random.Random(26)) + [halved_b2_z5()]
    return [g for g in groups if classify_reflections(g).generated_by_reflections]


def _printed_poly(text: str, descriptor, n: int) -> MultiPoly:
    """A polynomial as a report prints it, read back with `Fraction`
    coefficients."""
    terms = {}
    for term in text.split(" + "):
        coeff, _, monomial = term.partition(" * ")
        exp = [0] * n
        for factor in filter(None, monomial.split("*")):
            var, power = factor[1:].split("^")
            exp[int(var) - 1] = int(power)
        terms[tuple(exp)] = Fraction(coeff)
    return MultiPoly(RING_K, descriptor, n, terms)


def test_printed_generators_over_K_of_int_jobs_are_invariants_of_the_jobspec_group():
    # the generators over K that an int job prints are the Reynolds lifts
    # of those over k; each is read back from the report and acted on by
    # the jobspec's generators as matrices of `Fraction`s
    workloads = benchmark_workloads()
    checked = differ = 0
    for seed in (1, 2, 3):
        for _, doc in workloads.small_batch(seed, 0):
            report, code = run(parse_jobspec(doc))
            if doc["dvr"]["kind"] != workloads.INT or report["verdict"] != "certified":
                continue
            descriptor, n = DvrDescriptor(**doc["dvr"]), doc["n"]
            jobspec = [ExactMatrix(RING_O, descriptor, [[Fraction(a) for a in row] for row in g])
                       for g in doc["generators"]]
            printed_k = report["fundamental_generators_k"]
            for text, text_k in zip(report["fundamental_generators_K"], printed_k, strict=True):
                f = _printed_poly(text, descriptor, n)
                assert all(act_bruteforce(g, f) == f for g in jobspec), (doc, text)
                differ += text != text_k
                checked += 1
            assert report["fundamental_generators_K"] == report["lifts"]
    assert checked >= 40 and differ > 0


def test_the_generators_over_K_of_an_int_group_pass_every_check_over_K():
    # `certify` checks the lifts only for their reduction and invariance;
    # here the conditions over k are asked over K on them by the oracles,
    # and they generate K[X]^G up to the bound: their Jacobian is nonzero,
    # so they are algebraically independent and dim K[f]_d is the
    # coefficient of prod 1 / (1 - z^{d_i}); K[f]_d lies in K[X]^G_d, and
    # the averaging oracle counts dim K[X]^G_d the same, so K[f]_d = K[X]^G_d
    for group in _int_groups_past_the_gate():
        cert = certify(group, 4)
        assert cert.verdict == "certified"
        assert cert.fundamental_K.ring == RING_K
        assert _problems_over_K(group, cert.fundamental_K) == []
        product = hilbert_product_truncation(cert.fundamental_K.degrees, 4)
        assert [invariant_dimension_bruteforce(group, d, RING_K) for d in range(5)] \
            == list(product)
        assert [f.reduce() for f in cert.lifts] == list(cert.fundamental_k.generators)


def test_an_int_job_solves_nothing_over_Q(monkeypatch):
    certify_module = sys.modules["dvrcert.certify"]
    polys_module = sys.modules["dvrcert.polys"]
    rings = []
    # the search, `_greedy_fundamentals`, runs over k alone
    for module, name in ((polys_module, "_invariant_basis"),
                         (certify_module, "_h1_exact_degree")):
        def counted(group, degree, ring, _original=getattr(module, name)):
            rings.append(ring)
            return _original(group, degree, ring)

        monkeypatch.setattr(module, name, counted)

    def checked(group, inv, _original=certify_module._check_fundamental_conditions):
        rings.append(inv.ring)
        return _original(group, inv)

    monkeypatch.setattr(certify_module, "_check_fundamental_conditions", checked)
    for group in _int_groups_past_the_gate():
        assert certify(group, 4).verdict == "certified"
    assert rings and set(rings) == {RING_RESIDUE}


def test_the_graded_K_column_of_an_int_group_is_the_molien_series():
    # K = Q has characteristic 0, so the Molien coefficient is dim_K of the
    # invariants exactly: it equals the dimension the averaging oracle
    # counts.  It is computed once, and a graded check without the molien
    # stage computes it without reporting it
    for group in _int_groups_past_the_gate():
        report = certify(group, 6, ["graded"]).to_dict()
        assert "molien" not in report
        molien = group.memo["molien", 6, RING_K]
        for d, dim_K, dim_k, equal in graded_isomorphism_check(group, 6):
            assert dim_K == molien.coefficients[d] \
                == invariant_dimension_bruteforce(group, d, RING_K)
            assert dim_k == dim_K and equal
        assert certify(group, 6).molien is molien


def test_a_lift_that_fails_its_checks_is_an_internal_error(monkeypatch):
    # the two exact checks on each lift: it reduces to its generator over
    # k, and it is fixed by every generator of G
    certify_module = sys.modules["dvrcert.certify"]
    group = [g for g in _int_groups_past_the_gate() if g.order == 6][-1]  # S_3 conjugated
    for wrong, message in ((lambda g, polys: tuple(polys), "is not invariant"),
                           (lambda g, polys, _r=certify_module.reynolds:
                            tuple(poly_scale(f, Fraction(2)) for f in _r(g, polys)),
                            "does not reduce to it")):
        monkeypatch.setattr(certify_module, "reynolds", wrong)
        fresh = generate_group(generators_of(group))
        with pytest.raises(InternalCheckError, match=message):
            fundamental_invariants(fresh, RING_K, 4)
        cert = certify(fresh, 4)
        assert cert.verdict == "inconclusive"
        assert dict(cert.fundamental_errors)[RING_K].endswith(message)
