import random
import sys
import time
from fractions import Fraction

import pytest

from dvrcert.certify import certify, h1_dimension
from dvrcert.cli import EXIT_INCONCLUSIVE, parse_jobspec, run
from dvrcert.errors import (
    ClosureCapExceededError,
    HypothesisViolationError,
    NotInvertibleError,
)
from dvrcert.groups import (
    _generated_by,
    classify_reflections,
    conjugacy_classes,
    eigenvalue_order,
    generate_group,
    reduced_reflection_indices,
    reduction_map,
    reflection_eigenvalue,
    verify_reduced_reflection_generation,
)
from dvrcert.refbasis import diagonalizing_basis
from dvrcert.linalg import (
    RING_K,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    char_poly,
    det,
)
from dvrcert.polys import molien_series
from dvrcert.scalars import DvrDescriptor

from conftest import (
    benchmark_workloads,
    conjugated_over_t,
    group_of,
    halved_b2_z5,
    int_batch_conjugates,
    over_1_plus_t,
    random_unimodular,
    unimodular_over_t,
)
from oracles import (
    _char_series_denominator,
    closure_bruteforce,
    conjugacy_classes_bruteforce,
    element_matrices,
    element_matrix,
    element_order,
    generators_of,
    h1_bruteforce,
    inverse_dense,
    matrix_of_form,
    matrix_order,
    molien_series_ratfunc,
    reduce_entrywise,
    reflection_eigenvalue_bruteforce,
    reflection_generated_bruteforce,
    residue_rows_bruteforce,
)


def test_generate_group_examples(s2_z3, s3_z5, b2_z3):
    assert s2_z3.order == 2
    assert s3_z5.order == 6
    assert b2_z3.order == 8


def test_generate_group_rejects_non_unimodular(z3):
    with pytest.raises(NotInvertibleError, match="generator 0"):
        generate_group([ExactMatrix.from_ints(RING_O, z3, [[3, 0], [0, 1]])])


def test_generate_group_without_generators_points_at_the_trivial_group(z3):
    # with no generators both the descriptor and n are needed
    for kwargs in ({"descriptor": z3}, {"n": 2}, {}):
        with pytest.raises(ValueError, match="needs its descriptor and n"):
            generate_group([], **kwargs)
    assert generate_group([], z3, n=2).order == 1
    # given generators, n must be their size, like any other size mismatch
    swap = ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="generator 0 is not square of size 3"):
        generate_group([swap], n=3)
    assert generate_group([swap], n=2).order == 2


def test_generate_group_builds_the_trivial_group(z3, f5t):
    for descriptor in (z3, f5t):
        group = generate_group([], descriptor, n=2)
        assert (group.order, group.products, group.generator_indices) == (1, ((),), ())
        assert element_matrix(group, 0) == ExactMatrix.identity(RING_O, descriptor, 2)
        cert = certify(group)
        assert cert.verdict == "certified"
        assert cert.fundamental_K.degrees == cert.fundamental_k.degrees == (1, 1)


def test_generate_group_cap(z3):
    shear = ExactMatrix.from_ints(RING_O, z3, [[1, 1], [0, 1]])
    with pytest.raises(ClosureCapExceededError):
        generate_group([shear], cap=50)


def test_group_contains_inverses_and_identity(s3_z5):
    elements = element_matrices(s3_z5, RING_O)
    assert elements[0] == ExactMatrix.identity(RING_O, s3_z5.descriptor, 3)
    for m in elements:
        assert inverse_dense(m) in elements


def test_closure_is_deterministic(z5):
    g1 = ExactMatrix.from_ints(RING_O, z5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    g2 = ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    a = generate_group([g1, g2])
    b = generate_group([g2, g1])  # generator order must not matter
    assert a.elements == b.elements


def test_lagrange_on_test_groups(s2_z3, s3_z5, b2_z3, c4_f5t):
    for group in (s2_z3, s3_z5, b2_z3, c4_f5t):
        for i in range(group.order):
            assert group.order % element_order(group, i) == 0


def test_is_pseudo_reflection_examples(z3):
    swap = ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])
    lam = reflection_eigenvalue(swap)
    assert lam == z3.from_int(-1)
    assert eigenvalue_order(lam, z3) == 2
    assert reflection_eigenvalue(ExactMatrix.identity(RING_O, z3, 2)) is None
    assert reflection_eigenvalue(ExactMatrix.from_ints(RING_O, z3, [[-1, 0], [0, -1]])) is None
    # over k a matrix's rank is read mod p, which this test over K cannot do
    with pytest.raises(ValueError, match="not over k"):
        reflection_eigenvalue(reduce_entrywise(swap))


def test_reflection_eigenvalue_is_the_determinant(s3_z5, f5t):
    # S_3 over Z_(5) and G(4,1,2) over F_5(t), both conjugated off the
    # integers: reflections of order 2 and 4 over O, and over k the
    # elements whose reductions are reflections by the oracle's minors
    rng = random.Random(17)
    t = random_unimodular(s3_z5.descriptor, 3, rng)
    s3_moved = generate_group([t * g * inverse_dense(t) for g in generators_of(s3_z5)])
    x, one = f5t.uniformizer(), f5t.one()
    twist = ExactMatrix(RING_O, f5t, [[one, x], [x, one + x * x]])
    g412_moved = generate_group([
        twist * ExactMatrix.from_ints(RING_O, f5t, g) * inverse_dense(twist)
        for g in ([[0, 1], [1, 0]], [[1, 0], [0, 2]])
    ])
    orders = set()
    for group in (s3_moved, g412_moved):
        report = classify_reflections(group)
        assert report.count > 0
        for idx, lam, order in report.reflections:
            assert lam == det(element_matrix(group, idx))
            orders.add(order)
        over_k = [i for i, m in enumerate(element_matrices(group, RING_RESIDUE))
                  if reflection_eigenvalue_bruteforce(m) is not None]
        assert over_k == reduced_reflection_indices(group) != []
    assert orders == {2, 4}


def test_classify_reflections_s3(s3_z5):
    report = classify_reflections(s3_z5)
    assert report.count == 3
    assert report.generated_by_reflections
    assert all(lam == s3_z5.descriptor.from_int(-1) for _, lam, _ in report.reflections)
    assert all(order == 2 for _, _, order in report.reflections)


def test_classify_reflections_b2(b2_z3):
    report = classify_reflections(b2_z3)
    assert report.count == 4
    assert report.generated_by_reflections


def test_classify_reflections_negative(neg_identity_z23):
    report = classify_reflections(neg_identity_z23)
    assert report.count == 0
    assert not report.generated_by_reflections
    assert not report.vacuous


def test_trivial_group_is_vacuously_reflection_generated(z3):
    report = classify_reflections(generate_group([], z3, n=2))
    assert report.count == 0
    assert report.generated_by_reflections
    assert report.vacuous


def test_reduction_map_examples(s2_z3, s3_z5):
    images, injective = reduction_map(s2_z3)
    assert injective and len(set(images)) == 2
    images, injective = reduction_map(s3_z5)
    assert injective and len(set(images)) == 6


def test_reduction_map_hypothesis_gate():
    d2 = DvrDescriptor("int-localized", 2)
    group = generate_group([ExactMatrix.from_ints(RING_O, d2, [[-1, 0], [0, -1]])])
    with pytest.raises(HypothesisViolationError):
        reduction_map(group)


def test_reduced_reflection_generation(s3_z5, b2_z3, neg_identity_z23):
    assert verify_reduced_reflection_generation(s3_z5)
    assert verify_reduced_reflection_generation(b2_z3)
    assert not verify_reduced_reflection_generation(neg_identity_z23)


def test_proper_reflection_subgroup_does_not_generate(reflection_and_sign_z5):
    # the closure over the one reflection stops at a subgroup of order 2
    group = reflection_and_sign_z5
    assert group.order == 4
    report = classify_reflections(group)
    assert report.count == 1
    assert not report.generated_by_reflections
    assert not verify_reduced_reflection_generation(group)
    doc = {
        "dvr": {"kind": "int-localized", "p": 5},
        "n": 3,
        "generators": [g.serialize() for g in generators_of(group)],
    }
    report, code = run(parse_jobspec(doc))
    assert (report["verdict"], code) == ("inconclusive", EXIT_INCONCLUSIVE)


def test_closure_idempotence(s3_z5, b2_z3):
    for group in (s3_z5, b2_z3):
        regenerated = generate_group(element_matrices(group, RING_O),
                                     descriptor=group.descriptor)
        assert set(regenerated.elements) == set(group.elements)


@pytest.mark.parametrize("seed", range(6))
def test_injectivity_survives_conjugation(s3_z5, b2_z3, c4_f5t, seed):
    rng = random.Random(seed)
    for group in (s3_z5, b2_z3, c4_f5t):
        t = random_unimodular(group.descriptor, group.n, rng)
        t_inv = inverse_dense(t)
        conjugated = generate_group([t * g * t_inv for g in generators_of(group)],
                                    descriptor=group.descriptor)
        assert conjugated.order == group.order
        _, injective = reduction_map(conjugated)
        assert injective


@pytest.mark.parametrize("seed", range(4))
def test_reflection_classification_is_conjugation_invariant(
    z3, z5, s3_z5, b2_z3, reflection_and_sign_z5, seed
):
    # two presentations not made of reflections, both still reflection-generated
    s3_rotation = generate_group([
        ExactMatrix.from_ints(RING_O, z5, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        ExactMatrix.from_ints(RING_O, z5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    ])
    b2_rotation = generate_group([
        ExactMatrix.from_ints(RING_O, z3, [[0, -1], [1, 0]]),
        ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]]),
    ])
    rng = random.Random(100 + seed)
    compared = []
    for group in (s3_z5, b2_z3, s3_rotation, b2_rotation, reflection_and_sign_z5):
        t = random_unimodular(group.descriptor, group.n, rng)
        t_inv = inverse_dense(t)
        conjugated = generate_group([t * g * t_inv for g in generators_of(group)],
                                    descriptor=group.descriptor)
        original = classify_reflections(group)
        moved = classify_reflections(conjugated)
        assert moved.count == original.count
        assert sorted(str(lam) for _, lam, _ in moved.reflections) == sorted(
            str(lam) for _, lam, _ in original.reflections
        )
        assert moved.generated_by_reflections == original.generated_by_reflections
        compared += [(group, original), (conjugated, moved)]
    # the seeded batch's int and ratfunc groups, conjugates included, past the gate
    compared += [(g, classify_reflections(g)) for g in _batch_groups(seed + 1)
                 if g.order % g.descriptor.p]
    for g, report in compared:
        assert report.generated_by_reflections == (
            reflection_generated_bruteforce(element_matrices(g, RING_K))
        )
        assert verify_reduced_reflection_generation(g) == (
            reflection_generated_bruteforce(element_matrices(g, RING_RESIDUE))
        )
    assert classify_reflections(s3_rotation).generated_by_reflections
    assert classify_reflections(b2_rotation).generated_by_reflections
    assert not classify_reflections(reflection_and_sign_z5).generated_by_reflections


def test_reflection_generation_stops_at_the_generators(z5, monkeypatch):
    # W(B_3) given by reflections: the tests over K and k read the classes
    # and the reflections' words off the table, and multiply no matrix
    wb3 = generate_group([
        ExactMatrix.from_ints(RING_O, z5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    ])
    assert wb3.order == 48
    products = []

    def counted(multiply):
        def product(a, b):
            products.append(1)
            return multiply(a, b)
        return product

    monkeypatch.setattr(ExactMatrix, "__mul__", counted(ExactMatrix.__mul__))
    report = classify_reflections(wb3)
    assert report.count == 9 and report.generated_by_reflections
    assert verify_reduced_reflection_generation(wb3)
    # the six reflections that are not generators reach them by words
    others = [i for i, _, _ in report.reflections if i not in wb3.generator_indices]
    assert len(others) == 6 and _generated_by(wb3, others)
    assert products == []


def _wb3(z5):
    """W(B_3) over Z_(5), generated by two transpositions and a sign change."""
    return generate_group([
        ExactMatrix.from_ints(RING_O, z5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    ])


def _matrices_built(monkeypatch) -> list:
    """The ring of every `ExactMatrix` built from here on, by `_of`, which
    `from_ints`, `identity` and every result of arithmetic pass, or by the
    public constructor."""
    rings, of, init = [], ExactMatrix._of, ExactMatrix.__init__

    def counted_of(ring, descriptor, rows):
        rings.append(ring)
        return of(ring, descriptor, rows)

    def counted_init(self, ring, descriptor, entries):
        rings.append(ring)
        init(self, ring, descriptor, entries)

    monkeypatch.setattr(ExactMatrix, "_of", staticmethod(counted_of))
    monkeypatch.setattr(ExactMatrix, "__init__", counted_init)
    return rings


def test_a_checks_only_int_job_builds_no_o_matrices(z5, monkeypatch):
    # the int kind's elements are its integer forms, and no stage of these
    # jobs builds a matrix of one, the bases included, which run on the
    # reflections' forms in ints
    built = _matrices_built(monkeypatch)
    for checks in (("reflections", "eta", "molien"), ("reflections", "eta", "basis", "molien")):
        wb3 = _wb3(z5)
        assert wb3.order == 48
        built.clear()
        assert certify(wb3, 6, checks).verdict == "complete"
        assert built == []


def test_the_bases_build_only_the_reflections_as_o_matrices(z5, monkeypatch):
    # the bases build no O-matrix at all: they read the reflections' forms,
    # and only those and the classes' first elements are built
    wb3 = _wb3(z5)
    built = _matrices_built(monkeypatch)
    report = certify(wb3, None, ("reflections", "basis"))
    reflections = [i for i, _, _ in report.reflection_report.reflections]
    assert len(reflections) == 9 and report.bases_ok
    assert built == []
    built = {i for i, m in enumerate(wb3._built) if m is not None}
    assert built == set(reflections) | {c[0] for c in conjugacy_classes(wb3)}


def test_the_checks_of_wb4_build_the_classes_and_reflections_alone(z5, monkeypatch):
    # W(B_4), as the benchmark's wb4-int-checks job gives it: 384 elements
    # on an orbit of 8 rows, +-e_i, and of them only the first element of
    # each conjugacy class and the reflections are built as forms
    workloads = benchmark_workloads()
    _, doc = workloads.FIXED["wb4-int-checks"]
    spec = parse_jobspec(doc)
    group = generate_group(spec.generators, spec.dvr, n=spec.n)
    matrices = _matrices_built(monkeypatch)
    report = certify(group, 16, tuple(doc["checks"]))
    assert report.verdict == "complete" and report.bases_ok and report.eta_injective
    assert (group.order, len(group.orbit), report.reflection_report.count) == (384, 8, 16)
    built = sum(m is not None for m in group._built)
    assert built <= len(conjugacy_classes(group)) + report.reflection_report.count == 20 + 16
    assert matrices == []


def test_a_full_certificate_builds_no_k_matrix_it_does_not_read(z5, monkeypatch):
    # over k the invariant bases, H^1, the invariance checks and the
    # Reynolds average read the residue rows, so no k-matrix is built; the
    # int kind's passes read its integer forms, so it builds no matrix at all
    wb3 = _wb3(z5)
    built = _matrices_built(monkeypatch)
    assert certify(wb3, 6).verdict == "certified"
    assert built == []


def test_no_full_certificate_builds_a_matrix_over_k(
    s2_z3, s3_z5, b2_z3, b2_z5_halved, c4_f5t, b2_f5t_twisted, neg_identity_z23,
    reflection_and_sign_z5, s2_z2, wa4_z7, wa4_z5, monkeypatch,
):
    # each fixture's group built afresh, so that no memo of another test
    # answers for it, and the first batch of the benchmark's seeded
    # small-batch-conjugated workload, each job at its own degree bound;
    # after generate_group an int-kind job builds no `ExactMatrix`, and a
    # ratfunc job none over k
    fixtures = (s2_z3, s3_z5, b2_z3, b2_z5_halved, c4_f5t, b2_f5t_twisted, neg_identity_z23,
                reflection_and_sign_z5, s2_z2, wa4_z7, wa4_z5)
    jobs = [(generate_group(generators_of(g), g.descriptor, n=g.n), 5 if g.order == 120 else None)
            for g in fixtures]
    jobs += [(group_of(doc), doc.get("degree_bound"))
             for _, doc in benchmark_workloads().small_batch(1, 0)]
    built, verdicts = _matrices_built(monkeypatch), set()
    for group, bound in jobs:
        built.clear()
        verdicts.add(certify(group, bound).verdict)
        if group.descriptor.kind == "int-localized":
            assert built == [], group
        else:
            assert RING_RESIDUE not in built, group
    assert verdicts == {"certified", "inconclusive", "refuted-hypothesis"}


def test_closure_checks_no_product_for_membership_in_o(z5, monkeypatch):
    # O is closed under products: the closure builds them unchecked
    generators = [
        ExactMatrix.from_ints(RING_O, z5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    ]
    checked = []
    is_integral = DvrDescriptor.is_integral

    def counted(descriptor, x):
        checked.append(x)
        return is_integral(descriptor, x)

    monkeypatch.setattr(DvrDescriptor, "is_integral", counted)
    assert generate_group(generators).order == 48
    assert checked == []


def test_element_orders_bounded_by_group_order(c4_f5t):
    orders = [element_order(c4_f5t, i) for i in range(c4_f5t.order)]
    assert sorted(orders) == [1, 2, 4, 4]
    assert matrix_order(c4_f5t.elements[1], cap=4) == 4


def _conjugated_by_a_denominator(group, rng):
    """The group conjugated by diag(2, 1, ..., 1) times a random basis change
    of O^n: a unit determinant, but entries with denominators prime to p."""
    n, descriptor = group.n, group.descriptor
    halve = ExactMatrix.from_ints(RING_O, descriptor,
                                  [[2 if i == j == 0 else int(i == j) for j in range(n)]
                                   for i in range(n)])
    t = halve * random_unimodular(descriptor, n, rng)
    t_inv = inverse_dense(t)
    return generate_group([t * g * t_inv for g in generators_of(group)], descriptor=descriptor)


def test_integer_closure_matches_the_exact_closure(s2_z3, s3_z5, b2_z3, neg_identity_z23,
                                                   reflection_and_sign_z5):
    rng = random.Random(1313)
    groups = [s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5]
    groups += [_conjugated_by_a_denominator(g, rng) for g in groups for _ in range(2)]
    assert any(a.denominator != 1 for m in element_matrices(groups[-1], RING_O)
               for row in m.entries for a in row)
    for group in groups:
        exact, _ = closure_bruteforce(generators_of(group), group.descriptor, group.n)
        assert element_matrices(group, RING_O) == exact
        # the elements are the closure's forms, and over O their matrices
        for form, m in zip(group.elements, element_matrices(group, RING_O)):
            assert tuple(tuple(Fraction(a, form.den) for a in row) for row in form.rows) == m.entries


def test_integer_closure_of_an_infinite_group_reaches_the_cap(z5):
    for rows in ([[1, Fraction(1, 2)], [0, 1]], [[Fraction(1, 2), 0], [0, 2]]):
        g = ExactMatrix(RING_O, z5, rows)
        with pytest.raises(ClosureCapExceededError):
            generate_group([g], cap=200)


def test_integer_form_passes_match_the_brute_force_oracles(s2_z3, s3_z5, b2_z3,
                                                          neg_identity_z23,
                                                          reflection_and_sign_z5,
                                                          c4_f5t, b2_f5t_twisted):
    # the rotation of order 3 over Z_(3) is a transvection mod 3, a
    # reflection over k but not over K; 3 divides its group's order, so it
    # is kept out of `reduction_map`
    z3 = s2_z3.descriptor
    c3_z3 = generate_group([ExactMatrix.from_ints(RING_O, z3, [[0, -1], [1, -1]])])
    rng = random.Random(1515)
    groups = [s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5, c3_z3]
    groups += [_conjugated_by_a_denominator(g, rng) for g in groups for _ in range(2)]
    # D != 1 mod p, so the factor D^-1 of the reduction matters
    assert any(f.den % g.descriptor.p != 1 for g in groups[6:] for f in g.elements)
    # the ratfunc kind reduces its O-matrices' entries, t-denominators included
    groups += [c4_f5t, b2_f5t_twisted, over_1_plus_t(b2_f5t_twisted)]
    only_over_k = 0
    for group in groups:
        # each element over O (serving K too) and over k, against the
        # oracles' conversions of the closure's values
        int_kind = group.descriptor.kind == "int-localized"
        reduced = []
        for value in group.elements:
            m = matrix_of_form(value, group.descriptor) if int_kind else value
            reduced.append(reduce_entrywise(m))
        assert group.residue_rows() == tuple(
            tuple(tuple(row) for row in m.entries) for m in reduced
        )
        if group.order % group.descriptor.p:
            _, injective = reduction_map(group)
            assert injective == (len(set(reduced)) == group.order)
        over_k = set(reduced_reflection_indices(group))
        over_K = {i: lam for i, lam, _ in classify_reflections(group).reflections}
        for i, (m, m_k) in enumerate(zip(element_matrices(group, RING_O), reduced)):
            assert over_K.get(i) == reflection_eigenvalue_bruteforce(m)
            assert (i in over_k) == (reflection_eigenvalue_bruteforce(m_k) is not None)
            only_over_k += i in over_k and i not in over_K
    assert only_over_k >= 3  # the rotations of C_3 and of its conjugates


def test_generator_indices_point_at_the_closure_generators(z3, z5, f5t):
    # the identity among the generators is reached first as the identity itself;
    # the closure generators are the distinct generators in sort_key order
    swap = ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])
    cases = [
        [ExactMatrix.identity(RING_O, z3, 2), swap, swap],
        [ExactMatrix.from_ints(RING_O, z5, g) for g in
         ([[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]])],
        [ExactMatrix.from_ints(RING_O, f5t, [[2]])],
    ]
    groups = [(generate_group(gens), gens) for gens in cases]
    groups.append((generate_group([], z3, n=2), []))
    for group, gens in groups:
        closure_generators = sorted(set(gens), key=ExactMatrix.sort_key)
        assert generators_of(group) == closure_generators
        assert list(group.generator_indices) \
            == [element_matrices(group, RING_O).index(g) for g in closure_generators]
    assert 0 in groups[0][0].generator_indices


def _batch_groups(seed: int) -> list:
    """The groups of the first batch of the benchmark's seeded
    `small-batch-conjugated` workload, built from its job documents."""
    return [group_of(doc) for _, doc in benchmark_workloads().small_batch(seed, 0)]


def test_ratfunc_char_polys_are_the_residue_rows_own(c4_f5t, b2_f5t_twisted):
    # g has finite order, so det(I - z g) over F_p(t) has constant
    # coefficients, which reduction fixes: `molien_series` reads them off
    # the residue rows, and must agree with the series in `RatFunc` values
    batch = [g for g in _batch_groups(1) if g.descriptor.kind != "int-localized"]
    assert any(a.num.degree > 0 or a.den.degree > 0
               for g in batch for m in g.elements for row in m.entries for a in row)
    checked = 0
    for group in [c4_f5t, b2_f5t_twisted, over_1_plus_t(b2_f5t_twisted)] + batch:
        descriptor, p = group.descriptor, group.descriptor.p
        for m, rows in zip(element_matrices(group, RING_K), group.residue_rows()):
            denom = _char_series_denominator(m)
            assert all(c.num.degree <= 0 and c.den.degree == 0 for c in denom)
            assert [descriptor.reduce(c) for c in denom] \
                == [c % p for c in char_poly(rows, 0, 1)]
            checked += 1
        assert molien_series(group, 12) == molien_series_ratfunc(group, 12)
    assert checked >= 70  # 78 on seed 1


def test_a_checks_only_job_builds_no_ring_views(z5, monkeypatch):
    # reflections, eta and Molien read the closure's own values and the
    # residue rows: no element becomes a matrix over K or k
    workloads = benchmark_workloads()
    generators = [
        ExactMatrix.from_ints(RING_O, z5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    ]
    b2 = workloads.conjugate_generators(workloads.RATFUNC, 5, workloads.hyperoctahedral(2),
                                        random.Random(1))
    built = _matrices_built(monkeypatch)
    for group in (generate_group(generators),
                  group_of(workloads._doc(workloads.RATFUNC, 5, b2))):
        built.clear()
        report = certify(group, 6, ("reflections", "eta", "molien"))
        assert report.verdict == "complete" and report.eta_injective
        assert RING_K not in built and RING_RESIDUE not in built


def test_reflection_orders_match_the_matrix_power_oracle(
    s2_z3, s3_z5, b2_z3, c4_f5t, b2_f5t_twisted, neg_identity_z23, reflection_and_sign_z5,
    s2_z2, f5t,
):
    groups = [s2_z3, s3_z5, b2_z3, c4_f5t, b2_f5t_twisted, neg_identity_z23,
              reflection_and_sign_z5, s2_z2] + _batch_groups(41)
    # over k, where eta is injective, a reflection image has the order of
    # its element over O
    over_o = over_k = bases = 0
    for group in groups:
        invertible = group.order % group.descriptor.p != 0
        for idx, lam, order in classify_reflections(group).reflections:
            assert order == element_order(group, idx)
            over_o += 1
            if invertible:
                diagonalizing_basis(group.element(idx), group, (lam, order))
                bases += 1
        if invertible:
            for i, m in enumerate(element_matrices(group, RING_RESIDUE)):
                if reflection_eigenvalue_bruteforce(m) is not None:
                    assert matrix_order(m, cap=group.order) == element_order(group, i)
                    over_k += 1
    assert min(over_o, over_k, bases) >= 80

    # transvections over F_5(t): eigenvalue 1, order p
    shear_f5t = generate_group([ExactMatrix.from_ints(RING_O, f5t, [[1, 1], [0, 1]])])
    report = classify_reflections(shear_f5t)
    assert report.count == 4 and report.generated_by_reflections
    assert all((lam, order) == (f5t.one(), 5) for _, lam, order in report.reflections)
    for i in range(1, 5):
        assert element_order(shear_f5t, i) == 5


def test_no_finite_order_is_refused_without_matrix_powers(z5, monkeypatch):
    # over Z_(5) a shear has eigenvalue 1 and diag(2, 1) eigenvalue 2:
    # neither is a root of unity of Q, so neither generates a finite group,
    # and the closure refuses both on the points of its row orbit, with no
    # matrix product; the order of an eigenvalue is taken only in a finite
    # group, where -1 has order 2
    products = []
    multiply = ExactMatrix.__mul__

    def counted(a, b):
        products.append(1)
        return multiply(a, b)

    monkeypatch.setattr(ExactMatrix, "__mul__", counted)
    for rows in ([[1, 1], [0, 1]], [[2, 0], [0, 1]]):
        m = ExactMatrix.from_ints(RING_O, z5, rows)
        assert reflection_eigenvalue(m) == z5.from_int(rows[0][0])
        with pytest.raises(ClosureCapExceededError):
            generate_group([m], cap=50)
    assert products == []
    assert eigenvalue_order(z5.from_int(-1), z5) == 2


def test_a_non_constant_eigenvalue_has_no_finite_order():
    # diag(1 + t, 1) over F_p(t): 1 + t is no root of unity, so the group
    # is infinite and the closure refuses it at its cap, with no walk
    # through F_p^*, even for a prime far past any such walk
    descriptor = DvrDescriptor("ratfunc-localized", 2**61 - 1)
    one, zero, t = descriptor.one(), descriptor.zero(), descriptor.uniformizer()
    m = ExactMatrix(RING_O, descriptor, [[one + t, zero], [zero, one]])
    started = time.perf_counter()
    assert reflection_eigenvalue(m) == one + t
    with pytest.raises(ClosureCapExceededError):
        generate_group([m], cap=50)
    assert time.perf_counter() - started < 1


def test_the_table_read_row_major_is_the_breadth_first_tree(
        s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5, c4_f5t, b2_f5t_twisted):
    # H^1 takes the product where the walk first meets an element as its
    # tree edge, and builds that element's expression from its row's
    rng = random.Random(1919)
    groups = [s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5,
              c4_f5t, b2_f5t_twisted]
    groups += [_conjugated_by_a_denominator(g, rng) for g in groups[:5]]
    groups += [over_1_plus_t(c4_f5t), over_1_plus_t(b2_f5t_twisted)]
    kinds = {g.descriptor.kind for g in groups}
    assert kinds == {"int-localized", "ratfunc-localized"}
    for group in groups:
        first = {}
        for i, row in enumerate(group.products):
            for j in row:
                first.setdefault(j, i)
        first.pop(0, None)
        # every element but the identity, each first met in an earlier row
        assert list(first) == list(range(1, group.order))
        assert all(i < j for j, i in first.items())


def test_the_closure_records_its_products(s2_z3, s3_z5, b2_z3, c4_f5t, b2_f5t_twisted,
                                           reflection_and_sign_z5, z3, monkeypatch):
    rng = random.Random(1717)
    groups = [s2_z3, s3_z5, b2_z3, c4_f5t, b2_f5t_twisted, reflection_and_sign_z5,
              _conjugated_by_a_denominator(s3_z5, rng), over_1_plus_t(b2_f5t_twisted)]
    # conjugates whose entries have denominators prime to p, for both kinds
    assert any(a.denominator != 1 for m in element_matrices(groups[-2], RING_O)
               for row in m.entries for a in row)
    assert any(a.den.degree > 0 for m in groups[-1].elements for row in m.entries for a in row)
    for group in groups:
        elements = element_matrices(group, RING_O)
        index = {m: i for i, m in enumerate(elements)}
        assert group.products == tuple(
            tuple(index[m * g] for g in generators_of(group)) for m in elements
        )
        assert group.generator_indices == group.products[0]
    assert generate_group([], z3, n=2).products == ((),)

    # H^1 with p | |G| reads every relation, all of them off the table
    d2 = DvrDescriptor("int-localized", 2)
    wb2_z2 = generate_group([ExactMatrix.from_ints(RING_O, d2, g)
                             for g in ([[0, 1], [1, 0]], [[1, 0], [0, -1]])])
    expected = [h1_bruteforce(wb2_z2, 3, ring) for ring in (RING_RESIDUE, RING_K)]
    products = []
    multiply = ExactMatrix.__mul__

    def counted(a, b):
        products.append(1)
        return multiply(a, b)

    monkeypatch.setattr(ExactMatrix, "__mul__", counted)
    assert [h1_dimension(wb2_z2, 3, ring) for ring in (RING_RESIDUE, RING_K)] == expected
    assert products == [] and expected[0] > 0


def _closure_cases(fixtures, rng) -> list:
    """(generators, descriptor, n) of every int and ratfunc fixture, of
    seeded copies of the benchmark batch's groups conjugated by its
    `conjugate_generators`, of conjugates by diag(2, 1, ...) times a basis
    change (D = 2) and over t, of the trivial groups, and of a generating
    set that holds I and a repeated generator."""
    cases = [(generators_of(g), g.descriptor, g.n) for g in fixtures]
    for _, doc in benchmark_workloads().small_batch(27, 0):
        spec = parse_jobspec(doc)
        cases.append((spec.generators, spec.dvr, spec.n))
    for gens, descriptor, n in cases[:len(fixtures)]:
        if descriptor.kind == "int-localized":
            halve = ExactMatrix.from_ints(RING_O, descriptor,  # D = 1 over Z_(2)
                                          [[2 if i == j == 0 < descriptor.p - 2 else int(i == j)
                                            for j in range(n)] for i in range(n)])
            t = halve * random_unimodular(descriptor, n, rng)
        else:
            t = unimodular_over_t(descriptor, n, rng)
        t_inv = inverse_dense(t)
        cases.append(([t * g * t_inv for g in gens], descriptor, n))
    swap = ExactMatrix.from_ints(RING_O, fixtures[0].descriptor, [[0, 1], [1, 0]])
    cases.append(([ExactMatrix.identity(RING_O, swap.descriptor, 2), swap, swap],
                  swap.descriptor, 2))
    cases += [([], fixtures[0].descriptor, 2), ([], fixtures[-1].descriptor, 3)]
    return cases


def test_the_closure_and_its_classes_match_the_brute_force_oracles(
        s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5, s2_z2, b2_z5_halved,
        c4_f5t, b2_f5t_twisted):
    fixtures = [s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5, s2_z2,
                b2_z5_halved, c4_f5t, b2_f5t_twisted]
    cases = _closure_cases(fixtures, random.Random(2727))
    assert any(f.den == 2 for gens, d, n in cases for f in generate_group(gens, d, n=n).elements
               if d.kind == "int-localized")
    sizes = set()
    for gens, descriptor, n in cases:
        group = generate_group(gens, descriptor, n=n)
        elements, products = closure_bruteforce(gens, descriptor, n)
        assert element_matrices(group, RING_O) == elements
        assert group.products == products
        classes = conjugacy_classes(group)
        assert set(map(frozenset, classes)) == conjugacy_classes_bruteforce(group)
        assert classes[0] == (0,)
        assert sum(map(len, classes)) == group.order
        assert all(group.order % len(c) == 0 and list(c) == sorted(c) for c in classes)
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        assert conjugacy_classes(group) is classes
        sizes |= {len(c) for c in classes}
    assert len(cases) >= 45 and sizes == {1, 2, 3}


def test_the_closure_cap_raises_at_the_oracle_s_element_count(z5, f5t):
    cases = [
        [ExactMatrix.from_ints(RING_O, z5, g) for g in
         ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]])],
        [ExactMatrix.from_ints(RING_O, z5, [[1, 1], [0, 1]])],  # infinite over Z_(5)
        [ExactMatrix(RING_O, z5, [[Fraction(1, 2), 0], [0, 2]])],  # infinite, D = 2
        [ExactMatrix.from_ints(RING_O, f5t, [[1, 1], [0, 1]])],  # order 5 over F_5(t)
        [ExactMatrix.from_ints(RING_O, f5t, g) for g in ([[0, 1], [1, 0]], [[1, 0], [0, 2]])],
    ]
    for gens in cases:
        descriptor, n = gens[0].descriptor, gens[0].rows
        for cap in range(1, 12):
            raised = []
            for close in (closure_bruteforce, lambda g, d, n, cap: generate_group(g, d, cap, n)):
                try:
                    close(gens, descriptor, n, cap=cap)
                    raised.append(False)
                except ClosureCapExceededError:
                    raised.append(True)
            assert raised[0] == raised[1], (gens, cap)


def test_the_row_orbit_stays_within_n_times_the_cap(z5, monkeypatch):
    # <[[1, 1], [0, 1]]> over Z_(5) has the infinite row orbit (1, k), k >= 0,
    # and e_2: the closure raises at the oracle's caps, having formed the
    # images of at most n * cap points, each one sparse dot per column
    shear = ExactMatrix.from_ints(RING_O, z5, [[1, 1], [0, 1]])
    groups_module = sys.modules["dvrcert.groups"]
    dots = []

    def counted(row, pairs, zero, _original=groups_module._sparse_dot):
        dots.append(1)
        return _original(row, pairs, zero)

    monkeypatch.setattr(groups_module, "_sparse_dot", counted)
    for cap in (1, 2, 5, 50, 500):
        with pytest.raises(ClosureCapExceededError):
            closure_bruteforce([shear], z5, 2, cap=cap)
        dots.clear()
        with pytest.raises(ClosureCapExceededError):
            generate_group([shear], cap=cap)
        assert 0 < len(dots) <= 2 * cap * 2  # n * cap points, n columns each
    # a finite group's orbit has at most n |G| points, at the cap |G|
    for gens in ([[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]],
                 [[[0, -1], [1, 0]]]):
        group = generate_group([ExactMatrix.from_ints(RING_O, z5, g) for g in gens])
        again = generate_group(generators_of(group), cap=group.order)
        assert again.element_rows == group.element_rows
        assert len(group.orbit) <= group.n * group.order


def test_residue_rows_and_eta_match_the_per_element_reduction(
        s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5, s2_z2, b2_z5_halved,
        c4_f5t, b2_f5t_twisted):
    # every fixture of both kinds, the batch's int groups conjugated by its
    # `conjugate_generators`, the fixtures conjugated by diag(2, 1, ...)
    # times a basis change (D = 2) or over t, and -I over Z_(2), whose eta
    # is not injective: each element's residue rows read by index off the
    # orbit's points, reduced once, against each matrix reduced entrywise
    fixtures = [s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5, s2_z2,
                b2_z5_halved, c4_f5t, b2_f5t_twisted]
    rng = random.Random(4141)
    conjugates = [_conjugated_by_a_denominator(g, rng) if g.descriptor.kind == "int-localized"
                  else conjugated_over_t(g, rng) for g in fixtures if g.descriptor.p != 2]
    # B_2 conjugated by diag(2, 1) has forms with D = 2, the conjugates larger D
    assert {f.den for f in b2_z5_halved.elements} == {1, 2}
    assert any(f.den > 2 for g in conjugates if g.descriptor.kind == "int-localized"
               for f in g.elements)
    d2 = DvrDescriptor("int-localized", 2)
    groups = fixtures + int_batch_conjugates(rng, 1) + conjugates
    groups.append(generate_group([ExactMatrix.from_ints(RING_O, d2, [[-1, 0], [0, -1]])]))
    flags = []
    for group in groups:
        rows, injective = residue_rows_bruteforce(group)
        assert group.residue_rows() == rows
        assert group.memo["residues", RING_RESIDUE][1] == injective
        if group.order % group.descriptor.p:
            assert reduction_map(group) == (rows, injective)
        flags.append(injective)
    assert flags[-1] is False and all(flags[:-1])


def test_generation_by_words_matches_the_oracle(s3_z5, b2_z3, reflection_and_sign_z5, c4_f5t,
                                                b2_f5t_twisted, z3, z5, f5t):
    rng = random.Random(3131)
    # W(B_3) and G(4,1,2) given with a generator of order 3 or 4, not by
    # involutions alone
    wb3_rotations = generate_group([ExactMatrix.from_ints(RING_O, z5, g) for g in (
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]])])
    g412 = generate_group([ExactMatrix.from_ints(RING_O, f5t, g)
                           for g in ([[0, 1], [1, 0]], [[1, 0], [0, 2]])])
    groups = [s3_z5, b2_z3, reflection_and_sign_z5, c4_f5t, b2_f5t_twisted, _wb3(z5),
              halved_b2_z5(), wb3_rotations, conjugated_over_t(g412, rng)]
    groups += int_batch_conjugates(rng, 1)
    swap = ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])
    with_identity = generate_group([ExactMatrix.identity(RING_O, z3, 2), swap])
    assert 0 in with_identity.generator_indices
    groups += [with_identity, generate_group([], z3, n=2), generate_group([], f5t, n=1)]
    whole = proper = 0
    for group in groups:
        subsets = [[], [0], list(range(group.order))]
        subsets += [rng.sample(range(group.order), rng.randint(1, min(3, group.order)))
                    for _ in range(10)]
        for subset in subsets:
            chosen = [element_matrix(group, i) for i in subset]
            order = len(closure_bruteforce(chosen, group.descriptor, group.n)[0])
            assert _generated_by(group, subset) == (order == group.order), (group, subset)
            whole += order == group.order
            proper += order < group.order
    assert whole >= 100 and proper >= 90  # 111 and 97
