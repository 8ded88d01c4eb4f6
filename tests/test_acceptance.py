"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every derived number is recomputed by an independent brute-force oracle
(in oracles.py) before being asserted against the fast path.
"""
import random
import time

from dvrcert.certify import certify, h1_dimension
from dvrcert.groups import (
    classify_reflections,
    reduction_map,
    verify_reduced_reflection_generation,
)
from dvrcert.linalg import RING_K, RING_O, RING_RESIDUE, ExactMatrix, det
from dvrcert.polys import hilbert_product_truncation
from dvrcert.refbasis import diagonalizing_basis

from conftest import random_unimodular
from oracles import (
    apply_dense,
    change_of_basis,
    element_matrix,
    form_of,
    h1_bruteforce,
    invariant_dimension_bruteforce,
    inverse_dense,
    matrix_order,
)


def _scalar_order(lam, descriptor, cap: int):
    """The order of a scalar of O, by the matrix-power oracle on [[lam]]."""
    return matrix_order(ExactMatrix(RING_O, descriptor, [[lam]]), cap=cap)


def _report(num: int, description: str, ok: bool):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {description}", flush=True)
    assert ok, f"criterion {num}: {description}"


def test_criterion_1_s3_certificate(s3_z5):
    started = time.perf_counter()
    cert = certify(s3_z5, 6)
    elapsed = time.perf_counter() - started

    brute_dims = [invariant_dimension_bruteforce(s3_z5, d, RING_K) for d in range(7)]
    ok = (
        cert.verdict == "certified"
        and cert.fundamental_K.degrees == (1, 2, 3)
        and cert.fundamental_k.degrees == (1, 2, 3)
        and 1 * 2 * 3 == s3_z5.order
        and cert.reflection_report.count == 3
        and sum(d - 1 for d in cert.fundamental_K.degrees) == 3
        and brute_dims == [1, 1, 2, 3, 4, 5, 7]
        and tuple(cert.molien.coefficients) == tuple(brute_dims)
        and all(eq for _, _, _, eq in cert.graded_table)
        and all(a == 0 and b == 0 for _, a, b in cert.h1_table)
        and elapsed < 10.0
    )
    _report(1, f"S3 over Z_(5): certified, degrees [1,2,3], {elapsed:.2f}s", ok)


def test_criterion_2_b2_certificate(b2_z3):
    started = time.perf_counter()
    cert = certify(b2_z3, 8)
    elapsed = time.perf_counter() - started

    brute_dims = [invariant_dimension_bruteforce(b2_z3, d, RING_K) for d in range(9)]
    hilbert = hilbert_product_truncation([2, 4], 8)
    ok = (
        cert.verdict == "certified"
        and cert.fundamental_K.degrees == (2, 4)
        and cert.reflection_report.count == 4
        and tuple(cert.molien.coefficients) == hilbert == tuple(brute_dims)
        and elapsed < 10.0
    )
    _report(2, f"B2 over Z_(3): certified, degrees [2,4], {elapsed:.2f}s", ok)


def test_criterion_3_c4_ratfunc_certificate(c4_f5t, f5t):
    started = time.perf_counter()
    cert = certify(c4_f5t, 4)
    elapsed = time.perf_counter() - started

    brute_dims = [invariant_dimension_bruteforce(c4_f5t, d, RING_K) for d in range(5)]
    eigen_orders = sorted(entry[2] for entry in cert.reflection_report.reflections)
    lam_of_order_4 = [
        basis.eigenvalue
        for _, basis, _ in cert.bases
        if basis is not None and basis.order == 4
    ]
    ok = (
        cert.verdict == "certified"
        and cert.fundamental_K.degrees == (4,)
        and cert.reflection_report.count == 3 == c4_f5t.order - 1
        and brute_dims == [1, 0, 0, 0, 1]
        and eigen_orders == [2, 4, 4]
        and len(lam_of_order_4) == 2
        and all(_scalar_order(lam, f5t, 4) == 4 for lam in lam_of_order_4)
        and elapsed < 5.0
    )
    _report(3, f"C4 over F5[t]_(t): certified, degrees [4], root of unity of order 4, {elapsed:.2f}s", ok)


def test_criterion_4_diagonalizing_basis_fuzz(s3_z5, b2_z3, c4_f5t):
    started = time.perf_counter()
    rng = random.Random(424242)
    runs = 0
    for group in (s3_z5, b2_z3, c4_f5t):
        report = classify_reflections(group)
        for idx, lam, order in report.reflections:
            sigma = element_matrix(group, idx)
            for _ in range(100):
                t = random_unimodular(group.descriptor, group.n, rng)
                moved = t * sigma * inverse_dense(t)
                # conjugation keeps sigma's (lambda, order)
                basis = diagonalizing_basis(form_of(moved), group, (lam, order))
                n = group.n
                for i, w in enumerate(basis.basis):
                    image = apply_dense(moved, w)
                    expected = (
                        tuple(w) if i < n - 1
                        else tuple(basis.eigenvalue * x for x in w)
                    )
                    assert image == expected
                assert group.descriptor.is_unit(det(change_of_basis(basis)))
                assert basis.eigenvalue == det(moved) == lam
                assert basis.order == order
                assert _scalar_order(basis.eigenvalue, group.descriptor, order) == order
                runs += 1
    elapsed = time.perf_counter() - started
    ok = runs == 100 * (3 + 4 + 3) and elapsed < 30.0
    _report(4, f"{runs} conjugated eigenbasis constructions verified, {elapsed:.2f}s", ok)


def test_criterion_5_reduction_checks(s3_z5, b2_z3, c4_f5t, neg_identity_z23, s2_z2):
    all_ok = True
    for group in (s3_z5, b2_z3, c4_f5t):
        images, injective = reduction_map(group)
        all_ok = all_ok and injective and len(set(images)) == group.order
        all_ok = all_ok and verify_reduced_reflection_generation(group)

    negative = certify(neg_identity_z23, 4)
    all_ok = all_ok and negative.eta_injective is True
    all_ok = all_ok and negative.reflection_report.generated_by_reflections is False
    all_ok = all_ok and negative.verdict == "inconclusive"

    refuted = certify(s2_z2, 4)
    all_ok = all_ok and refuted.verdict == "refuted-hypothesis"

    _report(5, "reduction injective + reduced reflection generation + controls", all_ok)


def test_criterion_6_cohomology(s3_z5, b2_z3, c4_f5t, s2_z2):
    all_ok = True
    for group in (s3_z5, b2_z3, c4_f5t):
        for ring in (RING_K, RING_RESIDUE):
            for d in range(6):
                all_ok = all_ok and h1_dimension(group, d, ring) == 0

    # modular control: recompute with the brute-force cocycle oracle first
    oracle_value = h1_bruteforce(s2_z2, 1, RING_RESIDUE)
    fast_value = h1_dimension(s2_z2, 1, RING_RESIDUE)
    all_ok = all_ok and oracle_value == 1 and fast_value == oracle_value

    _report(6, f"cohomology vanishes when invertible; modular control = {fast_value}", all_ok)


def test_criterion_7_property_suites():
    import test_properties as props

    started = time.perf_counter()
    suites = [
        props.test_reynolds_idempotence_and_projection,
        props.test_action_law_and_ring_morphism,
        props.test_molien_coefficients_match_invariant_dimensions,
        props.test_residue_rows_follow_the_product_table,
        props.test_closure_idempotence,
    ]
    for suite in suites:
        suite()
    elapsed = time.perf_counter() - started
    _report(7, f"5 property suites, >=200 generated cases each, {elapsed:.1f}s", True)
