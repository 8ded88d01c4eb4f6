import random
from fractions import Fraction

import pytest

from dvrcert.errors import InternalCheckError
from dvrcert.groups import classify_reflections, generate_group
from dvrcert.linalg import RING_O, ExactMatrix, IntMatrix, det, shifted_rows
from dvrcert.ratfunc import RatFunc
from dvrcert.refbasis import _diagonalize, _form, _verify, diagonalizing_basis
from dvrcert.scalars import DvrDescriptor

from conftest import halved_b2_z5, int_batch_conjugates, random_unimodular, random_unit_int
from oracles import (
    apply_dense,
    change_of_basis,
    diagonalizing_basis_exact,
    diagonalizing_basis_recursive,
    element_matrix,
    form_of,
    inverse_dense,
    primitive_vector,
)


def test_primitive_vector_examples(z3):
    v = (z3.from_int(3), z3.from_int(6))
    assert primitive_vector(v, z3) == (z3.one(), z3.from_int(2))
    w = (Fraction(1, 3), z3.one())
    assert primitive_vector(w, z3) == (z3.one(), z3.from_int(3))
    u = (z3.one(), z3.from_int(2))
    assert primitive_vector(u, z3) == u
    with pytest.raises(ValueError):
        primitive_vector((z3.zero(), z3.zero()), z3)


def _data(group, idx: int) -> tuple:
    """The (lambda, order) that `classify_reflections` reads for element idx,
    as `certify` gives them to `diagonalizing_basis`; a conjugate of the
    element has the same."""
    return next((lam, order) for i, lam, order in classify_reflections(group).reflections
                if i == idx)


def test_diagonalizing_basis_pinned_example(z3):
    # column action: sigma fixes (1,0) and sends (-1/2, 1) to its negative
    sigma = ExactMatrix.from_ints(RING_O, z3, [[1, 1], [0, -1]])
    group = generate_group([sigma])
    assert element_matrix(group, 1) == sigma
    basis = diagonalizing_basis(form_of(sigma), group, _data(group, 1))
    assert basis.eigenvalue == z3.from_int(-1)
    assert basis.order == 2
    assert basis.basis[0] == (z3.one(), z3.zero())
    assert basis.basis[1] == (Fraction(-1, 2), z3.one())


def test_diagonalizing_basis_swap(z3, s2_z3):
    swap = ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])
    basis = diagonalizing_basis(form_of(swap), s2_z3, _data(s2_z3, 1))
    assert basis.eigenvalue == z3.from_int(-1)
    w1, w2 = basis.basis
    assert apply_dense(swap, w1) == w1
    assert apply_dense(swap, w2) == tuple(basis.eigenvalue * x for x in w2)
    # the symmetric/antisymmetric lines, up to unit scaling
    assert w1[0] == w1[1]
    assert w2[0] == -w2[1]
    assert basis.descriptor.is_unit(det(change_of_basis(basis)))


def test_diagonalizing_basis_dimension_one(c4_f5t, f5t):
    sigma = c4_f5t.elements[1]
    basis = diagonalizing_basis(sigma, c4_f5t, _data(c4_f5t, 1))
    assert basis.basis == ((f5t.one(),),)
    assert basis.eigenvalue == f5t.from_int(2)
    assert basis.order == 4


def _check_basis(sigma, basis):
    n = sigma.rows
    for i, w in enumerate(basis.basis):
        image = apply_dense(sigma, w)
        if i < n - 1:
            assert image == w
        else:
            assert image == tuple(basis.eigenvalue * x for x in w)
    assert basis.descriptor.is_unit(det(change_of_basis(basis)))
    assert basis.eigenvalue == det(sigma)


def test_diagonalizing_basis_on_all_group_reflections(s3_z5, b2_z3, c4_f5t):
    for group in (s3_z5, b2_z3, c4_f5t):
        report = classify_reflections(group)
        for idx, lam, order in report.reflections:
            sigma = element_matrix(group, idx)
            basis = diagonalizing_basis(form_of(sigma), group, (lam, order))
            assert basis.eigenvalue == lam
            assert basis.order == order
            _check_basis(sigma, basis)


def test_diagonalizing_basis_under_conjugation(s3_z5):
    rng = random.Random(2024)
    sigma, data = element_matrix(s3_z5, 1), _data(s3_z5, 1)
    for _ in range(10):
        t = random_unimodular(s3_z5.descriptor, 3, rng)
        moved = t * sigma * inverse_dense(t)
        basis = diagonalizing_basis(form_of(moved), s3_z5, data)
        _check_basis(moved, basis)


def _random_primitive(desc, n, rng):
    """A primitive vector of O^n whose entries are often in pi*O."""
    pi = desc.uniformizer()
    while True:
        v = []
        for _ in range(n):
            x = desc.from_int(rng.randint(-3, 3)) + desc.from_int(rng.randint(-2, 2)) * pi
            v.append(x * pi ** rng.choice((0, 0, 1)) / desc.from_int(random_unit_int(rng, desc.p)))
        if any(v):
            return primitive_vector(v, desc)


def _random_reflection(desc, lam, n, rng):
    """sigma = I + c*u*alpha^T with alpha^T u a unit and c = (lambda - 1) / (alpha^T u)."""
    while True:
        u, alpha = _random_primitive(desc, n, rng), _random_primitive(desc, n, rng)
        dot = sum((x * y for x, y in zip(alpha, u)), desc.zero())
        if desc.is_unit(dot):
            break
    c = (lam - desc.one()) / dot
    rows = [
        [(desc.one() if i == j else desc.zero()) + c * u[i] * alpha[j] for j in range(n)]
        for i in range(n)
    ]
    return ExactMatrix(RING_O, desc, rows)


def _branches(sigma, basis, desc, seen):
    """Replay the closed form's index choices on the basis it returned."""
    alpha = next(row for row in shifted_rows(sigma.entries, desc.one()) if any(row))
    live = list(range(sigma.rows))
    for w in basis[:-1]:
        c = next(j for j in live if alpha[j])
        f = next(j for j in live if j != c)
        removed = next(j for j in live if desc.is_unit(w[j]))
        if not desc.is_integral(alpha[f] / alpha[c]):
            seen.add("shifted")
        seen.add("removed c" if removed == c else "removed f")
        live.remove(removed)


def test_diagonalizing_basis_matches_the_quotient_recursion():
    rng = random.Random(9)
    # lambda of order 2, 4 and 6: -1 over Q, 2 in F_5 and 3 in F_7
    cases = [
        (DvrDescriptor("int-localized", 3), (-1,)),
        (DvrDescriptor("int-localized", 5), (-1,)),
        (DvrDescriptor("ratfunc-localized", 5), (-1, 2)),
        (DvrDescriptor("ratfunc-localized", 7), (-1, 3)),
    ]
    seen, orders = set(), set()
    for i in range(320):
        desc, lams = cases[i % 4]
        n = 1 + (i // 8) % 5
        lam = desc.from_int(rng.choice(lams))
        sigma = _random_reflection(desc, lam, n, rng)
        if (i // 4) % 2:
            t = random_unimodular(desc, n, rng)
            sigma = t * sigma * inverse_dense(t)
        # the cyclic group of lambda's order supplies the gate, and its
        # reflection [[lambda]], of sigma's eigenvalue, the (lambda, order)
        cyclic = generate_group([ExactMatrix(RING_O, desc, [[lam]])])
        basis = diagonalizing_basis(form_of(sigma), cyclic, _data(cyclic, 1))
        expected = tuple(diagonalizing_basis_recursive(sigma, lam))
        assert basis.eigenvalue == lam
        assert basis.basis == expected
        assert basis.serialize()["vectors"] == [[str(x) for x in v] for v in expected]
        orders.add(basis.order)
        _branches(sigma, basis.basis, desc, seen)
    assert orders == {2, 4, 6}
    assert seen == {"shifted", "removed c", "removed f"}


def test_the_integer_bases_match_the_fraction_path(s2_z3, s3_z5, b2_z3, neg_identity_z23,
                                                   reflection_and_sign_z5, c4_f5t,
                                                   b2_f5t_twisted):
    # every reflection of the int fixtures, of the batch's int groups
    # conjugated by its `conjugate_generators`, and of B_2 over Z_(5)
    # conjugated by diag(2, 1), whose forms have D = 2, given to the bases
    # as its form with the report's (lambda, order), against the basis
    # built and checked on its `Fraction` O-matrix; the ratfunc fixtures'
    # against theirs on `RatFunc` values
    groups = [s2_z3, s3_z5, b2_z3, neg_identity_z23, reflection_and_sign_z5, halved_b2_z5(),
              c4_f5t, b2_f5t_twisted] + int_batch_conjugates(random.Random(5151), 1)
    dens = set()
    for group in groups:
        for idx, lam, order in classify_reflections(group).reflections:
            sigma = element_matrix(group, idx)
            expected = tuple(diagonalizing_basis_exact(sigma, lam))
            basis = diagonalizing_basis(group.element(idx), group, (lam, order))
            assert basis.basis == expected and basis.eigenvalue == lam and basis.order == order
            assert diagonalizing_basis(form_of(sigma), group, (lam, order)).basis == expected
            if isinstance(group.element(idx), IntMatrix):
                dens.add(group.element(idx).den)
    assert dens == {1, 2}


def test_a_wrong_basis_fails_the_integer_checks(b2_z5_halved, b2_f5t_twisted):
    # a W scaled by p, or t, or an S scaled by it, leaves a determinant that
    # is not a unit; a w = W / S with an S of too high a valuation has an
    # entry outside O, though the determinant of the w is a unit; and a
    # fixed vector put last is no lambda-eigenvector
    for group in (b2_z5_halved, b2_f5t_twisted):
        desc = group.descriptor
        pi = desc.uniformizer()
        for idx, lam, _ in classify_reflections(group).reflections:
            form = _form(group.element(idx), lam, desc)
            vectors = _diagonalize(form, lam, desc)
            _verify(form, vectors, desc)
            (w0, s0), (w1, s1), *rest = vectors
            with pytest.raises(InternalCheckError, match="not a unit"):
                _verify(form, [([x * pi for x in w0], s0), (w1, s1)] + rest, desc)
            with pytest.raises(InternalCheckError, match="not a unit"):
                _verify(form, [(w0, s0 * pi), (w1, s1)] + rest, desc)
            with pytest.raises(InternalCheckError, match="outside O"):
                _verify(form, [(w0, s0 * pi), ([x * pi for x in w1], s1)] + rest, desc)
            with pytest.raises(InternalCheckError, match="eigen-relation"):
                _verify(form, vectors[1:] + vectors[:1], desc)


def test_the_check_of_a_polynomial_basis_runs_no_gcd(b2_f5t_twisted, monkeypatch):
    # b2_f5t_twisted's entries are polynomials in t, and so are its W: the
    # check of each reflection's basis forms no fraction
    desc = b2_f5t_twisted.descriptor
    calls = []
    make = RatFunc.make
    for idx, lam, _ in classify_reflections(b2_f5t_twisted).reflections:
        form = _form(b2_f5t_twisted.element(idx), lam, desc)
        vectors = _diagonalize(form, lam, desc)
        with monkeypatch.context() as m:
            m.setattr(RatFunc, "make", staticmethod(lambda *a: calls.append(a) or make(*a)))
            _verify(form, vectors, desc)
    assert calls == []
