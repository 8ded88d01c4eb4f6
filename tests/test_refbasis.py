import random
from fractions import Fraction

import pytest

from dvrcert.groups import generate_group
from dvrcert.linalg import RING_O, ExactMatrix, det, inverse
from dvrcert.refbasis import (
    diagonalizing_basis,
    primitive_vector,
    quotient_action,
    unimodular_completion,
)

from conftest import random_unimodular


def test_primitive_vector_examples(z3):
    v = (z3.from_int(3), z3.from_int(6))
    assert primitive_vector(v, z3) == (z3.one(), z3.from_int(2))
    w = (Fraction(1, 3), z3.one())
    assert primitive_vector(w, z3) == (z3.one(), z3.from_int(3))
    u = (z3.one(), z3.from_int(2))
    assert primitive_vector(u, z3) == u
    with pytest.raises(ValueError):
        primitive_vector((z3.zero(), z3.zero()), z3)


def test_unimodular_completion_first_column_and_det(z3):
    w = (z3.from_int(3), z3.from_int(2), z3.from_int(6))
    t = unimodular_completion(w, z3)
    assert tuple(t.entry(i, 0) for i in range(3)) == w
    assert z3.is_unit(det(t))


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_unimodular_completion_random(kind, p):
    from dvrcert.scalars import DvrDescriptor

    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(p * 31)
    for _ in range(50):
        n = rng.randint(1, 4)
        coords = [rng.randint(-6, 6) for _ in range(n)]
        if all(c % p == 0 for c in coords):
            coords[rng.randrange(n)] = 1
        w = tuple(descriptor.from_int(c) for c in coords)
        w = primitive_vector(w, descriptor)
        t = unimodular_completion(w, descriptor)
        assert descriptor.is_unit(det(t))


def test_diagonalizing_basis_pinned_example(z3):
    # column action: sigma fixes (1,0) and sends (-1/2, 1) to its negative
    sigma = ExactMatrix.from_ints(RING_O, z3, [[1, 1], [0, -1]])
    group = generate_group([sigma])
    basis = diagonalizing_basis(sigma, group)
    assert basis.eigenvalue == z3.from_int(-1)
    assert basis.order == 2
    assert basis.basis[0] == (z3.one(), z3.zero())
    assert basis.basis[1] == (Fraction(-1, 2), z3.one())


def test_diagonalizing_basis_swap(z3, s2_z3):
    swap = ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])
    basis = diagonalizing_basis(swap, s2_z3)
    assert basis.eigenvalue == z3.from_int(-1)
    w1, w2 = basis.basis
    assert swap.apply(w1) == w1
    assert swap.apply(w2) == tuple(basis.eigenvalue * x for x in w2)
    # the symmetric/antisymmetric lines, up to unit scaling
    assert w1[0] == w1[1]
    assert w2[0] == -w2[1]
    assert basis.descriptor.is_unit(det(basis.change_of_basis()))


def test_diagonalizing_basis_dimension_one(c4_f5t, f5t):
    sigma = c4_f5t.elements[1]
    basis = diagonalizing_basis(sigma, c4_f5t)
    assert basis.basis == ((f5t.one(),),)
    assert basis.eigenvalue == f5t.from_int(2)
    assert basis.order == 4


def test_diagonalizing_basis_rejects_non_reflections(z3, s2_z3):
    with pytest.raises(ValueError):
        diagonalizing_basis(ExactMatrix.identity(RING_O, z3, 2), s2_z3)


def test_quotient_action_examples(z5, z3):
    # permutation (1 2) on three coordinates, quotient by the fixed last axis
    swap3 = ExactMatrix.from_ints(RING_O, z5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    e3 = (z5.zero(), z5.zero(), z5.one())
    induced = quotient_action(swap3, e3)
    assert induced == ExactMatrix.from_ints(RING_O, z5, [[0, 1], [1, 0]])

    swap2 = ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])
    w1 = (z3.one(), z3.one())
    assert quotient_action(swap2, w1) == ExactMatrix.from_ints(RING_O, z3, [[-1]])

    block = ExactMatrix.from_ints(RING_O, z3, [[1, 5, 7], [0, 0, 1], [0, 1, 0]])
    e1 = (z3.one(), z3.zero(), z3.zero())
    assert quotient_action(block, e1) == ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])


def test_quotient_action_requires_fixed_vector(z3):
    swap2 = ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        quotient_action(swap2, (z3.one(), z3.from_int(-1)))


def _check_basis(sigma, basis):
    n = sigma.rows
    for i, w in enumerate(basis.basis):
        image = sigma.apply(w)
        if i < n - 1:
            assert image == w
        else:
            assert image == tuple(basis.eigenvalue * x for x in w)
    assert basis.descriptor.is_unit(det(basis.change_of_basis()))
    assert basis.eigenvalue == det(sigma)


def test_diagonalizing_basis_on_all_group_reflections(s3_z5, b2_z3, c4_f5t):
    from dvrcert.groups import classify_reflections

    for group in (s3_z5, b2_z3, c4_f5t):
        report = classify_reflections(group)
        for idx, lam, order in report.reflections:
            basis = diagonalizing_basis(group.elements[idx], group)
            assert basis.eigenvalue == lam
            assert basis.order == order
            _check_basis(group.elements[idx], basis)


def test_diagonalizing_basis_under_conjugation(s3_z5):
    rng = random.Random(2024)
    sigma = s3_z5.elements[1]
    for _ in range(10):
        t = random_unimodular(s3_z5.descriptor, 3, rng)
        moved = t * sigma * inverse(t)
        basis = diagonalizing_basis(moved, s3_z5)
        _check_basis(moved, basis)
