import random
from fractions import Fraction

import pytest

from dvrcert.errors import NotInRingError, NotInvertibleError, OrderCapExceededError
from dvrcert.linalg import (
    RING_K,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    det,
    inverse,
    kernel_over_field,
    matrix_order,
    rank_over_field,
    reduce_matrix,
)
from dvrcert.polys import MultiPoly
from dvrcert.scalars import DvrDescriptor, FractionScalar

from oracles import det_cofactor, rank_by_minors


def _swap(descriptor):
    return ExactMatrix.from_ints(RING_O, descriptor, [[0, 1], [1, 0]])


def test_matmul_examples(z3):
    swap = _swap(z3)
    ident = ExactMatrix.identity(RING_O, z3, 2)
    m = ExactMatrix.from_ints(RING_O, z3, [[1, 2], [0, 1]])
    assert ident * m == m
    assert swap * swap == ident
    rot = ExactMatrix.from_ints(RING_O, z3, [[0, -1], [1, 0]])
    assert rot * rot == ExactMatrix.from_ints(RING_O, z3, [[-1, 0], [0, -1]])


def test_shape_and_ring_mismatches(z3, z5):
    a = ExactMatrix.from_ints(RING_O, z3, [[1, 2], [3, 4]])
    b = ExactMatrix.from_ints(RING_O, z3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        b * b
    with pytest.raises(ValueError):
        a * ExactMatrix.from_ints(RING_O, z5, [[1, 0], [0, 1]])
    # an O-tagged container rejects an entry of K outside O
    third = FractionScalar(z3, Fraction(1, 3))
    with pytest.raises(NotInRingError):
        ExactMatrix(RING_O, z3, [[third, z3.zero()], [z3.zero(), z3.one()]])
    with pytest.raises(NotInRingError):
        MultiPoly(RING_O, z3, 2, {(1, 0): third})
    assert ExactMatrix(RING_K, z3, [[third]]).entry(0, 0) == third


def test_det_examples(z3):
    assert det(ExactMatrix.identity(RING_O, z3, 3)) == z3.one()
    assert det(_swap(z3)) == z3.from_int(-1)
    assert det(ExactMatrix.from_ints(RING_O, z3, [[1, 1], [0, -1]])) == z3.from_int(-1)


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
@pytest.mark.parametrize("size", [2, 3])
def test_det_agrees_with_cofactor_expansion(kind, p, size):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(1000 * size + p)
    for ring in (RING_O, RING_K, RING_RESIDUE):  # a loop keeps the test ids
        for _ in range(40):
            m = ExactMatrix.from_ints(
                ring,
                descriptor,
                [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)],
            )
            assert det(m) == det_cofactor(m)


def test_det_bareiss_handles_fractional_entries(z3):
    m = ExactMatrix(
        RING_K,
        z3,
        [
            [FractionScalar(z3, Fraction(1, 3)), FractionScalar(z3, Fraction(2, 5))],
            [FractionScalar(z3, Fraction(7, 2)), FractionScalar(z3, Fraction(1, 9))],
        ],
    )
    assert det(m) == det_cofactor(m)


def test_inverse_examples(z3):
    swap = _swap(z3)
    assert inverse(swap) == swap
    diag31 = ExactMatrix.from_ints(RING_O, z3, [[3, 0], [0, 1]])
    with pytest.raises(NotInvertibleError):
        inverse(diag31)
    inv_k = inverse(ExactMatrix.from_ints(RING_K, z3, [[3, 0], [0, 1]]))
    assert inv_k.entry(0, 0) == FractionScalar(z3, Fraction(1, 3))
    with pytest.raises(NotInvertibleError):
        inverse(ExactMatrix.from_ints(RING_K, z3, [[1, 2], [2, 4]]))


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_inverse_roundtrip_random(kind, p):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(400 + p)
    ident = ExactMatrix.identity(RING_O, descriptor, 3)
    produced = 0
    while produced < 25:
        m = ExactMatrix.from_ints(
            RING_O, descriptor, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        )
        d = det(m)
        if d.is_zero() or not d.is_unit():
            continue
        produced += 1
        assert inverse(m) * m == ident
        assert m * inverse(m) == ident


def test_rank_and_kernel_examples(z3):
    swap_minus_i = _swap(z3).minus_identity().to_field()
    assert rank_over_field(swap_minus_i) == 1
    minus_2i = ExactMatrix.from_ints(RING_K, z3, [[-2, 0], [0, -2]])
    assert rank_over_field(minus_2i) == 2
    basis = kernel_over_field(swap_minus_i)
    assert basis.dimension == 1
    assert basis.vectors[0] == (z3.one(), z3.one())


def test_rank_kernel_dimension_identity(z3, f5t):
    rng = random.Random(42)
    for ring, descriptor in ((RING_K, z3), (RING_K, f5t), (RING_RESIDUE, z3)):
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            entries = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            m = ExactMatrix.from_ints(ring, descriptor, entries)
            kb = kernel_over_field(m)
            assert rank_over_field(m) + kb.dimension == cols
            for v in kb.vectors:
                assert all(x.is_zero() for x in m.apply(v))
            # the reduced echelon form, so the kernel basis, ignores row order
            rng.shuffle(entries)
            shuffled = ExactMatrix.from_ints(ring, descriptor, entries)
            assert kernel_over_field(shuffled).vectors == kb.vectors


@pytest.mark.parametrize("ring", [RING_K, RING_RESIDUE])
def test_rank_matches_minor_enumeration(z3, ring):
    rng = random.Random(77)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = ExactMatrix.from_ints(
            ring, z3, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        assert rank_over_field(m) == rank_by_minors(m)


def test_matrix_order_examples(z3):
    assert matrix_order(ExactMatrix.identity(RING_O, z3, 2)) == 1
    assert matrix_order(_swap(z3)) == 2
    assert matrix_order(ExactMatrix.from_ints(RING_O, z3, [[0, -1], [1, 0]])) == 4
    shear = ExactMatrix.from_ints(RING_O, z3, [[1, 1], [0, 1]])
    with pytest.raises(OrderCapExceededError):
        matrix_order(shear, cap=100)


def test_reduce_matrix_examples(z3):
    assert reduce_matrix(_swap(z3)) == ExactMatrix.from_ints(RING_RESIDUE, z3, [[0, 1], [1, 0]])
    assert reduce_matrix(
        ExactMatrix.from_ints(RING_O, z3, [[1, 0], [0, -1]])
    ) == ExactMatrix.from_ints(RING_RESIDUE, z3, [[1, 0], [0, 2]])
    assert reduce_matrix(
        ExactMatrix.from_ints(RING_O, z3, [[1, 3], [0, 1]])
    ) == ExactMatrix.identity(RING_RESIDUE, z3, 2)


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_reduce_matrix_is_multiplicative(kind, p):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(300 + p)
    for _ in range(40):
        a = ExactMatrix.from_ints(
            RING_O, descriptor, [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        )
        b = ExactMatrix.from_ints(
            RING_O, descriptor, [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        )
        assert reduce_matrix(a * b) == reduce_matrix(a) * reduce_matrix(b)


def test_rank_refuses_ring_tagged_matrices(z3):
    with pytest.raises(ValueError):
        rank_over_field(_swap(z3))


def test_scale_add_neg_transpose(z3):
    m = ExactMatrix.from_ints(RING_O, z3, [[1, 2], [3, 4]])
    assert m.scale(z3.from_int(2)) == ExactMatrix.from_ints(RING_O, z3, [[2, 4], [6, 8]])
    assert m + (-m) == ExactMatrix.from_ints(RING_O, z3, [[0, 0], [0, 0]])
    assert m.transpose() == ExactMatrix.from_ints(RING_O, z3, [[1, 3], [2, 4]])
    assert m.serialize() == [["1", "2"], ["3", "4"]]
