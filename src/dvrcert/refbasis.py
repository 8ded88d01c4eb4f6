"""Diagonalizing bases for pseudo-reflections over the DVR.

Given a pseudo-reflection sigma acting on O^n, this module produces an
O-module basis w_1, ..., w_n with sigma(w_i) = w_i for i < n and
sigma(w_n) = lambda * w_n.  The point, and the entire difficulty, is that
the basis change is unimodular: its determinant is a unit of O, so this is
a basis of the lattice O^n, not merely an eigenbasis over the fraction
field.  The construction peels off one primitive fixed vector at a time,
recurses on the induced action on the quotient lattice, and repairs the
final eigenvector with a correction term divided by (lambda - 1), which is
a unit whenever the group order is invertible in O.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError
from .linalg import (
    RING_O,
    ExactMatrix,
    det,
    inverse,
    kernel_over_field,
)
from .groups import MatrixGroup, reflection_data
from .scalars import FractionScalar, invert_mod_group_order


def primitive_vector(v) -> tuple:
    """Scale a nonzero K-vector by a power of the uniformizer into O^n \\ pi*O^n."""
    nonzero = [x for x in v if not x.is_zero()]
    if not nonzero:
        raise ValueError("cannot primitivize the zero vector")
    shift = min(x.valuation() for x in nonzero)
    if shift == 0 and all(x.is_integral() for x in v):
        return tuple(v)
    pi = v[0].descriptor.uniformizer()
    factor = pi ** (-shift)
    return tuple(x * factor for x in v)


def unimodular_completion(w) -> ExactMatrix:
    """Complete a primitive O-vector to an O-basis; first column is w.

    Uses the lowest coordinate of valuation zero as the pivot and fills the
    remaining columns with the standard vectors away from it, giving a
    determinant of +/- (unit pivot).
    """
    n = len(w)
    desc = w[0].descriptor
    pivot = None
    for i, x in enumerate(w):
        if not x.is_zero() and x.valuation() == 0:
            pivot = i
            break
    if pivot is None:
        raise ValueError("vector is not primitive: no coordinate of valuation zero")
    zero, one = desc.zero(), desc.one()
    cols = [list(w)]
    for j in range(n):
        if j == pivot:
            continue
        cols.append([one if i == j else zero for i in range(n)])
    t = ExactMatrix(RING_O, desc, [list(row) for row in zip(*cols)])
    d = det(t)
    if d.is_zero() or not d.is_unit():
        raise InternalCheckError(f"completion of a primitive vector has determinant {d}")
    return t


def _conjugated_blocks(sigma: ExactMatrix, w1) -> tuple[ExactMatrix, tuple, ExactMatrix]:
    """Change basis so w1 is the first vector; return (quotient block, top row, T).

    In the new coordinates sigma has first column e_1, the top row (past the
    corner) carries the coefficients on w1, and the lower-right block is the
    induced action on O^n / O*w1.
    """
    if sigma.apply(w1) != tuple(w1):
        raise ValueError("w1 is not fixed by sigma")
    t = unimodular_completion(w1)
    conj = inverse(t) * sigma * t
    n = sigma.rows
    if any(not conj.entry(i, 0).is_zero() for i in range(1, n)):
        raise InternalCheckError("first column of the conjugated matrix is not e_1")
    block = ExactMatrix(
        RING_O,
        sigma.descriptor,
        [[conj.entry(i, j) for j in range(1, n)] for i in range(1, n)],
    )
    top = tuple(conj.entry(0, j) for j in range(1, n))
    return block, top, t


def quotient_action(sigma: ExactMatrix, w1) -> ExactMatrix:
    """Induced matrix of sigma on the quotient lattice O^n / O*w1."""
    block, _, _ = _conjugated_blocks(sigma, w1)
    return block


@dataclass(frozen=True)
class DiagonalizingBasis:
    """Verified eigenbasis of O^n for a pseudo-reflection."""

    basis: tuple  # n vectors over O; the last is the lambda-eigenvector
    eigenvalue: FractionScalar
    order: int

    @property
    def n(self) -> int:
        return len(self.basis)

    def change_of_basis(self) -> ExactMatrix:
        desc = self.eigenvalue.descriptor
        return ExactMatrix(RING_O, desc, [list(row) for row in zip(*self.basis)])

    def serialize(self) -> dict:
        return {
            "vectors": [[str(x) for x in v] for v in self.basis],
            "lambda": str(self.eigenvalue),
            "order": self.order,
        }


def _scalar_order(lam: FractionScalar, cap: int) -> int:
    acc = lam
    one = lam.descriptor.one()
    for k in range(1, cap + 1):
        if acc == one:
            return k
        acc = acc * lam
    raise InternalCheckError(f"eigenvalue {lam} has order exceeding {cap}")


def _verify(sigma: ExactMatrix, basis, lam, order) -> None:
    n = sigma.rows
    for i, w in enumerate(basis):
        image = sigma.apply(w)
        expected = tuple(w) if i < n - 1 else tuple(lam * x for x in w)
        if image != expected:
            raise InternalCheckError(
                f"basis vector {i} fails its eigen-relation: sigma*w = "
                f"{[str(x) for x in image]}, expected {[str(x) for x in expected]}"
            )
    desc = sigma.descriptor
    t = ExactMatrix(RING_O, desc, [list(row) for row in zip(*basis)])
    d = det(t)
    if d.is_zero() or not d.is_unit():
        raise InternalCheckError(
            f"change-of-basis determinant {d} is not a unit: not an O-basis"
        )
    if lam ** order != desc.one():
        raise InternalCheckError(f"eigenvalue {lam} is not an {order}-th root of unity")
    lam_order = _scalar_order(lam, order)
    if lam_order != order:
        raise InternalCheckError(
            f"eigenvalue order {lam_order} differs from the matrix order {order}"
        )


def diagonalizing_basis(sigma: ExactMatrix, group: MatrixGroup) -> DiagonalizingBasis:
    """Eigenbasis of O^n for the pseudo-reflection sigma.

    The group context supplies the invertibility hypothesis (which makes
    lambda - 1 a unit) and an order cap; sigma itself need not be one of
    the enumerated elements (conjugates are fine).
    """
    invert_mod_group_order(group.order, group.descriptor)
    data = reflection_data(sigma, cap=max(group.order, 2))
    if data is None:
        raise ValueError("matrix is not a pseudo-reflection")
    lam, order = data
    basis = _diagonalize(sigma, lam)
    _verify(sigma, basis, lam, order)
    return DiagonalizingBasis(tuple(basis), lam, order)


def _diagonalize(sigma: ExactMatrix, lam: FractionScalar) -> list:
    n = sigma.rows
    desc = sigma.descriptor
    if n == 1:
        return [(desc.one(),)]

    one = desc.one()
    lam_minus_1 = lam - one
    if lam_minus_1.is_zero() or not lam_minus_1.is_unit():
        raise InternalCheckError(
            f"lambda - 1 = {lam_minus_1} is not a unit; the invertibility "
            "hypothesis must have been violated upstream"
        )

    fixed = kernel_over_field(sigma.minus_identity().to_field())
    if fixed.dimension != n - 1:
        raise InternalCheckError(
            f"fixed space has dimension {fixed.dimension}, expected {n - 1}"
        )
    w1 = primitive_vector(fixed.vectors[0])

    block, top, t = _conjugated_blocks(sigma, w1)
    sub = _diagonalize(block, lam)
    basis = [w1]
    corrections = []
    for u in sub:
        # pull back through T: prepend a zero first coordinate
        coords = (desc.zero(),) + tuple(u)
        w = t.apply(coords)
        a = top[0] * u[0]
        for x, y in zip(top[1:], u[1:]):
            a = a + x * y
        corrections.append(a)
        basis.append(w)
    # the fixed pullbacks must have no w1-component at all
    for i, a in enumerate(corrections[:-1]):
        if not a.is_zero():
            raise InternalCheckError(
                f"fixed pullback {i + 1} acquired a nonzero w1-coefficient {a}"
            )
    a_last = corrections[-1]
    coeff = a_last / lam_minus_1
    basis[-1] = tuple(coeff * x + y for x, y in zip(w1, basis[-1]))
    return basis
