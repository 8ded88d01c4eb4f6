"""Diagonalizing bases for pseudo-reflections over the DVR.

For a pseudo-reflection sigma of O^n with eigenvalue lambda, this module
gives an O-basis w_1, ..., w_n with sigma(w_i) = w_i for i < n and
sigma(w_n) = lambda * w_n: a basis of the lattice O^n, with a unit
determinant, not merely an eigenbasis over K.  sigma - 1 has rank one; let
alpha be its first nonzero row and J = {1, ..., n}.  While |J| > 1, with c
the first j in J where alpha_j != 0 and f the first other index of J, the
next fixed vector is w = primitive(e_f - (alpha_f / alpha_c) e_c), and the
first index where w is a unit leaves J.  With r the index left, w_n = P e_r
for P = (sigma - 1) / (lambda - 1), an idempotent over O because lambda - 1
is a unit when the group order is invertible in O.

The determinant is a unit: alpha annihilates the fixed vectors while
alpha . P e_r = alpha_r != 0, and P e_r - e_r is fixed.  So it is the
determinant of w_1, ..., w_{n-1}, e_r: +/- the minor of the fixed vectors
on the removed indices, which is triangular with unit pivots, since each
w vanishes on the indices removed before it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError
from .linalg import RING_O, ExactMatrix, det
from .groups import MatrixGroup, reflection_data
from .scalars import DvrDescriptor, invert_mod_group_order


def primitive_vector(v, desc: DvrDescriptor) -> tuple:
    """Scale a nonzero K-vector by a power of the uniformizer into O^n \\ pi*O^n."""
    nonzero = [x for x in v if x]
    if not nonzero:
        raise ValueError("cannot primitivize the zero vector")
    # the least valuation becomes 0, so every coordinate lies in O
    shift = min(map(desc.valuation, nonzero))
    if shift == 0:
        return tuple(v)
    factor = desc.uniformizer() ** (-shift)
    return tuple(x * factor for x in v)


@dataclass(frozen=True)
class DiagonalizingBasis:
    """Verified eigenbasis of O^n for a pseudo-reflection."""

    basis: tuple  # n vectors over O; the last is the lambda-eigenvector
    eigenvalue: object  # a value of O
    order: int
    descriptor: DvrDescriptor

    @property
    def n(self) -> int:
        return len(self.basis)

    def serialize(self) -> dict:
        return {
            "vectors": [[str(x) for x in v] for v in self.basis],
            "lambda": str(self.eigenvalue),
            "order": self.order,
        }


def _verify(sigma: ExactMatrix, basis, lam) -> None:
    """Check the eigen-relations and that the basis is one of O^n.

    The order needs no check: once these hold, sigma = T diag(1, ..., 1,
    lambda) T^-1 for the change of basis T, so the order of sigma is that
    of lambda, which is how `reflection_data` took it.
    """
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
    if not desc.is_unit(d):
        raise InternalCheckError(
            f"change-of-basis determinant {d} is not a unit: not an O-basis"
        )


def diagonalizing_basis(sigma: ExactMatrix, group: MatrixGroup) -> DiagonalizingBasis:
    """Eigenbasis of O^n for the pseudo-reflection sigma.

    The group context supplies the invertibility hypothesis (which makes
    lambda - 1 a unit); sigma itself need not be one of the enumerated
    elements (conjugates are fine).
    """
    invert_mod_group_order(group.order, group.descriptor)
    data = reflection_data(sigma)
    if data is None:
        raise ValueError("matrix is not a pseudo-reflection")
    lam, order = data
    basis = _diagonalize(sigma, lam)
    _verify(sigma, basis, lam)
    return DiagonalizingBasis(tuple(basis), lam, order, sigma.descriptor)


def _diagonalize(sigma: ExactMatrix, lam) -> list:
    desc = sigma.descriptor
    lam_minus_1 = lam - desc.one()
    if not desc.is_unit(lam_minus_1):
        raise InternalCheckError(
            f"lambda - 1 = {lam_minus_1} is not a unit; the invertibility "
            "hypothesis must have been violated upstream"
        )
    delta = sigma.minus_identity().entries
    alpha = next(row for row in delta if any(row))
    n = len(alpha)
    basis, live = [], list(range(n))
    while len(live) > 1:
        c = next(j for j in live if alpha[j])
        f = next(j for j in live if j != c)
        w = [desc.zero()] * n
        w[c], w[f] = -(alpha[f] / alpha[c]), desc.one()
        w = primitive_vector(w, desc)
        basis.append(w)
        live.remove(next(j for j in live if desc.is_unit(w[j])))
    (r,) = live
    basis.append(tuple(row[r] / lam_minus_1 for row in delta))  # P e_r
    return basis
