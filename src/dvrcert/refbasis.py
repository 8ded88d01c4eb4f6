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

The eigenvalue lambda and its order are not sought here: they are
sigma's (lambda, order) as `groups.classify_reflections` read them, once
per conjugacy class, and a conjugate of sigma has the same.  One routine
builds and checks the basis on sigma's form A / D: ints for the int
kind, D = 1 and the O-entries for the ratfunc kind.  Each w is
checked as W = s w, s the lcm of its denominators (1 for the ratfunc
kind): (A - D I) W = 0, or b A W = a D W for lambda = a / b, and the W
have a determinant of the valuation of the product of the s.  So the int
kind's checks run in ints; only its printed vectors are `Fraction`s.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import InternalCheckError
from .linalg import _nonzero_pairs, _sparse_dot, det_of_rows, shifted_rows
from .groups import MatrixGroup
from .scalars import KIND_INT, DvrDescriptor, invert_mod_group_order


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


def diagonalizing_basis(sigma, group: MatrixGroup, data) -> DiagonalizingBasis:
    """Eigenbasis of O^n for the pseudo-reflection sigma, a ratfunc group's
    O-matrix or an int-kind group's `IntMatrix` form, with `data` its
    (lambda, order), as `classify_reflections` reads them off sigma's
    conjugacy class.

    The group supplies the gate, which makes lambda - 1 a unit when the
    order of lambda divides |G|; sigma need not be an element (conjugates
    are fine, and have the same data).
    """
    desc = group.descriptor
    invert_mod_group_order(group.order, desc)
    form = (sigma.den, sigma.rows) if desc.kind == KIND_INT else (desc.one(), sigma.entries)
    basis = _diagonalize(*form, data[0], desc)
    _verify(*form, basis, data[0], desc)
    return DiagonalizingBasis(tuple(basis), *data, desc)


def _diagonalize(den, rows, lam, desc: DvrDescriptor) -> list:
    zero, one = desc.zero(), desc.one()
    lam_minus_1 = lam - one
    if not desc.is_unit(lam_minus_1):
        raise InternalCheckError(
            f"lambda - 1 = {lam_minus_1} is not a unit; the invertibility "
            "hypothesis must have been violated upstream"
        )
    delta = shifted_rows(rows, den)  # D (sigma - 1)
    alpha = next(row for row in delta if any(row))
    n = len(alpha)
    basis, live = [], list(range(n))
    while len(live) > 1:
        c = next(j for j in live if alpha[j])
        f = next(j for j in live if j != c)
        w = [zero] * n
        w[c], w[f] = -(one * alpha[f] / alpha[c]), one  # in K: the int kind's alpha are ints
        w = primitive_vector(w, desc)
        basis.append(w)
        live.remove(next(j for j in live if desc.is_unit(w[j])))
    (r,) = live
    scale = den * lam_minus_1
    basis.append(tuple(row[r] / scale for row in delta))  # P e_r
    return basis


def _verify(den, rows, basis, lam, desc: DvrDescriptor) -> None:
    """Check the eigen-relations and that the basis is one of O^n, on the
    W = s w (see the module); a failure is `InternalCheckError`.

    The order needs no check: once these hold, sigma = T diag(1, ..., 1,
    lambda) T^-1 for the change of basis T, so the order of sigma is that
    of lambda, which is how `eigenvalue_order` took it.
    """
    if desc.kind == KIND_INT:
        zero, one, a, b = 0, 1, lam.numerator, lam.denominator
        scales = [lcm(*(x.denominator for x in w)) for w in basis]
        basis = [[x.numerator * (s // x.denominator) for x in w] for s, w in zip(scales, basis)]
    else:
        zero, one, a, b, scales = desc.zero(), desc.one(), lam, desc.one(), ()
    shifted = shifted_rows(rows, den)
    for i, w in enumerate(basis):
        pairs, fixed = _nonzero_pairs(w), i < len(basis) - 1
        image = [_sparse_dot(row, pairs, zero) for row in (shifted if fixed else rows)]
        if [y if fixed else b * y for y in image] != [zero if fixed else a * den * x for x in w]:
            raise InternalCheckError(f"basis vector {i} fails its eigen-relation: "
                                     f"{[str(x) for x in image]} from {[str(x) for x in w]}")
    d = det_of_rows(basis, zero, one)
    if not d or desc.valuation(d) != sum(map(desc.valuation, scales)):
        raise InternalCheckError(f"change-of-basis determinant {d}, over the scalings {scales}, "
                                 "is not a unit: not an O-basis")
