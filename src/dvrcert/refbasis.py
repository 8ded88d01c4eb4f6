"""Diagonalizing bases for pseudo-reflections over the DVR.

For a pseudo-reflection sigma of O^n with eigenvalue lambda, this module
gives an O-basis w_1, ..., w_n with sigma(w_i) = w_i for i < n and
sigma(w_n) = lambda * w_n: a basis of the lattice O^n, with a unit
determinant, not merely an eigenbasis over K.  Each w is built and
checked over O, fraction-free as in Bareiss (Math. Comp. 22, 1968): as W,
with entries in O, and a scale S in K with w = W / S, on sigma's form
A / D with lambda = a / b (ints for the int kind, D = b = 1 and the
O-values for the ratfunc kind).  sigma - 1 has rank one; let alpha be the
first nonzero row of D (sigma - 1) and J = {1, ..., n}.  While |J| > 1,
with c the first j in J where alpha_j != 0 and f the first other index of
J, the next fixed vector is W = alpha_c e_f - alpha_f e_c; with m the
least valuation of its entries, S = alpha_c / pi^(v(alpha_c) - m) makes w
primitive, and the first index where v(W_j) = m, where w is a unit,
leaves J.  With r the index left, the last is W = D (sigma - 1) e_r and
S = D (lambda - 1): w_n = P e_r for P = (sigma - 1) / (lambda - 1), an
idempotent over O because lambda - 1 is a unit when the group order is
invertible in O.

The determinant is a unit: alpha annihilates the fixed vectors while
alpha . P e_r = alpha_r != 0, and P e_r - e_r is fixed.  So it is the
determinant of w_1, ..., w_{n-1}, e_r: +/- the minor of the fixed vectors
on the removed indices, which is triangular with unit pivots, since each
w vanishes on the indices removed before it.

The checks read W and S: (A - D I) W = 0, or b A W = a D W; no entry of W
has a valuation below v(S), so w lies in O^n; and det W has the valuation
sum v(S), so det w is a unit.  So the int kind checks in ints, and a
ratfunc sigma with polynomial entries without a gcd; a vector is divided
by its S only for the basis returned.  lambda and its order are not
sought here: they are sigma's as `groups.classify_reflections` read them,
once per conjugacy class, and a conjugate of sigma has the same.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError
from .linalg import _nonzero_pairs, _sparse_dot, det_of_rows, shifted_rows
from .groups import MatrixGroup
from .scalars import KIND_INT, DvrDescriptor, invert_mod_group_order


@dataclass(frozen=True)
class DiagonalizingBasis:
    """Verified eigenbasis of O^n for a pseudo-reflection."""

    basis: tuple  # n vectors over O; the last is the lambda-eigenvector
    eigenvalue: object  # a value of O
    order: int
    descriptor: DvrDescriptor

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
    form = _form(sigma, data[0], desc)
    vectors = _diagonalize(form, data[0], desc)
    _verify(form, vectors, desc)
    zero = desc.zero()
    basis = tuple(tuple(x / s if x else zero for x in w) for w, s in vectors)
    return DiagonalizingBasis(basis, *data, desc)


def _form(sigma, lam, desc: DvrDescriptor) -> tuple:
    """(D, A, zero, one, a, b) for sigma = A / D and lambda = a / b, over
    the ring of A's entries."""
    if desc.kind == KIND_INT:
        return sigma.den, sigma.rows, 0, 1, lam.numerator, lam.denominator
    one = desc.one()
    return one, sigma.entries, desc.zero(), one, lam, one


def _diagonalize(form, lam, desc: DvrDescriptor) -> list:
    """The (W, S) of each basis vector w = W / S (see the module)."""
    den, rows, zero = form[:3]
    lam_minus_1 = lam - desc.one()
    if not desc.is_unit(lam_minus_1):
        raise InternalCheckError(
            f"lambda - 1 = {lam_minus_1} is not a unit; the invertibility "
            "hypothesis must have been violated upstream"
        )
    delta = shifted_rows(rows, den)  # D (sigma - 1)
    alpha = next(row for row in delta if any(row))
    n = len(alpha)
    pi, v = desc.uniformizer(), desc.valuation
    vectors, live = [], list(range(n))
    while len(live) > 1:
        c = next(j for j in live if alpha[j])
        f = next(j for j in live if j != c)
        w = [zero] * n
        w[c], w[f] = -alpha[f], alpha[c]
        v_c = v(alpha[c])
        m = min(v_c, v(alpha[f])) if alpha[f] else v_c
        vectors.append((w, alpha[c] / pi ** (v_c - m)))
        live.remove(next(j for j in live if w[j] and v(w[j]) == m))
    (r,) = live
    vectors.append(([row[r] for row in delta], den * lam_minus_1))  # w = P e_r
    return vectors


def _verify(form, vectors, desc: DvrDescriptor) -> None:
    """Check the eigen-relations and that the w = W / S are a basis of O^n,
    on the pairs (W, S) (see the module); a failure is `InternalCheckError`.

    The order needs no check: once these hold, sigma = T diag(1, ..., 1,
    lambda) T^-1 for the change of basis T, so the order of sigma is that
    of lambda, which is how `eigenvalue_order` took it.
    """
    den, rows, zero, one, a, b = form
    shifted = shifted_rows(rows, den)
    last = len(vectors) - 1
    for i, (w, _) in enumerate(vectors):
        pairs, fixed = _nonzero_pairs(w), i < last
        image = [_sparse_dot(row, pairs, zero) for row in (shifted if fixed else rows)]
        if [y if fixed else b * y for y in image] != [zero if fixed else a * den * x for x in w]:
            raise InternalCheckError(f"basis vector {i} fails its eigen-relation: "
                                     f"{[str(x) for x in image]} from {[str(x) for x in w]}")
    scales = [desc.valuation(s) for _, s in vectors]
    d = det_of_rows([w for w, _ in vectors], zero, one)
    if not d or desc.valuation(d) != sum(scales):
        raise InternalCheckError(f"change-of-basis determinant {d}, over scales of valuations "
                                 f"{scales}, is not a unit: not an O-basis")
    for i, ((w, _), v_s) in enumerate(zip(vectors, scales)):
        if min(desc.valuation(x) for x in w if x) < v_s:
            raise InternalCheckError(f"basis vector {i} has an entry outside O")
