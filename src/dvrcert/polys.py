"""Sparse graded polynomials, the linear group action, averaging, Molien series.

Polynomials live over one of the tagged rings (O, K, or the residue field k).
The group acts by linear substitution with the row-vector convention
X_j -> sum_i g[i][j] X_i, which makes g -> act(g, .) a left action without
inverting any matrices.  One recursion, X^e = X^(e - u_j) * X_j, builds
every monomial image, for `act` and for the degree-by-degree action
matrices alike.  Monomials are ordered graded-lexicographically
throughout, which fixes canonical coefficient coordinates for every
echelon computation downstream.  Over k a coefficient is an int in
[0, p), reduced mod p where a polynomial is built, so over K and k alike
the coordinates are the coefficients themselves (`MultiPoly.coordinates`,
`from_coordinates`), and the action matrices over k are built on the
residue rows mod p.  A basis over k is eliminated from them, or, when
the generators' residue rows are monomial, read off the orbits of the
monomials.  `certify` reads a ratfunc group's side over K off its side
over k (`MatrixGroup.conjugator`), so it asks for an invariant basis
over F_p(t) only in H^1, where p divides |G|.  It reads the int
kind's side over K off the Reynolds lifts and the Molien series, so no
basis over Q is solved.  The Reynolds average, of the int kind over O
or K only, and the invariance test run on the closure's integer forms
A / D in ints, act(A / D, X^e) being D^-|e| act(A, X^e), with one store
of monomial images per element; over k the test reads the residue rows
mod p.  The Molien series reads det(I - z g), a class function, once
per conjugacy class off Berkowitz's characteristic polynomial
(`linalg.char_poly`) in integers, on the integer forms for the int kind
and on the residue rows mod p for the ratfunc kind; a division-free
recurrence divides by their lcm over Q, by each one mod p.
Whether a matrix of polynomials over k (a Jacobian) has a nonzero
determinant is first asked at a few fixed points, where it is a scalar.
"""
from __future__ import annotations

import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InternalCheckError, NotInRingError
from .linalg import (
    RING_K,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    IntMatrix,
    RowEchelon,
    add_multiple,
    char_poly,
    det_of_rows,
    elimination_field,
    ring_from_int,
    ring_one,
    set_fields,
)
from .groups import MatrixGroup, conjugacy_classes
from .ratfunc import FpPoly, RatFunc
from .scalars import KIND_INT, DvrDescriptor, invert_mod_group_order


@lru_cache(maxsize=None)
def monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of total degree d in n variables, graded-lex order."""
    if n == 0:
        return ((),) if d == 0 else ()
    if n == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in monomials(n - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(n: int, d: int) -> dict:
    """The position of each exponent vector in `monomials(n, d)`; one dict
    shared by every caller, so read-only."""
    return {e: i for i, e in enumerate(monomials(n, d))}


def monomial_sort_key(exp: tuple[int, ...]) -> tuple:
    # graded: lower total degree first; within a degree, lex-descending
    return (sum(exp), tuple(-e for e in exp))


class MultiPoly:
    """Sparse multivariate polynomial with exact coefficients.

    Like `ExactMatrix`, it records the ring of its coefficients once; the
    public constructor checks exponents and, over O, the coefficients, and
    the results of arithmetic are built unchecked.  Over k a coefficient
    is an int, reduced mod p where the polynomial is built.  Zero terms
    are dropped.
    """

    __slots__ = ("ring", "descriptor", "n", "terms")

    def __init__(self, ring: str, descriptor: DvrDescriptor, n: int, terms):
        terms = {tuple(e): c for e, c in dict(terms).items()}
        for exp, coeff in terms.items():
            if len(exp) != n:
                raise ValueError(f"exponent vector {exp} has wrong length; expected {n}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if ring == RING_O and not descriptor.is_integral(coeff):
                raise NotInRingError(f"coefficient {coeff} is not in the DVR")
        if ring == RING_RESIDUE:
            terms = {e: operator.index(c) % descriptor.p for e, c in terms.items()}
        set_fields(self, ring=ring, descriptor=descriptor, n=n,
                   terms={e: c for e, c in terms.items() if c})

    @staticmethod
    def _of(ring: str, descriptor: DvrDescriptor, n: int, terms: dict) -> MultiPoly:
        """The polynomial of terms whose coefficients lie in the ring, unchecked;
        over k the ints are reduced mod p here, for every result of arithmetic."""
        if ring == RING_RESIDUE:
            terms = {e: c % descriptor.p for e, c in terms.items()}
        return set_fields(object.__new__(MultiPoly), ring=ring, descriptor=descriptor, n=n,
                          terms={e: c for e, c in terms.items() if c})

    def _like(self, terms: dict) -> MultiPoly:
        return MultiPoly._of(self.ring, self.descriptor, self.n, terms)

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(ring: str, descriptor: DvrDescriptor, n: int, coeff) -> MultiPoly:
        return MultiPoly(ring, descriptor, n, {(0,) * n: coeff})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        # false for zero, as for the scalars, so `linalg.char_poly` skips zeros
        return bool(self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: monomial_sort_key(item[0]))

    # -- arithmetic -----------------------------------------------------------

    def _compat(self, other: MultiPoly):
        # compared by identity first, as in ExactMatrix._compat
        if (self.ring, self.descriptor, self.n) != (other.ring, other.descriptor, other.n):
            if self.descriptor != other.descriptor:
                raise ValueError(f"polynomials over different DVRs: "
                                 f"{self.descriptor} vs {other.descriptor}")
            raise ValueError("polynomials from different rings cannot be combined")

    def __add__(self, other: MultiPoly) -> MultiPoly:
        self._compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            terms[e] = c if acc is None else acc + c
        return self._like(terms)

    def __neg__(self) -> MultiPoly:
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        return self + (-other)

    def __mul__(self, other: MultiPoly) -> MultiPoly:
        self._compat(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = terms.get(e)
                terms[e] = c if acc is None else acc + c
        return self._like(terms)

    def partial_derivative(self, i: int) -> MultiPoly:
        from_int = ring_from_int(self.ring, self.descriptor)
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                terms[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * from_int(e[i])
        return self._like(terms)

    # -- coordinates ----------------------------------------------------------

    def coordinates(self, index: dict) -> dict:
        """The coefficients as the sparse row {index[e]: c} that `RowEchelon`
        takes: over k a row over F_p."""
        return {index[e]: c for e, c in self.terms.items()}

    @staticmethod
    def from_coordinates(ring: str, descriptor: DvrDescriptor, basis, row: dict) -> MultiPoly:
        """The polynomial sum of row[c] X^basis[c], for a sparse row of
        values of K or k."""
        return MultiPoly._of(ring, descriptor, len(basis[0]),
                             {basis[c]: a for c, a in row.items()})

    # -- ring moves ------------------------------------------------------------

    def reduce(self) -> MultiPoly:
        """Coefficientwise reduction of an O-polynomial to the residue field."""
        if self.ring != RING_O:
            raise ValueError("only O-polynomials reduce to the residue field")
        reduce = self.descriptor.reduce
        return MultiPoly._of(
            RING_RESIDUE, self.descriptor, self.n, {e: reduce(c) for e, c in self.terms.items()}
        )

    def lift(self, ring: str) -> MultiPoly:
        """Coefficientwise lift of a k-polynomial to O or K, each int in
        [0, p) to the constant it names (`descriptor.from_int`)."""
        if self.ring != RING_RESIDUE:
            raise ValueError("only k-polynomials lift to O or K")
        from_int = self.descriptor.from_int
        return MultiPoly._of(ring, self.descriptor, self.n,
                             {e: from_int(c) for e, c in self.terms.items()})

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.ring, self.descriptor, self.n, self.terms) == (
            other.ring, other.descriptor, other.n, other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.descriptor, self.n, tuple(self.sorted_terms())))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"X{i + 1}^{a}" for i, a in enumerate(e) if a]
            if factors:
                parts.append(f"{c} * " + "*".join(factors))
            else:
                parts.append(str(c))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly[{self.ring}]({self})"


# -- determinants of polynomial matrices -------------------------------------------


_EVALUATION_POINTS = 3


def _over_k(rows) -> MultiPoly:
    """The first entry of a matrix of polynomials, which must be over k."""
    if rows[0][0].ring != RING_RESIDUE:
        raise ValueError(f"a polynomial determinant is taken over k, not over {rows[0][0].ring}")
    return rows[0][0]


def polynomial_det_is_nonzero(rows) -> bool:
    """Is the determinant of the square matrix of `MultiPoly` entries over
    k with these rows nonzero?

    From 3 x 3 on, the fixed points of `nonzero_at_a_point` are tried
    first; only when all of them give zero is `linalg.det_of_rows` taken on
    the polynomials.  Below that Berkowitz forms no more products of
    entries than the cofactor expansion does, fewer than evaluating them.
    """
    f = _over_k(rows)
    if len(rows) > 2 and nonzero_at_a_point(rows):
        return True
    zero, one = f._like({}), f._like({(0,) * f.n: 1})
    return not det_of_rows(rows, zero, one).is_zero()


def nonzero_at_a_point(rows) -> bool:
    """Is the determinant of the matrix of `MultiPoly` entries over k with
    these rows nonzero at one of `_EVALUATION_POINTS` fixed points?

    Evaluation at a point is a ring map, so True proves the determinant
    nonzero; each point's scalar determinant is `linalg.det_of_rows` of the
    entries' values.  False proves nothing.
    """
    f = _over_k(rows)
    top = max((max(e) for row in rows for a in row for e in a.terms), default=0)
    p = f.descriptor.p
    zero, one = RatFunc.zero(p), RatFunc.one(p)
    for point in _evaluation_points(p, f.n):
        powers = [[one] for _ in point]
        for x, xs in zip(point, powers):
            for _ in range(top):
                xs.append(xs[-1] * x)
        if det_of_rows([[_evaluate(a, powers, p) for a in row] for row in rows], zero, one):
            return True
    return False


def _evaluation_points(p: int, n: int) -> list:
    """The fixed points of F_p[t]^n inside F_p(t)^n where polynomials over
    k = F_p, their coefficients lifted, are evaluated.  k^n is not enough,
    since a nonzero polynomial can vanish on all of it (x^p - x, or
    x y (x^2 - y^2), the Jacobian of B_2 over F_3).  The coordinates are
    drawn from a fixed seed, so every run tries the same points.
    """
    rng = random.Random(n)
    one = FpPoly.one(p)
    return [[RatFunc(FpPoly.make(p, [rng.randrange(p) for _ in range(4)]), one)
             for _ in range(n)] for _ in range(_EVALUATION_POINTS)]


def _evaluate(f: MultiPoly, powers, p: int):
    """f at the point whose coordinates' powers are powers[j][e] = x_j^e;
    each monomial's value is formed before its coefficient joins."""
    acc = RatFunc.zero(p)
    for e, c in f.terms.items():
        value = None
        for xs, k in zip(powers, e):
            if k:
                value = xs[k] if value is None else value * xs[k]
        c = RatFunc.from_int(p, c)
        acc = acc + (c if value is None else c * value)
    return acc


# -- the group action -------------------------------------------------------------


def _linear_forms(rows) -> list:
    """The images X_j -> sum_i g[i][j] X_i of the variables, for the matrix
    g with these rows, as the (i, g[i][j]) pairs with a nonzero entry, one
    list per j."""
    return [
        [(i, row[j]) for i, row in enumerate(rows) if row[j]]
        for j in range(len(rows[0]))
    ]


def _monomial_image(images: dict, forms: list, e: tuple, p: int | None = None) -> dict:
    """Terms of the image of X^e, by X^e = X^(e - u_j) * X_j with j the
    first index where e_j > 0.

    `images` maps exponent vectors to the terms of their images; it must
    hold X^0 or every monomial of one degree at most that of e, and it
    keeps each image built on the way down from e.  With p given the
    forms' values are ints in [0, p), and so is every coefficient built.
    """
    chain = []
    while e not in images:
        j = next(i for i, a in enumerate(e) if a)
        chain.append((e, j))
        e = e[:j] + (e[j] - 1,) + e[j + 1:]
    terms = images[e]
    for e, j in reversed(chain):
        step: dict = {}
        for x, c in terms.items():
            for i, a in forms[j]:
                y = x[:i] + (x[i] + 1,) + x[i + 1:]
                v = c * a
                acc = step.get(y)
                step[y] = v if acc is None else acc + v
        if p is not None:
            step = {y: v % p for y, v in step.items()}
        terms = {y: v for y, v in step.items() if v}
        images[e] = terms
    return terms


def _add_image(acc: dict, images: dict, forms: list, terms, p: int | None = None) -> dict:
    """acc plus the image of sum_e c X^e over the (e, c) in terms, under the
    matrix whose linear forms these are (see `_monomial_image`); acc is
    updated in place and returned."""
    for e, c in terms:
        for y, a in _monomial_image(images, forms, e, p).items():
            v = c * a
            old = acc.get(y)
            acc[y] = v if old is None else old + v
    return acc


def act(g: ExactMatrix, f: MultiPoly) -> MultiPoly:
    """Linear substitution X_j -> sum_i g[i][j] X_i, extended multiplicatively."""
    if g.rows != f.n or g.cols != f.n:
        raise ValueError(f"matrix size {g.rows} does not match {f.n} variables")
    if g.ring != f.ring and not (g.ring == RING_O and f.ring == RING_K):
        raise ValueError(f"ring mismatch: matrix over {g.ring}, polynomial over {f.ring}")
    if g.descriptor != f.descriptor:
        raise ValueError(f"matrix and polynomial over different DVRs: "
                         f"{g.descriptor} vs {f.descriptor}")
    unit = (0,) * f.n
    images = {unit: {unit: ring_one(f.ring, f.descriptor)}}
    p = f.descriptor.p if f.ring == RING_RESIDUE else None
    return f._like(_add_image({}, images, _linear_forms(g.entries), f.terms.items(), p))


def _on_integer_forms(group: MatrixGroup, polys: tuple) -> bool:
    """Check that the group can act on the polynomials together, and say
    whether it acts through its integer forms, on the int kind's
    polynomials over O or K, or else through its residue rows, on
    polynomials over k; a ratfunc group acts on polynomials over O or K
    by `act` alone."""
    for f in polys:
        if f.ring != polys[0].ring:
            raise ValueError("polynomials from different rings are acted on apart")
        if (f.descriptor, f.n) != (group.descriptor, group.n):
            raise ValueError(f"a polynomial over {f.descriptor} in {f.n} variables "
                             f"for a group over {group.descriptor} of degree {group.n}")
    if polys[0].ring == RING_RESIDUE:
        return False
    if group.descriptor.kind != KIND_INT:
        raise ValueError("a ratfunc group acts on polynomials over O or K by act, "
                         "not through integer forms")
    return True


def _integer_numerators(f: MultiPoly) -> tuple:
    """(L, terms, top) with f = (1/L) sum_e a_e X^e: L the least common
    denominator of f's `Fraction` coefficients, terms the (e, a_e) pairs
    in ints and top the largest degree of a term."""
    den = lcm(*(c.denominator for c in f.terms.values()))
    terms = [(e, c.numerator * (den // c.denominator)) for e, c in f.terms.items()]
    return den, terms, max((sum(e) for e in f.terms), default=0)


def _integer_image(acc: dict, form: IntMatrix, images: dict, forms: list, numerators: tuple,
                   weight: int = 1) -> dict:
    """acc plus weight * D^top * L * act(A / D, f), in ints, for an
    element's form A / D and f's `_integer_numerators` (L, terms, top).

    act(A / D, X^e) = D^-|e| act(A, X^e), so this is the sum over f's
    terms of weight * D^(top - |e|) * a_e * act(A, X^e); for a
    homogeneous f every term has the one scale weight.  `images` is the
    store of A's monomial images, shared by every polynomial the element
    acts on.
    """
    _, terms, top = numerators
    scales = {d: weight * form.den ** (top - d) for d in {sum(e) for e, _ in terms}}
    return _add_image(acc, images, forms, ((e, a * scales[sum(e)]) for e, a in terms))


def reynolds(group: MatrixGroup, polys) -> tuple:
    """The averages of the int kind's polynomials over O or K over the
    group, (1/|G|) sum_g g.f, each the projection of f onto the invariant
    ring, in one pass over the elements: each element's monomial images
    are built once, in a store shared by all the polynomials, and dropped
    before the next element.

    They are averaged on the closure's integer forms A / D, in ints.  With
    m = lcm of the elements' D, f = (1/L) sum_e a_e X^e and top its
    largest degree,
    sum_g g.f = (1/(L m^top)) sum_g (m / D)^top * D^(top - |e|) a_e act(A, X^e)
    (see `_integer_image`), so the sum is taken in ints over the one
    denominator L m^top |G| and divided once per coefficient at the end:
    the same element of O[X] as averaging with `act` on `Fraction`
    matrices.  Polynomials over k, and a ratfunc group, are refused with
    `ValueError`: `certify` averages only the int kind's lifts.
    """
    polys = tuple(polys)
    invert_mod_group_order(group.order, group.descriptor)
    if not polys:
        return ()
    if not _on_integer_forms(group, polys):
        raise ValueError("the Reynolds average is taken over O or K, not over k")
    unit, elements = (0,) * group.n, group.elements
    m = lcm(*(form.den for form in elements))
    numerators = [_integer_numerators(f) for f in polys]
    sums: list = [{} for _ in polys]
    for form in elements:
        images, forms = {unit: {unit: 1}}, _linear_forms(form.rows)
        for acc, num in zip(sums, numerators):
            _integer_image(acc, form, images, forms, num, (m // form.den) ** num[2])
    return tuple(
        f._like({y: Fraction(s, den * m ** top * group.order) for y, s in acc.items()})
        for f, acc, (den, _, top) in zip(polys, sums, numerators))


def fixed_by_generators(group: MatrixGroup, polys) -> tuple:
    """For each polynomial, is it fixed by every generator of the group?

    The int kind's polynomials over O or K are tested on the generators'
    integer forms A / D: act(A / D, f) = f exactly when
    D^top L act(A / D, f), in ints (`_integer_image`), equals D^top times
    f's numerators.  Polynomials over k are tested on the generators'
    residue rows mod p.  One store of monomial images per generator
    serves every polynomial.  A ratfunc group's polynomials over O or K
    are refused with `ValueError`.
    """
    polys = tuple(polys)
    if not polys:
        return ()
    fixed, unit = [True] * len(polys), (0,) * group.n
    if not _on_integer_forms(group, polys):
        p, residues = group.descriptor.p, group.residue_rows()
        for i in group.generator_indices:
            images, forms = {unit: {unit: 1}}, _linear_forms(residues[i])
            fixed = [ok and f._like(_add_image({}, images, forms, f.terms.items(), p)) == f
                     for ok, f in zip(fixed, polys)]
        return tuple(fixed)
    numerators = [_integer_numerators(f) for f in polys]
    for i in group.generator_indices:
        form = group.element(i)
        images, forms = {unit: {unit: 1}}, _linear_forms(form.rows)
        for k, num in enumerate(numerators):
            if fixed[k]:
                image = {y: v for y, v in _integer_image({}, form, images, forms, num).items() if v}
                scale = form.den ** num[2]
                fixed[k] = image == {e: a * scale for e, a in num[1]}
    return tuple(fixed)


def action_matrix(
    g, n: int, d: int, *, images: dict | None = None, p: int | None = None
) -> list[dict]:
    """Matrix of act(g, .) on the degree-d monomial basis (graded-lex
    coordinates), as its rows {column: nonzero entry}.

    g is an `ExactMatrix`, or, with p given, a matrix over F_p as its rows
    of ints in [0, p), such as `MatrixGroup.residue_rows` holds; over F_p,
    given so or as a matrix over k, the entries of rho_d are ints in
    [0, p) as well, rows over F_p for `RowEchelon` with p.  Column e holds
    the coefficients of the image of X^e.  `images` is a store of g's
    monomial images, all of one degree (or empty), such as
    `element_action_matrix` keeps: at degree d or below it is stepped up
    to degree d in place; above d the images are built afresh from degree
    0 and the store is left as it is.
    """
    basis = monomials(n, d)
    entries, one = (g, 1) if p is not None else (g.entries, ring_one(g.ring, g.descriptor))
    if p is None and g.ring == RING_RESIDUE:
        p = g.descriptor.p
    if images is None or (images and sum(next(iter(images))) > d):
        images = {}
    if not images:
        images[(0,) * n] = {(0,) * n: one}
    forms = _linear_forms(entries)
    columns = [_monomial_image(images, forms, e, p) for e in basis]
    images.clear()
    images.update(zip(basis, columns))
    index = monomial_index(n, d)
    rows: list[dict] = [{} for _ in basis]
    for col, image in enumerate(columns):
        for e, c in image.items():
            rows[index[e]][col] = c
    return rows


def element_action_matrix(group: MatrixGroup, ring: str, idx: int, d: int) -> list[dict]:
    """rho_d of element idx over K or k, from the monomial images that
    `group.memo` keeps for it under ("images", ring, idx).  Over K the
    element is a ratfunc group's O-matrix `group.element(idx)`; over k it
    is its residue rows, and rho_d holds ints in [0, p), for `RowEchelon`."""
    images = group.memo.setdefault(("images", ring, idx), {})
    if ring == RING_RESIDUE:
        return action_matrix(group.residue_rows()[idx], group.n, d, images=images,
                             p=group.descriptor.p)
    return action_matrix(group.element(idx), group.n, d, images=images)


@dataclass(frozen=True)
class GradedBasis:
    """Echelon-normalized basis of the degree-d invariants over a field."""

    degree: int
    polys: tuple

    @property
    def dimension(self) -> int:
        return len(self.polys)


def invariant_basis(group: MatrixGroup, d: int, ring: str) -> GradedBasis:
    """Basis of the G-fixed subspace of the degree-d component over K or k.

    Solves (action(g) - I) v = 0 simultaneously for the generators only;
    invariance under the generators implies invariance under the group.
    Over k the system is one over F_p in ints mod p, over K one over
    F_p(t): an int-kind group's dimensions over Q are its Molien
    coefficients, so it is refused.  If the generators' residue rows are
    monomial, g: X^e -> s_g(e) X^(g.e), each orbit of the monomials
    carries one invariant, v_(g.e) = s_g(e) v_e on every edge, or none if
    two edges disagree: scaled to 1 at its largest index, the orbit's free
    column, and listed by it, this is `RowEchelon.kernel`'s reduced basis.
    Computed once per (degree, ring) and group, then kept in `group.memo`.
    """
    if ring not in (RING_K, RING_RESIDUE):
        raise ValueError("invariant bases are computed over a field (K or k)")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if ring == RING_K and group.descriptor.kind == KIND_INT:
        raise ValueError("an int-kind group's invariants over K are counted by its "
                         "Molien series, the graded table's K column; no basis is solved")
    memo, key = group.memo, ("invariant_basis", d, ring)
    if key not in memo:
        memo[key] = _invariant_basis(group, d, ring)
    return memo[key]


def _invariant_basis(group: MatrixGroup, d: int, ring: str) -> GradedBasis:
    actions = _monomial_actions(group) if ring == RING_RESIDUE else None
    if actions is None:
        return _eliminated_basis(group, d, ring)
    return _orbit_basis(group, d, actions)


def _monomial_actions(group: MatrixGroup) -> tuple | None:
    """Each generator's pairs (sigma(j), a_j), X_j -> a_j X_sigma(j), when
    every generator's residue rows have one nonzero entry per column, else
    None; kept in `group.memo` under ("monomial", "k")."""
    memo, key = group.memo, ("monomial", RING_RESIDUE)
    if key not in memo:
        residues = group.residue_rows()
        forms = [_linear_forms(residues[i]) for i in group.generator_indices]
        memo[key] = (tuple(tuple(f[0] for f in fs) for fs in forms)
                     if all(len(f) == 1 for fs in forms for f in fs) else None)
    return memo[key]


def _orbit_basis(group: MatrixGroup, d: int, actions: tuple) -> GradedBasis:
    # every edge of every orbit is read, so nothing assumes p prime to |G|
    p, basis, index = group.descriptor.p, monomials(group.n, d), monomial_index(group.n, d)

    def edge(action, e):  # (index of g.e, s_g(e))
        y, s = [0] * group.n, 1
        for (i, a), k in zip(action, e):
            y[i], s = k, s * pow(a, k, p) % p
        return index[tuple(y)], s

    edges = [[edge(action, e) for e in basis] for action in actions]
    vectors, seen = {}, set()
    for start in range(len(basis)):
        if start in seen:
            continue
        value, stack, agree = {start: 1}, [start], True
        while stack:
            x = stack.pop()
            for y, s in (step[x] for step in edges):
                v = value[x] * s % p
                if y not in value:
                    value[y] = v
                    stack.append(y)
                agree = agree and value[y] == v
        seen.update(value)
        if agree:
            scale = pow(value[max(value)], -1, p)
            vectors[max(value)] = {c: v * scale % p for c, v in value.items()}
    return GradedBasis(d, tuple(
        MultiPoly.from_coordinates(RING_RESIDUE, group.descriptor, basis, vectors[f])
        for f in sorted(vectors)))


def _eliminated_basis(group: MatrixGroup, d: int, ring: str) -> GradedBasis:
    # the rows of rho_d(g) - I for each generator g; the trivial group has
    # none, and its kernel is then every monomial
    p, one = elimination_field(ring, group.descriptor)
    span = RowEchelon(p=p)
    for idx in group.generator_indices:
        for r, row in enumerate(element_action_matrix(group, ring, idx, d)):
            add_multiple(row, -one, {r: one}, p)
            span.add(row)
    basis = monomials(group.n, d)
    polys = tuple(
        MultiPoly.from_coordinates(ring, group.descriptor, basis, v)
        for v in span.kernel(len(basis), one)
    )
    return GradedBasis(d, polys)


# -- Molien series -----------------------------------------------------------------


def _integer_char_series_denominator(form: IntMatrix) -> tuple:
    """Coefficients of det(I - z*g) for g = A / D over Q, from its form, as ints.

    c_k = c_k(A) / D^k, since the principal k-minors of A / D are those of
    A over D^k.  g has finite order, so its eigenvalues are roots of unity
    and each c_k is a rational algebraic integer, that is an integer; a
    c_k(A) that D^k does not divide is refused.
    """
    coeffs = char_poly(form.rows, 0, 1)
    if form.den == 1:
        return coeffs
    out = []
    for k, c in enumerate(coeffs):
        q, r = divmod(c, form.den ** k)
        if r:
            raise InternalCheckError(
                f"det(I - z g) has the non-integer coefficient {c}/{form.den ** k} at z^{k}"
            )
        out.append(q)
    return tuple(out)


def _series_quotient(num, den, bound: int) -> list:
    """Coefficients of num / den to z^bound in ints, for den[0] = 1, by
    q_m = a_m - sum_{i >= 1} b_i q_{m-i} with no division: the one quotient
    of the Molien series (read mod p over F_p, reduction being a ring
    map), its cyclotomic polynomials and their exact divisions."""
    if den[0] != 1:
        raise InternalCheckError(f"a series denominator has constant term {den[0]}, not one")
    terms = [(i, c) for i, c in enumerate(den) if i and c]
    q = list(num[:bound + 1]) + [0] * (bound + 1 - len(num))
    for m in range(1, bound + 1):
        acc = q[m]
        for i, c in terms:
            if i > m:
                break
            acc -= c * q[m - i]
        q[m] = acc
    return q


def _exact_quotient(a: tuple, b: tuple) -> tuple | None:
    """a / b if b divides a in Z[z], else None, for deg b <= deg a: the
    series to deg a is a polynomial exactly when its deg b coefficients
    past deg a - deg b vanish."""
    top = len(a) - len(b)
    q = _series_quotient(a, b, len(a) - 1)
    return None if any(q[top + 1:]) else tuple(q[:top + 1])


@lru_cache(maxsize=None)
def _cyclotomic(k: int) -> tuple:
    """Psi_k, with constant term 1: 1 - z for k = 1, else the cyclotomic
    polynomial Phi_k, as (1 - z^k) / prod_{d | k, d < k} Psi_d."""
    out = (1,) + (0,) * (k - 1) + (-1,)
    for d in range(1, k):
        if k % d == 0:
            out = _exact_quotient(out, _cyclotomic(d))
    return out


def _common_denominator(denominators, order: int, n: int) -> tuple:
    """The lcm L of the det(I - z g), each factored into the Psi_k by exact
    trial division.  g^|G| = I and g is n x n over Q, so each Psi_k has
    k | |G| and phi(k) <= n, whence k <= 2 n^2; a denominator that these
    do not factor completely is refused."""
    phis = {k: phi for k in range(1, 2 * n * n + 1) if order % k == 0
            and (phi := sum(gcd(j, k) == 1 for j in range(k))) <= n}
    exponents = dict.fromkeys(phis, 0)
    for denom in denominators:
        rest = denom
        for k, phi in phis.items():
            e = 0
            while phi < len(rest) and (q := _exact_quotient(rest, _cyclotomic(k))) is not None:
                rest, e = q, e + 1
            exponents[k] = max(exponents[k], e)
        if rest != (1,):
            raise InternalCheckError(
                f"det(I - z g) = {denom} is not a product of cyclotomic polynomials")
    out = [1]
    for psi in (_cyclotomic(k) for k, e in exponents.items() for _ in range(e)):
        product = [0] * (len(out) + len(psi) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(psi):
                product[i + j] += a * b
        out = product
    return tuple(out)


@dataclass(frozen=True)
class MolienSeries:
    """Truncated generating function of invariant dimensions.

    Coefficients are reported as nonnegative integers.  Over the
    characteristic-zero fraction field they are the exact dimensions; over
    the ratfunc DVR the series is computed in characteristic p, so each
    coefficient is the dimension modulo p, lifted to [0, p).
    """

    truncation: int
    coefficients: tuple[int, ...]
    mod_p: bool  # True when coefficients are only meaningful modulo p

    def serialize(self) -> list[str]:
        return [str(c) for c in self.coefficients]


def molien_series(group: MatrixGroup, bound: int) -> MolienSeries:
    """(1/|G|) * sum over g of 1/det(I - z g), truncated to the given degree.

    Each det(I - z g) comes from `linalg.char_poly` (Berkowitz, division
    free) in Python ints.  Over Q (the int kind) it is read off the
    elements' integer forms A / D (`_integer_char_series_denominator`).
    Over F_p(t) (the ratfunc kind) it is that of the residue rows, mod p:
    g has finite order, so each coefficient is algebraic over F_p, and the
    only such elements of F_p(t) are the constants of F_p, which the
    reduction O -> k fixes.  It is a class function, so it is computed
    once per conjugacy class (`groups.conjugacy_classes`) and weighted by
    the class size m_c.  Over Q each is a product of cyclotomic
    polynomials, so the int kind runs one recurrence (`_series_quotient`)
    for N / L, L their lcm (`_common_denominator`, for a reflection group
    prod_i (1 - z^{d_i}) by Springer) and N = sum_c m_c L / det_c; mod p
    they need not factor, so the ratfunc kind inverts each distinct one.
    For the int kind
    the degree-m coefficient is then s_m / |G|, with s_m the weighted sum,
    and it is accepted only when |G| divides s_m and s_m >= 0: the same
    exact test as "a nonnegative integer in Q".  For the ratfunc kind it
    is s_m times 1/|G| mod p.  The series is computed once per group and
    bound and kept in `group.memo` under ("molien", bound, ring), the ring
    whose dimensions it counts: K for the int kind, whose graded table
    reads its K column off it, and k for the ratfunc kind.
    """
    descriptor = group.descriptor
    invert_mod_group_order(group.order, descriptor)  # the gate: p must not divide |G|
    key = ("molien", bound, RING_K if descriptor.kind == KIND_INT else RING_RESIDUE)
    if key not in group.memo:
        group.memo[key] = _molien_series(group, bound)
    return group.memo[key]


def _molien_series(group: MatrixGroup, bound: int) -> MolienSeries:
    descriptor = group.descriptor
    p = descriptor.p
    counts = Counter()
    for members in conjugacy_classes(group):
        if descriptor.kind == KIND_INT:
            denom = _integer_char_series_denominator(group.element(members[0]))
        else:
            denom = tuple(c % p for c in char_poly(group.residue_rows()[members[0]], 0, 1))
        counts[denom] += len(members)
    if descriptor.kind != KIND_INT:
        # Psi_k need not divide a denominator mod p: one quotient for each
        sums = [0] * (bound + 1)
        for denom, count in counts.items():
            sums = [a + b * count for a, b in zip(sums, _series_quotient((1,), denom, bound))]
        inv_order = pow(group.order, -1, p)
        return MolienSeries(bound, tuple(s * inv_order % p for s in sums), True)
    common = _common_denominator(counts, group.order, group.n)
    numerator = [0] * (len(common) - group.n)
    for denom, count in counts.items():
        for i, c in enumerate(_series_quotient(common, denom, len(common) - len(denom))):
            numerator[i] += count * c
    sums = _series_quotient(numerator, common, bound)
    coefficients = []
    for s in sums:
        c, r = divmod(s, group.order)
        if r or c < 0:
            raise InternalCheckError(f"non-integral Molien coefficient {s}/{group.order}")
        coefficients.append(c)
    return MolienSeries(bound, tuple(coefficients), False)


def hilbert_product_truncation(degrees, bound: int) -> tuple[int, ...]:
    """Integer coefficients of prod_i 1/(1 - z^{d_i}) up to the bound."""
    out = [0] * (bound + 1)
    out[0] = 1
    for d in degrees:
        # multiply by the geometric series in z^d
        for i in range(d, bound + 1):
            out[i] += out[i - d]
    return tuple(out)


def molien_identity_failures(coefficients, mod_p: bool, p: int, dimensions: dict, degrees):
    """Degrees at which the two Molien identities fail.

    The Molien coefficients must equal the invariant dimensions listed in
    `dimensions` (degree -> dimension), and, through the whole truncation,
    the coefficients of prod_i 1/(1 - z^{d_i}) over the fundamental
    `degrees`.  A series computed in characteristic p (`mod_p`) is compared
    with both modulo p.  Returns the two lists of failing degrees; the
    second is None when there are no fundamental degrees to compare with.
    """
    def failures(expected) -> list[int]:
        return [
            d for d, c in enumerate(coefficients)
            if d in expected and c != (expected[d] % p if mod_p else expected[d])
        ]

    if degrees is None:
        return failures(dimensions), None
    hilbert = hilbert_product_truncation(degrees, len(coefficients) - 1)
    return failures(dimensions), failures(dict(enumerate(hilbert)))
