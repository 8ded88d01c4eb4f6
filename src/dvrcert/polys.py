"""Sparse graded polynomials, the linear group action, averaging, Molien series.

Polynomials live over one of the tagged rings (O, K, or the residue field k).
The group acts by linear substitution with the row-vector convention
X_j -> sum_i g[i][j] X_i, which makes g -> act(g, .) a left action without
inverting any matrices.  Monomials are ordered graded-lexicographically
throughout, which fixes canonical coefficient coordinates for every
echelon computation downstream.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InternalCheckError, NotInRingError
from .linalg import (
    RING_K,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    KernelBasis,
    kernel_over_field,
    ring_one,
    ring_zero,
)
from .groups import MatrixGroup
from .scalars import (
    KIND_INT,
    DvrDescriptor,
    FractionScalar,
    ResidueScalar,
    invert_mod_group_order,
)


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


def monomial_sort_key(exp: tuple[int, ...]) -> tuple:
    # graded: lower total degree first; within a degree, lex-descending
    return (sum(exp), tuple(-e for e in exp))


class MultiPoly:
    """Sparse multivariate polynomial with exact coefficients."""

    __slots__ = ("ring", "descriptor", "n", "terms")

    def __init__(self, ring: str, descriptor: DvrDescriptor, n: int, terms):
        clean = {}
        for exp, coeff in dict(terms).items():
            if len(exp) != n:
                raise ValueError(f"exponent vector {exp} has wrong length; expected {n}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if coeff.is_zero():
                continue
            if ring == RING_RESIDUE:
                if not isinstance(coeff, ResidueScalar):
                    raise TypeError("residue-field polynomial expects ResidueScalar coefficients")
            else:
                if not isinstance(coeff, FractionScalar):
                    raise TypeError("polynomial over O/K expects field scalars")
                if ring == RING_O and not coeff.is_integral():
                    raise NotInRingError(f"coefficient {coeff} is not in the DVR")
            clean[tuple(exp)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(ring: str, descriptor: DvrDescriptor, n: int) -> MultiPoly:
        return MultiPoly(ring, descriptor, n, {})

    @staticmethod
    def constant(ring: str, descriptor: DvrDescriptor, n: int, coeff) -> MultiPoly:
        return MultiPoly(ring, descriptor, n, {(0,) * n: coeff})

    @staticmethod
    def variable(ring: str, descriptor: DvrDescriptor, n: int, i: int) -> MultiPoly:
        exp = tuple(1 if j == i else 0 for j in range(n))
        return MultiPoly(ring, descriptor, n, {exp: ring_one(ring, descriptor)})

    @staticmethod
    def monomial(ring: str, descriptor: DvrDescriptor, exp: tuple[int, ...], coeff) -> MultiPoly:
        return MultiPoly(ring, descriptor, len(exp), {tuple(exp): coeff})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: monomial_sort_key(item[0]))

    def coefficient(self, exp: tuple[int, ...]):
        return self.terms.get(tuple(exp), ring_zero(self.ring, self.descriptor))

    # -- arithmetic -----------------------------------------------------------

    def _compat(self, other: MultiPoly):
        if self.ring != other.ring or self.descriptor != other.descriptor or self.n != other.n:
            raise ValueError("polynomials from different rings cannot be combined")

    def __add__(self, other: MultiPoly) -> MultiPoly:
        self._compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            terms[e] = c if acc is None else acc + c
        return MultiPoly(self.ring, self.descriptor, self.n, terms)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(
            self.ring, self.descriptor, self.n, {e: -c for e, c in self.terms.items()}
        )

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
        return MultiPoly(self.ring, self.descriptor, self.n, terms)

    def scale(self, coeff) -> MultiPoly:
        return MultiPoly(
            self.ring, self.descriptor, self.n, {e: coeff * c for e, c in self.terms.items()}
        )

    def __pow__(self, k: int) -> MultiPoly:
        if k < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.constant(self.ring, self.descriptor, self.n, ring_one(self.ring, self.descriptor))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def partial_derivative(self, i: int) -> MultiPoly:
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new_e = tuple(a - 1 if j == i else a for j, a in enumerate(e))
            new_c = c * e[i]
            if new_c.is_zero():
                continue
            acc = terms.get(new_e)
            terms[new_e] = new_c if acc is None else acc + new_c
        return MultiPoly(self.ring, self.descriptor, self.n, terms)

    # -- ring moves ------------------------------------------------------------

    def to_field(self) -> MultiPoly:
        if self.ring != RING_O:
            return self
        return MultiPoly(RING_K, self.descriptor, self.n, self.terms)

    def reduce(self) -> MultiPoly:
        """Coefficientwise reduction of an O-polynomial to the residue field."""
        if self.ring != RING_O:
            raise ValueError("only O-polynomials reduce to the residue field")
        return MultiPoly(
            RING_RESIDUE,
            self.descriptor,
            self.n,
            {e: c.reduce() for e, c in self.terms.items()},
        )

    def primitive_scaled(self) -> MultiPoly:
        """Scale a nonzero K-polynomial by a uniformizer power into O, primitively."""
        if self.is_zero():
            raise ValueError("cannot primitivize the zero polynomial")
        shift = min(c.valuation() for c in self.terms.values())
        if shift == 0:
            return MultiPoly(RING_O, self.descriptor, self.n, self.terms)
        pi = self.descriptor.uniformizer()
        factor = pi ** (-shift)
        return MultiPoly(
            RING_O, self.descriptor, self.n, {e: c * factor for e, c in self.terms.items()}
        )

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.descriptor == other.descriptor
            and self.n == other.n
            and self.terms == other.terms
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


def poly_matrix_det(rows) -> MultiPoly:
    """Determinant of a square matrix of polynomials, by cofactor expansion
    along the first row."""
    first = rows[0]
    if len(rows) == 1:
        return first[0]
    total = MultiPoly.zero(first[0].ring, first[0].descriptor, first[0].n)
    for j, entry in enumerate(first):
        if entry.is_zero():
            continue
        term = entry * poly_matrix_det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


# -- the group action -------------------------------------------------------------


def act(g: ExactMatrix, f: MultiPoly) -> MultiPoly:
    """Linear substitution X_j -> sum_i g[i][j] X_i, extended multiplicatively."""
    if g.rows != f.n or g.cols != f.n:
        raise ValueError(f"matrix size {g.rows} does not match {f.n} variables")
    if g.ring != f.ring:
        if g.ring == RING_O and f.ring == RING_K:
            g = g.to_field()
        else:
            raise ValueError(f"ring mismatch: matrix over {g.ring}, polynomial over {f.ring}")
    images = [
        MultiPoly(
            f.ring,
            f.descriptor,
            f.n,
            {
                tuple(1 if i == row else 0 for i in range(f.n)): g.entry(row, j)
                for row in range(f.n)
            },
        )
        for j in range(f.n)
    ]
    power_cache: dict[tuple[int, int], MultiPoly] = {}

    def image_power(j: int, k: int) -> MultiPoly:
        key = (j, k)
        cached = power_cache.get(key)
        if cached is None:
            cached = images[j] ** k
            power_cache[key] = cached
        return cached

    out = MultiPoly.zero(f.ring, f.descriptor, f.n)
    for e, c in f.terms.items():
        piece = MultiPoly.constant(f.ring, f.descriptor, f.n, c)
        for j, k in enumerate(e):
            if k:
                piece = piece * image_power(j, k)
        out = out + piece
    return out


def reynolds(group: MatrixGroup, f: MultiPoly) -> MultiPoly:
    """Average of the orbit of f: the projection onto the invariant ring."""
    inv_order = invert_mod_group_order(group.order, group.descriptor)
    acc = MultiPoly.zero(f.ring, f.descriptor, f.n)
    for m in group.over(f.ring):
        acc = acc + act(m, f)
    return acc.scale(inv_order.reduce() if f.ring == RING_RESIDUE else inv_order)


def action_matrix(g: ExactMatrix, n: int, d: int) -> ExactMatrix:
    """Matrix of act(g, .) on the degree-d monomial basis (graded-lex coordinates)."""
    basis = monomials(n, d)
    index = {e: i for i, e in enumerate(basis)}
    zero = ring_zero(g.ring, g.descriptor)
    cols = []
    for e in basis:
        image = act(
            g,
            MultiPoly.monomial(g.ring, g.descriptor, e, ring_one(g.ring, g.descriptor)),
        )
        col = [zero] * len(basis)
        for e2, c in image.terms.items():
            col[index[e2]] = c
        cols.append(col)
    return ExactMatrix(g.ring, g.descriptor, [list(row) for row in zip(*cols)])


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
    Computed once per (degree, ring) and group, then kept in `group.memo`.
    """
    if ring not in (RING_K, RING_RESIDUE):
        raise ValueError("invariant bases are computed over a field (K or k)")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    key = ("invariant_basis", d, ring)
    if key not in group.memo:
        group.memo[key] = _invariant_basis(group, d, ring)
    return group.memo[key]


def _invariant_basis(group: MatrixGroup, d: int, ring: str) -> GradedBasis:
    basis = monomials(group.n, d)
    size = len(basis)
    rows = []
    for g in group.generators_over(ring):
        delta = action_matrix(g, group.n, d).minus_identity()
        rows.extend(list(r) for r in delta.entries)
    if rows:
        kernel = kernel_over_field(
            ExactMatrix(ring, group.descriptor, rows)
        )
    else:
        # trivial group: everything is invariant
        one = ring_one(ring, group.descriptor)
        zero = ring_zero(ring, group.descriptor)
        kernel = KernelBasis(
            tuple(
                tuple(one if i == j else zero for j in range(size)) for i in range(size)
            ),
            size,
        )
    polys = tuple(
        MultiPoly(
            ring,
            group.descriptor,
            group.n,
            {e: c for e, c in zip(basis, vec)},
        )
        for vec in kernel.vectors
    )
    return GradedBasis(d, polys)


# -- Molien series -----------------------------------------------------------------


def _char_series_denominator(g: ExactMatrix) -> tuple:
    """Coefficients of det(I - z*g), from z^0 to z^n, over the field."""
    n = g.rows
    zero = ring_zero(g.ring, g.descriptor)
    one = ring_one(g.ring, g.descriptor)
    # entries of I - z*g, as polynomials in the one variable z
    entries = [
        [
            MultiPoly(
                g.ring, g.descriptor, 1, {(0,): one if i == j else zero, (1,): -g.entry(i, j)}
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    denominator = poly_matrix_det(entries)
    return tuple(denominator.coefficient((k,)) for k in range(n + 1))


def _series_inverse(denom: tuple, bound: int, zero, one) -> list:
    if denom[0].is_zero():
        raise InternalCheckError("power series with zero constant term has no inverse")
    lead = denom[0]
    inv = [zero] * (bound + 1)
    inv[0] = one / lead
    for m in range(1, bound + 1):
        acc = zero
        for i in range(1, min(m, len(denom) - 1) + 1):
            if not denom[i].is_zero():
                acc = acc + denom[i] * inv[m - i]
        inv[m] = -acc / lead
    return inv


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

    Elements with the same characteristic polynomial share the denominator,
    so each distinct one is inverted once and weighted by its multiplicity.
    """
    inv_order = invert_mod_group_order(group.order, group.descriptor)
    zero = group.descriptor.zero()
    one = group.descriptor.one()
    multiplicity = Counter(_char_series_denominator(m) for m in group.over(RING_K))
    total = [zero] * (bound + 1)
    for denom, count in multiplicity.items():
        inv = _series_inverse(denom, bound, zero, one)
        total = [a + b * count for a, b in zip(total, inv)]
    total = [inv_order * a for a in total]
    if group.descriptor.kind == KIND_INT:
        coeffs = []
        for c in total:
            val: Fraction = c.value
            if val.denominator != 1 or val < 0:
                raise InternalCheckError(f"non-integral Molien coefficient {val}")
            coeffs.append(int(val))
        return MolienSeries(bound, tuple(coeffs), False)
    coeffs = []
    for c in total:
        # characteristic p: each coefficient must land in the prime field
        if c.is_zero():
            coeffs.append(0)
            continue
        rat = c.value
        if rat.num.degree > 0 or rat.den.degree > 0:
            raise InternalCheckError(f"non-constant Molien coefficient {c}")
        coeffs.append(c.reduce().value)
    return MolienSeries(bound, tuple(coeffs), True)


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
