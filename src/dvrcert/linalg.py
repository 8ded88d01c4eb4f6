"""Exact linear algebra over the DVR, its fraction field, and its residue field.

A matrix holds plain values (see `scalars`) and records their ring once,
for all entries: the ring tag "O" (the DVR), "K" (its fraction field) or
"k" (the residue field), and the `DvrDescriptor`.  `_compat` compares the
two once per operation.  The public constructor checks that the entries
of an O-matrix lie in O; the results of arithmetic are built unchecked,
since O, K and k are each closed under it.  Arithmetic is exact
throughout.  An `ExactMatrix` (a ratfunc group's element, n x n) is
stored dense, but products walk only the nonzero entries: each column of
the right factor is listed once as its nonzero (index, value) pairs, and
a term is formed only where both factors are nonzero.  Every linear
system is solved by one engine on sparse rows, dicts {column: nonzero
value}: the incremental reduced row echelon form `RowEchelon`, whose one
row operation is `add_multiple`.  It gives rank and kernels over the
two fields and inverses over k (`inverse_mod_p`), and takes the rows of
the degree-d action matrices, the product spans and the H^1 relations
directly.  Over K its values are those of K; over k they are ints in
[0, p), with p given to `RowEchelon` and `add_multiple`, which reduce
every entry they write mod p and normalise a pivot by its inverse mod p
(`elimination_field` gives the p and the one of either field).  A value
of k is an int in [0, p), with p read off the matrix's descriptor: a
matrix over k is reduced mod p where it is built (the public constructor
and `_of`, which every result of arithmetic passes), and so is `det`
over k.

Every determinant is read off one routine, `char_poly`: Berkowitz's
recursion for det(I - z A), with +, - and * only, so it runs on ints,
on the values of O, K and k and on polynomials alike.  `det_of_rows` is
its last coefficient up to sign, for matrices (`det`) and for the
Jacobian of polynomials; the Molien series takes det(I - z g) whole.

The passes over the group use no division and no field elimination
either: `has_rank_one` decides rank(g - I) = 1 by cross-multiplying each
row with the first nonzero one, on values of K, on ints over Q or on ints
mod p.  An `IntMatrix` is a matrix over Q as integers, A / D in lowest
terms, the form of an int-kind group element; `reduce_form` takes it to
F_p as (A mod p) (D^-1 mod p), rows of ints.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm

from .errors import NotInRingError, NotInvertibleError
from .scalars import DvrDescriptor

RING_O = "O"
RING_K = "K"
RING_RESIDUE = "k"
VALID_RINGS = (RING_O, RING_K, RING_RESIDUE)


def ring_from_int(ring: str, descriptor: DvrDescriptor):
    """The map from the integers to O, K or k: over k, a -> a mod p."""
    return (lambda a: a % descriptor.p) if ring == RING_RESIDUE else descriptor.from_int


def ring_zero(ring: str, descriptor: DvrDescriptor):
    return ring_from_int(ring, descriptor)(0)


def ring_one(ring: str, descriptor: DvrDescriptor):
    return ring_from_int(ring, descriptor)(1)


def set_fields(obj, **fields):
    """Set the fields of an object whose `__setattr__` refuses, as it is built."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _nonzero_pairs(vector) -> list:
    """The (index, value) pairs of a vector's nonzero entries."""
    return [(i, v) for i, v in enumerate(vector) if v]


def _sparse_dot(row, pairs, zero):
    """The sum of row[i] * v over the pairs (i, v) where row[i] is nonzero too;
    the ring's zero when there is no such term."""
    acc = None
    for i, v in pairs:
        a = row[i]
        if a:
            acc = a * v if acc is None else acc + a * v
    return zero if acc is None else acc


def _columns(rows) -> list:
    """Each column of a matrix, given by its rows, as its nonzero (index, value) pairs."""
    return [_nonzero_pairs(col) for col in zip(*rows)]


class ExactMatrix:
    """Immutable dense matrix over one of the three tagged rings."""

    __slots__ = ("ring", "descriptor", "entries", "_hash")

    def __init__(self, ring: str, descriptor: DvrDescriptor, entries):
        if ring not in VALID_RINGS:
            raise ValueError(f"unknown ring tag {ring!r}")
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged matrix rows")
        if ring == RING_O:
            for row in rows:
                for a in row:
                    if not descriptor.is_integral(a):
                        raise NotInRingError(f"entry {a} is not in the DVR")
        elif ring == RING_RESIDUE:
            rows = tuple(tuple(operator.index(a) % descriptor.p for a in row) for row in rows)
        set_fields(self, ring=ring, descriptor=descriptor, entries=rows, _hash=None)

    @staticmethod
    def _of(ring: str, descriptor: DvrDescriptor, rows) -> ExactMatrix:
        """The matrix of rows of values of the ring, unchecked; over k the
        ints are reduced mod p here, for every result of arithmetic."""
        if ring == RING_RESIDUE:
            rows = ([a % descriptor.p for a in row] for row in rows)
        return set_fields(object.__new__(ExactMatrix), ring=ring, descriptor=descriptor,
                          entries=tuple(map(tuple, rows)), _hash=None)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_ints(ring: str, descriptor: DvrDescriptor, rows) -> ExactMatrix:
        conv = ring_from_int(ring, descriptor)
        return ExactMatrix._of(ring, descriptor, [[conv(a) for a in row] for row in rows])

    @staticmethod
    def identity(ring: str, descriptor: DvrDescriptor, n: int) -> ExactMatrix:
        one, zero = ring_one(ring, descriptor), ring_zero(ring, descriptor)
        return ExactMatrix._of(
            ring, descriptor, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    # -- shape ----------------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    # -- arithmetic -------------------------------------------------------------

    def _compat(self, other: ExactMatrix):
        if not isinstance(other, ExactMatrix):
            raise TypeError("expected an ExactMatrix")
        # a tuple compares its items by identity first, so the shared
        # descriptor of one group is not compared field by field
        if (self.ring, self.descriptor) != (other.ring, other.descriptor):
            if self.descriptor != other.descriptor:
                raise ValueError(f"matrices over different DVRs: "
                                 f"{self.descriptor} vs {other.descriptor}")
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def _like(self, rows) -> ExactMatrix:
        return ExactMatrix._of(self.ring, self.descriptor, rows)

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        self._compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return self._like(
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        )

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        self._compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        return self._like(
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        )

    def __mul__(self, other: ExactMatrix) -> ExactMatrix:
        self._compat(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        zero = ring_zero(self.ring, self.descriptor)
        cols = _columns(other.entries)
        return self._like([_sparse_dot(row, col, zero) for col in cols] for row in self.entries)

    def scale(self, scalar) -> ExactMatrix:
        """The matrix times a scalar of its own ring."""
        return self._like([scalar * a for a in row] for row in self.entries)

    def __neg__(self) -> ExactMatrix:
        return self._like([-a for a in row] for row in self.entries)

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.ring, self.descriptor, self.entries) == (
            other.ring, other.descriptor, other.entries
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, self.descriptor, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self) -> tuple:
        """Deterministic ordering key (used for sorted generator application)."""
        return tuple(str(a) for row in self.entries for a in row)

    def serialize(self) -> list[list[str]]:
        return [[str(a) for a in row] for row in self.entries]

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(a) for a in row) for row in self.entries)
        return f"ExactMatrix[{self.ring}]({body})"


class IntMatrix:
    """A square matrix over Q in integers: A / D for a common denominator
    D > 0 and integer numerators A with gcd(D, entries of A) = 1.

    Each matrix over Q has exactly one such form, so equality compares
    ints.  The int kind's group elements are these forms.
    """

    __slots__ = ("den", "rows")

    def __init__(self, den: int, rows):
        if den != 1:
            g = gcd(den, *chain.from_iterable(rows))
            if g != 1:
                den //= g
                rows = [[a // g for a in row] for row in rows]
        set_fields(self, den=den, rows=tuple(map(tuple, rows)))

    @staticmethod
    def from_matrix(m: ExactMatrix) -> IntMatrix:
        """The form of a matrix of `Fraction` values (the int kind over O or K)."""
        den = lcm(*(a.denominator for row in m.entries for a in row))
        return IntMatrix(
            den, [[a.numerator * (den // a.denominator) for a in row] for row in m.entries]
        )

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.den == other.den and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.den, self.rows))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows} / {self.den})"


@dataclass(frozen=True)
class KernelBasis:
    """Echelon-normalized basis of a nullspace over a field."""

    vectors: tuple
    ambient_dim: int

    @property
    def dimension(self) -> int:
        return len(self.vectors)


# -- elimination ---------------------------------------------------------------


def add_multiple(row: dict, f, other: dict, p: int | None = None) -> None:
    """row += f * other for sparse rows over a field, in place; f is nonzero,
    and the entries that cancel are dropped.

    With p given the rows are rows over F_p: their entries are ints in
    [0, p), f is an int nonzero mod p, and every entry written is reduced
    mod p, so the row stays one of ints in [0, p).
    """
    if p is not None:
        for c, b in other.items():
            a = (row.get(c, 0) + f * b) % p
            if a:
                row[c] = a
            else:
                del row[c]  # f * b is nonzero mod p, so c was in the row
        return
    for c, b in other.items():
        a = row.get(c)
        if a is None:
            row[c] = f * b
        else:
            a = a + f * b
            if a:
                row[c] = a
            else:
                del row[c]


def elimination_field(ring: str, descriptor: DvrDescriptor) -> tuple:
    """(p, one) for eliminating over K or k with `RowEchelon` and
    `add_multiple`: p is k's, or None over K, and one is the field's."""
    return descriptor.p if ring == RING_RESIDUE else None, ring_one(ring, descriptor)


class RowEchelon:
    """Incremental reduced row echelon form of a row space over a field.

    A row is a dict {column: nonzero value}.  `pivot_rows` maps each pivot
    column to its row, whose entry there is one and which has no entry in
    the other pivot columns.  A row space has exactly one reduced echelon
    form, so the result does not depend on the order in which rows are
    added.  Over K the values are those of K (`Fraction`, `RatFunc`); with
    a prime p the field is F_p and the values are ints in [0, p), kept
    there by `add_multiple` and by normalising with the inverse mod p.
    """

    def __init__(self, rows=(), p: int | None = None):
        self.pivot_rows: dict[int, dict] = {}
        self.p = p
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        """A copy of the row minus its components along the pivot rows."""
        row = dict(row)
        pivots, p = self.pivot_rows, self.p
        # a pivot row has no entry in the other pivot columns, so subtracting
        # it changes none of the row's other pivot-column entries
        for col in [c for c in row if c in pivots]:
            add_multiple(row, -row[col], pivots[col], p)
        return row

    def add(self, row: dict) -> bool:
        """Reduce the row against the span; absorb and return True when independent."""
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        inv, p = row[lead], self.p
        if p is not None:
            if inv != 1:
                inv = pow(inv, -1, p)
                row = {c: a * inv % p for c, a in row.items()}
        elif inv != inv / inv:
            row = {c: a / inv for c, a in row.items()}
        for pivot in self.pivot_rows.values():
            f = pivot.get(lead)
            if f is not None:
                add_multiple(pivot, -f, row, p)
        self.pivot_rows[lead] = row
        return True

    def kernel(self, width: int, one) -> list[dict]:
        """Basis of the vectors of length `width` that every row annihilates,
        one per free column f: one at f, minus the pivot rows' entries at f in
        the pivot columns.  `one` is the field's: 1 over F_p."""
        p = self.p
        vectors = {f: {f: one} for f in range(width) if f not in self.pivot_rows}
        for c, row in self.pivot_rows.items():
            for f, a in row.items():
                if f != c:
                    vectors[f][c] = -a if p is None else p - a
        return list(vectors.values())


def _field_rows(m: ExactMatrix) -> tuple:
    """(sparse rows, p, one) of a matrix over K or k, as `RowEchelon` takes
    them (see `elimination_field`)."""
    if m.ring == RING_O:
        raise ValueError("rank/kernel are field operations; give the matrix over K or k")
    p, one = elimination_field(m.ring, m.descriptor)
    return [dict(_nonzero_pairs(row)) for row in m.entries], p, one


def _field_values(m: ExactMatrix, vectors, width: int) -> tuple:
    """Sparse vectors of the echelon as dense tuples of values of m's ring."""
    zero = ring_zero(m.ring, m.descriptor)
    return tuple(tuple(v.get(c, zero) for c in range(width)) for v in vectors)


def rank_over_field(m: ExactMatrix) -> int:
    """Rank over K or k."""
    rows, p, _ = _field_rows(m)
    return RowEchelon(rows, p).rank


def shifted_rows(rows, d) -> list:
    """The rows of M - d I, for the square matrix M with these rows and d a
    value of their ring: d subtracted on the diagonal only."""
    out = [list(row) for row in rows]
    for i, row in enumerate(out):
        row[i] = row[i] - d
    return out


def has_rank_one(rows, p: int | None = None) -> bool:
    """Is the matrix with these rows of rank exactly one?  Decided by
    cross-multiplication, with no division and no echelon.

    The rows hold values of K, or ints read over Q.  With p given they
    hold ints in (-p, p) read over k = F_p, so that an entry is zero
    exactly when it is 0 mod p, and each cross product is compared mod p.
    With r the first nonzero row and j a column where r_j != 0, the rank is
    one exactly when every later row a is (a_j / r_j) * r, that is when
    a_c * r_j = r_c * a_j for every column c; the test stops at the first
    row that fails.
    """
    rows = iter(rows)
    first = next((row for row in rows if any(row)), None)
    if first is None:
        return False
    j = next(c for c, x in enumerate(first) if x)
    rj = first[j]
    for row in rows:
        aj = row[j]
        for x, y in zip(row, first):
            if (x or y) and (x * rj != y * aj if p is None else (x * rj - y * aj) % p):
                return False
    return True


def kernel_over_field(m: ExactMatrix) -> KernelBasis:
    """Exact nullspace basis over K or k, one vector per free column."""
    rows, p, one = _field_rows(m)
    vectors = RowEchelon(rows, p).kernel(m.cols, one)
    return KernelBasis(_field_values(m, vectors, m.cols), m.cols)


def det(m: ExactMatrix):
    """Exact determinant over any of the rings, by `det_of_rows`: with no
    division, so the entries of an O-matrix never leave O."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    d = det_of_rows(m.entries, ring_zero(m.ring, m.descriptor), ring_one(m.ring, m.descriptor))
    return d % m.descriptor.p if m.ring == RING_RESIDUE else d


def det_of_rows(rows, zero, one):
    """Determinant of the square matrix with these rows: (-1)^n times the
    last coefficient of `char_poly`, so it runs on whatever values
    `char_poly` does, polynomials included."""
    c = char_poly(rows, zero, one)[-1]
    return -c if len(rows) % 2 else c


def char_poly(rows, zero, one) -> tuple:
    """Coefficients c_0, ..., c_n of det(I - z A) for the square matrix A
    with these rows, by Berkowitz's division-free algorithm (Inform.
    Process. Lett. 18, 1984).

    They are the coefficients of the characteristic polynomial det(x I - A)
    from x^n down: c_k is (-1)^k times the sum of the principal k-minors.
    The routine uses only +, - and *, so it runs on ints (over Z, or over
    F_p read mod p afterwards), `Fraction`, `RatFunc` and `MultiPoly`
    values alike; `zero` and `one` are those of the values' ring.  It grows the leading principal
    block A_k one row and column at a time: with R = row k and C = column
    k of A, both cut to the block, and a = A[k][k], the coefficients for
    A_{k+1} are those of the product of the polynomials with coefficients
    c_0, ..., c_k (for A_k) and 1, -a, -R C, -R A_k C, ..., -R A_k^(k-1) C,
    up to degree k + 1.
    """
    coeffs = [one]
    for k, row in enumerate(rows):
        block = rows[:k]  # whole rows: a dot with v reads only their first k entries
        toeplitz = [one, -row[k]]
        v = [r[k] for r in block]  # A_k^i C, from i = 0
        for i in range(k):
            pairs = _nonzero_pairs(v)
            toeplitz.append(-_sparse_dot(row, pairs, zero))
            if i < k - 1:
                v = [_sparse_dot(b, pairs, zero) for b in block]
        # c_0 and the first Toeplitz entry are one: their terms need no product
        product = list(toeplitz)
        for j, c in enumerate(coeffs[1:], 1):
            if c:
                product[j] = product[j] + c
                for i, t in enumerate(toeplitz[1:k + 2 - j], 1):
                    if t:
                        product[i + j] = product[i + j] + t * c
        coeffs = product
    return tuple(coeffs)


def inverse_mod_p(rows, p: int) -> tuple:
    """The inverse over F_p of the square matrix with these rows of ints in
    [0, p), as rows of ints in [0, p): the right half of the echelon of
    [M | I]."""
    n = len(rows)
    pivot_rows = RowEchelon(({**dict(_nonzero_pairs(row)), n + i: 1}
                             for i, row in enumerate(rows)), p).pivot_rows
    if any(c >= n for c in pivot_rows):
        raise NotInvertibleError("matrix is singular")
    return tuple(tuple(pivot_rows[c].get(n + j, 0) for j in range(n)) for c in range(n))


def reduce_form(form: IntMatrix, p: int) -> tuple:
    """The reduction to F_p of a matrix over Z_(p) given by its form A / D,
    as rows of ints in [0, p): (A mod p) (D^-1 mod p).  The int kind's one
    reduction to the residue field."""
    if form.den % p == 0:
        raise NotInRingError(f"denominator {form.den} is divisible by {p}; cannot reduce")
    d = pow(form.den, -1, p)
    return tuple(tuple(a * d % p for a in row) for row in form.rows)
