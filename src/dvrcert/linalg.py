"""Dense exact linear algebra over the DVR, its fraction field, and its residue field.

Matrices carry a ring tag: "O" (the DVR), "K" (its fraction field), or "k"
(the residue field).  Arithmetic is exact throughout.  One elimination
engine, the incremental reduced row echelon form `RowEchelon`, gives rank,
kernels and inverses over the two fields; determinants over all three rings
use fraction-free (Bareiss) elimination.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotInRingError, NotInvertibleError, OrderCapExceededError
from .scalars import DvrDescriptor, FractionScalar, ResidueScalar

RING_O = "O"
RING_K = "K"
RING_RESIDUE = "k"
VALID_RINGS = (RING_O, RING_K, RING_RESIDUE)

DEFAULT_ORDER_CAP = 20000


def ring_zero(ring: str, descriptor: DvrDescriptor):
    if ring == RING_RESIDUE:
        return ResidueScalar(descriptor, 0)
    return descriptor.zero()


def ring_one(ring: str, descriptor: DvrDescriptor):
    if ring == RING_RESIDUE:
        return ResidueScalar(descriptor, 1)
    return descriptor.one()


def _check_entry(ring: str, descriptor: DvrDescriptor, entry):
    if ring == RING_RESIDUE:
        if not isinstance(entry, ResidueScalar):
            raise TypeError(f"residue-field matrix entry must be ResidueScalar, got {entry!r}")
    else:
        if not isinstance(entry, FractionScalar):
            raise TypeError(f"matrix entry must be a field scalar, got {entry!r}")
        if ring == RING_O and not entry.is_integral():
            raise NotInRingError(f"entry {entry} is not in the DVR")
    if entry.descriptor != descriptor:
        raise ValueError("matrix entry from a different DVR")
    return entry


class ExactMatrix:
    """Immutable dense matrix over one of the three tagged rings."""

    __slots__ = ("ring", "descriptor", "entries", "_hash")

    def __init__(self, ring: str, descriptor: DvrDescriptor, entries):
        if ring not in VALID_RINGS:
            raise ValueError(f"unknown ring tag {ring!r}")
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix rows")
            for entry in row:
                _check_entry(ring, descriptor, entry)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_ints(ring: str, descriptor: DvrDescriptor, rows) -> ExactMatrix:
        if ring == RING_RESIDUE:
            conv = lambda a: ResidueScalar(descriptor, a)  # noqa: E731
        else:
            conv = descriptor.from_int
        return ExactMatrix(ring, descriptor, [[conv(a) for a in row] for row in rows])

    @staticmethod
    def identity(ring: str, descriptor: DvrDescriptor, n: int) -> ExactMatrix:
        one, zero = ring_one(ring, descriptor), ring_zero(ring, descriptor)
        return ExactMatrix(
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
        if self.ring != other.ring or self.descriptor != other.descriptor:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        self._compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return ExactMatrix(
            self.ring,
            self.descriptor,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        self._compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        return ExactMatrix(
            self.ring,
            self.descriptor,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __mul__(self, other: ExactMatrix) -> ExactMatrix:
        self._compat(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = list(zip(*other.entries))
        out = []
        for row in self.entries:
            out_row = []
            for col in cols:
                acc = row[0] * col[0]
                for a, b in zip(row[1:], col[1:]):
                    acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return ExactMatrix(self.ring, self.descriptor, out)

    def scale(self, scalar) -> ExactMatrix:
        return ExactMatrix(
            self.ring, self.descriptor, [[scalar * a for a in row] for row in self.entries]
        )

    def __neg__(self) -> ExactMatrix:
        return ExactMatrix(self.ring, self.descriptor, [[-a for a in row] for row in self.entries])

    def transpose(self) -> ExactMatrix:
        return ExactMatrix(self.ring, self.descriptor, list(zip(*self.entries)))

    def apply(self, vector):
        """Matrix-vector product (column-vector convention)."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.entries:
            acc = row[0] * vector[0]
            for a, v in zip(row[1:], vector[1:]):
                acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def minus_identity(self) -> ExactMatrix:
        """The matrix minus the identity: one subtracted on the diagonal only."""
        if not self.is_square:
            raise ValueError("square matrix required")
        one = ring_one(self.ring, self.descriptor)
        return ExactMatrix(
            self.ring,
            self.descriptor,
            [[a - one if i == j else a for j, a in enumerate(row)]
             for i, row in enumerate(self.entries)],
        )

    def to_field(self) -> ExactMatrix:
        """Retag an O-matrix as a matrix over the fraction field K."""
        if self.ring != RING_O:
            return self
        return ExactMatrix(RING_K, self.descriptor, self.entries)

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.descriptor == other.descriptor
            and self.entries == other.entries
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


@dataclass(frozen=True)
class KernelBasis:
    """Echelon-normalized basis of a nullspace over a field."""

    vectors: tuple
    ambient_dim: int

    @property
    def dimension(self) -> int:
        return len(self.vectors)


# -- elimination ---------------------------------------------------------------


class RowEchelon:
    """Incremental reduced row echelon form of a row space over a field.

    `pivot_rows` maps each pivot column to its row, whose entry there is one
    and whose entries in the other pivot columns are zero.  A row space has
    exactly one reduced echelon form, so the result does not depend on the
    order in which rows are added.  Row operations skip zero entries.
    """

    def __init__(self, rows=()):
        self.pivot_rows: dict[int, list] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row) -> list:
        """The row minus its components along the pivot rows."""
        row = list(row)
        for col, pivot in self.pivot_rows.items():
            f = row[col]
            if f:
                row = [a - f * b if b else a for a, b in zip(row, pivot)]
        return row

    def add(self, row) -> bool:
        """Reduce the row against the span; absorb and return True when independent."""
        row = self.reduce(row)
        lead = next((i for i, a in enumerate(row) if a), None)
        if lead is None:
            return False
        inv = row[lead]
        if not inv.is_one():
            row = [a / inv if a else a for a in row]
        for col, pivot in self.pivot_rows.items():
            f = pivot[lead]
            if f:
                self.pivot_rows[col] = [a - f * b if b else a for a, b in zip(pivot, row)]
        self.pivot_rows[lead] = row
        return True

    def contains(self, row) -> bool:
        return not any(self.reduce(row))


def _field_echelon(m: ExactMatrix) -> RowEchelon:
    if m.ring == RING_O:
        raise ValueError("rank/kernel are field operations; retag the matrix with to_field()")
    return RowEchelon(m.entries)


def rank_over_field(m: ExactMatrix) -> int:
    """Rank over K or k."""
    return _field_echelon(m).rank


def kernel_over_field(m: ExactMatrix) -> KernelBasis:
    """Exact nullspace basis over K or k, one vector per free column."""
    pivot_rows = _field_echelon(m).pivot_rows
    n_cols = m.cols
    zero = ring_zero(m.ring, m.descriptor)
    one = ring_one(m.ring, m.descriptor)
    vectors = []
    for free in range(n_cols):
        if free in pivot_rows:
            continue
        v = [zero] * n_cols
        v[free] = one
        for c, row in pivot_rows.items():
            v[c] = -row[free]
        vectors.append(tuple(v))
    return KernelBasis(tuple(vectors), n_cols)


def det(m: ExactMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination, over any of the rings.

    Every division is exact, so the entries of an O-matrix never leave O
    (they are minors of the original matrix).
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    zero = ring_zero(m.ring, m.descriptor)
    rows = [list(row) for row in m.entries]
    sign = 1
    prev = ring_one(m.ring, m.descriptor)
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return zero
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pk - rik * rows[k][j]) / prev
            rows[i][k] = zero
        prev = pk
    d = rows[n - 1][n - 1]
    return d if sign == 1 else -d


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; over O additionally requires the determinant to be a unit."""
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    if m.ring == RING_O:
        d = det(m)
        if d.is_zero():
            raise NotInvertibleError("matrix is singular")
        if not d.is_unit():
            raise NotInvertibleError(
                f"determinant {d} has positive valuation; not invertible over the DVR"
            )
        inv_k = _inverse_field(m.to_field())
        return ExactMatrix(RING_O, m.descriptor, inv_k.entries)
    return _inverse_field(m)


def _inverse_field(m: ExactMatrix) -> ExactMatrix:
    n = m.rows
    zero = ring_zero(m.ring, m.descriptor)
    one = ring_one(m.ring, m.descriptor)
    pivot_rows = RowEchelon(
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(m.entries)
    ).pivot_rows
    if any(c >= n for c in pivot_rows):
        raise NotInvertibleError("matrix is singular")
    return ExactMatrix(m.ring, m.descriptor, [pivot_rows[c][n:] for c in range(n)])


def matrix_order(m: ExactMatrix, cap: int = DEFAULT_ORDER_CAP) -> int:
    """Least power m**k == I, or an error if k would exceed the cap."""
    if not m.is_square:
        raise ValueError("order of a non-square matrix")
    ident = ExactMatrix.identity(m.ring, m.descriptor, m.rows)
    acc = m
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = acc * m
    raise OrderCapExceededError(
        f"order exceeds cap {cap} (the element may have infinite order)"
    )


def reduce_matrix(m: ExactMatrix) -> ExactMatrix:
    """Entrywise reduction of an O-matrix to the residue field."""
    if m.ring != RING_O:
        raise ValueError("only O-matrices can be reduced")
    return ExactMatrix(
        RING_RESIDUE,
        m.descriptor,
        [[a.reduce() for a in row] for row in m.entries],
    )
