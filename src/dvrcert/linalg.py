"""Dense exact linear algebra over the DVR, its fraction field, and its residue field.

Matrices carry a ring tag: "O" (the DVR), "K" (its fraction field), or "k"
(the residue field).  Arithmetic is exact throughout; determinants over O/K
use fraction-free (Bareiss) elimination, rank/kernel work over the two fields
with ordinary Gaussian elimination.
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
        if not self.is_square:
            raise ValueError("square matrix required")
        return self - ExactMatrix.identity(self.ring, self.descriptor, self.rows)

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


def _rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form over a field; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    n_cols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if not pv.is_one():
            rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _field_rows(m: ExactMatrix) -> list[list]:
    if m.ring == RING_O:
        raise ValueError("rank/kernel are field operations; retag the matrix with to_field()")
    return [list(row) for row in m.entries]


def rank_over_field(m: ExactMatrix) -> int:
    """Rank over K or k by Gaussian elimination."""
    _, pivots = _rref(_field_rows(m))
    return len(pivots)


def kernel_over_field(m: ExactMatrix) -> KernelBasis:
    """Exact nullspace basis over K or k, one vector per free column."""
    rows = _field_rows(m)
    n_cols = m.cols
    rows, pivots = _rref(rows)
    pivot_set = set(pivots)
    zero = ring_zero(m.ring, m.descriptor)
    one = ring_one(m.ring, m.descriptor)
    vectors = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [zero] * n_cols
        v[free] = one
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        vectors.append(tuple(v))
    return KernelBasis(tuple(vectors), n_cols)


def det(m: ExactMatrix):
    """Exact determinant; Bareiss over O/K, pivot product over the residue field."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    if m.ring == RING_RESIDUE:
        return _det_gauss(m)
    return _det_bareiss(m)


def _det_gauss(m: ExactMatrix):
    rows = [list(row) for row in m.entries]
    n = m.rows
    acc = ring_one(m.ring, m.descriptor)
    sign = 1
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return ring_zero(m.ring, m.descriptor)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        pv = rows[c][c]
        acc = acc * pv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return acc if sign == 1 else -acc


def _det_bareiss(m: ExactMatrix):
    # Fraction-free elimination: every division is exact, so entries of an
    # O-matrix never leave O (they are minors of the original matrix).
    n = m.rows
    rows = [list(row) for row in m.entries]
    sign = 1
    prev = m.descriptor.one()
    for k in range(n - 1):
        if not rows[k][k]:
            swap = None
            for i in range(k + 1, n):
                if rows[i][k]:
                    swap = i
                    break
            if swap is None:
                return m.descriptor.zero()
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pk - rik * rows[k][j]) / prev
            rows[i][k] = m.descriptor.zero()
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
    aug = [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(m.entries)
    ]
    aug, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise NotInvertibleError("matrix is singular")
    return ExactMatrix(m.ring, m.descriptor, [row[n:] for row in aug])


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
