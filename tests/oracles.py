"""Independent brute-force oracles for cross-checking the fast paths.

Each oracle deliberately takes a different route from the implementation it
checks: a dense echelon that rewrites whole rows, zeros included, against
the sparse `RowEchelon` on dict rows (it is also the oracles' own
elimination), the textbook triple loop over every term, zeros included,
against the matrix product that forms terms only where both factors are
nonzero, the permutation sum and cofactor expansion against
the determinants read off Berkowitz's division-free `char_poly`,
minor enumeration against Gaussian rank and against the cross-multiplied
rank-one test on integer forms and residues, entrywise reduction against
the reduction of integer forms, powers of the variables' images against
the degree-by-degree monomial recursion, full-group averaging against
generator-kernel invariant bases, the full cocycle system on every
group element against the generator-variable system, saturation under
all pairwise products against a closure that stops at the generators,
the textbook fraction formulas reduced by a full Euclid against the
reduced-fraction arithmetic of `RatFunc`, a recursion on quotient
lattices against the closed-form diagonalizing basis, cofactor expansion
of det(I - z g) over polynomial entries against Berkowitz's division-free
recursion, a field recurrence that divides by the constant term, on
each element's `Fraction` denominator, and one inversion per distinct
class denominator against the integer Molien series summed over the
lcm of the class denominators, Berkowitz on the `RatFunc` entries
of each element over F_p(t) against its residue rows mod p, a closure
that forms every product as a matrix against the one on the orbit of the
rows, the classes {h x h^-1} by `inverse_dense` against the orbits read
off the table, each element of that closure reduced entrywise against
the points of the orbit reduced once, and the diagonalizing basis built
and checked on `Fraction` or `RatFunc` matrices against the one checked
in integers.
"""
from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

from dvrcert.errors import ClosureCapExceededError, InternalCheckError
from dvrcert.groups import conjugacy_classes
from dvrcert.linalg import (
    RING_K,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    IntMatrix,
    char_poly,
    det,
    kernel_over_field,
    ring_one,
    ring_zero,
    shifted_rows,
)
from dvrcert.polys import MolienSeries, MultiPoly, monomials
from dvrcert.scalars import invert_mod_group_order


class Fp:
    """A value of F_p for the oracles' own arithmetic, apart from the
    package's plain ints mod p: an int in [0, p) with its p.  It equals the
    int it holds, so results compare with the package's directly."""

    __slots__ = ("p", "value")

    def __init__(self, p: int, value):
        self.p, self.value = p, operator.index(value) % p

    def __index__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __add__(self, other):
        return Fp(self.p, self.value + other.value)

    def __sub__(self, other):
        return Fp(self.p, self.value - other.value)

    def __mul__(self, other):
        return Fp(self.p, self.value * other.value)

    def __truediv__(self, other):
        return Fp(self.p, self.value * pow(other.value, -1, self.p))

    def __neg__(self):
        return Fp(self.p, -self.value)

    def __eq__(self, other) -> bool:
        return self.value == (other.value if isinstance(other, Fp) else other)

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"Fp({self.p}, {self.value})"


def field_p(ring: str, descriptor):
    """The p that `DenseRowEchelon` takes for rows over `ring`: k's, else None."""
    return descriptor.p if ring == RING_RESIDUE else None


class DenseRowEchelon:
    """Incremental reduced row echelon form on dense rows (lists) over a field.

    Each new row is reduced against every pivot row in turn and the pivot
    rows are rewritten in full, zeros included.  With p given the rows
    hold ints read mod p, eliminated as `Fp` values.
    """

    def __init__(self, rows=(), p: int | None = None):
        self.pivot_rows: dict[int, list] = {}
        self.p = p
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row) -> list:
        row = list(row) if self.p is None else [Fp(self.p, a) for a in row]
        for col, pivot in self.pivot_rows.items():
            f = row[col]
            if f:
                row = [a - f * b for a, b in zip(row, pivot)]
        return row

    def add(self, row) -> bool:
        row = self.reduce(row)
        lead = next((i for i, a in enumerate(row) if a), None)
        if lead is None:
            return False
        inv = row[lead]
        row = [a / inv for a in row]
        for col, pivot in self.pivot_rows.items():
            f = pivot[lead]
            if f:
                self.pivot_rows[col] = [a - f * b for a, b in zip(pivot, row)]
        self.pivot_rows[lead] = row
        return True

    def contains(self, row) -> bool:
        return not any(self.reduce(row))

    def kernel(self, width: int, zero, one) -> list[tuple]:
        """One vector per free column f: one at f, minus the pivot rows' f-th
        entries in the pivot columns, zero elsewhere."""
        vectors = []
        for free in range(width):
            if free in self.pivot_rows:
                continue
            v = [zero] * width
            v[free] = one
            for c, row in self.pivot_rows.items():
                v[c] = -row[free]
            vectors.append(tuple(v))
        return vectors


def inverse_dense(m: ExactMatrix) -> ExactMatrix:
    """Inverse by the dense echelon of [m | I], over K or k, or over O on
    the values of K, where the public constructor refuses an entry outside
    O; None if singular."""
    n = m.rows
    zero, one = ring_zero(m.ring, m.descriptor), ring_one(m.ring, m.descriptor)
    pivot_rows = DenseRowEchelon(
        (list(row) + [one if i == j else zero for j in range(n)]
         for i, row in enumerate(m.entries)),
        field_p(m.ring, m.descriptor),
    ).pivot_rows
    if any(c >= n for c in pivot_rows):
        return None
    return ExactMatrix(m.ring, m.descriptor, [pivot_rows[c][n:] for c in range(n)])


def to_fraction_field(m: ExactMatrix) -> ExactMatrix:
    """The O-matrix m retagged as a matrix over K, its entries unchanged."""
    return ExactMatrix(RING_K, m.descriptor, m.entries)


def square_matrix(rows, g: ExactMatrix) -> ExactMatrix:
    """Square sparse rows {column: nonzero value}, such as rho_d, as a dense
    matrix over the ring of g; a stored zero fails."""
    assert all(a for row in rows for a in row.values()), "a sparse row stores a zero"
    zero = ring_zero(g.ring, g.descriptor)
    return ExactMatrix(
        g.ring, g.descriptor, [[row.get(c, zero) for c in range(len(rows))] for row in rows]
    )


def sparse_rows(rows) -> list[dict]:
    """Dense rows as dicts of their nonzero entries."""
    return [{c: a for c, a in enumerate(row) if a} for row in rows]


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(m.ring, m.descriptor, [list(col) for col in zip(*m.entries)])


def matrix_order(m: ExactMatrix, cap: int) -> int | None:
    """Least k <= cap with m**k == I, by repeated matrix products; None past the cap."""
    ident = ExactMatrix.identity(m.ring, m.descriptor, m.rows)
    acc = m
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = acc * m
    return None


def element_matrix(group, i: int, ring: str = RING_O) -> ExactMatrix:
    """Element i as an `ExactMatrix`, by the oracles' own route from its
    value `group.element(i)`: the int kind's form A / D as `Fraction`
    entries (`matrix_of_form`), a ratfunc group's O-matrix as it is, and
    over k either reduced entrywise (`reduce_entrywise`).  Over O or K it
    is the O-matrix."""
    m = group.element(i)
    if not isinstance(m, ExactMatrix):
        m = matrix_of_form(m, group.descriptor)
    return reduce_entrywise(m) if ring == RING_RESIDUE else m


def element_matrices(group, ring: str) -> list:
    """Every element of the group as `element_matrix(group, i, ring)`, in
    index order: over O or K the O-matrices, over k the k-matrices."""
    return [element_matrix(group, i, ring) for i in range(group.order)]


def closure_bruteforce(generators, descriptor, n: int, cap: int = 20000) -> tuple:
    """(elements, products) as `generate_group` numbers them, every product
    formed as an `ExactMatrix`: breadth first from I, multiplying on the
    right by the distinct generators in `sort_key` order; past `cap`
    elements, `ClosureCapExceededError`."""
    gens = sorted(set(generators), key=ExactMatrix.sort_key)
    elements = [ExactMatrix.identity(RING_O, descriptor, n)]
    index, products = {elements[0]: 0}, []
    for m in elements:
        row = []
        for g in gens:
            product = m * g
            if product not in index:
                if len(elements) >= cap:
                    raise ClosureCapExceededError(f"closure exceeded {cap} elements")
                index[product] = len(elements)
                elements.append(product)
            row.append(index[product])
        products.append(tuple(row))
    return elements, tuple(products)


def residue_rows_bruteforce(group) -> tuple:
    """(residue rows, eta injective) of a group, from `closure_bruteforce`'s
    matrices reduced entrywise by `descriptor.reduce`, one element at a
    time, and compared as whole matrices."""
    elements, _ = closure_bruteforce(generators_of(group), group.descriptor, group.n)
    reduce = group.descriptor.reduce
    rows = tuple(tuple(tuple(reduce(a) for a in row) for row in m.entries) for m in elements)
    return rows, len(set(rows)) == len(rows)


def primitive_vector(v, desc) -> tuple:
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


def diagonalizing_basis_exact(sigma: ExactMatrix, lam) -> list:
    """The closed-form diagonalizing basis of the O-matrix sigma, built and
    checked on its values of K: sigma w = w for the fixed vectors, sigma w
    = lambda w for the last, and a unit `det` of the change of basis; a
    failure is `InternalCheckError`."""
    desc = sigma.descriptor
    delta = shifted_rows(sigma.entries, desc.one())
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
    basis.append(tuple(row[r] / (lam - desc.one()) for row in delta))
    for i, w in enumerate(basis):
        if apply_dense(sigma, w) != (tuple(w) if i < n - 1 else tuple(lam * x for x in w)):
            raise InternalCheckError(f"basis vector {i} fails its eigen-relation")
    if not desc.is_unit(det(change_of_basis_of(basis, desc))):
        raise InternalCheckError("the change of basis is not one of O^n")
    return basis


def change_of_basis_of(vectors, descriptor) -> ExactMatrix:
    """The O-matrix whose columns are the vectors."""
    return ExactMatrix(RING_O, descriptor, [list(row) for row in zip(*vectors)])


def conjugacy_classes_bruteforce(group) -> set:
    """The classes {h x h^-1 : h in G} as frozensets of element indices,
    with h^-1 from `inverse_dense` and each product an `ExactMatrix`."""
    elements = element_matrices(group, RING_O)
    index = {m: i for i, m in enumerate(elements)}
    return {frozenset(index[h * x * inverse_dense(h)] for h in elements) for x in elements}


def generators_of(group) -> list:
    """The group's closure generators as O-matrices, in the closure's order:
    the elements its table's first row names."""
    return [element_matrix(group, i) for i in group.generator_indices]


def element_order(group, i: int) -> int:
    return matrix_order(element_matrix(group, i), cap=group.order)


def change_of_basis(basis) -> ExactMatrix:
    """The O-matrix whose columns are the vectors of a DiagonalizingBasis."""
    return change_of_basis_of(basis.basis, basis.descriptor)


def apply_dense(m: ExactMatrix, vector) -> tuple:
    """m times the column vector, every term formed, zeros included; over
    k reduced mod p."""
    assert len(vector) == m.cols
    out = []
    for row in m.entries:
        acc = ring_zero(m.ring, m.descriptor)
        for a, x in zip(row, vector):
            acc = acc + a * x
        out.append(acc % m.descriptor.p if m.ring == RING_RESIDUE else acc)
    return tuple(out)


def matmul_dense(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The product by the textbook triple loop: every term, zeros included."""
    assert a.cols == b.rows
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = ring_zero(a.ring, a.descriptor)
            for k in range(a.cols):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            row.append(acc)
        rows.append(row)
    return ExactMatrix(a.ring, a.descriptor, rows)


def det_cofactor(m: ExactMatrix):
    """Determinant by the permutation-sum definition; over k reduced mod p."""
    n = m.rows
    total = None
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = m.entry(0, perm[0])
        for i in range(1, n):
            term = term * m.entry(i, perm[i])
        if inversions % 2:
            term = -term
        total = term if total is None else total + term
    return total % m.descriptor.p if m.ring == RING_RESIDUE else total


def rank_by_minors(m: ExactMatrix) -> int:
    """Rank as the largest size of a nonzero minor (matrices up to 4x4)."""
    best = 0
    for size in range(1, min(m.rows, m.cols) + 1):
        for rows in combinations(range(m.rows), size):
            for cols in combinations(range(m.cols), size):
                sub = ExactMatrix(
                    m.ring,
                    m.descriptor,
                    [[m.entry(r, c) for c in cols] for r in rows],
                )
                d = det_cofactor(sub)
                if d:
                    best = size
                    break
            else:
                continue
            break
    return best


def form_of(m: ExactMatrix):
    """m as a stage of the package reads an element: an int-kind O-matrix
    as its `IntMatrix` form A / D, a ratfunc O-matrix as it is."""
    return IntMatrix.from_matrix(m) if m.descriptor.kind == "int-localized" else m


def matrix_of_form(form, descriptor) -> ExactMatrix:
    """The O-matrix of an `IntMatrix` form A / D, each entry a `Fraction`
    divided by D and checked to lie in O by the public constructor."""
    return ExactMatrix(RING_O, descriptor,
                       [[Fraction(a) / form.den for a in row] for row in form.rows])


def reduce_entrywise(m: ExactMatrix) -> ExactMatrix:
    """The reduction of an O-matrix to k: `descriptor.reduce` on each entry."""
    return ExactMatrix(RING_RESIDUE, m.descriptor,
                       [[m.descriptor.reduce(a) for a in row] for row in m.entries])


def reflection_eigenvalue_bruteforce(m: ExactMatrix):
    """det(m) by the permutation sum when m - I, the difference with the
    identity matrix, has rank one by minors; else None."""
    shifted = m - ExactMatrix.identity(m.ring, m.descriptor, m.rows)
    return det_cofactor(m) if rank_by_minors(shifted) == 1 else None


def reflection_generated_bruteforce(matrices) -> bool:
    """Do the reflections among the matrices (a finite group) generate them all?

    Finds reflections by minors and saturates {I} and the reflections under
    all pairwise products until nothing new appears.
    """
    distinct = set(matrices)
    first = matrices[0]
    ident = ExactMatrix.identity(first.ring, first.descriptor, first.rows)
    reached = {ident} | {m for m in distinct if rank_by_minors(m - ident) == 1}
    while True:
        products = {a * b for a in reached for b in reached}
        if products <= reached:
            return reached == distinct
        reached |= products


# -- polynomial constructors and arithmetic that only the tests need ---------------


def poly_zero(ring: str, descriptor, n: int) -> MultiPoly:
    return MultiPoly(ring, descriptor, n, {})


def poly_variable(ring: str, descriptor, n: int, i: int) -> MultiPoly:
    """X_{i+1} over the ring."""
    exp = tuple(1 if j == i else 0 for j in range(n))
    return MultiPoly(ring, descriptor, n, {exp: ring_one(ring, descriptor)})


def poly_monomial(ring: str, descriptor, exp: tuple, coeff) -> MultiPoly:
    return MultiPoly(ring, descriptor, len(exp), {tuple(exp): coeff})


def poly_coefficient(f: MultiPoly, exp: tuple):
    """The coefficient of X^exp in f, the ring's zero when it has none."""
    return f.terms.get(tuple(exp), ring_zero(f.ring, f.descriptor))


def poly_scale(f: MultiPoly, coeff) -> MultiPoly:
    """f times a scalar of its own ring."""
    return MultiPoly._of(f.ring, f.descriptor, f.n, {e: coeff * c for e, c in f.terms.items()})


def poly_power(f: MultiPoly, k: int) -> MultiPoly:
    """f^k for k >= 0, by repeated multiplication."""
    out = MultiPoly.constant(f.ring, f.descriptor, f.n, ring_one(f.ring, f.descriptor))
    for _ in range(k):
        out = out * f
    return out


def act_bruteforce(g: ExactMatrix, f: MultiPoly) -> MultiPoly:
    """X_j -> sum_i g[i][j] X_i: each term of f becomes its coefficient times
    a product of powers of the variables' images."""
    if g.ring == RING_O and f.ring == RING_K:
        g = to_fraction_field(g)
    assert g.ring == f.ring and g.rows == g.cols == f.n
    images = [
        MultiPoly(
            f.ring,
            f.descriptor,
            f.n,
            {tuple(int(i == row) for i in range(f.n)): g.entry(row, j) for row in range(f.n)},
        )
        for j in range(f.n)
    ]
    out = poly_zero(f.ring, f.descriptor, f.n)
    for e, c in f.terms.items():
        piece = MultiPoly.constant(f.ring, f.descriptor, f.n, c)
        for j, k in enumerate(e):
            if k:
                piece = piece * poly_power(images[j], k)
        out = out + piece
    return out


def reynolds_flat(group, f: MultiPoly) -> MultiPoly:
    """(1/|G|) sum_g g.f with every element a matrix of `Fraction`s (or of
    k), `act_bruteforce` on each and the sum formed in the polynomials'
    own ring: the Reynolds operator with no integer forms, no common
    denominator and no shared monomial images."""
    inv_order = invert_mod_group_order(group.order, group.descriptor)
    if f.ring == RING_RESIDUE:
        inv_order = group.descriptor.reduce(inv_order)
    out = poly_zero(f.ring, f.descriptor, f.n)
    for g in element_matrices(group, f.ring):
        out = out + act_bruteforce(g, f)
    return poly_scale(out, inv_order)


def action_matrix_bruteforce(g: ExactMatrix, n: int, d: int) -> ExactMatrix:
    """Column e: the coefficients of act_bruteforce(g, X^e), graded-lex."""
    basis = monomials(n, d)
    one = ring_one(g.ring, g.descriptor)
    rows = [[ring_zero(g.ring, g.descriptor)] * len(basis) for _ in basis]
    for col, e in enumerate(basis):
        image = act_bruteforce(g, poly_monomial(g.ring, g.descriptor, e, one))
        for row, e2 in enumerate(basis):
            rows[row][col] = poly_coefficient(image, e2)
    return ExactMatrix(g.ring, g.descriptor, rows)


def _field_matrices(group, ring):
    """The elements over K or k, converted by the oracles' own route: the
    O-matrices retagged by `to_fraction_field`, as `kernel_over_field`
    takes them, or reduced entrywise."""
    if ring == RING_RESIDUE:
        return [reduce_entrywise(m) for m in element_matrices(group, RING_O)]
    return [to_fraction_field(m) for m in element_matrices(group, RING_O)]


def invariant_dimension_bruteforce(group, degree: int, ring: str) -> int:
    """Dimension of the degree-d invariants via full-group averaging.

    Averages every monomial over all group elements and counts independent
    results; no generator kernels involved.
    """
    inv_order = invert_mod_group_order(group.order, group.descriptor)
    coeff = group.descriptor.reduce(inv_order) if ring == RING_RESIDUE else inv_order
    mats = _field_matrices(group, ring)
    basis = monomials(group.n, degree)
    index = {e: i for i, e in enumerate(basis)}
    zero = ring_zero(ring, group.descriptor)
    span = DenseRowEchelon(p=field_p(ring, group.descriptor))
    for e in basis:
        mono = poly_monomial(ring, group.descriptor, e, ring_one(ring, group.descriptor))
        acc = poly_zero(ring, group.descriptor, group.n)
        for m in mats:
            acc = acc + act_bruteforce(m, mono)
        avg = poly_scale(acc, coeff)
        row = [zero] * len(basis)
        for e2, c in avg.terms.items():
            row[index[e2]] = c
        span.add(row)
    return span.rank


def molien_coefficients_bruteforce(group, bound: int) -> list[int]:
    """Invariant dimensions per degree over K, by the averaging oracle."""
    return [invariant_dimension_bruteforce(group, d, RING_K) for d in range(bound + 1)]


def poly_matrix_det(rows) -> MultiPoly:
    """Determinant of a square matrix of polynomials, by cofactor expansion
    along the first row."""
    first = rows[0]
    if len(rows) == 1:
        return first[0]
    total = poly_zero(first[0].ring, first[0].descriptor, first[0].n)
    for j, entry in enumerate(first):
        if entry.is_zero():
            continue
        term = entry * poly_matrix_det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def char_series_denominator_cofactor(g: ExactMatrix) -> tuple:
    """Coefficients of det(I - z g), from z^0 to z^n, by cofactor expansion
    of I - z g as a matrix of polynomials in z."""
    zero = ring_zero(g.ring, g.descriptor)
    one = ring_one(g.ring, g.descriptor)
    entries = [
        [
            MultiPoly._of(g.ring, g.descriptor, 1, {(0,): one if i == j else zero, (1,): -a})
            for j, a in enumerate(row)
        ]
        for i, row in enumerate(g.entries)
    ]
    denominator = poly_matrix_det(entries)
    return tuple(poly_coefficient(denominator, (k,)) for k in range(g.rows + 1))


def series_inverse_field(denom: tuple, bound: int, zero, one) -> list:
    """Coefficients of 1/denom to the bound, over the field of its values:
    b_0 = 1 / c_0 and b_m = -(sum_{i >= 1} c_i b_{m-i}) / c_0."""
    lead = denom[0]
    inv = [zero] * (bound + 1)
    inv[0] = one / lead
    for m in range(1, bound + 1):
        acc = zero
        for i in range(1, min(m, len(denom) - 1) + 1):
            if denom[i]:
                acc = acc + denom[i] * inv[m - i]
        inv[m] = -acc / lead
    return inv


def molien_series_field(group, bound: int) -> list:
    """(1/|G|) * sum over g of 1/det(I - z g) over Q, as Fractions: the field
    recurrence on each element's own cofactor denominator, one element at a
    time."""
    zero, one = Fraction(0), Fraction(1)
    total = [zero] * (bound + 1)
    for m in element_matrices(group, RING_K):
        inv = series_inverse_field(char_series_denominator_cofactor(m), bound, zero, one)
        total = [a + b for a, b in zip(total, inv)]
    return [a / group.order for a in total]


def series_inverse_int(denom: tuple, bound: int) -> list:
    """Coefficients of 1/denom to the bound in ints, for denom[0] = 1:
    b_0 = 1, b_m = -sum_{i >= 1} c_i b_{m-i}."""
    assert denom[0] == 1, denom
    inv = [1] + [0] * bound
    for m in range(1, bound + 1):
        inv[m] = -sum(denom[i] * inv[m - i] for i in range(1, min(m, len(denom) - 1) + 1))
    return inv


def molien_series_per_class(group, bound: int) -> list[int]:
    """(1/|G|) * sum over the conjugacy classes of m_c / det(I - z g_c) over
    Q, in ints: each distinct denominator, from a class representative's
    `Fraction` matrix, inverted on its own to the bound and weighted by
    the number of elements that share it, with no common denominator."""
    counts = Counter()
    for members in conjugacy_classes(group):
        denom = _char_series_denominator(element_matrix(group, members[0], RING_K))
        assert all(c.denominator == 1 for c in denom), denom
        counts[tuple(int(c) for c in denom)] += len(members)
    sums = [0] * (bound + 1)
    for denom, count in counts.items():
        sums = [a + count * b for a, b in zip(sums, series_inverse_int(denom, bound))]
    assert all(s % group.order == 0 and s >= 0 for s in sums), sums
    return [s // group.order for s in sums]


def _char_series_denominator(g: ExactMatrix) -> tuple:
    """Coefficients of det(I - z*g), from z^0 to z^n, over the field of g's
    entries, by Berkowitz's `char_poly` on those entries."""
    return char_poly(g.entries, ring_zero(g.ring, g.descriptor), ring_one(g.ring, g.descriptor))


def molien_series_ratfunc(group, bound: int) -> MolienSeries:
    """The Molien series of a ratfunc group over F_p(t), in `RatFunc` values:
    each distinct det(I - z g) of the elements over K, inverted by the field
    recurrence, weighted by its count and summed times 1/|G| in F_p(t).
    Each coefficient must be a constant of F_p, and is reported reduced."""
    descriptor = group.descriptor
    zero, one = descriptor.zero(), descriptor.one()
    sums = [zero] * (bound + 1)
    denominators = Counter(map(_char_series_denominator, element_matrices(group, RING_K)))
    for denom, count in denominators.items():
        inv = series_inverse_field(denom, bound, zero, one)
        sums = [a + b * descriptor.from_int(count) for a, b in zip(sums, inv)]
    total = [invert_mod_group_order(group.order, descriptor) * a for a in sums]
    assert all(c.num.degree <= 0 and c.den.degree == 0 for c in total), total
    return MolienSeries(bound, tuple(descriptor.reduce(c) for c in total), True)


def _h1_exact_degree_bruteforce(group, degree: int, ring: str) -> int:
    """dim Z1 - dim B1 with one unknown block per group element.

    Imposes the cocycle condition on every ordered pair of elements; the
    main path only uses generator blocks and breadth-first relations.
    """
    mats = _field_matrices(group, ring)
    rho = [action_matrix_bruteforce(m, group.n, degree) for m in mats]
    size = len(monomials(group.n, degree))
    order = group.order
    width = order * size
    zero = ring_zero(ring, group.descriptor)
    elements = element_matrices(group, RING_O)
    index = {m: i for i, m in enumerate(elements)}
    span = DenseRowEchelon(p=field_p(ring, group.descriptor))
    for a in range(order):
        for b in range(order):
            c = index[elements[a] * elements[b]]
            # c(ab) - c(a) - a.c(b) = 0
            for r in range(size):
                row = [zero] * width
                row[c * size + r] = row[c * size + r] + ring_one(ring, group.descriptor)
                row[a * size + r] = row[a * size + r] - ring_one(ring, group.descriptor)
                for col in range(size):
                    v = rho[a].entries[r][col]
                    if v:
                        row[b * size + col] = row[b * size + col] - v
                span.add(row)
    dim_z1 = width - span.rank

    cob = DenseRowEchelon(p=field_p(ring, group.descriptor))
    for v in range(size):
        col = []
        for a in range(order):
            for r in range(size):
                x = rho[a].entries[r][v]
                if r == v:
                    x = x - ring_one(ring, group.descriptor)
                col.append(x)
        cob.add(col)
    return dim_z1 - cob.rank


def h1_bruteforce(group, degree: int, ring: str) -> int:
    return sum(_h1_exact_degree_bruteforce(group, e, ring) for e in range(degree + 1))


# -- rational functions over F_p, on plain coefficient lists ---------------------


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def coeff_add(p: int, a, b) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return _trim([c % p for c in out])


def coeff_mul(p: int, a, b) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim([c % p for c in out])


def _coeff_divmod(p: int, a, b) -> tuple[list, list]:
    """Schoolbook division; the leading inverse by Fermat's little theorem."""
    inv = pow(b[-1], p - 2, p)
    quo, rem = [0] * max(len(a) - len(b) + 1, 0), list(a)
    while len(_trim(rem)) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] * inv % p
        quo[shift] = factor
        rem = coeff_add(p, rem, [0] * shift + [-factor * y for y in b])
    return _trim(quo), rem


def coeff_gcd(p: int, a, b) -> list:
    """Monic gcd of two coefficient lists, not both zero."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _coeff_divmod(p, a, b)[1]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def ratfunc_op_bruteforce(op: str, a, b) -> tuple[tuple, tuple]:
    """a op b, for op one of + - * /, as a (num, den) pair of coefficient tuples.

    The textbook formula over d1*d2 (or d1*n2 for /), then a full Euclid of
    its own on the result and a monic denominator: the canonical form.
    """
    p = a.p
    n1, d1, n2, d2 = a.num.coeffs, a.den.coeffs, b.num.coeffs, b.den.coeffs
    if op in "+-":
        sign = 1 if op == "+" else -1
        num = coeff_add(p, coeff_mul(p, n1, d2), [sign * c for c in coeff_mul(p, n2, d1)])
        den = coeff_mul(p, d1, d2)
    elif op == "*":
        num, den = coeff_mul(p, n1, n2), coeff_mul(p, d1, d2)
    else:
        num, den = coeff_mul(p, n1, d2), coeff_mul(p, d1, n2)
    if not num:
        return (), (1,)
    g = coeff_gcd(p, num, den)
    num, den = _coeff_divmod(p, num, g)[0], _coeff_divmod(p, den, g)[0]
    inv = pow(den[-1], p - 2, p)
    return tuple(c * inv % p for c in num), tuple(c * inv % p for c in den)


def _unimodular_completion(w, desc) -> ExactMatrix:
    """An O-basis with first column the primitive vector w.

    The other columns are the standard vectors away from the first unit
    coordinate of w, so the determinant is +/- that coordinate.
    """
    n = len(w)
    pivot = next(i for i, x in enumerate(w) if desc.is_unit(x))
    cols = [list(w)] + [
        [desc.one() if i == j else desc.zero() for i in range(n)]
        for j in range(n) if j != pivot
    ]
    return ExactMatrix(RING_O, desc, [list(row) for row in zip(*cols)])


def diagonalizing_basis_recursive(sigma: ExactMatrix, lam) -> list:
    """Fixed vectors and a lambda-eigenvector of O^n, by recursion on O^n / O*w1.

    w1 is the first echelon kernel vector of sigma - 1, made primitive; T
    completes it to an O-basis, and the lower-right block of T^-1 sigma T is
    the induced action on the quotient lattice.  Its basis pulls back
    through T, and the last pullback is repaired by the multiple of w1 that
    makes it a lambda-eigenvector.
    """
    desc = sigma.descriptor
    n = sigma.rows
    if n == 1:
        return [(desc.one(),)]
    fixed = kernel_over_field(
        ExactMatrix(RING_K, desc, shifted_rows(sigma.entries, desc.one())))
    w1 = primitive_vector(fixed.vectors[0], desc)
    t = _unimodular_completion(w1, desc)
    conj = inverse_dense(t) * sigma * t
    block = ExactMatrix(
        RING_O, desc, [[conj.entry(i, j) for j in range(1, n)] for i in range(1, n)]
    )
    sub = diagonalizing_basis_recursive(block, lam)
    basis = [w1] + [apply_dense(t, (desc.zero(),) + tuple(u)) for u in sub]
    # the coefficient on w1 of sigma applied to the last pullback
    a = sum((conj.entry(0, j) * x for j, x in enumerate(sub[-1], start=1)), desc.zero())
    coeff = a / (lam - desc.one())
    basis[-1] = tuple(coeff * x + y for x, y in zip(w1, basis[-1]))
    return basis
