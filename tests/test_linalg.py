import random
from fractions import Fraction

import pytest

from dvrcert.errors import NotInRingError, NotInvertibleError
from dvrcert.linalg import (
    RING_K,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    IntMatrix,
    RowEchelon,
    char_poly,
    det,
    has_rank_one,
    inverse_mod_p,
    kernel_over_field,
    rank_over_field,
    reduce_form,
    ring_one,
    ring_zero,
)
from dvrcert.polys import MultiPoly
from dvrcert.scalars import KIND_INT, KIND_RATFUNC, DvrDescriptor

from oracles import (
    DenseRowEchelon,
    apply_dense,
    char_series_denominator_cofactor,
    det_cofactor,
    field_p,
    inverse_dense,
    matmul_dense,
    matrix_order,
    rank_by_minors,
    reduce_entrywise,
    sparse_rows,
    transpose,
)


def _swap(descriptor):
    return ExactMatrix.from_ints(RING_O, descriptor, [[0, 1], [1, 0]])


def test_matmul_examples(z3):
    swap = _swap(z3)
    ident = ExactMatrix.identity(RING_O, z3, 2)
    m = ExactMatrix.from_ints(RING_O, z3, [[1, 2], [0, 1]])
    assert ident * m == m
    assert swap * swap == ident
    rot = ExactMatrix.from_ints(RING_O, z3, [[0, -1], [1, 0]])
    assert rot * rot == ExactMatrix.from_ints(RING_O, z3, [[-1, 0], [0, -1]])


def _random_entry(descriptor, ring, rng, zeros=0.5):
    """Zero with probability `zeros`; otherwise a value of the ring, which
    over K may have negative valuation and over O a unit denominator."""
    if rng.random() < zeros:
        return ring_zero(ring, descriptor)
    if ring == RING_RESIDUE:
        return rng.randint(1, descriptor.p - 1)
    u, from_int = descriptor.uniformizer(), descriptor.from_int
    x = from_int(rng.choice((-3, -1, 1, 2, 4))) + from_int(rng.randint(-2, 2)) * u
    if rng.random() < 0.5:
        x = x / (from_int(1) + u)  # a unit of O
    if ring == RING_K and rng.random() < 0.5:
        x = x / u
    return x


def _random_sparse_matrix(descriptor, ring, rows, cols, rng, zeros=0.5):
    """A share `zeros` of the entries zero, with one all-zero row and one
    all-zero column."""
    zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
    return ExactMatrix(ring, descriptor, [
        [ring_zero(ring, descriptor) if i == zero_row or j == zero_col
         else _random_entry(descriptor, ring, rng, zeros) for j in range(cols)]
        for i in range(rows)
    ])


@pytest.mark.parametrize("kind", [KIND_INT, KIND_RATFUNC])
@pytest.mark.parametrize("ring", [RING_O, RING_K, RING_RESIDUE])
def test_product_and_apply_match_dense_oracle(kind, ring):
    descriptor = DvrDescriptor(kind, 5)
    rng = random.Random(f"{kind}-{ring}")
    for _ in range(30):
        r, m, c = (rng.randint(1, 5) for _ in range(3))
        a = _random_sparse_matrix(descriptor, ring, r, m, rng)
        b = _random_sparse_matrix(descriptor, ring, m, c, rng)
        expected = matmul_dense(a, b)
        assert a * b == expected
        assert hash(a * b) == hash(expected)
        # a times one column of b, as a one-column matrix, is that column of a b
        for j in range(c):
            column = ExactMatrix(ring, descriptor, [[b.entry(i, j)] for i in range(m)])
            assert (a * column).entries == tuple((expected.entry(i, j),) for i in range(r))


@pytest.mark.parametrize("kind", [KIND_INT, KIND_RATFUNC])
@pytest.mark.parametrize("ring", [RING_O, RING_K, RING_RESIDUE])
def test_product_entry_whose_terms_cancel_is_the_ring_zero(kind, ring):
    descriptor = DvrDescriptor(kind, 5)
    rng = random.Random(7)
    zero = ring_zero(ring, descriptor)
    x, y = zero, zero
    while not (x and y):
        x, y = _random_entry(descriptor, ring, rng), _random_entry(descriptor, ring, rng)
    # x*y + y*(-x): two nonzero terms that cancel
    product = ExactMatrix(ring, descriptor, [[x, y]]) * ExactMatrix(ring, descriptor, [[y], [-x]])
    assert product.entry(0, 0) == zero
    assert hash(product.entry(0, 0)) == hash(zero)
    assert product == matmul_dense(ExactMatrix(ring, descriptor, [[x, y]]),
                                   ExactMatrix(ring, descriptor, [[y], [-x]]))
    applied = (ExactMatrix(ring, descriptor, [[x, y], [zero, zero]])
               * ExactMatrix(ring, descriptor, [[y], [-x]])).entries
    assert applied == ((zero,), (zero,))
    assert hash(applied) == hash(((zero,), (zero,)))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_signed_permutation_product_multiplies_once_per_nonzero_entry(z5, n, monkeypatch):
    # each factor has one nonzero entry per row and column, so only n of the
    # n^3 terms of the textbook product have both factors nonzero
    rng = random.Random(n)

    def signed_permutation():
        perm = list(range(n))
        rng.shuffle(perm)
        return ExactMatrix.from_ints(RING_O, z5, [
            [rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)
        ])

    a, b = signed_permutation(), signed_permutation()
    expected = matmul_dense(a, b)
    multiply = Fraction.__mul__
    calls = []

    def counted(x, y):
        calls.append(1)
        return multiply(x, y)

    monkeypatch.setattr(Fraction, "__mul__", counted)
    product = a * b
    monkeypatch.undo()
    assert product == expected
    assert len(calls) == n


@pytest.mark.parametrize("kind", [KIND_INT, KIND_RATFUNC])
@pytest.mark.parametrize("ring", [RING_O, RING_K, RING_RESIDUE])
def test_sparse_echelon_matches_the_dense_oracle(kind, ring):
    # over O the matrices are retagged to K, where elimination happens
    descriptor = DvrDescriptor(kind, 5)
    field = RING_K if ring == RING_O else ring
    zero, one = ring_zero(field, descriptor), ring_one(field, descriptor)
    rng = random.Random(f"echelon-{kind}-{ring}")
    for trial in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        # sparse and dense matrices alike have one zero row and one zero column
        m = _random_sparse_matrix(descriptor, ring, r, c, rng, 0.5 if trial % 2 else 0.0)
        entries = [list(row) for row in m.entries]
        if r > 2:  # a dependent row: the sum of two others
            entries[rng.randrange(r)] = [a + b for a, b in zip(entries[0], entries[1])]
        m = ExactMatrix(field, descriptor, entries)
        entries = [list(row) for row in m.entries]  # over k, the sums taken mod p
        p = field_p(field, descriptor)
        dense = DenseRowEchelon(entries, p)
        sparse = RowEchelon(sparse_rows(entries), p)
        assert sparse.rank == rank_over_field(m) == dense.rank
        assert sparse.pivot_rows == {
            col: row for col, row in zip(dense.pivot_rows, sparse_rows(dense.pivot_rows.values()))
        }
        assert kernel_over_field(m).vectors == tuple(dense.kernel(c, zero, one))
        # the reduced echelon form ignores the order in which rows come
        shuffled = sparse_rows(entries)
        rng.shuffle(shuffled)
        assert RowEchelon(shuffled, p).pivot_rows == sparse.pivot_rows
        # inverses over k (`inverse_mod_p`), of square matrices without a
        # zero line, drawn for every ring so that each sees one random stream
        n, zeros = rng.randint(1, 4), 0.5 if trial % 2 else 0.1
        sq = ExactMatrix(field, descriptor, [
            [_random_entry(descriptor, ring, rng, zeros) for _ in range(n)] for _ in range(n)
        ])
        if field == RING_RESIDUE:
            expected = inverse_dense(sq)
            if expected is None:
                with pytest.raises(NotInvertibleError):
                    inverse_mod_p(sq.entries, p)
            else:
                assert inverse_mod_p(sq.entries, p) == expected.entries


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2 ** 61 - 1])
def test_echelon_mod_p_matches_the_dense_oracle_over_residues(p):
    # RowEchelon with p on ints in [0, p) against DenseRowEchelon with p,
    # on the oracle's own values of F_p, for seeded sparse int matrices
    rng = random.Random(f"echelon-mod-{p}")
    for trial in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randrange(-3 * p, 3 * p) if rng.random() < 0.5 else 0 for _ in range(c)]
                for _ in range(r)]
        if r > 2:
            # a row that cancels only mod p: a combination of the first two
            # plus multiples of p, so independent of them over Z
            a, b = rng.randrange(1, p), rng.randrange(p)
            rows[rng.randrange(2, r)] = [a * x + b * y + p * rng.choice((-2, 1, 3))
                                         for x, y in zip(rows[0], rows[1])]
        if trial % 4 == 0:
            rows[-1] = [0] * c  # a zero row
        elif trial % 4 == 1:
            rows[-1] = [p * rng.randint(-3, 3) for _ in range(c)]  # zero mod p only
        dense = DenseRowEchelon(rows, p)
        sparse = RowEchelon(({j: a % p for j, a in enumerate(row) if a % p} for row in rows), p)
        assert sparse.rank == dense.rank
        assert sparse.pivot_rows == {
            col: {j: a for j, a in enumerate(row) if a}
            for col, row in dense.pivot_rows.items()
        }
        assert all(0 < a < p for row in sparse.pivot_rows.values() for a in row.values())
        kernel = sparse.kernel(c, 1)
        assert [tuple(v.get(j, 0) for j in range(c)) for v in kernel] == [
            tuple(v) for v in dense.kernel(c, 0, 1)
        ]
        for v in kernel:
            assert all(0 < a < p for a in v.values())
            for row in rows:
                assert sum(row[j] * a for j, a in v.items()) % p == 0
        # the same rows over Q have rank at least the rank mod p
        over_q = RowEchelon({j: Fraction(a) for j, a in enumerate(row) if a} for row in rows)
        assert over_q.rank >= sparse.rank


def test_shape_and_ring_mismatches(z3, z5):
    a = ExactMatrix.from_ints(RING_O, z3, [[1, 2], [3, 4]])
    b = ExactMatrix.from_ints(RING_O, z3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        b * b
    with pytest.raises(ValueError):
        a * ExactMatrix.from_ints(RING_O, z5, [[1, 0], [0, 1]])
    # an O-tagged container rejects an entry of K outside O
    third = Fraction(1, 3)
    with pytest.raises(NotInRingError):
        ExactMatrix(RING_O, z3, [[third, z3.zero()], [z3.zero(), z3.one()]])
    with pytest.raises(NotInRingError):
        MultiPoly(RING_O, z3, 2, {(1, 0): third})
    assert ExactMatrix(RING_K, z3, [[third]]).entry(0, 0) == third


def test_det_examples(z3):
    assert det(ExactMatrix.identity(RING_O, z3, 3)) == z3.one()
    assert det(_swap(z3)) == z3.from_int(-1)
    assert det(ExactMatrix.from_ints(RING_O, z3, [[1, 1], [0, -1]])) == z3.from_int(-1)


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_det_agrees_with_cofactor_expansion(kind, p, size):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(1000 * size + p)
    for ring in (RING_O, RING_K, RING_RESIDUE):  # a loop keeps the test ids
        for _ in range(40):
            m = ExactMatrix.from_ints(
                ring,
                descriptor,
                [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)],
            )
            assert det(m) == det_cofactor(m)


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_det_without_a_pivot_in_the_first_column(kind, p):
    # a zero (0, 0) entry or a zero leading column: where elimination must
    # swap rows or stop, the division-free determinant needs neither
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(f"no-pivot-{kind}")
    cases = [
        [[0, 1], [1, 0]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 2, 1], [0, 1, 1], [0, 3, -1]],
        [[0, 1, 2, 0], [1, 0, 0, 1], [0, 0, 1, -1], [2, 1, 0, 0]],
    ]
    for n in (2, 3, 4):
        for _ in range(10):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            rows[0][0] = 0
            if rng.random() < 0.5:
                for row in rows:
                    row[0] = 0
            cases.append(rows)
    for ring in (RING_O, RING_K, RING_RESIDUE):
        for rows in cases:
            m = ExactMatrix.from_ints(ring, descriptor, rows)
            assert det(m) == det_cofactor(m)
    # the permutation matrices above are units of O; a zero column is not
    assert det(ExactMatrix.from_ints(RING_O, descriptor, cases[1])) == descriptor.one()
    assert not det(ExactMatrix.from_ints(RING_RESIDUE, descriptor, cases[2]))


def test_det_handles_fractional_entries(z3):
    m = ExactMatrix(
        RING_K,
        z3,
        [
            [Fraction(1, 3), Fraction(2, 5)],
            [Fraction(7, 2), Fraction(1, 9)],
        ],
    )
    assert det(m) == det_cofactor(m)


def test_inverse_examples(z3):
    # the package inverts over F_p only (`inverse_mod_p`, for the
    # conjugator's gbar^-1); the tests conjugate over O with the oracles'
    # `inverse_dense`, which refuses an inverse with an entry outside O
    assert inverse_mod_p(((0, 1), (1, 0)), 3) == ((0, 1), (1, 0))
    assert inverse_mod_p(((2, 1), (0, 1)), 3) == ((2, 1), (0, 1))
    with pytest.raises(NotInvertibleError):
        inverse_mod_p(((1, 2), (2, 1)), 3)
    swap = _swap(z3)
    assert inverse_dense(swap) == swap
    with pytest.raises(NotInRingError):
        inverse_dense(ExactMatrix.from_ints(RING_O, z3, [[3, 0], [0, 1]]))
    inv_k = inverse_dense(ExactMatrix.from_ints(RING_K, z3, [[3, 0], [0, 1]]))
    assert inv_k.entry(0, 0) == Fraction(1, 3)
    assert inverse_dense(ExactMatrix.from_ints(RING_K, z3, [[1, 2], [2, 4]])) is None


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_inverse_roundtrip_random(kind, p):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(400 + p)
    ident = ExactMatrix.identity(RING_O, descriptor, 3)
    produced = 0
    while produced < 25:
        m = ExactMatrix.from_ints(
            RING_O, descriptor, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        )
        d = det(m)
        if not descriptor.is_unit(d):
            continue
        produced += 1
        assert inverse_dense(m) * m == ident
        assert m * inverse_dense(m) == ident
        residues = reduce_entrywise(m)
        inv = ExactMatrix(RING_RESIDUE, descriptor, inverse_mod_p(residues.entries, p))
        assert inv * residues == ExactMatrix.identity(RING_RESIDUE, descriptor, 3)


def test_rank_and_kernel_examples(z3):
    swap_minus_i = ExactMatrix.from_ints(RING_K, z3, [[-1, 1], [1, -1]])
    assert rank_over_field(swap_minus_i) == 1
    minus_2i = ExactMatrix.from_ints(RING_K, z3, [[-2, 0], [0, -2]])
    assert rank_over_field(minus_2i) == 2
    basis = kernel_over_field(swap_minus_i)
    assert basis.dimension == 1
    assert basis.vectors[0] == (z3.one(), z3.one())


def test_rank_kernel_dimension_identity(z3, f5t):
    rng = random.Random(42)
    for ring, descriptor in ((RING_K, z3), (RING_K, f5t), (RING_RESIDUE, z3)):
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            entries = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            m = ExactMatrix.from_ints(ring, descriptor, entries)
            kb = kernel_over_field(m)
            assert rank_over_field(m) + kb.dimension == cols
            for v in kb.vectors:
                assert not any(apply_dense(m, v))
            # the reduced echelon form, so the kernel basis, ignores row order
            rng.shuffle(entries)
            shuffled = ExactMatrix.from_ints(ring, descriptor, entries)
            assert kernel_over_field(shuffled).vectors == kb.vectors


@pytest.mark.parametrize("ring", [RING_K, RING_RESIDUE])
def test_rank_matches_minor_enumeration(z3, ring):
    rng = random.Random(77)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = ExactMatrix.from_ints(
            ring, z3, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        assert rank_over_field(m) == rank_by_minors(m)


def test_matrix_order_examples(z3):
    # the order oracle, which the tests compare `eigenvalue_order` with
    assert matrix_order(ExactMatrix.identity(RING_O, z3, 2), cap=4) == 1
    assert matrix_order(_swap(z3), cap=4) == 2
    assert matrix_order(ExactMatrix.from_ints(RING_O, z3, [[0, -1], [1, 0]]), cap=4) == 4
    assert matrix_order(ExactMatrix.from_ints(RING_O, z3, [[0, -1], [1, 0]]), cap=3) is None
    shear = ExactMatrix.from_ints(RING_O, z3, [[1, 1], [0, 1]])
    assert matrix_order(shear, cap=100) is None


def test_reduce_entrywise_and_reduce_form_examples(z3):
    # the oracle's entrywise reduction
    assert reduce_entrywise(_swap(z3)) == ExactMatrix.from_ints(RING_RESIDUE, z3, [[0, 1], [1, 0]])
    assert reduce_entrywise(
        ExactMatrix.from_ints(RING_O, z3, [[1, 0], [0, -1]])
    ) == ExactMatrix.from_ints(RING_RESIDUE, z3, [[1, 0], [0, 2]])
    assert reduce_entrywise(
        ExactMatrix.from_ints(RING_O, z3, [[1, 3], [0, 1]])
    ) == ExactMatrix.identity(RING_RESIDUE, z3, 2)
    # the integer form A / D: (A mod 3) (D^-1 mod 3), here D = 2
    assert reduce_form(IntMatrix(2, [[1, 6], [-4, 2]]), 3) == ((2, 0), (1, 1))
    with pytest.raises(NotInRingError):
        reduce_form(IntMatrix(3, [[1, 0], [0, 3]]), 3)


def _residue_rows(m: ExactMatrix) -> tuple:
    # the package's two reductions of an O-matrix to k: `reduce_form` on the
    # int kind's form A / D, `descriptor.reduce` on each ratfunc entry
    descriptor = m.descriptor
    if descriptor.kind == KIND_INT:
        return reduce_form(IntMatrix.from_matrix(m), descriptor.p)
    return tuple(tuple(descriptor.reduce(a) for a in row) for row in m.entries)


def _times_mod(a: tuple, b: tuple, p: int) -> tuple:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b))
                 for row in a)


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_reduce_matrix_is_multiplicative(kind, p):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(300 + p)
    for _ in range(40):
        a = ExactMatrix.from_ints(
            RING_O, descriptor, [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        )
        b = ExactMatrix.from_ints(
            RING_O, descriptor, [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        )
        reduced = _residue_rows(a * b)
        assert reduced == _times_mod(_residue_rows(a), _residue_rows(b), p)
        assert ExactMatrix.from_ints(RING_RESIDUE, descriptor, reduced) == reduce_entrywise(a * b)


def test_rank_refuses_ring_tagged_matrices(z3):
    with pytest.raises(ValueError):
        rank_over_field(_swap(z3))


def test_scale_add_neg_transpose(z3):
    m = ExactMatrix.from_ints(RING_O, z3, [[1, 2], [3, 4]])
    assert m.scale(z3.from_int(2)) == ExactMatrix.from_ints(RING_O, z3, [[2, 4], [6, 8]])
    assert m + (-m) == ExactMatrix.from_ints(RING_O, z3, [[0, 0], [0, 0]])
    assert transpose(m) == ExactMatrix.from_ints(RING_O, z3, [[1, 3], [2, 4]])
    assert m.serialize() == [["1", "2"], ["3", "4"]]


def _random_square(rng, n: int) -> list[list[int]]:
    """A seeded n x n integer matrix, zeros likely, with a zero row and a
    zero column at random; almost never of finite order."""
    rows = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        rows[rng.randrange(n)] = [0] * n
    if rng.random() < 0.5:
        col = rng.randrange(n)
        for row in rows:
            row[col] = 0
    return rows


@pytest.mark.parametrize("domain", ["int", "K-int", "K-ratfunc", "k"])
def test_char_poly_matches_the_cofactor_oracle(domain):
    ring = RING_RESIDUE if domain == "k" else RING_K
    kind = KIND_RATFUNC if domain == "K-ratfunc" else KIND_INT
    descriptor = DvrDescriptor(kind, 5)
    zero, one = ring_zero(ring, descriptor), ring_one(ring, descriptor)
    rng = random.Random(f"char-poly-{domain}")
    for n in range(1, 6):
        cases = [_random_square(rng, n) for _ in range(6 if n < 5 else 2)]
        cases.append([[int(i == j or j == i + 1) for j in range(n)] for i in range(n)])  # a shear
        for rows in cases:
            m = ExactMatrix.from_ints(ring, descriptor, rows)
            if kind == KIND_RATFUNC:  # entries a + b t, off the constants of F_5
                t = descriptor.uniformizer()
                m = ExactMatrix(ring, descriptor, [[a + t * a * a for a in row] for row in m.entries])
            expected = char_series_denominator_cofactor(m)
            if domain == "int":
                assert char_poly(rows, 0, 1) == expected
            elif domain == "k":  # ints, read mod p
                assert tuple(c % 5 for c in char_poly(m.entries, zero, one)) == expected
            else:
                assert char_poly(m.entries, zero, one) == expected


def _rank_one_cases(ring, descriptor, rng) -> list:
    """Seeded matrices of rank 0, 1, 2 and n (as products of n x r and r x n
    factors), plus a rank-2 matrix whose rows are proportional in their first
    nonzero column."""
    n = 4
    cases = [ExactMatrix.from_ints(ring, descriptor, [[0, 3, 0, 1], [0, 6, 1, 2], [0] * n, [0] * n])]
    for r in (0, 1, 2, n):
        for _ in range(8):
            if r == 0:
                rows = [[0] * n for _ in range(n)]
            else:
                left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
                right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
                rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                        for row in left]
            cases.append(ExactMatrix.from_ints(ring, descriptor, rows))
    return cases


@pytest.mark.parametrize("ring,kind", [(RING_K, KIND_INT), (RING_K, KIND_RATFUNC),
                                       (RING_RESIDUE, KIND_INT)])
def test_has_rank_one_matches_rank_over_field(ring, kind):
    descriptor = DvrDescriptor(kind, 5)
    ranks = []
    for m in _rank_one_cases(ring, descriptor, random.Random(131)):
        rank = rank_over_field(m)
        ranks.append(rank)
        if ring == RING_RESIDUE:
            # the rows as ints mod p, in [0, p) and moved into (-p, 0]
            assert has_rank_one(m.entries, 5) == (rank == 1)
            assert has_rank_one([[a - 5 * (a > 2) for a in row] for row in m.entries], 5) \
                == (rank == 1)
        else:
            assert has_rank_one(m.entries) == (rank == 1)
        if ring == RING_K and kind == KIND_INT:
            form = IntMatrix.from_matrix(m)  # rows of D m, ints over Q
            assert has_rank_one(form.rows) == (rank == 1)
    assert {0, 1, 2, 4} <= set(ranks)
