"""Generated-case property suites, runnable standalone.

Each suite draws at least 200 cases from seeded generators spanning both
DVR kinds, several base groups, and random unimodular conjugations.
"""
import random
from fractions import Fraction

from dvrcert.errors import ClosureCapExceededError
from dvrcert.groups import generate_group
from dvrcert.linalg import (
    RING_K,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    IntMatrix,
    det,
    inverse_mod_p,
    kernel_over_field,
    reduce_form,
)
from dvrcert.polys import (
    MultiPoly,
    _eliminated_basis,
    _monomial_actions,
    _orbit_basis,
    act,
    invariant_basis,
    molien_series,
    reynolds,
)
from dvrcert.scalars import KIND_INT, DvrDescriptor

from conftest import over_1_plus_t, random_unimodular
from oracles import (
    element_matrices,
    element_matrix,
    generators_of,
    invariant_dimension_bruteforce,
    inverse_dense,
    poly_scale,
)

Z3 = DvrDescriptor("int-localized", 3)
Z5 = DvrDescriptor("int-localized", 5)
F5T = DvrDescriptor("ratfunc-localized", 5)
F7T = DvrDescriptor("ratfunc-localized", 7)


def _base_groups():
    swap2_z3 = ExactMatrix.from_ints(RING_O, Z3, [[0, 1], [1, 0]])
    sign_z3 = ExactMatrix.from_ints(RING_O, Z3, [[1, 0], [0, -1]])
    swap2_f7 = ExactMatrix.from_ints(RING_O, F7T, [[0, 1], [1, 0]])
    sign_f7 = ExactMatrix.from_ints(RING_O, F7T, [[1, 0], [0, -1]])
    return [
        generate_group([swap2_z3]),
        generate_group([swap2_z3, sign_z3]),
        generate_group([
            ExactMatrix.from_ints(RING_O, Z5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            ExactMatrix.from_ints(RING_O, Z5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        ]),
        generate_group([ExactMatrix.from_ints(RING_O, F5T, [[2]])]),
        generate_group([swap2_f7, sign_f7]),
        generate_group([], Z3, n=2),
    ]


GROUPS = _base_groups()


def _conjugated(group, rng):
    if not group.generator_indices:
        return group
    t = random_unimodular(group.descriptor, group.n, rng)
    t_inv = inverse_dense(t)
    return generate_group(
        [t * g * t_inv for g in generators_of(group)], descriptor=group.descriptor
    )


def _random_poly(group, rng, ring=RING_K, max_degree=3):
    descriptor = group.descriptor
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = [0] * group.n
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(group.n)] += 1
        if ring == RING_RESIDUE:
            coeff = rng.randrange(descriptor.p)
        elif descriptor.kind == "int-localized":
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        else:
            coeff = descriptor.from_int(rng.randint(-6, 6))
        if coeff:
            terms[tuple(exp)] = coeff
    return MultiPoly(ring, descriptor, group.n, terms)


def test_reynolds_idempotence_and_projection():
    rng = random.Random(101)
    cases = 0
    failures = []
    # the Reynolds average runs on the int kind's polynomials alone
    invertible = [g for g in GROUPS
                  if g.order % g.descriptor.p != 0 and g.descriptor.kind == KIND_INT]
    while cases < 200:
        group = invertible[cases % len(invertible)]
        f = _random_poly(group, rng)
        (rf,) = reynolds(group, [f])
        if reynolds(group, [rf]) != (rf,):
            failures.append((group, f, "idempotence"))
        for g in element_matrices(group, RING_K):
            if act(g, rf) != rf:
                failures.append((group, f, "projection"))
                break
        cases += 1
    assert cases >= 200 and not failures


def test_action_law_and_ring_morphism():
    rng = random.Random(202)
    cases = 0
    while cases < 200:
        group = GROUPS[cases % len(GROUPS)]
        g = element_matrix(group, rng.randrange(group.order), RING_K)
        h = element_matrix(group, rng.randrange(group.order), RING_K)
        f = _random_poly(group, rng)
        f2 = _random_poly(group, rng)
        assert act(g * h, f) == act(g, act(h, f))
        assert act(g, f * f2) == act(g, f) * act(g, f2)
        cases += 1
    assert cases >= 200


def test_molien_coefficients_match_invariant_dimensions():
    rng = random.Random(303)
    bound = 6
    cases = 0
    invertible = [g for g in GROUPS if g.order % g.descriptor.p != 0]
    instances = list(invertible)
    for base in invertible:
        for _ in range(4):
            instances.append(_conjugated(base, rng))
    for group in instances:
        series = molien_series(group, bound)
        for d in range(bound + 1):
            # over Q by the averaging oracle: the package solves no system there
            dim = (invariant_dimension_bruteforce(group, d, RING_K)
                   if group.descriptor.kind == KIND_INT
                   else invariant_basis(group, d, RING_K).dimension)
            if series.mod_p:
                assert series.coefficients[d] == dim % group.descriptor.p
            else:
                assert series.coefficients[d] == dim
            cases += 1
    assert cases >= 200


def test_reduce_matrix_is_monoid_homomorphism():
    # the package's reductions to k (`reduce_form` on the int kind's forms,
    # `descriptor.reduce` on ratfunc entries) take products to products
    rng = random.Random(404)
    cases = 0
    descriptors = [Z3, Z5, F5T, F7T]
    while cases < 200:
        descriptor = descriptors[cases % len(descriptors)]
        n = rng.randint(1, 3)
        a = ExactMatrix.from_ints(
            RING_O, descriptor, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        )
        b = ExactMatrix.from_ints(
            RING_O, descriptor, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        )
        p = descriptor.p
        ra, rb = _residue_rows(a), _residue_rows(b)
        product = tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*rb))
                        for row in ra)
        assert _residue_rows(a * b) == product
        cases += 1
    assert cases >= 200


def _residue_rows(m):
    descriptor = m.descriptor
    if descriptor.kind == KIND_INT:
        return reduce_form(IntMatrix.from_matrix(m), descriptor.p)
    return tuple(tuple(descriptor.reduce(a) for a in row) for row in m.entries)


def test_residue_rows_follow_the_product_table():
    # reduction to k is multiplicative: for every element i and closure
    # generator gi, rows(i) * rows(gi) = rows(products[i][gi]) mod p, on
    # both kinds and on conjugates with denominators prime to p
    rng = random.Random(404)
    cases = 0
    stretched = over_1_plus_t(GROUPS[4])
    conjugates = [_conjugated(group, rng) for group in GROUPS for _ in range(3)]
    assert any(a.den.degree > 0 for m in stretched.elements for row in m.entries for a in row)
    assert any(f.den != 1 for group in conjugates[:9] for f in group.elements)
    for group in GROUPS + conjugates + [stretched]:
        p = group.descriptor.p
        rows = group.residue_rows()
        for i, targets in enumerate(group.products):
            for gi, j in enumerate(targets):
                g = rows[group.generator_indices[gi]]
                product = tuple(tuple(sum(a * b for a, b in zip(row, col)) % p
                                      for col in zip(*g)) for row in rows[i])
                assert product == rows[j]
                cases += 1
    assert cases >= 200


def test_values_over_k_stay_ints_in_0_p():
    # a value of k is a plain int, reduced where its container is built:
    # after each operation over k every entry is an int in [0, p)
    rng = random.Random(8128)
    cases = 0
    for descriptor in (Z3, Z5, F5T, F7T):
        p = descriptor.p

        def in_k(values):
            values = list(values)
            assert all(type(a) is int and 0 <= a < p for a in values), values

        def entries(m):
            return (a for row in m.entries for a in row)

        for _ in range(60):
            n = rng.randint(1, 3)
            # the public constructors take any ints and reduce them
            a, b = (ExactMatrix(RING_RESIDUE, descriptor,
                                [[rng.randint(-3 * p, 3 * p) for _ in range(n)] for _ in range(n)])
                    for _ in range(2))
            f, h = (MultiPoly(RING_RESIDUE, descriptor, n, {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3 * p, 3 * p)
                for _ in range(rng.randint(1, 4))}) for _ in range(2))
            c = rng.randrange(p)
            for m in (a, b, a + b, a - b, a * b, a.scale(c), -a):
                in_k(entries(m))
            in_k([det(a)])
            for v in kernel_over_field(a).vectors:
                in_k(v)
            if det(a):
                in_k(x for row in inverse_mod_p(a.entries, p) for x in row)
            for g in (f + h, f - h, f * h, poly_scale(f, c), act(a, f),
                      *(f.partial_derivative(j) for j in range(n))):
                in_k(g.terms.values())
            cases += 1
    assert cases >= 200


def test_closure_idempotence():
    rng = random.Random(505)
    cases = 0
    while cases < 200:
        base = GROUPS[cases % len(GROUPS)]
        group = _conjugated(base, rng) if cases % 3 else base
        regenerated = generate_group(element_matrices(group, RING_O),
                                     descriptor=group.descriptor)
        assert set(regenerated.elements) == set(group.elements)
        assert regenerated.order == group.order
        cases += 1
    assert cases >= 200


def _random_monomial_group(rng, cap: int = 48):
    """<g_1, ..., g_s> over F_p(t), s <= 2, n <= 3, p in {3, 5, 7}: each g
    sends X_j to a_j X_sigma(j), sigma a random permutation and the a_j
    random in F_p^x, constants of F_p(t), so of finite order.  Generators
    whose closure passes the cap are drawn again, so the averaging oracle
    stays quick."""
    while True:
        descriptor = DvrDescriptor("ratfunc-localized", rng.choice((3, 5, 7)))
        n = rng.randint(1, 3)
        generators = []
        for _ in range(rng.randint(1, 2)):
            sigma = rng.sample(range(n), n)
            rows = [[0] * n for _ in range(n)]
            for j in range(n):
                rows[sigma[j]][j] = rng.randrange(1, descriptor.p)
            generators.append(ExactMatrix.from_ints(RING_O, descriptor, rows))
        try:
            return generate_group(generators, cap=cap)
        except ClosureCapExceededError:
            continue


def test_the_orbit_basis_of_a_monomial_group_is_the_eliminated_one():
    # p divides |G| for some groups (a 3-cycle over F_3): there the two paths
    # must still agree, and the averaging oracle, which needs |G| a unit,
    # counts only the others
    rng = random.Random(606)
    cases = counted = 0
    while cases < 200:
        group = _random_monomial_group(rng)
        actions = _monomial_actions(group)
        assert actions is not None
        for d in range(7):
            basis = _orbit_basis(group, d, actions)
            assert basis == _eliminated_basis(group, d, RING_RESIDUE)
            if group.order % group.descriptor.p:
                assert basis.dimension == invariant_dimension_bruteforce(group, d, RING_RESIDUE)
                counted += 1
        cases += 1
    assert counted >= 7 * 150
