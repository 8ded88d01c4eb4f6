import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dvrcert.cli import parse_jobspec
from dvrcert.linalg import RING_O, ExactMatrix
from dvrcert.groups import generate_group
from dvrcert.scalars import DvrDescriptor

from oracles import generators_of, inverse_dense


@pytest.fixture(scope="session")
def z3():
    return DvrDescriptor("int-localized", 3)


@pytest.fixture(scope="session")
def z5():
    return DvrDescriptor("int-localized", 5)


@pytest.fixture(scope="session")
def f5t():
    return DvrDescriptor("ratfunc-localized", 5)


@pytest.fixture(scope="session")
def s2_z3(z3):
    return generate_group([ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]])])


@pytest.fixture(scope="session")
def s3_z5(z5):
    return generate_group([
        ExactMatrix.from_ints(RING_O, z5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
    ])


@pytest.fixture(scope="session")
def b2_z3(z3):
    return generate_group([
        ExactMatrix.from_ints(RING_O, z3, [[0, 1], [1, 0]]),
        ExactMatrix.from_ints(RING_O, z3, [[1, 0], [0, -1]]),
    ])


def halved_b2_z5():
    """B_2 = <swap, diag(1, -1)> over Z_(5) conjugated by diag(2, 1): the
    generators [[0, 1/2], [2, 0]] and [[1, 0], [0, -1]], so the integer
    forms A / D of half the elements have D = 2."""
    z5 = DvrDescriptor("int-localized", 5)
    return generate_group([
        ExactMatrix(RING_O, z5, [[Fraction(0), Fraction(1, 2)], [Fraction(2), Fraction(0)]]),
        ExactMatrix.from_ints(RING_O, z5, [[1, 0], [0, -1]]),
    ])


@pytest.fixture(scope="session")
def b2_z5_halved():
    return halved_b2_z5()


@pytest.fixture(scope="session")
def c4_f5t(f5t):
    return generate_group([ExactMatrix.from_ints(RING_O, f5t, [[2]])])


@pytest.fixture(scope="session")
def b2_f5t_twisted(f5t):
    """B_2 = <swap, diag(1, -1)> over F_5(t), conjugated by [[1, t], [t, 1 + t^2]]."""
    t, one = f5t.uniformizer(), f5t.one()
    basis = ExactMatrix(RING_O, f5t, [[one, t], [t, one + t * t]])
    basis_inv = inverse_dense(basis)
    return generate_group(
        [basis * ExactMatrix.from_ints(RING_O, f5t, g) * basis_inv
         for g in ([[0, 1], [1, 0]], [[1, 0], [0, -1]])],
        descriptor=f5t,
    )


@pytest.fixture(scope="session")
def neg_identity_z23():
    d23 = DvrDescriptor("int-localized", 23)
    return generate_group([ExactMatrix.from_ints(RING_O, d23, [[-1, 0], [0, -1]])])


@pytest.fixture(scope="session")
def reflection_and_sign_z5(z5):
    """<diag(-1, 1, 1), -I>: order 4, generated by a reflection and a non-reflection."""
    return generate_group([
        ExactMatrix.from_ints(RING_O, z5, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ExactMatrix.from_ints(RING_O, z5, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]),
    ])


A4_CARTAN = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def weyl_a4_generators(p: int) -> list:
    """The simple reflections of W(A_4) = S_5 on its root lattice over
    Z_(p): s_i = I - e_i (row i of the A_4 Cartan matrix), which sends the
    simple root e_i to -e_i.  Their rows are dense where a permutation
    group's are monomial."""
    descriptor = DvrDescriptor("int-localized", p)
    return [ExactMatrix.from_ints(RING_O, descriptor, [
        [int(r == c) - (A4_CARTAN[i][c] if r == i else 0) for c in range(4)]
        for r in range(4)]) for i in range(4)]


@pytest.fixture(scope="session")
def wa4_z7():
    """W(A_4) over Z_(7): order 120, a unit, with 10 reflections and
    fundamental degrees 2, 3, 4, 5."""
    return generate_group(weyl_a4_generators(7))


@pytest.fixture(scope="session")
def wa4_z5():
    """W(A_4) over Z_(5): 5 divides its order 120, so the hypothesis fails."""
    return generate_group(weyl_a4_generators(5))


F4_SIMPLE_ROOTS = [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1),
                   (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))]


def weyl_f4_generators(p: int) -> list:
    """The simple reflections of W(F_4) over Z_(p): s_a = I - 2 a a^T / (a . a)
    for the simple roots e2 - e3, e3 - e4, e4 and (e1 - e2 - e3 - e4) / 2.
    The last has entries +-1/2, so some elements' integer forms A / D have
    D = 2."""
    descriptor = DvrDescriptor("int-localized", p)
    return [ExactMatrix(RING_O, descriptor, [
        [int(r == c) - 2 * Fraction(a[r]) * a[c] / sum(x * x for x in a) for c in range(4)]
        for r in range(4)]) for a in F4_SIMPLE_ROOTS]


@pytest.fixture(scope="session")
def wf4_z5():
    """W(F_4) over Z_(5): order 1152 = 2^7 3^2, a unit, with 24 reflections
    and fundamental degrees 2, 6, 8, 12."""
    return generate_group(weyl_f4_generators(5))


@pytest.fixture(scope="session")
def wf4_z3():
    """W(F_4) over Z_(3): 3 divides its order 1152, so the hypothesis fails."""
    return generate_group(weyl_f4_generators(3))


@pytest.fixture(scope="session")
def s2_z2():
    d2 = DvrDescriptor("int-localized", 2)
    return generate_group([ExactMatrix.from_ints(RING_O, d2, [[0, 1], [1, 0]])])


def random_unit_int(rng: random.Random, p: int) -> int:
    while True:
        u = rng.randint(-3 * p, 3 * p)
        if u % p:
            return u


def random_unimodular(descriptor: DvrDescriptor, n: int, rng: random.Random) -> ExactMatrix:
    """Random basis change of O^n: unit-triangular factors and a permutation."""
    lower = [[0] * n for _ in range(n)]
    upper = [[0] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = 1
        upper[i][i] = random_unit_int(rng, descriptor.p)
        for j in range(i):
            lower[i][j] = rng.randint(-2, 2)
            upper[j][i] = rng.randint(-2, 2)
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    m = ExactMatrix.from_ints(RING_O, descriptor, lower)
    m = m * ExactMatrix.from_ints(RING_O, descriptor, upper)
    return m * ExactMatrix.from_ints(RING_O, descriptor, pmat)


def over_1_plus_t(group):
    """A ratfunc group conjugated by diag(1 + t, 1, ..., 1): its entries get
    1 + t, a unit of O, in their denominators."""
    descriptor, n = group.descriptor, group.n
    stretch = [[descriptor.from_int(int(i == j)) for j in range(n)] for i in range(n)]
    stretch[0][0] = descriptor.one() + descriptor.uniformizer()
    stretch = ExactMatrix(RING_O, descriptor, stretch)
    return generate_group(
        [stretch * g * inverse_dense(stretch) for g in generators_of(group)], descriptor=descriptor
    )


def constant_ratfunc_groups() -> list:
    """Groups inside GL_2(F_p): B_2 = <swap, diag(1, -1)> and G(4,1,2) =
    <swap, diag(1, 2)> over F_5(t), and <diag(1, 3)> over F_7(t)."""
    f5t = DvrDescriptor("ratfunc-localized", 5)
    f7t = DvrDescriptor("ratfunc-localized", 7)
    swap = [[0, 1], [1, 0]]
    return [
        generate_group([ExactMatrix.from_ints(RING_O, descriptor, g) for g in gens])
        for descriptor, gens in ((f5t, (swap, [[1, 0], [0, -1]])),
                                 (f7t, ([[1, 0], [0, 3]],)),
                                 (f5t, (swap, [[1, 0], [0, 2]])))
    ]


def unimodular_over_t(descriptor: DvrDescriptor, n: int, rng: random.Random) -> ExactMatrix:
    """A random basis change of O^n = F_p[t]_(t)^n that is not constant:
    L * U * P, with L and U unit triangular, every entry off their
    diagonals a + b*t with b nonzero, and P a permutation; det = +-1."""
    p, t = descriptor.p, descriptor.uniformizer()
    lower = [[descriptor.from_int(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [list(row) for row in lower]
    for i in range(n):
        for j in range(i):
            for m, (r, c) in ((lower, (i, j)), (upper, (j, i))):
                m[r][c] = (descriptor.from_int(rng.randrange(p))
                           + descriptor.from_int(rng.randrange(1, p)) * t)
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    return (ExactMatrix(RING_O, descriptor, lower) * ExactMatrix(RING_O, descriptor, upper)
            * ExactMatrix.from_ints(RING_O, descriptor, pmat))


def conjugated_over_t(group, rng: random.Random):
    """The ratfunc group U^-1 G U for a random `unimodular_over_t` U: the same
    invariant theory, with entries that are not constants."""
    u = unimodular_over_t(group.descriptor, group.n, rng)
    u_inv = inverse_dense(u)
    return generate_group([u_inv * g * u for g in generators_of(group)],
                          descriptor=group.descriptor)


def benchmark_workloads():
    """The benchmark's job-document module."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
    import workloads

    return workloads


def group_of(doc: dict):
    """The group of a job document, built as `dvrcert analyze` builds it."""
    spec = parse_jobspec(doc)
    return generate_group(spec.generators, descriptor=spec.dvr)


def int_batch_conjugates(rng: random.Random, copies: int = 2) -> list:
    """Copies of the benchmark batch's int groups past the gate (S_2 over
    Z_(3), B_2 over Z_(3), S_3 over Z_(5), -I over Z_(23)), each
    conjugated by the benchmark's `conjugate_generators` with rng."""
    workloads = benchmark_workloads()
    return [
        group_of(workloads._doc(kind, p, workloads.conjugate_generators(kind, p, gens, rng)))
        for key, kind, p, gens, _, _ in workloads.BATCH_GROUPS
        if kind == workloads.INT and key != "s2-z2"
        for _ in range(copies)
    ]
