"""Job documents for the benchmark workloads.

A workload is a list of jobs.  Each job is a pair (expectation key, job
document): the document is the JSON object `dvrcert analyze` reads, with
every scalar as a string, and the key names the entry of
`expectations.json` its report must match.  The program sees only the
documents; the seed of `small-batch-conjugated` stays in this file.
"""
from __future__ import annotations

import random

INT = "int-localized"
RATFUNC = "ratfunc-localized"


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _swap(n: int, i: int) -> list[list[int]]:
    """Permutation matrix of the transposition (i, i+1)."""
    m = _identity(n)
    m[i][i] = m[i + 1][i + 1] = 0
    m[i][i + 1] = m[i + 1][i] = 1
    return m


def _diag(*entries: int) -> list[list[int]]:
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def hyperoctahedral(n: int) -> list[list[list[int]]]:
    """W(B_n): the adjacent transpositions and diag(1, ..., 1, -1)."""
    return [_swap(n, i) for i in range(n - 1)] + [_diag(*([1] * (n - 1) + [-1]))]


def symmetric(n: int) -> list[list[list[int]]]:
    """S_n permuting the coordinates of O^n."""
    return [_swap(n, i) for i in range(n - 1)]


def _doc(kind: str, p: int, gens, degree_bound=None, checks=("certify",)) -> dict:
    n = len(gens[0])
    doc = {
        "dvr": {"kind": kind, "p": p},
        "n": n,
        "generators": [
            [[e if isinstance(e, str) else str(e) for e in row] for row in g] for g in gens
        ],
        "checks": list(checks),
    }
    if degree_bound is not None:
        doc["degree_bound"] = degree_bound
    return doc


# -- the two single-job workloads ---------------------------------------------------

FIXED = {
    "g412-ratfunc-deg32": (
        "g412",
        _doc(RATFUNC, 5, [[[0, 1], [1, 0]], [[1, 0], [0, 2]]], degree_bound=32),
    ),
    "wb4-int-checks": (
        "wb4",
        _doc(INT, 5, hyperoctahedral(4), checks=("reflections", "eta", "basis", "molien")),
    ),
}

# -- the seeded batch -----------------------------------------------------------------

# (expectation key, kind, p, generators, degree bound = largest fundamental
# degree, conjugated copies).  The 16 jobs of the first four groups take
# under 0.1 s each and the 12 of the last four over 0.1 s, so the median
# job of a batch is a C_4 job whatever the seed: its conjugates are the
# group as given, as n = 1.
BATCH_GROUPS = (
    # controls: |G| = 2 is not invertible in Z_(2); -I is no reflection group
    ("s2-z2", INT, 2, symmetric(2), 2, 3),
    ("negid-z23", INT, 23, [_diag(-1, -1)], 2, 3),
    ("s2-z3", INT, 3, symmetric(2), 2, 3),
    ("c4-f5t", RATFUNC, 5, [[[2]]], 4, 3),
    ("b2-z3", INT, 3, hyperoctahedral(2), 4, 2),
    ("s3-z5", INT, 5, symmetric(3), 3, 2),
    ("b2-f5t", RATFUNC, 5, hyperoctahedral(2), 4, 2),
    ("c6-f7t", RATFUNC, 7, [_diag(1, 3)], 6, 2),
)


# Entries of a basis change are ints (int kind) or coefficient lists over
# F_p, lowest degree first (ratfunc kind).  A small ring interface keeps the
# matrix code below shared between the two.

class _IntRing:
    zero, one = 0, 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def random_offdiagonal(self, rng: random.Random):
        return rng.choice((-1, 1))

    def format(self, a) -> str:
        return str(a)


class _PolyRing:
    """F_p[t] as trimmed coefficient lists; [] is zero."""

    zero: list = []

    def __init__(self, p: int):
        self.p = p
        self.one = [1]

    def _trim(self, c):
        c = [x % self.p for x in c]
        while c and not c[-1]:
            c.pop()
        return c

    def add(self, a, b):
        size = max(len(a), len(b))
        return self._trim(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(size)]
        )

    def mul(self, a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return self._trim(out)

    def neg(self, a):
        return self._trim([-x for x in a])

    def random_offdiagonal(self, rng: random.Random):
        """a + b*t with b nonzero, so every basis change is non-constant."""
        return self._trim([rng.randrange(self.p), rng.randrange(1, self.p)])

    def format(self, a) -> str:
        terms = [str(c) if k == 0 else f"{c}*t^{k}" for k, c in enumerate(a) if c]
        return "+".join(terms) if terms else "0"

    def embed(self, a: int):
        return self._trim([a])


def _matmul(ring, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = ring.add(acc, ring.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _unit_lower_inverse(ring, low):
    """Inverse of a lower triangular matrix with 1 on the diagonal, by substitution."""
    n = len(low)
    inv = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            acc = ring.zero
            for k in range(j, i):
                acc = ring.add(acc, ring.mul(low[i][k], inv[k][j]))
            inv[i][j] = ring.neg(acc)
    return inv


def _transpose(m):
    return [list(col) for col in zip(*m)]


def random_unimodular(ring, n: int, rng: random.Random):
    """A basis change of O^n and its inverse: A = L * U * P.

    L is lower and U upper triangular, both with 1 on the diagonal and a
    nonzero entry everywhere off it; P permutes coordinates.  det A = +-1,
    so A is in GL_n(O) and its inverse needs no division.
    """
    low = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    up = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            low[i][j] = ring.random_offdiagonal(rng)
            up[j][i] = ring.random_offdiagonal(rng)
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[ring.one if perm[i] == j else ring.zero for j in range(n)] for i in range(n)]
    a = _matmul(ring, _matmul(ring, low, up), pmat)
    low_inv = _unit_lower_inverse(ring, low)
    up_inv = _transpose(_unit_lower_inverse(ring, _transpose(up)))
    a_inv = _matmul(ring, _matmul(ring, _transpose(pmat), up_inv), low_inv)
    return a, a_inv


def conjugate_generators(kind: str, p: int, gens, rng: random.Random):
    """The generators A^-1 g A for one random basis change A, as strings."""
    n = len(gens[0])
    if kind == INT:
        ring = _IntRing()
        lifted = gens
    else:
        ring = _PolyRing(p)
        lifted = [[[ring.embed(e) for e in row] for row in g] for g in gens]
    a, a_inv = random_unimodular(ring, n, rng)
    return [
        [[ring.format(e) for e in row] for row in _matmul(ring, _matmul(ring, a_inv, g), a)]
        for g in lifted
    ]


def small_batch(seed: int, index: int) -> list[tuple[str, dict]]:
    """Batch `index` of a seed: each group as given and conjugated, in seeded order."""
    rng = random.Random(f"{seed}/{index}")
    jobs = []
    for key, kind, p, gens, bound, copies in BATCH_GROUPS:
        jobs.append((key, _doc(kind, p, gens, degree_bound=bound)))
        for _ in range(copies):
            conj = conjugate_generators(kind, p, gens, rng)
            jobs.append((key, _doc(kind, p, conj, degree_bound=bound)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = ("g412-ratfunc-deg32", "wb4-int-checks", "small-batch-conjugated")


def build(workload: str, seed: int, index: int) -> list[tuple[str, dict]]:
    """The jobs of pass `index` of a run: a fresh batch, or the one fixed job again."""
    if workload == "small-batch-conjugated":
        return small_batch(seed, index)
    return [FIXED[workload]]

