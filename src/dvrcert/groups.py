"""Finite matrix groups over the DVR: closure, reflections, reduction.

A pseudo-reflection here is an invertible matrix of finite order whose
difference from the identity has rank one over K (or k, for a reduced image):
it fixes a hyperplane pointwise and scales a complementary line by its
determinant.  The rank is tested by cross-multiplication (`has_rank_one`),
with no division.  Elements generate G exactly when their closure reaches
G's own generators; `_generated_by` alone decides this, on the table, for
the reflections over K and over k alike: past the gate the reduction eta is
injective, so elements generate G exactly when their images generate eta(G).

G acts faithfully on Omega, the orbit of the rows of I under row(x g) =
row(x) g, and the closure runs on it: a point is (d, a_1, ..., a_n), the
row a / d in lowest terms, for the int kind and the row's O-entries for
the ratfunc kind, a generator a permutation of Omega and an element the
indices of its rows.  An element is built from its rows when a stage
first reads it (`MatrixGroup.element`): the int kind's `IntMatrix` form
A / D, in ints, or the ratfunc kind's O-matrix.  The passes over G read
these, its rows or its table alone:
- the rank-one tests and det(I - z g), class functions, once per
  conjugacy class (`conjugacy_classes`): over K on the entries of g - I,
  or for the int kind on the rows of A - D I = D (g - I), with eigenvalue
  1 + tr(A - D I) / D, and over k on the residue rows minus I mod p;
- the reduction to k as rows of ints, each point of Omega reduced once
  and read by index: eta's images, whose injectivity is compared on the
  indices of the distinct residue rows;
- for the int kind, the Reynolds average over G and the invariance test
  of the lifts under the generators, on A in ints, scaled by powers of D
  (`polys.reynolds`, `polys.fixed_by_generators`).
The residue rows serve every polynomial over k, in ints mod p: the
action matrices of the invariant bases and of H^1, and the invariance
test.  So an element is read in two ways only, as its value (`element`)
or its residue rows (`residue_rows`), and no element becomes a matrix
over k.  A ratfunc group's O-matrices serve K too: the
invariant bases and H^1 over K read the generators and the elements H^1
reaches before it stops.  Every ratfunc group whose order is a unit is
conjugate in GL_n(O), by a checked A (`MatrixGroup.conjugator`), to the
group of its constant twins, its residue rows read in GL_n(F_p).  That
group is never built: what it knows is this group's side over k, read
through F_p inside F_p(t).

A group is its closure: `generate_group` builds every group, the trivial
one included, and records the index of every product element * generator
it forms.  H^1, the classes and `_generated_by` read its tree and its
products off that table, so after the closure no element is multiplied.
A reflection's eigenvalue and order are read over K, once per conjugacy
class of G (`classify_reflections`): the order is that of its
eigenvalue, whose powers reach 1 since G is finite (`eigenvalue_order`).
Over k only the rank test runs (`reduced_reflection_indices`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .errors import ClosureCapExceededError, InternalCheckError, NotInvertibleError
from .linalg import (
    RING_K,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    IntMatrix,
    _columns,
    _sparse_dot,
    det,
    has_rank_one,
    inverse_mod_p,
    reduce_form,
    set_fields,
    shifted_rows,
)
from .scalars import DvrDescriptor, invert_mod_group_order

DEFAULT_CLOSURE_CAP = 20000


class MatrixGroup:
    """A fully enumerated finite subgroup of GL_n(O), recorded as its closure
    and nothing else; every other fact is read off that record.

    Elements are listed in breadth-first order starting from the identity,
    applying the distinct generators in `ExactMatrix.sort_key` order, so the
    element numbering is deterministic for a given generating set.
    `orbit` is Omega's points (see the module) and `element_rows[i]` the
    indices of element i's rows in it; `element(i)` builds element i when
    first read, and `residue_rows()[i]` is its reduction to k.  `products[i][gi]` is
    the index of elements[i] times generator gi; its first row names the
    generators (`generator_indices`), and read row-major it first meets
    each element j >= 1 in a row i < j, at the product that reached j:
    the breadth-first tree (`tree`).

    `memo` holds what several checks share, over O, K and k, each key
    naming its ring, and lives and dies with the group: the residue rows
    and eta's injectivity (see `residue_rows`), keyed by ("residues",
    "k"); the generators' monomial actions over k, or None (see
    `polys._monomial_actions`), keyed by ("monomial", "k"); the
    `ReflectionReport` (see `classify_reflections`), keyed by
    ("reflections", "K"); the conjugacy classes (see `conjugacy_classes`),
    keyed by ("classes", "O"); the conjugator A of a ratfunc group (see
    `conjugator`), keyed by ("conjugator", "O"); the lifts to O of the
    generators over k (see `certify._lifts`), keyed by ("lifts",
    generators, "O"); per-degree results (invariant bases, H^1
    contributions), keyed by (quantity, degree, ring); the Molien series,
    keyed by ("molien", bound, ring); the fundamental invariants, keyed by
    ("fundamental", degree bound, ring); and, keyed by ("images", ring,
    element index), an element's images of the monomials of the highest
    degree its action matrices reached (see `polys.element_action_matrix`).
    Nothing in it refers back to the group, so no reference cycle runs
    through it.
    """

    __slots__ = ("descriptor", "n", "orbit", "element_rows", "order", "products", "memo", "_built")

    def __init__(self, descriptor, n, orbit, element_rows, products):
        set_fields(self, descriptor=descriptor, n=n, orbit=tuple(orbit),
                   element_rows=tuple(element_rows), order=len(element_rows),
                   products=tuple(products), memo={}, _built=[None] * len(element_rows))

    def __setattr__(self, name, value):
        raise AttributeError("groups are immutable once enumerated")

    @property
    def generator_indices(self) -> tuple:
        """The element index of each closure generator: identity * g = g."""
        return self.products[0]

    def tree(self) -> list:
        """The breadth-first tree: for each element j >= 1 the product
        (i, gi), elements[i] times generator gi, where the walk first met
        it; None for the identity."""
        first = [None] * self.order
        for i, row in enumerate(self.products):
            for gi, j in enumerate(row):
                if j and first[j] is None:
                    first[j] = (i, gi)
        return first

    def element(self, i: int):
        """Element i, built from its rows the first time a stage reads it
        and then kept: in equal characteristic the O-matrix, else (K = Q)
        the `IntMatrix` form A / D, D the lcm of its rows' d."""
        m = self._built[i]
        if m is None:
            rows = [self.orbit[r] for r in self.element_rows[i]]
            if self.descriptor.equal_characteristic:
                m = ExactMatrix._of(RING_O, self.descriptor, rows)
            else:
                den = lcm(*(row[0] for row in rows))
                m = IntMatrix(den, [[a * (den // row[0]) for a in row[1:]] for row in rows])
            self._built[i] = m
        return m

    @property
    def elements(self) -> tuple:
        """Every element, built (see `element`), as Reynolds and the conjugator read G."""
        return tuple(map(self.element, range(self.order)))

    def residue_rows(self) -> tuple:
        """The elements reduced to k as rows of ints in [0, p), in the order
        of `elements`, read by index off Omega's points, each reduced once
        by `reduce_form` or `descriptor.reduce`; kept in `memo` under
        ("residues", "k") with eta's injectivity (see `reduction_map`)."""
        memo, key = self.memo, ("residues", RING_RESIDUE)
        if key not in memo:
            p, reduce = self.descriptor.p, self.descriptor.reduce
            if self.descriptor.equal_characteristic:
                reduced = [tuple(map(reduce, point)) for point in self.orbit]
            else:  # K = Q: a point (d, *a) of Omega is the integer row a / d
                reduced = [reduce_form(IntMatrix(r[0], [r[1:]]), p)[0] for r in self.orbit]
            distinct = {}
            ids = [distinct.setdefault(row, len(distinct)) for row in reduced]
            rows = tuple(tuple(map(reduced.__getitem__, e)) for e in self.element_rows)
            memo[key] = rows, len(distinct) == len(reduced) or self.order == len(
                {tuple(map(ids.__getitem__, e)) for e in self.element_rows})
        return memo[key][0]

    def conjugator(self) -> ExactMatrix | None:
        """A in GL_n(O) with G = A Gbar A^-1, for a group over an O of equal
        characteristic whose order is a unit of O; None when its generators
        are constant matrices.

        O = F_p[t]_(t) contains its residue field F_p, so each g has a
        constant twin gbar, its residue rows, in GL_n(F_p), a subgroup of
        GL_n(O); eta is a homomorphism, and past the gate injective, so
        the twins form a group Gbar with G's product table.
        A = (1/|G|) sum_g g gbar^-1, with gbar^-1 taken mod p from the
        residue rows, so h A = sum_g hg gbar^-1 = A hbar for every h (put
        g' = hg), and A = I mod t, so A lies in GL_n(O).  Since act(g)
        act(h) = act(gh), f is Gbar-invariant exactly when act(A, f) is
        G-invariant.  Gbar is never built: its elements are the residue
        rows, and a polynomial with coefficients in F_p is fixed by Gbar
        exactly when its reduction is fixed by the images over k.  A is
        checked exactly (see `_check_constant_model`).  A group whose
        generators are constant matrices lies in GL_n(F_p), since products
        of constant matrices are constant: it is its own twin and gets
        None, so nothing is carried.  The answer is decided once and kept
        in `memo` under ("conjugator", "O").  Where char K = 0 there is none:
        O does not contain its residue field (Z_(p) holds no field).
        """
        if not self.descriptor.equal_characteristic:
            raise ValueError("only a group over F_p[t]_(t) is conjugate to a constant group")
        key = ("conjugator", RING_O)
        if key not in self.memo:
            constant = all(a.num.degree <= 0 and a.den.degree == 0
                           for i in self.generator_indices
                           for row in self.element(i).entries for a in row)
            self.memo[key] = None if constant else _conjugator(self)
        return self.memo[key]

    def __repr__(self) -> str:
        return (
            f"MatrixGroup(n={self.n}, order={self.order}, "
            f"p={self.descriptor.p}, kind={self.descriptor.kind})"
        )


def _conjugator(group: MatrixGroup) -> ExactMatrix:
    descriptor = group.descriptor
    inv_order = invert_mod_group_order(group.order, descriptor)  # the gate
    p, total = descriptor.p, None
    for g, rows in zip(group.elements, group.residue_rows()):
        term = g * ExactMatrix.from_ints(RING_O, descriptor, inverse_mod_p(rows, p))
        total = term if total is None else total + term
    a = total.scale(inv_order)
    _check_constant_model(group, a)
    return a


def _check_constant_model(group: MatrixGroup, a: ExactMatrix) -> None:
    """Exact checks that A carries the constant twins onto the group: A has
    entries in O and a unit determinant, reduces to I, and g A = A gbar for
    every generator g, with gbar its residue rows, hence for all of G.  A
    failure is `InternalCheckError`."""
    descriptor = group.descriptor
    if not all(descriptor.is_integral(x) for row in a.entries for x in row):
        raise InternalCheckError("the conjugating matrix A has an entry outside O")
    d = det(a)
    if not descriptor.is_unit(d):
        raise InternalCheckError(f"the conjugating matrix A has determinant {d}, not a unit of O")
    if any(descriptor.reduce(x) != int(i == j)
           for i, row in enumerate(a.entries) for j, x in enumerate(row)):
        raise InternalCheckError("the conjugating matrix A does not reduce to the identity")
    residues = group.residue_rows()
    for i in group.generator_indices:
        g_bar = ExactMatrix.from_ints(RING_O, descriptor, residues[i])
        if group.element(i) * a != a * g_bar:
            raise InternalCheckError(f"g A differs from A gbar for the generator at element {i}")


def generate_group(
    generators,
    descriptor: DvrDescriptor | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
    n: int | None = None,
) -> MatrixGroup:
    """Breadth-first closure of the generators under multiplication.

    Every generator must be an n x n matrix invertible over O (unit
    determinant); the closure aborts once more than `cap` elements, or
    more than n * cap points of Omega (|Omega| <= n |G|), appear.
    `descriptor` and `n` default to the first generator's; with no
    generators both are required, and the closure is {I}, with `products`
    ((),).  It runs on Omega (see the module and `_closure`).
    """
    generators = list(generators)
    if not generators and (descriptor is None or n is None):
        raise ValueError("a group with no generators needs its descriptor and n")
    if descriptor is None:
        descriptor = generators[0].descriptor
    if n is None:
        n = generators[0].rows
    for i, g in enumerate(generators):
        if g.ring != RING_O:
            raise ValueError(f"generator {i} is not a matrix over the DVR")
        if g.descriptor != descriptor:
            raise ValueError(f"generator {i} belongs to a different DVR")
        if not g.is_square or g.rows != n:
            raise ValueError(f"generator {i} is not square of size {n}")
        d = det(g)
        if not descriptor.is_unit(d):
            raise NotInvertibleError(
                f"generator {i} is not in GL_n(O): determinant {d} is not a unit"
            )

    matrices = [ExactMatrix.identity(RING_O, descriptor, n),
                *sorted(set(generators), key=ExactMatrix.sort_key)]
    if descriptor.equal_characteristic:
        identity, zero = matrices[0].entries, descriptor.zero()
        gens = [(None, _columns(m.entries)) for m in matrices[1:]]
    else:  # K = Q: the closure runs on integer rows (d, *a) = a / d
        forms = [IntMatrix.from_matrix(m) for m in matrices]
        identity, zero = [(1, *row) for row in forms[0].rows], 0
        gens = [(f.den, [[(k + 1, c) for k, c in col] for col in _columns(f.rows)])
                for f in forms[1:]]
    return MatrixGroup(descriptor, n, *_closure(identity, gens, n, cap, zero))


def _closure(identity, generators, n: int, cap: int, zero):
    """Breadth-first closure of the identity, its n rows as points, under
    right multiplication by the generators, each (D, its columns' nonzero
    (index, value) pairs), D None for the ratfunc kind.  Each generator
    becomes a permutation of Omega, one sparse dot per column and point
    (put over D d in lowest terms for the int kind), then the elements are
    walked, x g being (perm_g[r] for r in x).  Returns Omega, the elements'
    rows and the table; raises past n * cap points or `cap` elements.
    """
    orbit, where = list(identity), {row: r for r, row in enumerate(identity)}
    perms = [[] for _ in generators]
    for point in orbit:  # the list grows while it is walked
        for perm, (den, cols) in zip(perms, generators):
            image = [_sparse_dot(point, col, zero) for col in cols]
            if den is not None:  # the row a / d in lowest terms
                c = gcd(d := den * point[0], *image)
                image = (d // c, *(a // c for a in image))
            image = tuple(image)
            r = where.setdefault(image, len(orbit))
            if r == len(orbit):
                if r >= n * cap:
                    raise ClosureCapExceededError(
                        f"closure exceeded {n * cap} row images; group too large or infinite")
                orbit.append(image)
            perm.append(r)
    start = tuple(range(n))
    keys, index, products = [start], {start: 0}, []
    for key in keys:  # the list grows while it is walked
        row, get = [], itemgetter(*key)  # a tuple for n > 1, else the one index
        for perm in perms:
            nxt = get(perm) if n > 1 else (get(perm),)
            j = index.setdefault(nxt, len(keys))
            if j == len(keys):
                if j >= cap:
                    raise ClosureCapExceededError(
                        f"closure exceeded {cap} elements; group too large or infinite"
                    )
                keys.append(nxt)
            row.append(j)
        products.append(tuple(row))
    return orbit, keys, products


def _generated_by(group: MatrixGroup, indices) -> bool:
    """Do the elements with these indices generate the group, that is, does
    their closure reach the closure generators?  It multiplies by lookups
    alone: y x is y carried down x's word in the generators, read off the
    breadth-first tree, and it stops once every generator is reached.
    """
    missing = set(group.generator_indices) - {0}
    if missing.issubset(indices):
        return True
    products, first, words = group.products, group.tree(), []
    for x in dict.fromkeys(indices):
        word = []
        while x:
            x, gi = first[x]
            word.insert(0, gi)
        words.append(word)
    reached, seen = [0], {0}
    for y in reached:  # the list grows while it is walked
        for word in words:
            z = y
            for gi in word:
                z = products[z][gi]
            if z not in seen:
                seen.add(z)
                reached.append(z)
                missing.discard(z)
                if not missing:
                    return True
    return False


def conjugacy_classes(group: MatrixGroup) -> tuple:
    """The conjugacy classes, each a tuple of element indices in increasing
    order, ordered by their first index, so {e} comes first; kept in
    `group.memo` under ("classes", "O").

    They are the orbits of x -> g^-1 x g over the closure generators g,
    read off the table: g^-1 is the last power of g before e, and
    g^-1 x = (g^-1 y) h for the tree edge x = y h, one lookup per element.
    """
    key = ("classes", RING_O)
    if key not in group.memo:
        products, first, conjugations = group.products, group.tree(), []
        for gi in range(len(group.generator_indices)):
            left = [0]  # g^-1 x, from x = e
            while products[left[0]][gi]:
                left[0] = products[left[0]][gi]
            for y, h in first[1:]:
                left.append(products[left[y]][h])
            conjugations.append([products[a][gi] for a in left])
        seen, classes = set(), []
        for x in range(group.order):
            if x not in seen:
                seen.add(x)
                orbit = [x]
                for y in orbit:  # the list grows while it is walked
                    for conj in conjugations:
                        if conj[y] not in seen:
                            seen.add(conj[y])
                            orbit.append(conj[y])
                classes.append(tuple(sorted(orbit)))
        group.memo[key] = tuple(classes)
    return group.memo[key]


# -- pseudo-reflections ---------------------------------------------------------


def reflection_eigenvalue(m):
    """The nontrivial eigenvalue of m when m is a pseudo-reflection, else None.

    m is an int-kind element given by its `IntMatrix` form A / D, or an
    `ExactMatrix` over O or K.  rank(m - I) = 1 over K is decided by
    `has_rank_one`, on the entries of m - I, or on the integer rows of
    A - D I = D (m - I), which has the same rank.  The eigenvalue is
    det(m), since the other eigenvalues are all 1; with m - I = u v^T it
    is 1 + v^T u = 1 + trace(m - I), that is 1 + tr(A - D I) / D, so no
    determinant and no root-finding is needed.
    """
    if isinstance(m, IntMatrix):
        den, rows = m.den, m.rows
    elif m.ring == RING_RESIDUE:
        raise ValueError("the eigenvalue of a reflection is read over K, not over k")
    else:
        den, rows = m.descriptor.one(), m.entries
    shifted = shifted_rows(rows, den)
    if not has_rank_one(shifted):
        return None
    lam = sum((row[i] for i, row in enumerate(shifted)), den)
    return Fraction(lam, den) if isinstance(m, IntMatrix) else lam


def eigenvalue_order(lam, descriptor: DvrDescriptor) -> int:
    """The order of a reflection g of a finite group G with eigenvalue lam
    (see `reflection_eigenvalue`).

    For lam != 1, g - I = u v^T with v^T u = lam - 1 != 0, so g is
    diag(1, ..., 1, lam) in a basis over K and its order is that of lam,
    the first power of lam that is 1: g has finite order, so its powers
    reach 1 within |G| steps.  For lam = 1, g = I + N with N^2 = (tr N) N
    = 0, so g^k = I + kN: the order is p, in characteristic p; over Q no
    element of a finite group has lam = 1.
    """
    one = descriptor.one()
    if lam == one:
        return descriptor.p
    power, k = lam, 1
    while power != one:
        power, k = power * lam, k + 1
    return k


@dataclass(frozen=True)
class ReflectionReport:
    """All pseudo-reflections of a group, plus whether they generate it."""

    reflections: tuple  # (element index, eigenvalue, order) triples
    generated_by_reflections: bool
    vacuous: bool  # trivial group: reflection-generated by the empty-set convention

    @property
    def count(self) -> int:
        return len(self.reflections)


def classify_reflections(group: MatrixGroup) -> ReflectionReport:
    """Rank-test G over K and check the reflection set generates.

    Being a reflection, the eigenvalue and its order are class functions,
    so each is read once per conjugacy class, on the first element's
    value as the closure built it (the int kind's integer form).  The
    report is kept in `group.memo` under ("reflections", "K"), so every
    stage that reads the reflections reads one classification.
    """
    key = ("reflections", RING_K)
    if key in group.memo:
        return group.memo[key]
    found = []
    for members in conjugacy_classes(group):
        lam = reflection_eigenvalue(group.element(members[0]))
        if lam is not None:
            order = eigenvalue_order(lam, group.descriptor)
            found += [(i, lam, order) for i in members]
    found.sort()
    vacuous = group.order == 1
    generated = vacuous or _generated_by(group, [i for i, _, _ in found])
    group.memo[key] = ReflectionReport(tuple(found), generated, vacuous)
    return group.memo[key]


# -- reduction to the residue field ----------------------------------------------


def reduction_map(group: MatrixGroup):
    """Reduction eta of every element to k; returns (images, injective flag).

    The images are the residue rows (`MatrixGroup.residue_rows`), rows of
    ints in [0, p), not k-matrices.  Requires the group order to be
    invertible in the ring.  Under that hypothesis injectivity always
    holds, but it is measured, not assumed: the residue rows must be
    pairwise distinct, compared as indices of the residue rows of Omega.
    """
    invert_mod_group_order(group.order, group.descriptor)
    return group.residue_rows(), group.memo["residues", RING_RESIDUE][1]


def reduced_reflection_indices(group: MatrixGroup) -> list:
    """The indices of the elements whose images over k are pseudo-reflections.

    The rank test is `has_rank_one` on the residue rows minus the identity,
    ints in (-p, p), with each cross product compared mod p, once per
    conjugacy class: eta is a homomorphism, so the images of a class are
    conjugate.  The images of a finite group have finite order, so neither
    their order nor their determinant is needed.
    """
    p, rows = group.descriptor.p, group.residue_rows()
    return sorted(i for members in conjugacy_classes(group)
                  if has_rank_one(shifted_rows(rows[members[0]], 1), p) for i in members)


def verify_reduced_reflection_generation(group: MatrixGroup) -> bool:
    """Is the image of the group in GL_n over the residue field reflection-generated?

    Picks out the elements whose images are pseudo-reflections with
    `reduced_reflection_indices`, then asks `_generated_by` whether those
    elements generate G, by words on the group's table.  eta is a
    homomorphism, so if they generate G their images generate eta(G): True
    is always sound.  When eta is injective the converse holds as well, a
    subgroup's image being eta(G) only if the subgroup is G.  Past the
    gate eta is injective, the report's `eta_injective` records it, and
    `certify` requires it for "certified"; a group with a non-injective
    eta is refused at the gate before this runs.  The gate is the one
    `reduction_map` applies, so the eta stage measures injectivity once.
    """
    invert_mod_group_order(group.order, group.descriptor)  # the gate: p must not divide |G|
    return _generated_by(group, reduced_reflection_indices(group))
