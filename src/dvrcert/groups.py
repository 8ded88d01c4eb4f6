"""Finite matrix groups over the DVR: closure, reflections, reduction.

A pseudo-reflection here is an invertible matrix of finite order whose
difference from the identity has rank one over K (or k, for a reduced image):
it fixes a hyperplane pointwise and scales a complementary line by its
determinant.  The rank is tested by cross-multiplication (`has_rank_one`),
with no division.  Reflections generate G (or its image over k) exactly when
their closure reaches G's own generators; `_generated_by` alone decides this.

For the int kind the closure that enumerates G runs on `IntMatrix` forms
A / D, so its products, hashes and membership tests are integer work; the
ratfunc kind closes the `ExactMatrix` values.  Both run the one `_closure`,
so the elements and their breadth-first parents do not depend on the form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ClosureCapExceededError, NotInvertibleError
from .linalg import (
    DEFAULT_ORDER_CAP,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    IntMatrix,
    det,
    has_rank_one,
    matrix_order,
    reduce_matrix,
    ring_one,
)
from .scalars import KIND_INT, DvrDescriptor, invert_mod_group_order

DEFAULT_CLOSURE_CAP = 20000


class MatrixGroup:
    """Fully enumerated finite subgroup of GL_n(O) with generator provenance.

    Elements are listed in breadth-first order starting from the identity,
    applying the generators in a canonical sorted order, so the element
    numbering is deterministic for a given generating set.

    `memo` holds what several checks share, and lives and dies with the
    group: the elements over K and over k (see `over`), keyed by
    ("elements", ring); per-degree results (invariant bases, H^1
    contributions), keyed by (quantity, degree, ring); and, keyed by
    ("images", ring, element index), an element's images of the monomials
    of the highest degree its action matrices reached (see
    `polys.element_action_matrix`).
    """

    __slots__ = ("descriptor", "n", "generators", "closure_generators", "elements",
                 "order", "_index", "_bfs_parent", "memo")

    def __init__(self, descriptor, n, generators, closure_generators, elements, bfs_parent):
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "closure_generators", tuple(closure_generators))
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "order", len(elements))
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(elements)})
        object.__setattr__(self, "_bfs_parent", tuple(bfs_parent))
        object.__setattr__(self, "memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("groups are immutable once enumerated")

    def index_of(self, element: ExactMatrix) -> int:
        return self._index[element]

    def __contains__(self, element) -> bool:
        return element in self._index

    def identity(self) -> ExactMatrix:
        return self.elements[0]

    def over(self, ring: str) -> tuple:
        """The elements as matrices over O, K or k, in the order of `elements`.

        The one place where group elements move to the fraction field (a
        retag) or the residue field (entrywise reduction); each ring's
        copy is built once and kept in `memo`.
        """
        if ring == RING_O:
            return self.elements
        key = ("elements", ring)
        if key not in self.memo:
            convert = reduce_matrix if ring == RING_RESIDUE else ExactMatrix.to_field
            self.memo[key] = tuple(convert(m) for m in self.elements)
        return self.memo[key]

    def integer_forms(self) -> tuple:
        """The int kind's elements as `IntMatrix` forms, in the order of
        `elements`: the closure's own, or built once; kept in `memo` under
        ("elements", "int")."""
        key = ("elements", "int")
        if key not in self.memo:
            self.memo[key] = tuple(map(IntMatrix.from_matrix, self.elements))
        return self.memo[key]

    def generators_over(self, ring: str) -> list:
        """The closure generators over O, K or k, taken from `over(ring)`."""
        elements = self.over(ring)
        return [elements[self._index[g]] for g in self.closure_generators]

    def bfs_parent(self, i: int):
        """(parent index, closure-generator index) for element i; None for the identity."""
        return self._bfs_parent[i]

    def __repr__(self) -> str:
        return (
            f"MatrixGroup(n={self.n}, order={self.order}, "
            f"p={self.descriptor.p}, kind={self.descriptor.kind})"
        )


def generate_group(
    generators,
    descriptor: DvrDescriptor | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> MatrixGroup:
    """Breadth-first closure of the generators under multiplication.

    Every generator must be invertible over O (unit determinant); the
    closure aborts once more than `cap` elements appear.  For the int kind
    it runs on the `IntMatrix` forms of the generators, so that products,
    hashing and membership are integer work, and the elements are turned
    back into `ExactMatrix` once at the end; the forms stay in `memo` for
    `integer_forms`.  The ratfunc kind closes the `ExactMatrix` values.
    """
    generators = list(generators)
    if descriptor is None:
        if not generators:
            raise ValueError("descriptor required when no generators are given")
        descriptor = generators[0].descriptor
    n = generators[0].rows if generators else None
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
    if n is None:
        raise ValueError(
            "at least one generator is required; "
            "use trivial_group(descriptor, n) for the trivial group"
        )

    closure_gens = sorted(set(generators), key=ExactMatrix.sort_key)
    ident = ExactMatrix.identity(RING_O, descriptor, n)
    if descriptor.kind != KIND_INT:
        elements, parents = zip(*_closure(ident, closure_gens, cap))
        return MatrixGroup(descriptor, n, generators, closure_gens, elements, parents)
    forms, parents = zip(*_closure(
        IntMatrix.from_matrix(ident), list(map(IntMatrix.from_matrix, closure_gens)), cap
    ))
    group = MatrixGroup(descriptor, n, generators, closure_gens,
                        _exact_elements(forms, descriptor), parents)
    group.memo["elements", "int"] = forms
    return group


def _exact_elements(forms, descriptor: DvrDescriptor) -> list:
    """The `IntMatrix` forms as O-matrices, with one shared `Fraction` per
    distinct value."""
    by_pair: dict = {}  # (numerator, denominator) -> Fraction
    by_value: dict = {}  # Fraction -> the one object kept for that value

    def value(a: int, den: int) -> Fraction:
        v = by_pair.get((a, den))
        if v is None:
            v = Fraction(a, den)
            v = by_pair[a, den] = by_value.setdefault(v, v)
        return v

    return [
        ExactMatrix._of(RING_O, descriptor, [[value(a, f.den) for a in row] for row in f.rows])
        for f in forms
    ]


def _closure(identity, generators, cap: int):
    """Breadth-first closure of the identity under right multiplication by the generators.

    Lazily yields each element as it is first reached, with its (parent
    index, generator index), starting with (identity, None), so a caller
    stops the multiplying by stopping the iteration; raises once more than
    `cap` elements appear.
    """
    elements = [identity]
    seen = {identity}
    yield identity, None
    for cur, element in enumerate(elements):  # the list grows while it is walked
        for gi, g in enumerate(generators):
            nxt = element * g
            if nxt not in seen:
                if len(elements) >= cap:
                    raise ClosureCapExceededError(
                        f"closure exceeded {cap} elements; group too large or infinite"
                    )
                seen.add(nxt)
                elements.append(nxt)
                yield nxt, (cur, gi)


def _generated_by(group: MatrixGroup, ring: str, reflections) -> bool:
    """Do the reflections generate the group's image over `ring` (O or k)?

    The image is generated by `group.generators_over(ring)`, so this holds
    exactly when the reflections' closure reaches all of them; it stops at
    the last one.  A subgroup has at most |G| elements, which caps it.
    """
    missing = set(group.generators_over(ring))
    for element, _ in _closure(group.over(ring)[0], reflections, group.order):
        missing.discard(element)
        if not missing:
            return True
    return False


def trivial_group(descriptor: DvrDescriptor, n: int) -> MatrixGroup:
    ident = ExactMatrix.identity(RING_O, descriptor, n)
    return MatrixGroup(descriptor, n, (), (), (ident,), (None,))


# -- pseudo-reflections ---------------------------------------------------------


def reflection_data(m: ExactMatrix, cap: int = DEFAULT_ORDER_CAP):
    """(eigenvalue, order) when m is a pseudo-reflection, else None.

    rank(m - I) = 1 over K or k is decided by `has_rank_one`, by
    cross-multiplication with no division.  The nontrivial eigenvalue is
    det(m), since the other eigenvalues are all 1; with m - I = u v^T it
    is 1 + v^T u = 1 + trace(m - I), so no determinant and no root-finding
    is needed.
    """
    shifted = m.minus_identity()
    if not has_rank_one(shifted.to_field()):
        return None
    lam = sum((row[i] for i, row in enumerate(shifted.entries)),
              ring_one(m.ring, m.descriptor))
    order = matrix_order(m, cap=cap)
    return lam, order


def is_pseudo_reflection(m: ExactMatrix, cap: int = DEFAULT_ORDER_CAP) -> bool:
    return reflection_data(m, cap=cap) is not None


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
    """Rank-test every element over K and check the reflection set generates."""
    found = []
    for i, m in enumerate(group.elements):
        data = reflection_data(m, cap=group.order)
        if data is not None:
            found.append((i, data[0], data[1]))
    if group.order == 1:
        return ReflectionReport((), True, True)
    generated = _generated_by(group, RING_O, [group.elements[i] for i, _, _ in found])
    return ReflectionReport(tuple(found), generated, False)


# -- reduction to the residue field ----------------------------------------------


def reduction_map(group: MatrixGroup):
    """Entrywise reduction of every element; returns (images, injective flag).

    Requires the group order to be invertible in the ring.  Under that
    hypothesis injectivity always holds, but it is measured, not assumed.
    """
    invert_mod_group_order(group.order, group.descriptor)
    images = group.over(RING_RESIDUE)
    injective = len(set(images)) == len(images)
    return images, injective


def verify_reduced_reflection_generation(group: MatrixGroup) -> bool:
    """Is the image of the group in GL_n over the residue field reflection-generated?

    Picks out the pseudo-reflections among the reduced images with the same
    rank test as over K, `has_rank_one` on g - I; the images of a finite
    group have finite order, so neither their order nor their determinant
    is needed.  Then asks `_generated_by` whether they generate the image.
    """
    images, _ = reduction_map(group)
    reflections = [m for m in images if has_rank_one(m.minus_identity())]
    return _generated_by(group, RING_RESIDUE, reflections)
