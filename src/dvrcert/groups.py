"""Finite matrix groups over the DVR: closure, reflections, reduction.

A pseudo-reflection here is an invertible matrix of finite order whose
difference from the identity has rank one over the fraction field: it fixes
a hyperplane pointwise and scales a complementary line by its determinant.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ClosureCapExceededError, NotInvertibleError
from .linalg import (
    DEFAULT_ORDER_CAP,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    det,
    matrix_order,
    rank_over_field,
    reduce_matrix,
)
from .scalars import DvrDescriptor, invert_mod_group_order

DEFAULT_CLOSURE_CAP = 20000


class MatrixGroup:
    """Fully enumerated finite subgroup of GL_n(O) with generator provenance.

    Elements are listed in breadth-first order starting from the identity,
    applying the generators in a canonical sorted order, so the element
    numbering is deterministic for a given generating set.

    `memo` holds what several checks share, and lives and dies with the
    group: the elements over K and over k (see `over`), keyed by
    ("elements", ring), and per-degree results (invariant bases, H^1
    contributions), keyed by (quantity, degree, ring).
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

    def generators_over(self, ring: str) -> list:
        """The closure generators over O, K or k, taken from `over(ring)`."""
        elements = self.over(ring)
        return [elements[self._index[g]] for g in self.closure_generators]

    def bfs_parent(self, i: int):
        """(parent index, closure-generator index) for element i; None for the identity."""
        return self._bfs_parent[i]

    def element_order(self, i: int) -> int:
        return matrix_order(self.elements[i], cap=self.order)

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
    closure aborts once more than `cap` elements appear.
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
        if d.is_zero() or not d.is_unit():
            raise NotInvertibleError(
                f"generator {i} is not in GL_n(O): determinant {d} is not a unit"
            )
    if n is None:
        raise ValueError("at least one generator or an explicit dimension is required")

    closure_gens = sorted(set(generators), key=ExactMatrix.sort_key)
    elements, parents = _closure(ExactMatrix.identity(RING_O, descriptor, n), closure_gens, cap)
    return MatrixGroup(descriptor, n, generators, closure_gens, elements, parents)


def _closure(identity, generators, cap: int):
    """Breadth-first closure of the identity under right multiplication by the generators.

    Returns the elements in discovery order and, for each, its (parent
    index, generator index), None for the identity; raises once more than
    `cap` elements appear.
    """
    elements = [identity]
    parents: list = [None]
    index = {identity: 0}
    for cur, element in enumerate(elements):  # the list grows while it is walked
        for gi, g in enumerate(generators):
            nxt = element * g
            if nxt not in index:
                if len(elements) >= cap:
                    raise ClosureCapExceededError(
                        f"closure exceeded {cap} elements; group too large or infinite"
                    )
                index[nxt] = len(elements)
                elements.append(nxt)
                parents.append((cur, gi))
    return elements, parents


def trivial_group(descriptor: DvrDescriptor, n: int) -> MatrixGroup:
    ident = ExactMatrix.identity(RING_O, descriptor, n)
    return MatrixGroup(descriptor, n, (), (), (ident,), (None,))


# -- pseudo-reflections ---------------------------------------------------------


def reflection_data(m: ExactMatrix, cap: int = DEFAULT_ORDER_CAP):
    """(eigenvalue, order) when m is a pseudo-reflection, else None.

    The nontrivial eigenvalue equals det(m), since the other eigenvalues are
    all 1; no root-finding is needed.
    """
    if rank_over_field(m.minus_identity().to_field()) != 1:
        return None
    lam = det(m)
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
    subgroup, _ = _closure(
        group.identity(), [group.elements[i] for i, _, _ in found], group.order
    )
    generated = len(subgroup) == group.order
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

    Classifies pseudo-reflections among the reduced images (rank test over
    the residue field) and checks that they generate the image group.
    """
    images, _ = reduction_map(group)
    unique_images = list(dict.fromkeys(images))
    if len(unique_images) == 1:
        return True  # trivial image: vacuously generated
    ident = images[0]  # the identity is element 0
    reflections = []
    for m in unique_images:
        if m == ident:
            continue
        if rank_over_field(m - ident) == 1:
            reflections.append(m)
    # the image is a group, so the closure fills it exactly when it is as large
    reached, _ = _closure(ident, reflections, len(unique_images))
    return len(reached) == len(unique_images)
