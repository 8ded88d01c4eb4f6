"""Certificate assembly for invariant rings over the DVR.

The headline object is the RegularityCertificate: a bundle of exact,
independently recomputable checks witnessing that the invariant ring of a
reflection-generated group is a graded polynomial ring over the DVR.  The
ingredients: fundamental invariants over the residue field and the fraction
field, the degree-by-degree dimension comparison between the two, vanishing
of first cohomology on low-degree pieces, and Reynolds lifts of the residue
generators back to the ring.

For both kinds the invariants stage searches over k alone, and its
generators over K are the lifts of those over k, which the lifts stage
prints as well.  For the int kind the lifts are Reynolds averages, taken
in ints on the closure's integer forms: |G| is a unit of O, so averaging
commutes with reduction, and by graded Nakayama the lifts generate over O
and over K (see `fundamental_invariants`).  The graded table's K column
is the Molien series, exact over Q, and every H^1 piece over Q is 0 by
theorem, so no int-kind stage solves a system over Q.

For the ratfunc kind the invariants, graded and lifts stages read the
group's side over K off its side over k: G = A Gbar A^-1 for a checked A
in GL_n(O) (`MatrixGroup.conjugator`), with Gbar the constant twins in
GL_n(F_p), so what holds over k holds over K for Gbar, read through
F_p inside F_p(t).  What those stages print over K and O is the k side
lifted and carried to G by act(A, .), and no system over F_p(t) is
solved.  H^1 stays on the group; past the gate its K piece is 0 without
one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CertificateConditionError,
    DegreeBoundExhaustedError,
    DvrcertError,
    HypothesisViolationError,
    InternalCheckError,
)
from .groups import (
    MatrixGroup,
    ReflectionReport,
    classify_reflections,
    reduction_map,
    verify_reduced_reflection_generation,
)
from .linalg import (
    RING_K,
    RING_O,
    RING_RESIDUE,
    RowEchelon,
    add_multiple,
    elimination_field,
)
from .polys import (
    MolienSeries,
    MultiPoly,
    act,
    element_action_matrix,
    fixed_by_generators,
    invariant_basis,
    molien_identity_failures,
    molien_series,
    monomial_index,
    monomials,
    polynomial_det_is_nonzero,
    reynolds,
)
from .refbasis import diagonalizing_basis
from .scalars import KIND_INT, invert_mod_group_order

H1_DEGREE_CAP = 5


# -- fundamental invariants -----------------------------------------------------


@dataclass(frozen=True)
class FundamentalInvariants:
    """Homogeneous generators of a polynomial invariant ring over a field."""

    ring: str
    generators: tuple
    degrees: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.generators)


def _weighted_exponents(degrees, total):
    """All exponent tuples e with sum(e_i * degrees_i) == total."""
    if not degrees:
        return [()] if total == 0 else []
    head = degrees[0]
    out = []
    for k in range(total // head + 1):
        for rest in _weighted_exponents(degrees[1:], total - k * head):
            out.append((k,) + rest)
    return out


class _SubalgebraTracker:
    """Degreewise span over k of products of the generators chosen so far."""

    def __init__(self, group: MatrixGroup):
        self.group = group
        self.one = MultiPoly.constant(RING_RESIDUE, group.descriptor, group.n, 1)
        self.generators: list[MultiPoly] = []
        self.degrees: list[int] = []
        self._powers: list[dict[int, MultiPoly]] = []

    def add_generator(self, f: MultiPoly, degree: int) -> None:
        self.generators.append(f)
        self.degrees.append(degree)
        self._powers.append({0: self.one})

    def _power(self, i: int, k: int) -> MultiPoly:
        cache = self._powers[i]
        if k not in cache:
            cache[k] = self._power(i, k - 1) * self.generators[i]
        return cache[k]

    def product_span(self, degree: int) -> RowEchelon:
        """The echelon of the degree-d products' coordinates, a
        `RowEchelon` over F_p in ints mod p."""
        index = monomial_index(self.group.n, degree)
        span = RowEchelon(p=self.group.descriptor.p)
        for exps in _weighted_exponents(tuple(self.degrees), degree):
            prod = self.one
            for i, k in enumerate(exps):
                if k:
                    prod = prod * self._power(i, k)
            span.add(prod.coordinates(index))
        return span


def fundamental_invariants(
    group: MatrixGroup, ring: str, degree_bound: int
) -> FundamentalInvariants:
    """n fundamental invariants over k, by a greedy degree-ascending search
    (`_greedy_fundamentals`), verified; over K, the lifts of those over k.

    Each is found once per group, field and bound, its outcome, a failure
    included, kept in `group.memo` under ("fundamental", bound, ring).
    The one search is over k; the generators over K are those over k
    lifted to O (`_lifts`), and fail as those over k do.

    For the int kind the lifts are Reynolds averages.  |G| is a unit of O,
    so the Reynolds operator R commutes with reduction, and O[X]^G_d =
    R(O[X]_d) is a direct summand of O[X]_d: free, of rank
    dim_k k[X]^G_d = dim_K K[X]^G_d.  The lift f~_i reduces to the generator
    f_i over k, since R(f_i) = f_i.  The products of the f~ of degree d
    reduce to those of the f, which span k[X]^G_d up to the bound, so by
    graded Nakayama they span O[X]^G_d, and tensoring with K, K[X]^G_d.
    The Jacobian of the f~ reduces to that of the f, which is nonzero, so
    it is nonzero over K, and the degrees are those over k.  So no search,
    no basis and no Jacobian over Q is computed; two exact checks stay on
    each lift, that it reduces to its generator and is fixed by every
    generator of G (`polys.fixed_by_generators`, in ints), and a failure
    is `InternalCheckError`.

    For the ratfunc kind the lifts are carried to G by act(A, .), with A
    from `MatrixGroup.conjugator` (not carried when A is None).  Gbar, the
    constant twins, lies in GL_n(F_p), so its search over K would
    eliminate the lifts of the rows over k and adjoin the lifts of the
    generators over k.  Each check of `_check_fundamental_conditions` on
    those lifts over K is the check over k, computed on constants of F_p
    embedded in F_p(t): the same residue rows, degrees and reflection
    count, and the same Jacobian evaluation points, so it is not run
    again.  Since g A = A gbar for every g, act(A, .) maps Gbar's
    invariants onto G's degree by degree, and A is invertible over O, so
    the carried generators are fundamental invariants of G over K.
    """
    if ring not in (RING_K, RING_RESIDUE):
        raise ValueError("fundamental invariants are found over a field (K or k)")
    invert_mod_group_order(group.order, group.descriptor)
    memo, key = group.memo, ("fundamental", degree_bound, ring)
    if key not in memo:
        try:
            memo[key] = (_lifted_fundamentals(group, degree_bound) if ring == RING_K
                         else _greedy_fundamentals(group, degree_bound))
        except DvrcertError as exc:
            # a copy with no traceback, whose frames would hold the group
            memo[key] = type(exc)(*exc.args)
    found = memo[key]
    if isinstance(found, DvrcertError):
        raise type(found)(*found.args)
    return found


def _lifted_fundamentals(group: MatrixGroup, degree_bound: int) -> FundamentalInvariants:
    """The lifts of the generators over k (`_lifts`) as generators over K;
    for the int kind each is first checked to reduce to its generator and
    to be fixed by the generators of G."""
    over_k = fundamental_invariants(group, RING_RESIDUE, degree_bound)
    lifts = _lifts(group, over_k.generators)
    if group.descriptor.kind == KIND_INT:
        fixed = fixed_by_generators(group, lifts)
        for i, (lift, f_bar) in enumerate(zip(lifts, over_k.generators)):
            if lift.reduce() != f_bar:
                raise InternalCheckError(
                    f"the Reynolds lift of generator {i} over k does not reduce to it")
            if not fixed[i]:
                raise InternalCheckError(
                    f"the Reynolds lift of generator {i} over k is not invariant")
    return FundamentalInvariants(
        RING_K, tuple(MultiPoly(RING_K, f.descriptor, f.n, f.terms) for f in lifts),
        over_k.degrees)


def _lifts(group: MatrixGroup, generators: tuple) -> tuple:
    """The invariants over O that lift the generators over k, found once
    and kept in `memo` under ("lifts", generators, "O"): the generators
    over K and `lift_fundamentals` read the same lifts.  For the int kind
    the Reynolds averages of their coefficientwise lifts, in one pass over
    G; for the ratfunc kind their lifts carried by act(A, .) for a group
    G = A Gbar A^-1 (`MatrixGroup.conjugator`), or the lifts themselves
    when A is None."""
    key = ("lifts", generators, RING_O)
    if key not in group.memo:
        lifted = tuple(f.lift(RING_O) for f in generators)
        if group.descriptor.kind == KIND_INT:
            group.memo[key] = reynolds(group, lifted)
        else:
            a = group.conjugator()
            group.memo[key] = lifted if a is None else tuple(act(a, f) for f in lifted)
    return group.memo[key]


def _greedy_fundamentals(group: MatrixGroup, degree_bound: int) -> FundamentalInvariants:
    """Greedy degree-ascending search over k for n fundamental invariants.

    At each degree the invariant subspace is compared with the span of
    products of the generators found so far; new generators are adjoined
    from the echelonized complement, lowest pivot first.  The returned
    system is verified: n homogeneous invariant generators, degree product
    equal to the group order, degree excess equal to the group's one count
    of reflections (`classify_reflections`), nonzero Jacobian, and
    generation of every invariant up to the bound.
    """
    n = group.n
    tracker = _SubalgebraTracker(group)
    mismatches: list[str] = []
    for d in range(1, degree_bound + 1):
        inv = invariant_basis(group, d, RING_RESIDUE)
        basis, index = monomials(group.n, d), monomial_index(group.n, d)
        span = tracker.product_span(d)
        if span.rank > inv.dimension:
            raise InternalCheckError(
                f"product span exceeds the invariant space at degree {d}"
            )
        for candidate in inv.polys:
            if span.rank == inv.dimension:
                break
            reduced = span.reduce(candidate.coordinates(index))
            if not reduced:
                continue
            if len(tracker.generators) == n:
                mismatches.append(
                    f"degree {d}: invariants beyond the subalgebra of the first "
                    f"{n} generators; the invariant ring is not free on them"
                )
                break
            span.add(reduced)  # stored with a leading one at its least column
            tracker.add_generator(MultiPoly.from_coordinates(
                RING_RESIDUE, group.descriptor, basis, span.pivot_rows[min(reduced)]), d)
        if span.rank != inv.dimension and len(tracker.generators) == n:
            mismatches.append(
                f"degree {d}: invariant dimension {inv.dimension} but only "
                f"{span.rank} reachable from generator products"
            )
    if len(tracker.generators) < n:
        raise DegreeBoundExhaustedError(
            f"only {len(tracker.generators)} of {n} fundamental invariants found "
            f"up to degree {degree_bound}; inconclusive: raise the degree bound"
        )
    result = FundamentalInvariants(
        RING_RESIDUE, tuple(tracker.generators), tuple(tracker.degrees)
    )
    mismatches.extend(_check_fundamental_conditions(group, result))
    if mismatches:
        raise CertificateConditionError("; ".join(mismatches))
    return result


def _check_fundamental_conditions(group: MatrixGroup, inv: FundamentalInvariants) -> list[str]:
    problems = []
    if inv.n != group.n:
        problems.append(f"{inv.n} generators for {group.n} variables")
    reflection_count = classify_reflections(group).count
    prod, excess = degree_identity_failures(inv.degrees, group.order, reflection_count)
    if prod is not None:
        problems.append(f"degree product {prod} differs from the group order {group.order}")
    if excess is not None:
        problems.append(
            f"degree excess {excess} differs from the reflection count {reflection_count}"
        )
    fixed = fixed_by_generators(group, inv.generators)
    for i, f in enumerate(inv.generators):
        if not f.is_homogeneous() or f.is_zero():
            problems.append(f"generator {i} is not homogeneous and nonzero")
        if not fixed[i]:
            problems.append(f"generator {i} is not invariant")
    if not jacobian_independence(inv):
        problems.append("Jacobian determinant vanishes: generators are dependent")
    return problems


def degree_identity_failures(degrees, order: int, reflection_count: int) -> tuple:
    """The two identities that the fundamental degrees d_i of a reflection
    group satisfy: prod d_i = |G| and sum (d_i - 1) = the number of
    reflections.  Returns (degree product, degree excess), each replaced by
    None when its identity holds.
    """
    prod = math.prod(degrees)
    excess = sum(d - 1 for d in degrees)
    return (None if prod == order else prod,
            None if excess == reflection_count else excess)


def jacobian_independence(inv: FundamentalInvariants) -> bool:
    """True iff the determinant of the formal Jacobian matrix is nonzero."""
    return polynomial_det_is_nonzero([
        [f.partial_derivative(j) for j in range(f.n)]
        for f in inv.generators
    ])


# -- graded comparison ------------------------------------------------------------


def graded_isomorphism_check(group: MatrixGroup, degree_bound: int):
    """Rows (d, dim over K, dim over k, equal?) for d up to the bound.

    The dimension over k is that of the invariant basis over F_p.  For the
    int kind the dimension over K is the Molien coefficient
    (`polys.molien_series`, kept in `group.memo` and shared with the
    molien stage): K = Q has characteristic 0, so the coefficient of z^d
    is dim_K K[X]^G_d exactly.  Each row then compares a character sum
    over Q with an elimination over F_p, and no system over Q is solved.

    For the ratfunc kind the dimension over K is the dimension over k:
    act(A, .) maps the invariants of degree d of Gbar, the constant twins
    (`MatrixGroup.conjugator`), onto G's, and Gbar's system over K has its
    entries in F_p, so its reduced echelon form over K is the one over
    F_p.  No system over F_p(t) is solved, and the two columns agree by
    that argument alone; `tests/test_certify.py` keeps an independent
    check of the K column against an elimination over F_p(t).
    """
    invert_mod_group_order(group.order, group.descriptor)
    over_q = None
    if group.descriptor.kind == KIND_INT:
        over_q = molien_series(group, degree_bound).coefficients
    rows = []
    for d in range(degree_bound + 1):
        dim_res = invariant_basis(group, d, RING_RESIDUE).dimension
        dim_k_field = dim_res if over_q is None else over_q[d]
        rows.append((d, dim_k_field, dim_res, dim_k_field == dim_res))
    return tuple(rows)


# -- first cohomology ---------------------------------------------------------------


def _h1_exact_degree(group: MatrixGroup, degree: int, ring: str) -> int:
    """dim Z1 - dim B1 for cocycles valued in the degree-d homogeneous piece.

    A cocycle is determined by its values on the closure generators; the
    remaining conditions are the multiplication relations of the enumerated
    group, c(element_i * g) = c(element_i) + element_i . c(g), one for each
    entry of the closure's table `group.products`, read off it with no
    matrix product.  Read row-major, the table is also the element tree:
    the entry where the walk first meets an element defines it, and every
    other entry constrains.

    B^1 lies in Z^1, so the rank of the relations never exceeds
    width - dim B^1.  Once it reaches that, Z^1 = B^1 is proved exactly and
    the piece is 0: no later relation is read.  Only a nonzero piece (p
    divides |G|) reads every relation.  rho_d and the expression of an
    element are built when a relation first needs them, so a stop at
    element i builds them for the elements up to i alone.

    Every matrix here is a list of sparse rows {column: nonzero value}:
    rho_d as `element_action_matrix` gives it, the expression of an
    element over the width = s * N generator columns, and each relation
    row, which goes into the `RowEchelon` as it is.  Over k they hold
    ints in [0, p), and the elimination is one over F_p.

    The piece over K is at most the piece over k.  The relations over k are
    those over O reduced mod pi: the same table, the same
    element indices, and rho_d of each reduced element
    (`element_action_matrix` builds it on the residue rows, for the
    elements read before the stop alone).  A rank can only drop under
    reduction, so
    dim Z^1_K <= dim Z^1_k; for the same reason the stacked rho_d(g_i) - I
    has rank over K at least its rank over k, so dim inv_K <= dim inv_k
    and dim B^1_K >= dim B^1_k.  Hence dim H^1_K <= dim H^1_k, which
    `h1_dimension` uses to skip K wherever the k piece is 0.  When |G| is a
    unit both pieces are 0 anyway (|G| kills H^1), so this value is an
    exact cross-check of that theorem.
    """
    s = len(group.generator_indices)
    if s == 0:
        return 0
    size = len(monomials(group.n, degree))
    width = s * size
    # B^1 is the image of v -> (rho(g_i) v - v)_i, whose kernel is the
    # (memoised) invariant space, so dim B^1 = N - dim of the invariants
    dim_b1 = size - invariant_basis(group, degree, ring).dimension
    p, one = elimination_field(ring, group.descriptor)
    rho: dict = {}  # element index -> rho_d, as sparse rows

    def block_plus(expr_rows, elem_idx: int, gi: int):
        # rows of expr + rho(elem) placed in generator block gi
        if elem_idx not in rho:
            rho[elem_idx] = element_action_matrix(group, ring, elem_idx, degree)
        base = gi * size
        out = [dict(r) for r in expr_rows]
        for row, ent in zip(out, rho[elem_idx]):
            add_multiple(row, one, {base + c: v for c, v in ent.items()}, p)
        return out

    # expression[i]: the N x (s*N) matrix expressing c(element_i) in terms of
    # the generator values, built from first[i] = (parent, gi), the product
    # where the walk first met element i
    expression = {0: [{} for _ in range(size)]}
    first = group.tree()

    def express(i: int):
        # a parent comes no later than the element the loop is at, so is built
        if i not in expression:
            parent, gi = first[i]
            expression[i] = block_plus(expression[parent], parent, gi)
        return expression[i]

    span = RowEchelon(p=p)
    for idx in range(group.order):
        current = express(idx)
        for gi, target in enumerate(group.products[idx]):
            if span.rank == width - dim_b1:
                return 0  # Z^1 = B^1
            if first[target] == (idx, gi):
                continue  # tree edge: defines rather than constrains
            for row, other in zip(block_plus(current, idx, gi), express(target)):
                add_multiple(row, -one, other, p)
                span.add(row)
    return width - span.rank - dim_b1


def h1_dimension(group: MatrixGroup, degree: int, ring: str) -> int:
    """First cohomology dimension on polynomials of total degree at most `degree`.

    The module splits as the direct sum of its homogeneous pieces, so the
    dimension is the sum of the per-degree contributions.  Whenever the
    group order is invertible in the field this is zero; the interesting
    (nonzero) values appear exactly when the order is divisible by the
    characteristic.  Past the hypothesis gate |G| is a unit of O, so it is
    a unit of K and of k, and since |G| kills H^1 every piece is 0: there
    the table is an exact cross-check of a theorem, not a proof obligation.

    For the int kind the K pieces are 0 with or without the gate: K = Q
    has characteristic 0, so multiplication by |G| is invertible on V
    and kills H^1(G, V), which is therefore 0.  They are read as 0, and
    nothing is solved over Q (`tests/test_certify.py` keeps the solve,
    `_h1_exact_degree` over K, as an oracle).

    Each other contribution is computed once per group and kept in
    `group.memo`, so a table over d = 0, 1, ... is a prefix
    sum.  The k piece of a degree comes first, because it bounds the K
    piece (see `_h1_exact_degree`): a zero k piece makes the K piece 0
    with no elimination over K, so a ratfunc group's K piece is solved
    only where the k piece is nonzero, and there a K piece above it
    raises `InternalCheckError`.  Any ring but K or k, and a negative
    degree, as `invariant_basis` does, are refused before any piece is
    computed.
    """
    if ring not in (RING_K, RING_RESIDUE):
        raise ValueError("H^1 is computed over a field (K or k)")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if ring == RING_K and group.descriptor.kind == KIND_INT:
        return 0
    memo = group.memo
    for e in range(degree + 1):
        if ("h1", e, RING_RESIDUE) not in memo:
            memo["h1", e, RING_RESIDUE] = _h1_exact_degree(group, e, RING_RESIDUE)
        if ring == RING_K and ("h1", e, RING_K) not in memo:
            bound = memo["h1", e, RING_RESIDUE]
            piece = _h1_exact_degree(group, e, RING_K) if bound else 0
            if piece > bound:
                raise InternalCheckError(
                    f"H^1 piece of degree {e} is {piece} over K but {bound} over k"
                )
            memo["h1", e, RING_K] = piece
    return sum(memo["h1", e, ring] for e in range(degree + 1))


# -- lifts ------------------------------------------------------------------------


def lift_fundamentals(group: MatrixGroup, residue_inv: FundamentalInvariants):
    """Lifts of residue-field generators to O-invariants (`_lifts`), each
    checked to reduce to its generator.  Returns (lifted polynomials,
    verdict, notes).

    For the int kind a generator is lifted coefficientwise and averaged
    over G by the Reynolds operator, which commutes with reduction since
    |G| is a unit of O: the average of the lift of an invariant f over k
    reduces to the average of f, which is f.  By graded Nakayama the
    lifts then generate O[X]^G wherever the generators over k generate
    k[X]^G (see `fundamental_invariants`); they are the generators over K
    that `fundamental_invariants` returns, found once.

    A `FundamentalInvariants` over k is invariant by construction:
    `fundamental_invariants` returns only generators that passed its
    invariance check over k.  For the ratfunc kind the lift of such a
    generator, whose coefficients are constants of F_p, is then fixed by
    Gbar, the constant twins, and is its own average; it is not averaged,
    and its invariance is not asked again.  It is carried to G by act(A, .)
    (A from `MatrixGroup.conjugator`), which maps Gbar-invariants over O
    onto G-invariants, and A = I mod t keeps the reduction.  Such a lift is
    the one the generators over K carry, so A acts on it once.
    """
    if residue_inv.ring != RING_RESIDUE:
        raise ValueError("lift expects fundamental invariants over the residue field")
    invert_mod_group_order(group.order, group.descriptor)
    lifts = _lifts(group, residue_inv.generators)
    notes = []
    ok = True
    for i, (lifted, f_bar) in enumerate(zip(lifts, residue_inv.generators)):
        if lifted.is_zero():
            ok = False
            notes.append(f"lift of generator {i}: Reynolds average vanished")
        elif lifted.reduce() != f_bar:
            ok = False
            notes.append(
                f"lift of generator {i}: reduction does not reproduce the generator"
            )
    return lifts, ok, notes


# -- the certificate -----------------------------------------------------------------

# The check sequence, in the order it runs.  Every stage but the lifts is
# also a partial check of its own.
STAGES = ("reflections", "eta", "basis", "molien", "invariants", "graded", "h1", "lifts")
PARTIAL_CHECKS = tuple(s for s in STAGES if s != "lifts")
# Stages that average over G, so need |G| invertible in O.  The reflections
# and H^1 are not gated: a nonzero H^1 when p divides |G| is the diagnostic.
GATED = frozenset(("eta", "basis", "molien", "invariants", "graded", "lifts"))
# The earlier stage whose result a stage needs.
NEEDS = {"basis": "reflections", "invariants": "reflections", "lifts": "invariants"}

# Report keys of each partial check but the invariants, in report order.
_REPORT_KEYS = {
    "reflections": ("reflections", "reflection_generated"),
    "eta": ("eta_injective", "reduced_reflection_generated"),
    "basis": ("bases",),
    "molien": ("molien", "molien_mod_p"),
    "graded": ("graded_table", "graded_ok"),
    "h1": ("h1", "h1_ok"),
}


@dataclass(frozen=True)
class RegularityCertificate:
    """Bundle of exact checks for 'the invariant ring is polynomial over O'."""

    kind: str
    p: int
    n: int
    group_order: int
    degree_bound: int
    hypothesis_ok: bool
    verdict: str
    notes: tuple = ()
    # the results of the stages that ran; the rest keep their defaults
    reflection_report: ReflectionReport | None = None
    eta_injective: bool | None = None
    reduced_reflection_generated: bool | None = None
    bases: tuple = ()  # (element index, DiagonalizingBasis | None, note)
    bases_ok: bool | None = None
    fundamental_K: FundamentalInvariants | None = None
    fundamental_k: FundamentalInvariants | None = None
    fundamental_errors: tuple = ()  # (ring, why no fundamental invariants were found)
    degrees_match: bool | None = None
    graded_table: tuple = ()
    graded_ok: bool | None = None
    molien: MolienSeries | None = None
    molien_vs_dimensions_ok: bool | None = None
    molien_vs_hilbert_ok: bool | None = None
    h1_table: tuple = ()
    h1_ok: bool | None = None
    lifts: tuple = ()
    lift_verified: bool | None = None
    checks: tuple | None = None  # partial checks reported; None: the full certificate

    def to_dict(self) -> dict:
        """Report fields: all of them for the full certificate, else those of
        the partial checks, followed by the verdict (and the gate's error)."""
        reflections = []
        if self.reflection_report is not None:
            reflections = [
                {"index": i, "lambda": str(lam), "order": m}
                for i, lam, m in self.reflection_report.reflections
            ]
        bases = []
        for idx, basis, note in self.bases:
            entry = {"index": idx, "verified": basis is not None}
            if basis is not None:
                entry.update(basis.serialize())
            if note:
                entry["note"] = note
            bases.append(entry)
        doc = {
            "verdict": self.verdict,
            "dvr": {"kind": self.kind, "p": self.p},
            "n": self.n,
            "group_order": self.group_order,
            "degree_bound": self.degree_bound,
            "hypothesis_ok": self.hypothesis_ok,
            "reflections": reflections,
            "reflection_generated": (
                None if self.reflection_report is None
                else self.reflection_report.generated_by_reflections
            ),
            "eta_injective": self.eta_injective,
            "reduced_reflection_generated": self.reduced_reflection_generated,
            "bases": bases,
            "fundamental_degrees_K": (
                None if self.fundamental_K is None else list(self.fundamental_K.degrees)
            ),
            "fundamental_degrees_k": (
                None if self.fundamental_k is None else list(self.fundamental_k.degrees)
            ),
            "fundamental_generators_K": (
                None if self.fundamental_K is None
                else [str(f) for f in self.fundamental_K.generators]
            ),
            "fundamental_generators_k": (
                None if self.fundamental_k is None
                else [str(f) for f in self.fundamental_k.generators]
            ),
            "graded_table": [[d, a, b] for d, a, b, _ in self.graded_table],
            "graded_ok": self.graded_ok,
            "molien": None if self.molien is None else self.molien.serialize(),
            "molien_mod_p": None if self.molien is None else self.molien.mod_p,
            "molien_vs_dimensions_ok": self.molien_vs_dimensions_ok,
            "molien_vs_hilbert_ok": self.molien_vs_hilbert_ok,
            "h1": [[d, a, b] for d, a, b in self.h1_table],
            "h1_ok": self.h1_ok,
            "lifts": [str(f) for f in self.lifts],
            "lift_verified": self.lift_verified,
            "notes": list(self.notes),
        }
        if self.checks is None:
            return doc
        out = {}
        errors = dict(self.fundamental_errors)
        for check in self.checks:
            if check != "invariants":
                out.update((key, doc[key]) for key in _REPORT_KEYS[check])
                continue
            for ring in (RING_K, RING_RESIDUE):
                out[f"fundamental_degrees_{ring}"] = doc[f"fundamental_degrees_{ring}"]
                if ring in errors:
                    out[f"fundamental_error_{ring}"] = errors[ring]
                else:
                    out[f"fundamental_generators_{ring}"] = doc[f"fundamental_generators_{ring}"]
        out["verdict"] = self.verdict
        if not self.hypothesis_ok:
            out["error"] = self.notes[-1]
        return out


def certify(
    group: MatrixGroup, degree_bound: int | None = None, checks=None
) -> RegularityCertificate:
    """Run the check sequence and aggregate the verdict.

    With `checks` None every stage runs: the verdict is "certified" only
    when every executed check passed, "refuted-hypothesis" when the group
    order is not invertible, and "inconclusive" otherwise (including
    non-reflection groups, about which the theory predicts nothing).  Given
    some PARTIAL_CHECKS, only those run, with the stages they need, and the
    verdict is "complete" unless the hypothesis is refuted.  Sub-check
    failures are recorded in the certificate, never thrown.  The
    fundamental invariants over k are found first, since for the ratfunc
    kind those over K are read off them (see `fundamental_invariants`).
    """
    full = checks is None
    wanted = set(STAGES if full else checks)
    for stage in reversed(STAGES):
        if stage in wanted and stage in NEEDS:
            wanted.add(NEEDS[stage])
    if degree_bound is None:
        degree_bound = group.order
    notes: list[str] = []
    header = dict(
        kind=group.descriptor.kind,
        p=group.descriptor.p,
        n=group.n,
        group_order=group.order,
        degree_bound=degree_bound,
    )
    base: dict = {}  # results so far, by certificate field

    def finish(verdict: str) -> RegularityCertificate:
        return RegularityCertificate(
            hypothesis_ok=True, verdict=verdict, notes=tuple(notes),
            checks=None if full else tuple(c for c in PARTIAL_CHECKS if c in checks),
            **header, **base,
        )

    if "reflections" in wanted:
        report = classify_reflections(group)
        base["reflection_report"] = report
        if report.vacuous:
            notes.append("trivial group: reflection-generated by the empty set")

    # The hypothesis gate.  Every gated stage follows the reflections, so
    # this is just before the first of them.
    if wanted & GATED:
        try:
            invert_mod_group_order(group.order, group.descriptor)
        except HypothesisViolationError as exc:
            # the full certificate records only the failed hypothesis; a
            # partial run also reports the reflections, which ran before
            return RegularityCertificate(
                hypothesis_ok=False, verdict="refuted-hypothesis", notes=(str(exc),),
                checks=None if full else ("reflections",) if "reflections" in checks else (),
                **header, **({} if full else base),
            )

    if "eta" in wanted:
        _, injective = reduction_map(group)
        base["eta_injective"] = injective
        if not injective:
            notes.append("reduction map failed to be injective")
        base["reduced_reflection_generated"] = verify_reduced_reflection_generation(group)

    if full and not report.generated_by_reflections:
        notes.append(
            "group is not generated by pseudo-reflections over the fraction "
            "field; no conclusion about the invariant ring is available"
        )
        return finish("inconclusive")

    if "basis" in wanted:
        bases = []
        for idx, *data in report.reflections:  # data: (lambda, order)
            try:
                bases.append((idx, diagonalizing_basis(group.element(idx), group, data), ""))
            except DvrcertError as exc:
                bases.append((idx, None, str(exc)))
                notes.append(f"diagonalizing basis failed for element {idx}: {exc}")
        base["bases"] = tuple(bases)
        base["bases_ok"] = all(basis is not None for _, basis, _ in bases)

    if "molien" in wanted:
        base["molien"] = molien_series(group, degree_bound)

    if "invariants" in wanted:
        found, errors = {}, {}
        # k first: the ratfunc kind reads its generators over K off those over k
        for ring in (RING_RESIDUE, RING_K):
            try:
                found[ring] = fundamental_invariants(group, ring, degree_bound)
            except DvrcertError as exc:
                found[ring], errors[ring] = None, str(exc)
        for ring in (RING_K, RING_RESIDUE):  # fields fundamental_K, fundamental_k
            base[f"fundamental_{ring}"] = found[ring]
            if ring in errors:
                notes.append(f"fundamental invariants over {ring}: {errors[ring]}")
        base["fundamental_errors"] = tuple(
            (ring, errors[ring]) for ring in (RING_K, RING_RESIDUE) if ring in errors)
        fund_K, fund_k = base["fundamental_K"], base["fundamental_k"]
        both = fund_K is not None and fund_k is not None
        base["degrees_match"] = both and fund_K.degrees == fund_k.degrees
        if both and not base["degrees_match"]:
            notes.append(
                f"fundamental degrees differ: {fund_K.degrees} over K, "
                f"{fund_k.degrees} over the residue field"
            )

    if "graded" in wanted:
        table = graded_isomorphism_check(group, degree_bound)
        base["graded_table"] = table
        base["graded_ok"] = all(eq for _, _, _, eq in table)
        if not base["graded_ok"]:
            notes.append("graded dimensions over K and the residue field differ")

    if full:
        molien, fund_K = base["molien"], base["fundamental_K"]
        off_dims, off_hilbert = molien_identity_failures(
            molien.coefficients, molien.mod_p, group.descriptor.p,
            {d: dim for d, _, dim, _ in base["graded_table"]},
            None if fund_K is None else fund_K.degrees,
        )
        base["molien_vs_dimensions_ok"] = not off_dims
        if off_dims:
            notes.append("Molien coefficients disagree with computed invariant dimensions")
        base["molien_vs_hilbert_ok"] = off_hilbert == []
        if off_hilbert:
            notes.append(
                "Molien truncation disagrees with the product of geometric "
                "series over the fundamental degrees"
            )

    if "h1" in wanted:
        h1_rows = tuple(
            (d, h1_dimension(group, d, RING_K), h1_dimension(group, d, RING_RESIDUE))
            for d in range(min(degree_bound, H1_DEGREE_CAP) + 1)
        )
        base["h1_table"] = h1_rows
        base["h1_ok"] = all(a == 0 and b == 0 for _, a, b in h1_rows)
        if not base["h1_ok"]:
            # each row sums the pieces up to its degree; a failing piece is a step
            failing = [
                f"degree {d} over {ring}"
                for (d, *now), (_, *before) in zip(h1_rows, ((-1, 0, 0),) + h1_rows)
                for ring, a, b in zip((RING_K, RING_RESIDUE), now, before)
                if a != b
            ]
            notes.append("nonzero first cohomology in " + ", ".join(failing))

    if "lifts" in wanted:
        base["lift_verified"] = False
        if base["fundamental_k"] is not None:
            lifts, lift_ok, lift_notes = lift_fundamentals(group, base["fundamental_k"])
            base["lifts"] = lifts
            base["lift_verified"] = lift_ok
            notes.extend(lift_notes)

    if not full:
        return finish("complete")
    passed = [
        base["eta_injective"],
        base["reduced_reflection_generated"],
        base["bases_ok"],
        base["fundamental_K"] is not None,
        base["fundamental_k"] is not None,
        base["degrees_match"],
        base["graded_ok"],
        base["molien_vs_dimensions_ok"],
        base["molien_vs_hilbert_ok"],
        base["h1_ok"],
        base["lift_verified"],
    ]
    return finish("certified" if all(passed) else "inconclusive")
