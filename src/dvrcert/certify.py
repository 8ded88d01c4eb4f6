"""Certificate assembly for invariant rings over the DVR.

The headline object is the RegularityCertificate: a bundle of exact,
independently recomputable checks witnessing that the invariant ring of a
reflection-generated group is a graded polynomial ring over the DVR.  The
ingredients: fundamental invariants over the residue field and the fraction
field, the degree-by-degree dimension comparison between the two, vanishing
of first cohomology on low-degree pieces, and Reynolds lifts of the residue
generators back to the ring.
"""
from __future__ import annotations

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
    ring_one,
    ring_zero,
)
from .polys import (
    MolienSeries,
    MultiPoly,
    action_matrix,
    act,
    invariant_basis,
    molien_identity_failures,
    molien_series,
    monomials,
    poly_matrix_det,
    reynolds,
)
from .refbasis import diagonalizing_basis
from .scalars import invert_mod_group_order

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

    def serialize(self) -> dict:
        return {
            "field": self.ring,
            "degrees": list(self.degrees),
            "generators": [str(f) for f in self.generators],
        }


def _poly_coefficients(f: MultiPoly, basis) -> list:
    zero = ring_zero(f.ring, f.descriptor)
    coeffs = [zero] * len(basis)
    index = {e: i for i, e in enumerate(basis)}
    for e, c in f.terms.items():
        coeffs[index[e]] = c
    return coeffs


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
    """Degreewise span of products of the generators chosen so far."""

    def __init__(self, group: MatrixGroup, ring: str):
        self.group = group
        self.ring = ring
        self.generators: list[MultiPoly] = []
        self.degrees: list[int] = []
        self._powers: list[dict[int, MultiPoly]] = []

    def add_generator(self, f: MultiPoly, degree: int) -> None:
        self.generators.append(f)
        self.degrees.append(degree)
        self._powers.append({0: MultiPoly.constant(
            self.ring, self.group.descriptor, self.group.n,
            ring_one(self.ring, self.group.descriptor))})

    def _power(self, i: int, k: int) -> MultiPoly:
        cache = self._powers[i]
        if k not in cache:
            cache[k] = self._power(i, k - 1) * self.generators[i]
        return cache[k]

    def product_span(self, degree: int) -> RowEchelon:
        basis = monomials(self.group.n, degree)
        span = RowEchelon()
        for exps in _weighted_exponents(tuple(self.degrees), degree):
            prod = MultiPoly.constant(
                self.ring, self.group.descriptor, self.group.n,
                ring_one(self.ring, self.group.descriptor))
            for i, k in enumerate(exps):
                if k:
                    prod = prod * self._power(i, k)
            span.add(_poly_coefficients(prod, basis))
        return span


def fundamental_invariants(
    group: MatrixGroup,
    ring: str,
    degree_bound: int,
    reflection_count: int | None = None,
) -> FundamentalInvariants:
    """Greedy degree-ascending search for n fundamental invariants.

    At each degree the invariant subspace is compared with the span of
    products of the generators found so far; new generators are adjoined
    from the echelonized complement, lowest pivot first.  The returned
    system is verified: n homogeneous invariant generators, degree product
    equal to the group order, degree excess equal to the reflection count,
    nonzero Jacobian, and generation of every invariant up to the bound.
    """
    invert_mod_group_order(group.order, group.descriptor)
    n = group.n
    tracker = _SubalgebraTracker(group, ring)
    mismatches: list[str] = []
    for d in range(1, degree_bound + 1):
        inv = invariant_basis(group, d, ring)
        basis = monomials(group.n, d)
        span = tracker.product_span(d)
        if span.rank > inv.dimension:
            raise InternalCheckError(
                f"product span exceeds the invariant space at degree {d}"
            )
        for candidate in inv.polys:
            if span.rank == inv.dimension:
                break
            reduced = span.reduce(_poly_coefficients(candidate, basis))
            lead = next((i for i, a in enumerate(reduced) if a), None)
            if lead is None:
                continue
            if len(tracker.generators) == n:
                mismatches.append(
                    f"degree {d}: invariants beyond the subalgebra of the first "
                    f"{n} generators; the invariant ring is not free on them"
                )
                break
            span.add(reduced)  # stored with a leading one at `lead`
            tracker.add_generator(
                MultiPoly(ring, group.descriptor, group.n, zip(basis, span.pivot_rows[lead])), d
            )
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
        ring, tuple(tracker.generators), tuple(tracker.degrees)
    )
    mismatches.extend(
        _check_fundamental_conditions(group, result, reflection_count)
    )
    if mismatches:
        raise CertificateConditionError("; ".join(mismatches))
    return result


def _check_fundamental_conditions(
    group: MatrixGroup, inv: FundamentalInvariants, reflection_count: int | None
) -> list[str]:
    problems = []
    if inv.n != group.n:
        problems.append(f"{inv.n} generators for {group.n} variables")
    prod = 1
    for d in inv.degrees:
        prod *= d
    if prod != group.order:
        problems.append(
            f"degree product {prod} differs from the group order {group.order}"
        )
    if reflection_count is None:
        reflection_count = classify_reflections(group).count
    excess = sum(d - 1 for d in inv.degrees)
    if excess != reflection_count:
        problems.append(
            f"degree excess {excess} differs from the reflection count {reflection_count}"
        )
    gens = group.generators_over(inv.ring)
    for i, f in enumerate(inv.generators):
        if not f.is_homogeneous() or f.is_zero():
            problems.append(f"generator {i} is not homogeneous and nonzero")
        for g in gens:
            if act(g, f) != f:
                problems.append(f"generator {i} is not invariant")
                break
    if not jacobian_independence(inv):
        problems.append("Jacobian determinant vanishes: generators are dependent")
    return problems


def jacobian_independence(inv: FundamentalInvariants) -> bool:
    """True iff the determinant of the formal Jacobian matrix is nonzero."""
    jac = [
        [f.partial_derivative(j) for j in range(f.n)]
        for f in inv.generators
    ]
    return not poly_matrix_det(jac).is_zero()


# -- graded comparison ------------------------------------------------------------


def graded_isomorphism_check(group: MatrixGroup, degree_bound: int):
    """Rows (d, dim over K, dim over k, equal?) for d up to the bound."""
    invert_mod_group_order(group.order, group.descriptor)
    rows = []
    for d in range(degree_bound + 1):
        dim_k_field = invariant_basis(group, d, RING_K).dimension
        dim_res = invariant_basis(group, d, RING_RESIDUE).dimension
        rows.append((d, dim_k_field, dim_res, dim_k_field == dim_res))
    return tuple(rows)


# -- first cohomology ---------------------------------------------------------------


def _h1_exact_degree(group: MatrixGroup, degree: int, ring: str) -> int:
    """dim Z1 - dim B1 for cocycles valued in the degree-d homogeneous piece.

    A cocycle is determined by its values on the closure generators; the
    remaining conditions are the multiplication relations of the enumerated
    group, and the breadth-first element tree tells the tree edges (which
    define) apart from the rest (which constrain).
    """
    s = len(group.closure_generators)
    if s == 0:
        return 0
    rho = [action_matrix(m, group.n, degree) for m in group.over(ring)]
    size = len(monomials(group.n, degree))
    width = s * size
    zero = ring_zero(ring, group.descriptor)

    # expression[i]: the N x (s*N) matrix expressing c(element_i) in terms of
    # the generator values, filled in breadth-first order
    expression: list = [None] * group.order
    expression[0] = [[zero] * width for _ in range(size)]
    gen_index = {
        g: gi for gi, g in enumerate(group.closure_generators)
    }

    def block_plus(expr_rows, elem_idx: int, gi: int):
        # rows of expr + rho(elem) placed in generator block gi
        out = [list(r) for r in expr_rows]
        base = gi * size
        mat = rho[elem_idx]
        for r in range(size):
            row = out[r]
            ent = mat.entries[r]
            for c in range(size):
                v = ent[c]
                if v:
                    row[base + c] = row[base + c] + v
        return out

    order_of_discovery = range(1, group.order)
    for idx in order_of_discovery:
        parent, gi = group.bfs_parent(idx)
        expression[idx] = block_plus(expression[parent], parent, gi)

    span = RowEchelon()
    for idx in range(group.order):
        for gi, g in enumerate(group.closure_generators):
            target = group.index_of(group.elements[idx] * g)
            if group.bfs_parent(target) == (idx, gi):
                continue  # tree edge: defines rather than constrains
            lhs = block_plus(expression[idx], idx, gi)
            rhs = expression[target]
            for r in range(size):
                row = [a - b for a, b in zip(lhs[r], rhs[r])]
                span.add(row)
    dim_z1 = width - span.rank

    # the rank of v -> (rho(g_i) v - v)_i, the rows of all rho(g_i) - I
    # stacked, equals the coboundary dimension
    dim_b1 = RowEchelon(
        row
        for g in group.closure_generators
        for row in rho[group.index_of(g)].minus_identity().entries
    ).rank
    return dim_z1 - dim_b1


def h1_dimension(group: MatrixGroup, degree: int, ring: str) -> int:
    """First cohomology dimension on polynomials of total degree at most `degree`.

    The module splits as the direct sum of its homogeneous pieces, so the
    dimension is the sum of the per-degree contributions.  Whenever the
    group order is invertible in the field this is zero; the interesting
    (nonzero) values appear exactly when the order is divisible by the
    characteristic.  Each contribution is computed once per group and kept
    in `group.memo`, so a table over d = 0, 1, ... is a prefix sum.
    """
    memo = group.memo
    for e in range(degree + 1):
        if ("h1", e, ring) not in memo:
            memo["h1", e, ring] = _h1_exact_degree(group, e, ring)
    return sum(memo["h1", e, ring] for e in range(degree + 1))


# -- lifts ------------------------------------------------------------------------


def lift_fundamentals(group: MatrixGroup, residue_inv: FundamentalInvariants):
    """Reynolds lifts of residue-field generators to O-invariants.

    Each generator is lifted coefficientwise, averaged over the group, and
    the reduction of the result is checked against the original generator.
    Returns (lifted polynomials, verdict, notes).
    """
    if residue_inv.ring != RING_RESIDUE:
        raise ValueError("lift expects fundamental invariants over the residue field")
    invert_mod_group_order(group.order, group.descriptor)
    lifts = []
    notes = []
    ok = True
    for i, f_bar in enumerate(residue_inv.generators):
        naive = MultiPoly(
            RING_O,
            group.descriptor,
            group.n,
            {e: group.descriptor.from_int(c.value) for e, c in f_bar.terms.items()},
        )
        lifted = reynolds(group, naive)
        if lifted.is_zero():
            ok = False
            notes.append(f"lift of generator {i}: Reynolds average vanished")
            lifts.append(lifted)
            continue
        if lifted.reduce() != f_bar:
            ok = False
            notes.append(
                f"lift of generator {i}: reduction does not reproduce the generator"
            )
        lifts.append(lifted)
    return tuple(lifts), ok, notes


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
    failures are recorded in the certificate, never thrown.
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
        for idx, lam, order in report.reflections:
            try:
                bases.append((idx, diagonalizing_basis(group.elements[idx], group), ""))
            except DvrcertError as exc:
                bases.append((idx, None, str(exc)))
                notes.append(f"diagonalizing basis failed for element {idx}: {exc}")
        base["bases"] = tuple(bases)
        base["bases_ok"] = all(basis is not None for _, basis, _ in bases)

    if "molien" in wanted:
        base["molien"] = molien_series(group, degree_bound)

    if "invariants" in wanted:
        errors = {}
        for ring in (RING_K, RING_RESIDUE):  # fields fundamental_K, fundamental_k
            try:
                base[f"fundamental_{ring}"] = fundamental_invariants(
                    group, ring, degree_bound, reflection_count=report.count
                )
            except DvrcertError as exc:
                base[f"fundamental_{ring}"] = None
                errors[ring] = str(exc)
                notes.append(f"fundamental invariants over {ring}: {exc}")
        base["fundamental_errors"] = tuple(errors.items())
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
            {d: dim for d, dim, _, _ in base["graded_table"]},
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
            notes.append("nonzero first cohomology on a low-degree piece")

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
