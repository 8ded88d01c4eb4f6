"""Exact-arithmetic certificates for pseudo-reflection groups over DVRs."""

__version__ = "0.1.0"

from .errors import (
    CertificateConditionError,
    ClosureCapExceededError,
    DegreeBoundExhaustedError,
    DvrcertError,
    HypothesisViolationError,
    InternalCheckError,
    JobSpecError,
    NotInRingError,
    NotInvertibleError,
    ValuationUndefinedError,
)
from .scalars import (
    DvrDescriptor,
    invert_mod_group_order,
    parse_scalar,
)
from .linalg import (
    RING_K,
    RING_O,
    RING_RESIDUE,
    ExactMatrix,
    KernelBasis,
    det,
    kernel_over_field,
    rank_over_field,
)
from .groups import (
    MatrixGroup,
    ReflectionReport,
    classify_reflections,
    generate_group,
    reduction_map,
    verify_reduced_reflection_generation,
)
from .refbasis import DiagonalizingBasis, diagonalizing_basis
from .polys import (
    GradedBasis,
    MolienSeries,
    MultiPoly,
    act,
    hilbert_product_truncation,
    invariant_basis,
    molien_series,
    monomials,
    reynolds,
)
from .certify import (
    FundamentalInvariants,
    RegularityCertificate,
    certify,
    fundamental_invariants,
    graded_isomorphism_check,
    h1_dimension,
    jacobian_independence,
    lift_fundamentals,
)
from .cli import JobSpec, parse_jobspec, run, verify_report

__all__ = [name for name in dir() if not name.startswith("_")]
