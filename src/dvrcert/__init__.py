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
    OrderCapExceededError,
    ValuationUndefinedError,
)
from .scalars import (
    DvrDescriptor,
    FractionScalar,
    ResidueScalar,
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
    inverse,
    kernel_over_field,
    matrix_order,
    rank_over_field,
    reduce_matrix,
)
from .groups import (
    MatrixGroup,
    ReflectionReport,
    classify_reflections,
    generate_group,
    is_pseudo_reflection,
    reduction_map,
    reflection_data,
    trivial_group,
    verify_reduced_reflection_generation,
)
from .refbasis import (
    DiagonalizingBasis,
    diagonalizing_basis,
    primitive_vector,
    quotient_action,
    unimodular_completion,
)
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
