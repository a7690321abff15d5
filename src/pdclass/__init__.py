"""Root-combinatorial models of period domains.

Builds simple root systems exactly, grades them by label vectors, decides
classical versus non-classical by three independent routes, evaluates the
curvature-sign predicate for weight line bundles, and constructs invariant
complex structures on the Hermitian-type cases.
"""
from .classifier import (
    DomainReport,
    bracket_generation,
    bracket_verdicts,
    classify,
    cone_criterion,
    curvature_signature,
    grading_cone_system,
    is_classical_definitional,
    partition_noncompact,
    predicts_vanishing,
    sign_violations,
    verify_compact_from_noncompact,
    verify_simple_noncompact_decomposition,
)
from .cone import (
    ConeDecision,
    ConeSystem,
    FarkasCertificate,
    decide_cone,
    make_cone_system,
    verify_certificate,
)
from .errors import (
    CompactForm,
    HermitianAnomaly,
    InternalInconsistency,
    InvalidTypeRank,
    LabelOutOfRange,
    NotHermitian,
    PdclassError,
    PreconditionClassical,
    TheoremViolation,
    TooLarge,
    UsageError,
    ValidationFailed,
)
from .grading import HodgeGrading, make_grading
from .oracle import (
    SurveyResult,
    SurveyRow,
    lattice_cone_search,
    survey_crosscheck,
)
from .rootsys import (
    RootSystem,
    build_root_system,
    cartan_matrix,
    root_key,
    verify_triple_sum_reduction,
)
from .structures import (
    ComplexStructure,
    HermitianSplitting,
    NewStructure,
    enumerate_structures,
    hermitian_splitting,
    new_complex_structure,
    parabolic_of,
    positive_system_of,
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "CompactForm",
    "ComplexStructure",
    "ConeDecision",
    "ConeSystem",
    "DomainReport",
    "FarkasCertificate",
    "HermitianAnomaly",
    "HermitianSplitting",
    "HodgeGrading",
    "InternalInconsistency",
    "InvalidTypeRank",
    "LabelOutOfRange",
    "NewStructure",
    "NotHermitian",
    "PdclassError",
    "PreconditionClassical",
    "RootSystem",
    "SurveyResult",
    "SurveyRow",
    "TheoremViolation",
    "TooLarge",
    "UsageError",
    "ValidationFailed",
    "bracket_generation",
    "bracket_verdicts",
    "build_root_system",
    "cartan_matrix",
    "classify",
    "cone_criterion",
    "curvature_signature",
    "decide_cone",
    "enumerate_structures",
    "grading_cone_system",
    "hermitian_splitting",
    "is_classical_definitional",
    "lattice_cone_search",
    "make_cone_system",
    "make_grading",
    "new_complex_structure",
    "parabolic_of",
    "partition_noncompact",
    "positive_system_of",
    "predicts_vanishing",
    "root_key",
    "sign_violations",
    "survey_crosscheck",
    "validate_structure",
    "verify_certificate",
    "verify_compact_from_noncompact",
    "verify_simple_noncompact_decomposition",
    "verify_triple_sum_reduction",
]
