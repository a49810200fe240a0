"""Verification toolkit for the rank bound on permanents of (-1,1)-matrices."""

from .d_family import (
    DTable,
    bound_for_rank,
    build_table,
    gap_value,
    laplace_identity,
    per_d_diag,
)
from .errors import (
    CounterexampleError,
    PropertyFailure,
    RangeError,
    RankError,
    ShapeError,
)
from .exact_rank import rank
from .permanent import laplace_expand, mper, permanent_naive, permanent_rect, permanent_ryser
from .rank_vectors import RankVector, check_min_law, majorize_leq, rank_vector
from .reduction import (
    FORM_TAGS,
    FormClass,
    canonical_form,
    classify_form,
    condition_A,
    equivalent_to_d,
)
from .sign_matrix import (
    SignMatrix,
    apply,
    check_index_set,
    d_matrix,
    format_matrix_text,
    format_transforms,
    invert_transforms,
    make_matrix,
    neg_count,
    p_matrix,
    parse_matrix_text,
    q_matrix,
    submatrix_select,
)
from .verifier import (
    StratumRow,
    VerifyReport,
    enumerate_normalized,
    verify_mper,
    verify_properties,
    verify_square,
    write_report,
)

__version__ = "1.0.0"

__all__ = [
    "CounterexampleError",
    "DTable",
    "FORM_TAGS",
    "FormClass",
    "PropertyFailure",
    "RangeError",
    "RankError",
    "RankVector",
    "ShapeError",
    "SignMatrix",
    "StratumRow",
    "VerifyReport",
    "apply",
    "bound_for_rank",
    "build_table",
    "canonical_form",
    "check_index_set",
    "check_min_law",
    "classify_form",
    "condition_A",
    "d_matrix",
    "enumerate_normalized",
    "equivalent_to_d",
    "format_matrix_text",
    "format_transforms",
    "gap_value",
    "invert_transforms",
    "laplace_expand",
    "laplace_identity",
    "majorize_leq",
    "make_matrix",
    "mper",
    "neg_count",
    "p_matrix",
    "parse_matrix_text",
    "per_d_diag",
    "permanent_naive",
    "permanent_rect",
    "permanent_ryser",
    "q_matrix",
    "rank",
    "rank_vector",
    "submatrix_select",
    "verify_mper",
    "verify_properties",
    "verify_square",
    "write_report",
]
