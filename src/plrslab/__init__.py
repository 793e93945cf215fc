"""Completeness lab for positive linear recurrence sequences (PLRS's).

Generate exact sequence terms, classify generators as complete or
incomplete with proof-tagged verdicts, compute legal (generalized
Zeckendorf) and distinct-term decompositions, evaluate closed-form family
bounds against empirical search, and run exhaustive first-failure censuses
hunting for counterexamples to the 2L-1 window conjecture.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    CapTooLargeError,
    ConjectureViolation,
    EmptyVectorError,
    LeadingZeroError,
    NegativeCoefficientError,
    NoLegalDecompositionError,
    OutOfRangeError,
    PLRSError,
    TrailingZeroError,
    VectorValidationError,
)
from .seqcore import CoefficientVector, Sequence, terms_prefix
from .verdicts import (
    CompletenessVerdict,
    ProofRule,
    ProofTag,
    Reachability,
    brown_scan,
    classify,
    is_complete_up_to,
    subset_sum_reachable,
)
from .zeck import (
    DistinctDecomposition,
    distinct_decompose,
    enumerate_legal,
    is_legal,
    legal_decompose,
    render_decomposition,
    value_of,
)
from .families import (
    BoundResult,
    EmpiricalMax,
    FamilySpec,
    corollary_shift_bound,
    empirical_max_n,
    family_bound,
    family_shape,
    fib,
    figure1_table,
    max_n_double_one,
    max_n_g_ones,
    max_n_single_one,
)
from .hunt import (
    AddFrontOnesReport,
    CensusReport,
    add_front_ones_scan,
    first_failure_census,
)

__all__ = [
    "__version__",
    "AddFrontOnesReport",
    "BoundResult",
    "CapExceededError",
    "CapTooLargeError",
    "CensusReport",
    "CoefficientVector",
    "CompletenessVerdict",
    "ConjectureViolation",
    "DistinctDecomposition",
    "EmpiricalMax",
    "EmptyVectorError",
    "FamilySpec",
    "LeadingZeroError",
    "NegativeCoefficientError",
    "NoLegalDecompositionError",
    "OutOfRangeError",
    "PLRSError",
    "ProofRule",
    "ProofTag",
    "Reachability",
    "Sequence",
    "TrailingZeroError",
    "VectorValidationError",
    "add_front_ones_scan",
    "brown_scan",
    "classify",
    "corollary_shift_bound",
    "distinct_decompose",
    "empirical_max_n",
    "enumerate_legal",
    "family_bound",
    "family_shape",
    "fib",
    "figure1_table",
    "first_failure_census",
    "is_complete_up_to",
    "is_legal",
    "legal_decompose",
    "max_n_double_one",
    "max_n_g_ones",
    "max_n_single_one",
    "render_decomposition",
    "subset_sum_reachable",
    "terms_prefix",
    "value_of",
]
