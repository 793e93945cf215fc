"""Completeness lab for positive linear recurrence sequences (PLRS's).

Generate exact sequence terms, classify generators as complete or
incomplete with proof-tagged verdicts, compute legal (generalized
Zeckendorf) and distinct-term decompositions, evaluate closed-form family
bounds against empirical search, and run exhaustive first-failure censuses
hunting for counterexamples to the 2L-1 window conjecture.

Importing the package loads no submodule: each public name is imported
from its module on first use (PEP 562), so a command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: The public names of each submodule.
_EXPORTS = {
    "errors": (
        "CapExceededError", "ConjectureViolation", "EmptyVectorError", "LeadingZeroError",
        "NegativeCoefficientError", "NoLegalDecompositionError", "OutOfRangeError", "PLRSError",
        "TrailingZeroError", "VectorValidationError",
    ),
    "seqcore": ("CoefficientVector", "Sequence"),
    "verdicts": (
        "CompletenessVerdict", "EmpiricalMax", "ProofRule", "ProofTag", "Reachability", "classify",
        "empirical_max_n", "figure1_table", "is_complete_up_to", "subset_sum_reachable",
    ),
    "zeck": (
        "DistinctDecomposition", "distinct_decompose", "is_legal", "legal_decompose",
    ),
    "families": (
        "BoundResult", "FamilySpec", "corollary_shift_bound", "family_bound", "family_shape", "fib",
        "max_n_double_one", "max_n_g_ones", "max_n_single_one",
    ),
    "hunt": ("CensusReport", "census_horizon", "census_records", "census_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
