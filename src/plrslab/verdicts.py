"""Completeness classification with machine-checkable proof provenance.

A verdict is one of

  * Complete(proof)            -- a named rule certifies completeness,
  * Incomplete(n, witness)     -- Brown's gap first goes negative at term n,
                                  and witness = 1 + H_1 + ... + H_{n-1} is the
                                  smallest integer with no distinct-terms sum,
  * ConjecturallyComplete(h)   -- no gap violation up to horizon h and no
                                  proof rule fired; completeness then rests on
                                  the open first-failure-window conjecture.

The classifier applies rules in a fixed order so provenance is
deterministic: gap scan to the window max(2L - 1, 2), the all-positive
characterization, closed-form family bounds, the merge-last-two
contrapositive, the strict-window sufficient criterion, and a scan on to the
requested horizon for vectors that no rule proves.  An independent subset-sum
oracle (a bit-vector dynamic program) is provided for cross-checking verdicts
against ground truth on bounded ranges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, MutableMapping, Optional, Sequence as SequenceT

from .errors import CapTooLargeError, ConjectureViolation
from .seqcore import CoefficientVector

#: Default ceiling (largest target) for subset-sum cross-checks and
#: distinct-term decompositions.
DEFAULT_ORACLE_CAP = 10**6

#: Memory budget, in bits, for reachability and back-trace bitmaps.
BITMAP_BUDGET_BITS = 2**28


class ProofRule(str, enum.Enum):
    """Named completeness rules a verdict may cite."""

    ALL_POSITIVE = "all_positive"
    GEOMETRIC_L1 = "geometric_l1"
    FAMILY_SINGLE_ONE = "family_single_one"
    FAMILY_DOUBLE_ONE = "family_double_one"
    FAMILY_G_ONES = "family_g_ones"
    MERGE_LAST = "merge_last"
    WEAK_WINDOW = "weak_window"


@dataclass(frozen=True)
class ProofTag:
    """A rule name plus the rule-specific integers it was applied with."""

    rule: ProofRule
    parameters: tuple[tuple[str, int], ...] = ()

    @classmethod
    def make(cls, rule: ProofRule, **params: int) -> "ProofTag":
        return cls(rule, tuple(sorted(params.items())))

    @property
    def params(self) -> dict[str, int]:
        return dict(self.parameters)


class VerdictStatus(str, enum.Enum):
    COMPLETE = "complete"
    INCOMPLETE = "incomplete"
    CONJECTURALLY_COMPLETE = "conjecturally_complete"


@dataclass(frozen=True)
class CompletenessVerdict:
    status: VerdictStatus
    proof: Optional[ProofTag] = None
    first_failure_index: Optional[int] = None
    witness: Optional[int] = None
    horizon: Optional[int] = None

    @classmethod
    def complete(cls, proof: ProofTag) -> "CompletenessVerdict":
        return cls(VerdictStatus.COMPLETE, proof=proof)

    @classmethod
    def incomplete(cls, first_failure_index: int, witness: int) -> "CompletenessVerdict":
        return cls(
            VerdictStatus.INCOMPLETE,
            first_failure_index=first_failure_index,
            witness=witness,
        )

    @classmethod
    def conjecturally_complete(cls, horizon: int) -> "CompletenessVerdict":
        return cls(VerdictStatus.CONJECTURALLY_COMPLETE, horizon=horizon)

    @property
    def is_complete(self) -> bool:
        return self.status is VerdictStatus.COMPLETE

    @property
    def is_incomplete(self) -> bool:
        return self.status is VerdictStatus.INCOMPLETE

    @property
    def is_conjectural(self) -> bool:
        return self.status is VerdictStatus.CONJECTURALLY_COMPLETE


def effective_horizon(length: int, horizon: Optional[int] = None) -> int:
    """Scan depth for a generator of this length: max(2L - 1, 2), or a deeper
    requested horizon, so the scan never undershoots the conjectured window."""
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    floor = max(2 * length - 1, 2)
    return floor if horizon is None else max(horizon, floor)


@dataclass(frozen=True)
class ScanResult:
    first_failure: Optional[int]
    gaps: tuple[int, ...]


def brown_scan(cv: CoefficientVector, horizon: int) -> ScanResult:
    """Scan B_1..B_horizon and report the least index with a negative gap."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    seq = cv.sequence
    return ScanResult(seq.first_gap_below(horizon), tuple(seq.gaps(horizon)))


def weak_window_check(cv: CoefficientVector) -> bool:
    """Strict-window sufficient criterion for completeness.

    True iff B_n >= 0 for n < L and B_n > 0 for L <= n <= 2L-1.  For L = 1
    the window is vacuous and the criterion degenerates to c_1 <= 2 (a
    single-coefficient generator [c] fails at the second term iff c > 2).
    """
    L = len(cv)
    if L == 1:
        return cv.coefficients[0] <= 2
    seq = cv.sequence
    return seq.first_gap_below(L - 1) is None and seq.first_gap_below(2 * L - 1, 1, L) is None


# --------------------------------------------------------------------------
# Subset-sum oracle


@dataclass(frozen=True)
class Reachability:
    """Bitmap of subset sums over [1, cap]; bit m is set iff m is reachable."""

    cap: int
    bitmap: int

    def is_reachable(self, m: int) -> bool:
        if not 1 <= m <= self.cap:
            raise ValueError(f"target {m} outside [1, {self.cap}]")
        return bool((self.bitmap >> m) & 1)

    def smallest_missing(self) -> Optional[int]:
        full = (1 << (self.cap + 1)) - 1
        miss = ~self.bitmap & full & ~1  # ignore bit 0 (the empty sum)
        if miss == 0:
            return None
        return (miss & -miss).bit_length() - 1

    def missing(self) -> list[int]:
        return [m for m in range(1, self.cap + 1) if not (self.bitmap >> m) & 1]


def subset_sum_reachable(terms: SequenceT[int], cap: int) -> Reachability:
    """Which targets in [1, cap] are sums of distinct listed terms.

    Bit-vector dynamic program: each term is folded in once with a single
    shift-or, so the whole table costs O(len(terms) * cap / wordsize).
    Terms must be positive and nondecreasing.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap + 1 > BITMAP_BUDGET_BITS:
        raise CapTooLargeError(
            f"cap {cap} needs {cap + 1} bits, over the {BITMAP_BUDGET_BITS}-bit budget"
        )
    prev = 0
    for t in terms:
        if t < 1:
            raise ValueError("terms must be positive")
        if t < prev:
            raise ValueError("terms must be nondecreasing")
        prev = t
    full = (1 << (cap + 1)) - 1
    bits = 1
    for t in terms:
        if t > cap:
            break  # nondecreasing, so no later term can contribute either
        bits = (bits | (bits << t)) & full
    return Reachability(cap, bits)


def is_complete_up_to(cv: CoefficientVector, cap: int) -> tuple[bool, Optional[int]]:
    """Ground-truth completeness over [1, cap], plus the smallest missing target.

    Materializes terms until their running sum reaches cap and runs the
    subset-sum oracle over them.  Any target reachable with deeper terms is
    already reachable within that prefix, because gaps in reachability only
    open at a negative Brown gap and every later term overshoots the witness.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cv.coefficients == (1,):
        # Constant ones: m is the sum of the first m terms.
        return True, None
    seq = cv.sequence
    terms: list[int] = []
    total = 0
    n = 0
    while total < cap:
        n += 1
        t = seq.term(n)
        terms.append(t)
        total += t
    reach = subset_sum_reachable(terms, cap)
    miss = reach.smallest_missing()
    return miss is None, miss


# --------------------------------------------------------------------------
# Classification


def _incomplete_at(cv: CoefficientVector, n: int) -> CompletenessVerdict:
    witness = 1 + cv.sequence.partial_sum(n - 1)
    return CompletenessVerdict.incomplete(n, witness)


def _all_positive_complete_shape(coeffs: tuple[int, ...]) -> bool:
    L = len(coeffs)
    return coeffs == (1,) * L or coeffs == (1,) * (L - 1) + (2,)


_BOUND_RULE_TAGS = {
    "single_one": ProofRule.FAMILY_SINGLE_ONE,
    "double_one": ProofRule.FAMILY_DOUBLE_ONE,
    "g_ones_plateau": ProofRule.FAMILY_G_ONES,
    "g_ones_ramp": ProofRule.FAMILY_G_ONES,
}


def classify(
    cv: CoefficientVector,
    horizon: Optional[int] = None,
    *,
    merged: Optional[MutableMapping[tuple[int, ...], bool]] = None,
) -> CompletenessVerdict:
    """Classify a generator as complete, incomplete, or conjecturally complete.

    Rule order is fixed: (a) gap scan to the window max(2L - 1, 2),
    (b) the all-positive characterization, (c) exact bounds for the
    [1 x g, 0 x k, N] families (completeness up to the bound; above it the
    gaps must go negative by depth = effective_horizon(L, horizon), else
    ConjectureViolation), (d) completeness of the merged generator
    [c_1, ..., c_{L-1} + c_L] implies completeness here, (e) the
    strict-window criterion, and otherwise (f) Incomplete at a negative gap
    from the window to depth, else ConjecturallyComplete at depth.  Every
    rule is a completeness theorem, so the scan past the window is needed
    only where no rule fires.

    `merged`, when given, maps merged coefficient tuples to whether they
    classify as complete at this same `horizon`.  Step (d) reads it before
    classifying a merged generator and fills it after, so callers whose
    vectors share merged generators (siblings [..., a, b] with one a + b)
    classify each of them once.
    """
    L = len(cv)
    window = effective_horizon(L)
    depth = effective_horizon(L, horizon)
    coeffs = cv.coefficients
    seq = cv.sequence

    first_failure = seq.first_gap_below(window)
    if first_failure is not None:
        return _incomplete_at(cv, first_failure)

    if min(coeffs) >= 1:
        if not _all_positive_complete_shape(coeffs):
            # The first c_i != 1 gives B_{i+1} < 0 (or B_{L+1} < 0 after
            # L - 1 ones and c_L >= 3), inside the window scanned above.
            raise RuntimeError(f"{cv} is not all-positive complete yet passed the scan")
        if coeffs == (2,):
            return CompletenessVerdict.complete(ProofTag.make(ProofRule.GEOMETRIC_L1))
        return CompletenessVerdict.complete(ProofTag.make(ProofRule.ALL_POSITIVE))

    shape = families.family_shape(coeffs)
    if shape is not None:
        bound = families.family_bound(shape.g, shape.k)
        if bound is not None:
            if shape.n <= bound.max_n:
                tag = ProofTag.make(
                    _BOUND_RULE_TAGS[bound.rule],
                    g=shape.g,
                    k=shape.k,
                    last=shape.n,
                    bound=bound.max_n,
                )
                return CompletenessVerdict.complete(tag)
            # Proven incomplete, yet B_1..B_window >= 0: the first failure
            # lies past the window.
            late = seq.first_gap_below(depth, start=window + 1)
            if late is not None:
                return _incomplete_at(cv, late)
            raise ConjectureViolation(coeffs, None)

    if L >= 2:
        key = coeffs[:-2] + (coeffs[-2] + coeffs[-1],)
        complete = None if merged is None else merged.get(key)
        if complete is None:
            # The caller's horizon, not this depth: the merged vector's own
            # floor is 2L - 3, and scanning it to 2L - 1 would be deeper than asked.
            # Its H_1..H_{L-1} are this generator's: only c_1..c_{L-2} enter them.
            head = seq.prefix(L - 1)
            complete = classify(CoefficientVector(key, head=head), horizon).is_complete
            if merged is not None:
                merged[key] = complete
        if complete:
            tag = ProofTag.make(
                ProofRule.MERGE_LAST, merged_last=coeffs[-2] + coeffs[-1]
            )
            return CompletenessVerdict.complete(tag)

    if weak_window_check(cv):
        tag = ProofTag.make(ProofRule.WEAK_WINDOW, window_end=window)
        return CompletenessVerdict.complete(tag)

    late = seq.first_gap_below(depth, start=window + 1)
    if late is not None:
        return _incomplete_at(cv, late)
    return CompletenessVerdict.conjecturally_complete(depth)


def verdict_to_json(
    cv: CoefficientVector,
    verdict: CompletenessVerdict,
    gaps: Iterable[int],
) -> dict:
    """Serialize a verdict to the wire schema consumed by the CLI."""
    proof = None
    if verdict.proof is not None:
        proof = {"rule": verdict.proof.rule.value, "parameters": verdict.proof.params}
    return {
        "vector": list(cv.coefficients),
        "verdict": verdict.status.value,
        "proof": proof,
        "first_failure": verdict.first_failure_index,
        "witness": verdict.witness,
        "horizon": verdict.horizon,
        "gaps": list(gaps),
    }


# Imported last to break the module cycle: families drives its empirical
# searches through classify, so it imports this module's names first.
from . import families  # noqa: E402
