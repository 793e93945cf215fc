"""Completeness classification with machine-checkable proof provenance.

A verdict is one of

  * Complete(proof)            -- a named rule certifies completeness,
  * Incomplete(n, witness)     -- Brown's gap first goes negative at term n,
                                  and witness = 1 + H_1 + ... + H_{n-1} is the
                                  smallest integer with no distinct-terms sum,
  * ConjecturallyComplete(h)   -- no gap violation up to horizon h and no
                                  proof rule fired; completeness then rests on
                                  the open first-failure-window conjecture.

The classifier applies rules in the fixed order that window_rules states, so
provenance is deterministic; they read only the gaps up to the window
max(2L - 1, 2), and a vector that no rule decides is scanned on to the
requested horizon.  An independent subset-sum oracle (a bit-vector dynamic
program) is provided for cross-checking verdicts against ground truth on
bounded ranges.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Optional, Sequence as SequenceT

from .errors import CapTooLargeError, ConjectureViolation
from .seqcore import BITMAP_BUDGET_BITS, DEFAULT_ORACLE_CAP, CoefficientVector  # noqa: F401 (re-export)


class ProofRule(str, enum.Enum):
    """Named completeness rules a verdict may cite."""

    ALL_POSITIVE = "all_positive"
    GEOMETRIC_L1 = "geometric_l1"
    FAMILY_SINGLE_ONE = "family_single_one"
    FAMILY_DOUBLE_ONE = "family_double_one"
    FAMILY_G_ONES = "family_g_ones"
    MERGE_LAST = "merge_last"
    WEAK_WINDOW = "weak_window"


class ProofTag(NamedTuple):
    """A rule name plus the rule-specific integers it was applied with."""

    rule: ProofRule
    parameters: tuple[tuple[str, int], ...] = ()  # sorted by name

    @property
    def params(self) -> dict[str, int]:
        return dict(self.parameters)


class VerdictStatus(str, enum.Enum):
    COMPLETE = "complete"
    INCOMPLETE = "incomplete"
    CONJECTURALLY_COMPLETE = "conjecturally_complete"


class CompletenessVerdict(NamedTuple):
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
        return cls(VerdictStatus.INCOMPLETE, first_failure_index=first_failure_index, witness=witness)

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


# --------------------------------------------------------------------------
# Subset-sum oracle


class Reachability(NamedTuple):
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

#: window_rules' answer for a family vector above its exact bound: proven
#: incomplete with no negative window gap, it fails past the window.
FAILS_PAST_WINDOW = "fails past the window"


def window_rules(coeffs: tuple[int, ...], gaps: SequenceT[int], head: SequenceT[int],
                 family: Optional[tuple[int, int, families.BoundResult]],
                 horizon: Optional[int] = None, lasts: Optional[CompleteLasts] = None):
    """Rules (a)-(e) of the classification, read from the window gaps.

    `gaps` = [B_1, ..., B_W] for the window W = max(2L - 1, 2); `head`
    starts with H_1..H_{L-1}; `family` is families.prefix_family(c_1..c_{L-1}),
    which a caller asking many c_L derives once.  In order: (a) the least n
    with B_n < 0 is the first failure; (b) the all-positive characterization;
    (c) exact bounds for the [1 x g, 0 x k, N] families, FAILS_PAST_WINDOW above one;
    (d) completeness of the merged generator [c_1, ..., c_{L-1} + c_L];
    (e) the strict window, B_n > 0 for L <= n <= W.
    Returns that n, a ProofTag, FAILS_PAST_WINDOW, or None when no rule
    fires.  Every rule is a completeness theorem, so only then can a gap
    past the window change the verdict (scan_past_window).  `lasts`, when
    given, is the CompleteLasts of c_1..c_{L-2}, which (d) asks in place of
    building the merged generator.
    """
    if min(gaps) < 0:
        return next(n for n, gap in enumerate(gaps, 1) if gap < 0)
    L = len(coeffs)

    if min(coeffs) >= 1:
        if not _all_positive_complete_shape(coeffs):
            # The first c_i != 1 gives B_{i+1} < 0 (or B_{L+1} < 0 after
            # L - 1 ones and c_L >= 3), inside the window.
            raise RuntimeError(f"{list(coeffs)} is not all-positive complete yet passed the scan")
        return ProofTag(ProofRule.GEOMETRIC_L1 if coeffs == (2,) else ProofRule.ALL_POSITIVE)

    if family is not None:
        g, k, bound = family
        if coeffs[-1] > bound.max_n:
            return FAILS_PAST_WINDOW
        return ProofTag(_BOUND_RULE_TAGS[bound.rule],
                        (("bound", bound.max_n), ("g", g), ("k", k), ("last", coeffs[-1])))

    if L >= 2:
        key = coeffs[:-2] + (coeffs[-2] + coeffs[-1],)
        if lasts is not None:
            complete = lasts.holds(key[-1])
        else:
            # Only c_1..c_{L-2} enter H_1..H_{L-1}, so the merged generator
            # shares them; its H'_L = H_L - 1 + c_L loses the +1 of n < L and
            # gains c_L H_1, so B'_L = B_L + 1 - c_L, inside its window
            # max(2L - 3, 2) >= L.  Above c_L = B_L + 1 its rule (a) fires and
            # it is not Complete, so a single vector builds it only up to there.
            complete = (len(gaps) < L or coeffs[-1] <= gaps[L - 1] + 1) and proves_complete(
                CoefficientVector(key, head=head[: L - 1]), horizon
            )
        if complete:
            return ProofTag(ProofRule.MERGE_LAST, (("merged_last", key[-1]),))

    # Rule (b) has decided every L = 1 vector, so L >= 2 and W = 2L - 1 here.
    if min(gaps[L - 1:], default=0) > 0:
        return ProofTag(ProofRule.WEAK_WINDOW, (("window_end", len(gaps)),))
    return None


def scan_past_window(
    cv: CoefficientVector, horizon: Optional[int], above_bound: bool
) -> CompletenessVerdict:
    """Step (f), for a vector window_rules leaves open: Incomplete at a negative
    gap from the window to effective_horizon(L, horizon), else
    ConjecturallyComplete, or ConjectureViolation when `above_bound`."""
    L = len(cv)
    depth = effective_horizon(L, horizon)
    late = cv.sequence.first_gap_below(depth, start=effective_horizon(L) + 1)
    if late is not None:
        return _incomplete_at(cv, late)
    if above_bound:
        raise ConjectureViolation(cv.coefficients, None)
    return CompletenessVerdict.conjecturally_complete(depth)


# --------------------------------------------------------------------------
# The rules over a range of last coefficients: the window gaps of [prefix, c]
# are lines alpha_n - beta_n c (families.gap_table), so window_rules' answer
# changes only at a few c.


def _cuts(lines: SequenceT[tuple[int, int]], t: int) -> set[int]:
    """The c where alpha - beta c >= t turns true or false, for each line."""
    return {(a - t) // b + 1 if b > 0 else -((a - t) // -b) for a, b in lines if b}


def node_pieces(prefix: tuple[int, ...], table: SequenceT[tuple[int, int]], head: SequenceT[int],
                lo: int, hi: int, lasts: Optional[CompleteLasts], horizon: Optional[int]) -> list:
    """window_rules for [prefix, c], c in range(lo, hi), whose window gaps are
    table's lines, rule (d) asking `lasts`, the CompleteLasts of prefix[:-1].
    A piece [a, b, found] says it answers `found` for every c in range(a, b),
    a ProofRule standing for its ProofTag.  The answer can change only where
    a line turns negative (a) or nonpositive (e), at c = 2 and 3 (b), past
    the family bound (c) or at an end of lasts' ranges (d), so only those c
    are asked."""
    L = len(prefix) + 1
    cuts = {lo, *_cuts(table, 0), *_cuts(table[L - 1:], 1)}
    family = families.prefix_family(prefix)  # the same for every c
    if 0 not in prefix:  # (b) decides every c that passes
        cuts.update((2, 3))
    elif family is not None:  # so does (c)
        cuts.add(family[2].max_n + 1)
    elif lasts is not None:
        cuts.update(s - prefix[-1] for r in lasts.found() for s in r)
    pieces = []
    for a in sorted(c for c in cuts if lo <= c < hi):
        found = window_rules(prefix + (a,), [x - y * a for x, y in table], head, family, horizon, lasts)
        found = found.rule if isinstance(found, ProofTag) else found
        if not pieces or pieces[-1][2] != found:
            if pieces:
                pieces[-1][1] = a
            pieces.append([a, hi, found])
    return pieces


class CompleteLasts:
    """The last coefficients s that make [prefix, s] Complete, as rule (d) of
    [prefix, x, c] asks: its merged generator is [prefix, x + c].

    Found when first asked, by node_pieces over one gap table of the prefix
    and, for rule (d) in turn, the parent's (prefix[:-1]'s), so no merged
    vector is built.  As proves_complete does, an s above a family bound is
    scanned past the window: ConjectureViolation unless it fails there.
    """

    __slots__ = ("prefix", "parent", "horizon", "ranges")

    def __init__(self, prefix: tuple[int, ...], parent: Optional[CompleteLasts], horizon):
        self.prefix, self.parent, self.horizon, self.ranges = prefix, parent, horizon, None

    def holds(self, s: int) -> bool:
        return any(a <= s < b for a, b in self.found())

    def found(self) -> list:
        """These s, as sorted (a, b) ranges."""
        if self.ranges is None:
            self.ranges = self._find()
        return self.ranges

    def _find(self) -> list:
        q = self.prefix
        head, table = families.gap_table(q, effective_horizon(len(q) + 1))
        passing = families.passing_range(table)
        ranges = []
        for a, b, found in node_pieces(q, table, head, passing.start, passing.stop, self.parent, self.horizon):
            if found is FAILS_PAST_WINDOW:
                for s in range(a, b):
                    scan_past_window(CoefficientVector(q + (s,), head=head), self.horizon, True)
            elif isinstance(found, ProofRule):
                ranges.append((a, b))
        return ranges


def _window_rules_of(cv: CoefficientVector, horizon: Optional[int]):
    window = effective_horizon(len(cv))
    seq, c = cv.sequence, cv.coefficients
    return window_rules(c, seq.gaps(window), seq.prefix(window), families.prefix_family(c[:-1]), horizon)


def proves_complete(cv: CoefficientVector, horizon: Optional[int] = None) -> bool:
    """Whether classify(cv, horizon) is Complete, with step (f) only where it
    must find a failure (above a family bound): no outcome of it is Complete."""
    found = _window_rules_of(cv, horizon)
    if found is FAILS_PAST_WINDOW:
        scan_past_window(cv, horizon, True)
    return isinstance(found, ProofTag)


def classify(cv: CoefficientVector, horizon: Optional[int] = None) -> CompletenessVerdict:
    """Classify a generator as complete, incomplete, or conjecturally complete:
    window_rules on its window gaps, then scan_past_window if no rule decides it."""
    found = _window_rules_of(cv, horizon)
    if isinstance(found, ProofTag):
        return CompletenessVerdict.complete(found)
    if isinstance(found, int):
        return _incomplete_at(cv, found)
    return scan_past_window(cv, horizon, found is FAILS_PAST_WINDOW)


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
