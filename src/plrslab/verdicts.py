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

Up to term 2L, N = c_L multiplies only H_1..H_L, so each gap of [prefix, N]
is a line alpha_n - beta_n N.  One table of them (gap_table) decides the
census's leaves a range of c_L at a time (node_pieces, CompleteLasts), and
gives the empirical search (empirical_max_n) the largest N that is not
Incomplete, against which the closed forms of families are checked.  For
the paper's family [1 x g, 0 x k, N] every line is a lookup into prefix
sums: with S_j = H_1 + ... + H_j (0 for j <= 0), B_n = S_{n-1-g} up to
n = L, and past it alpha_n = 1 + U_{n-1-g} and beta_n = H_{n-L} - V_{n-1-g},
for the prefix sums U and V of H_n = u_n + N v_n.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Optional, Sequence as SequenceT

from .errors import CapExceededError, ConjectureViolation
from .families import BoundResult, family_bound, max_n_g_ones, prefix_family
from .seqcore import (BITMAP_BUDGET_BITS, DEFAULT_ORACLE_CAP, CoefficientVector,  # noqa: F401 (re-export)
                      nonzero_runs)


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
        raise CapExceededError(
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
                 family: Optional[tuple[int, int, BoundResult]],
                 horizon: Optional[int] = None, lasts: Optional[CompleteLasts] = None):
    """Rules (a)-(e) of the classification, read from the window gaps.

    `gaps` = [B_1, ..., B_W] for the window W = max(2L - 1, 2); `head`
    starts with H_1..H_{L-1}; `family` is prefix_family(c_1..c_{L-1}),
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
            complete = coeffs[-1] <= gaps[L - 1] + 1 and proves_complete(
                CoefficientVector(key, head=head[: L - 1]), horizon
            )
        if complete:
            return ProofTag(ProofRule.MERGE_LAST, (("merged_last", key[-1]),))

    # Rule (b) has decided every L = 1 vector, so L >= 2 and W = 2L - 1 here.
    if min(gaps[L - 1:]) > 0:
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
# are lines alpha_n - beta_n c (gap_table), so window_rules' answer changes
# only at a few c.


def gap_table(prefix: tuple[int, ...], window: int) -> tuple[list[int], list[tuple[int, int]]]:
    """[H_1, ..., H_L] and the gap lines [(alpha_n, beta_n) for n = 1..window] of
    every [prefix, N]: B_n = alpha_n - beta_n N, for window <= 2L.

    Up to H_{2L}, N = c_L multiplies only H_1..H_L, so H_n = u_n + N v_n, and
    v_n = 0 up to n = L.  As in Sequence, each run of a nonzero c adds c times
    a difference of prefix sums, of u and of v apart, so a term costs O(runs);
    past L, every run (within c_1..c_{L-1}) has ended, so no index is clamped.

    The paper's family [1 x g, 0 x k] has a loop of its own, as each line is
    a lookup into the prefix sums U_j of u and V_j of v (0 for j <= 0):
    B_n = U_{n-1-g} up to n = L, and past it alpha_n = 1 + U_{n-1-g} and
    beta_n = H_{n-L} - V_{n-1-g}.
    """
    L = len(prefix) + 1
    runs = nonzero_runs(prefix)
    if len(runs) == 1 and runs[0][0] == 0 and runs[0][2] == 1:  # [1 x g, 0 x k]
        return _ones_table(runs[0][1], L, window)
    head, us = [], [0]  # us[k] = u_1 + ... + u_k
    for m in range(min(window, L)):  # H_{m+1} = u_{m+1}
        a = 1
        for start, stop, c in runs:
            if start >= m:
                break
            d = us[m - start] - us[m - stop if m > stop else 0]
            a += d if c == 1 else c * d
        head.append(a)
        us.append(us[m] + a)
    table = [(1 + s - a, 0) for s, a in zip(us, head)]  # B_{m+1} = 1 + S_m - H_{m+1}
    vs = [0] * len(us)  # vs[k] = v_1 + ... + v_k
    for m in range(L, window):  # H_{m+1} = a + N b
        a, b = 0, head[m - L]
        for start, stop, c in runs:
            if c == 1:
                a += us[m - start] - us[m - stop]
                b += vs[m - start] - vs[m - stop]
            else:
                a += c * (us[m - start] - us[m - stop])
                b += c * (vs[m - start] - vs[m - stop])
        table.append((1 + us[m] - a, b - vs[m]))
        us.append(us[m] + a)
        vs.append(vs[m] + b)
    return head, table


def _ones_table(g: int, L: int, window: int) -> tuple[list[int], list[tuple[int, int]]]:
    # gap_table of [1 x g, 0 x (L - 1 - g)]: u_{m+1} = [m < L] + U_m - U_{m-g}
    # and v_{m+1} = H_{m+1-L} + V_m - V_{m-g}.
    us = [0] * (g + 1)  # us[m] = U_{m-g}
    head, table = [], []
    for m in range(min(window, L)):
        a = 1 + us[-1] - us[m]
        head.append(a)
        table.append((us[m], 0))
        us.append(us[-1] + a)
    vs = [0] * len(us)  # vs[m] = V_{m-g}, and V_j = 0 up to j = L
    for m in range(L, window):  # U_{m+1} = 2 U_m - U_{m-g}, V_{m+1} = 2 V_m + beta
        b = head[m - L] - vs[m]
        table.append((1 + us[m], b))
        us.append(2 * us[-1] - us[m])
        vs.append(2 * vs[-1] + b)
    return head, table


def table_terms(head: SequenceT[int], lines: SequenceT[tuple[int, int]], c: int) -> list[int]:
    """[H_1, ..., H_W] of [prefix, c], given gap_table's [H_1, ..., H_L] and W
    gap lines: B_n = 1 + S_{n-1} - H_n, so S_n = 2 S_{n-1} + 1 - B_n past L."""
    terms, s = list(head), sum(head)
    for n in range(len(head), len(lines)):
        alpha, beta = lines[n]
        h = s + 1 - alpha + beta * c
        terms.append(h)
        s += h
    return terms


def passing_range(lines: SequenceT[tuple[int, int]]) -> range:
    """The N >= 1 keeping every gap alpha - beta N >= 0, given its lines
    (alpha, beta), at least one with beta > 0: an interval, maybe empty."""
    lo, hi = 1, None
    for alpha, beta in lines:  # alpha < x beta iff alpha / beta < x for beta > 0, > x for beta < 0
        if beta > 0 and (hi is None or alpha < hi * beta):
            hi = alpha // beta
        elif beta < 0 and alpha < lo * beta:
            lo = -(alpha // -beta)
        elif beta == 0 and alpha < 0:
            return range(0)
    return range(lo, hi + 1)


def window_max_n(prefix: tuple[int, ...], table: SequenceT[tuple[int, int]]) -> int:
    """Largest N >= 1 passing every line of the table; 0 if none.  If the
    passing interval starts above 1, downward closure puts the first failure
    of its lower end past the window: ConjectureViolation, no guess."""
    passing = passing_range(table)
    if passing and passing.start > 1:
        raise ConjectureViolation(prefix + (passing.start,), None)
    return passing[-1] if passing else 0


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
    family = prefix_family(prefix)  # the same for every c
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
    scanned past the window, from its terms off the table (table_terms):
    ConjectureViolation unless it fails there.
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
        head, table = gap_table(q, effective_horizon(len(q) + 1))
        passing = passing_range(table)
        ranges = []
        for a, b, found in node_pieces(q, table, head, passing.start, passing.stop, self.parent, self.horizon):
            if found is FAILS_PAST_WINDOW:
                for s in range(a, b):
                    scan_past_window(CoefficientVector(q + (s,), head=table_terms(head, table, s)), self.horizon, True)
            elif isinstance(found, ProofRule):
                ranges.append((a, b))
        return ranges


def _window_rules_of(cv: CoefficientVector, horizon: Optional[int]):
    window = effective_horizon(len(cv))
    seq, c = cv.sequence, cv.coefficients
    return window_rules(c, seq.gaps(window), seq.prefix(window), prefix_family(c[:-1]), horizon)


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


# --------------------------------------------------------------------------
# Empirical search


class EmpiricalMax(NamedTuple):
    """Largest N that avoids an Incomplete verdict, with proof bookkeeping.

    max_n counts Complete and ConjecturallyComplete alike; proven_max_n is
    the largest N with a proper Complete verdict.  Both are 0 when even
    N = 1 is incomplete.
    """

    max_n: int
    proven_max_n: int
    proof: Optional[ProofTag]


def empirical_max_n(prefix: Iterable[int], horizon: Optional[int] = None) -> EmpiricalMax:
    """The largest N with a non-Incomplete verdict for [prefix, N].

    One gap_table to min(h, 2L) gives the largest N passing its lines
    (window_max_n), capped by the family bound; every smaller N passes them
    too.  Each probed N is decided as classify would: window_rules reads its
    window gaps off the table, and only an N that no rule decides is built,
    from the table's H_1..H_L, and scanned past the window.  A horizon h past
    2L can make the largest N Incomplete only by a first failure past 2L,
    which raises ConjectureViolation.  A conjectural verdict steps down to
    the largest N with a proof.
    """
    p = tuple(prefix)
    if not p:
        raise ValueError("prefix must be nonempty")
    CoefficientVector(p + (1,))  # validates the prefix
    return _max_n(p, prefix_family(p), horizon)


def _max_n(p: tuple[int, ...], family: Optional[tuple], horizon: Optional[int]) -> EmpiricalMax:
    # empirical_max_n of a valid prefix p whose prefix_family is `family`.
    L = len(p) + 1
    window = effective_horizon(L)
    head, table = gap_table(p, min(effective_horizon(L, horizon), 2 * L))

    def decide(n: int):
        # A ProofTag, or the verdict of the scan past the window.
        coeffs = p + (n,)
        found = window_rules(coeffs, [a - b * n for a, b in table[:window]], head, family, horizon)
        if found is None or found is FAILS_PAST_WINDOW:
            cv = CoefficientVector(coeffs, head=head)
            return scan_past_window(cv, horizon, found is FAILS_PAST_WINDOW)
        return found

    max_n = window_max_n(p, table)
    if family is not None:
        max_n = min(max_n, family[2].max_n)
    for n in range(max_n, 0, -1):
        found = decide(n)
        if isinstance(found, ProofTag):
            return EmpiricalMax(max_n, n, found)
        if n == max_n and found.is_incomplete:
            raise ConjectureViolation(p + (max_n,), found.first_failure_index)
    return EmpiricalMax(max_n, 0, None)


class FigureRow(NamedTuple):
    k: int
    g: int
    empirical_max_n: int
    closed_form_max_n: Optional[int]
    provenance: str


def _figure_cell(k: int, g: int) -> FigureRow:
    # empirical_max_n of [1 x g, 0 x k], whose family is (g, k, family_bound(g, k)).
    if g < 1 or k < 1:
        raise ValueError("k and g must be >= 1")
    bound = family_bound(g, k)
    emp = _max_n((1,) * g + (0,) * k, None if bound is None else (g, k, bound), None)
    closed = bound if g >= 3 else max_n_g_ones(g, k)  # family_bound is the g-ones form from g = 3
    if emp.max_n == 0:
        provenance = "none"
    elif emp.proven_max_n == emp.max_n and emp.proof is not None:
        provenance = emp.proof.rule.value
    else:
        provenance = "conjectural"
    return FigureRow(k, g, emp.max_n, closed.max_n if closed else None, provenance)


def figure1_table(k_values: Iterable[int], g_values: Iterable[int]) -> list[FigureRow]:
    """One row per (k, g): empirical max N next to the g-ones closed form.

    The closed-form column is filled only where the g-ones bound applies
    (g >= k); other cells stay empty even though the g = 1 and g = 2
    formulas exist, so the table mirrors exactly one family of curves.
    """
    ks, gs = list(k_values), list(g_values)
    if not ks or not gs:
        raise ValueError("k and g ranges must be nonempty")
    return [_figure_cell(k, g) for k in ks for g in gs]


FIGURE_CSV_HEADER = ["k", "g", "empirical_max_n", "closed_form_max_n", "provenance"]
