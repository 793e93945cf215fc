"""Closed-form maximal-last-coefficient bounds and empirical cross-checks.

For generators shaped [1 x g, 0 x k, N] the largest N keeping the sequence
complete is known exactly in three regimes:

  * g = 1:            N_max = ceil((k+2)(k+3) / 4)
  * g = 2:            N_max = floor((F_{k+6} - k - 5) / 4), Fibonacci with
                      F_1 = 1, F_2 = 2
  * g >= k >= 1:      N_max = 2^{k+1} - ceil(k / 2^{g-k}), which plateaus at
                      2^{k+1} - 1 once g >= k + ceil(log2 k)

The two g-ones expressions agree at the shared boundary g = k + ceil(log2 k)
(the ceiling there is 1), so the regime split is unambiguous.  No closed
form is known for 3 <= g < k.

empirical_max_n recovers these bounds from Brown's gaps, which are affine in
N up to term 2L: one table of their lines (gap_table, which also decides
the census's leaves) gives the largest N passing the window, and
classify's rules, read off the same table, supply the proof there; only an
N that no rule decides is built as a vector and scanned on.  A deeper
horizon only rechecks that N; a first failure it finds past the window is
a ConjectureViolation, not a reason to search lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence as SequenceT

from .errors import ConjectureViolation, OutOfRangeError
from .seqcore import CoefficientVector, nonzero_runs
from .verdicts import (FAILS_PAST_WINDOW, ProofTag, effective_horizon, scan_past_window,
                       window_rules)


@dataclass(frozen=True)
class FamilySpec:
    """Shape parameters of a [1 x g, 0 x k, N] generator."""

    g: int
    k: int
    n: int

    def to_vector(self) -> CoefficientVector:
        return CoefficientVector((1,) * self.g + (0,) * self.k + (self.n,))


def family_shape(coefficients: SequenceT[int]) -> Optional[FamilySpec]:
    """Parse [1 x g, 0 x k, N] with g >= 1, k >= 1; None for any other shape."""
    c = tuple(coefficients)
    if len(c) < 3 or c[-2] != 0 or c[-1] == 0:  # no room for g, k >= 1, no zero before N, or N = 0
        return None
    g = c.index(0)
    if g == 0 or c[:g] != (1,) * g or any(c[g:-1]):
        return None
    return FamilySpec(g, len(c) - 1 - g, c[-1])


@dataclass(frozen=True)
class BoundResult:
    """A maximal last coefficient plus which formula produced it."""

    max_n: int
    rule: str
    exact: bool


def fib(n: int) -> int:
    """Fibonacci under the shifted indexing F_1 = 1, F_2 = 2."""
    if n < 1:
        raise ValueError("index must be >= 1")
    a, b = 1, 2
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def max_n_single_one(k: int) -> BoundResult:
    """Largest complete N for [1, 0 x k, N]: ceil((k+2)(k+3)/4)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return BoundResult(_ceil_div((k + 2) * (k + 3), 4), "single_one", exact=True)


def max_n_double_one(k: int) -> BoundResult:
    """Largest complete N for [1, 1, 0 x k, N]: floor((F_{k+6} - k - 5)/4)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return BoundResult((fib(k + 6) - k - 5) // 4, "double_one", exact=True)


def max_n_g_ones(g: int, k: int) -> Optional[BoundResult]:
    """Largest complete N for [1 x g, 0 x k, N] when g >= k; None for g < k."""
    if g < 1 or k < 1:
        raise ValueError("g and k must be >= 1")
    if g < k:
        return None
    log2k = (k - 1).bit_length()  # ceil(log2 k), with ceil(log2 1) = 0
    if g >= k + log2k:
        return BoundResult(2 ** (k + 1) - 1, "g_ones_plateau", exact=True)
    return BoundResult(2 ** (k + 1) - _ceil_div(k, 2 ** (g - k)), "g_ones_ramp", exact=True)


def family_bound(g: int, k: int) -> Optional[BoundResult]:
    """Best available closed-form bound for the shape (g, k); None if uncovered."""
    if g == 1:
        return max_n_single_one(k)
    if g == 2:
        return max_n_double_one(k)
    if k >= 1 and g >= k:
        return max_n_g_ones(g, k)
    return None


def shifted_one_vector(length: int, i: int, n: int) -> CoefficientVector:
    """[1, 0, ..., 1 at position i, ..., 0, n] of the given length."""
    coeffs = [0] * length
    coeffs[0] = 1
    coeffs[i - 1] = 1
    coeffs[-1] = n
    return CoefficientVector(tuple(coeffs))


def corollary_shift_bound(length: int, i: int) -> BoundResult:
    """A complete (not necessarily maximal) N for one interior 1 moved to slot i.

    For length L >= 6 and 2 <= i <= L-2, the generator with c_1 = 1, c_i = 1,
    all other interior coefficients 0 and last coefficient N is complete for
    N = ceil(L(L+1)/4).  The bound is proven attainable, not proven maximal,
    so exact is False.
    """
    if length < 6:
        raise OutOfRangeError(f"shift bound needs length >= 6, got {length}")
    if not 2 <= i <= length - 2:
        raise OutOfRangeError(f"shift position {i} outside [2, {length - 2}]")
    return BoundResult(_ceil_div(length * (length + 1), 4), "corollary_shift", exact=False)


# --------------------------------------------------------------------------
# Empirical search


@dataclass(frozen=True)
class EmpiricalMax:
    """Largest N that avoids an Incomplete verdict, with proof bookkeeping.

    max_n counts Complete and ConjecturallyComplete alike; proven_max_n is
    the largest N with a proper Complete verdict.  Both are 0 when even
    N = 1 is incomplete.
    """

    max_n: int
    proven_max_n: int
    proof: Optional[ProofTag]


def _validated_prefix(prefix: Iterable[int]) -> tuple[int, ...]:
    p = tuple(map(int, prefix))
    if not p:
        raise ValueError("prefix must be nonempty")
    if p[0] < 1:
        raise ValueError("prefix must start with a positive coefficient")
    if min(p) < 0:
        raise ValueError("prefix coefficients must be nonnegative")
    return p


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


def gap_table(prefix: tuple[int, ...], window: int) -> tuple[list[int], list[tuple[int, int]]]:
    """[H_1, ..., H_L] and the gap lines [(alpha_n, beta_n) for n = 1..window] of
    every [prefix, N]: B_n = alpha_n - beta_n N, for window <= 2L.

    Up to H_{2L}, N = c_L multiplies only H_1..H_L, so H_n = u_n + N v_n, and
    v_n = 0 up to n = L.  As in Sequence, each run of a nonzero c adds c times
    a difference of prefix sums, of u and of v apart, so a term costs O(runs);
    past L, every run (within c_1..c_{L-1}) has ended, so no index is clamped.
    """
    L = len(prefix) + 1
    runs = nonzero_runs(prefix)
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


def window_max_n(prefix: tuple[int, ...], table: SequenceT[tuple[int, int]]) -> int:
    """Largest N >= 1 passing every line of the table; 0 if none.  If the
    passing interval starts above 1, downward closure puts the first failure
    of its lower end past the window: ConjectureViolation, no guess."""
    passing = passing_range(table)
    if passing and passing.start > 1:
        raise ConjectureViolation(prefix + (passing.start,), None)
    return passing[-1] if passing else 0


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
    p = _validated_prefix(prefix)
    L = len(p) + 1
    window = effective_horizon(L)
    head, table = gap_table(p, min(effective_horizon(L, horizon), 2 * L))

    def decide(n: int):
        # A ProofTag, or the verdict of the scan past the window.
        coeffs = p + (n,)
        found = window_rules(coeffs, [a - b * n for a, b in table[:window]], head, horizon)
        if found is None or found is FAILS_PAST_WINDOW:
            cv = CoefficientVector(coeffs, head=head)
            return scan_past_window(cv, horizon, found is FAILS_PAST_WINDOW)
        return found

    max_n = window_max_n(p, table)
    shape = family_shape(p + (1,))
    bound = family_bound(shape.g, shape.k) if shape else None
    if bound is not None:
        max_n = min(max_n, bound.max_n)
    for n in range(max_n, 0, -1):
        found = decide(n)
        if isinstance(found, ProofTag):
            return EmpiricalMax(max_n, n, found)
        if n == max_n and found.is_incomplete:
            raise ConjectureViolation(p + (max_n,), found.first_failure_index)
    return EmpiricalMax(max_n, 0, None)


@dataclass(frozen=True)
class FigureRow:
    k: int
    g: int
    empirical_max_n: int
    closed_form_max_n: Optional[int]
    provenance: str


def _figure_cell(k: int, g: int) -> FigureRow:
    emp = empirical_max_n((1,) * g + (0,) * k)
    closed = max_n_g_ones(g, k)
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
    ks = list(k_values)
    gs = list(g_values)
    if not ks or not gs:
        raise ValueError("k and g ranges must be nonempty")
    if any(k < 1 for k in ks) or any(g < 1 for g in gs):
        raise ValueError("k and g must be >= 1")
    return [_figure_cell(k, g) for k in ks for g in gs]


FIGURE_CSV_HEADER = ["k", "g", "empirical_max_n", "closed_form_max_n", "provenance"]


def parse_figure_csv(text: str) -> list[FigureRow]:
    """Parse the CSV that `figure --format csv` prints."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ",".join(FIGURE_CSV_HEADER):
        raise ValueError("unexpected figure CSV header")
    rows = []
    for ln in lines[1:]:
        k, g, emp, closed, prov = ln.split(",")
        rows.append(
            FigureRow(int(k), int(g), int(emp), int(closed) if closed else None, prov)
        )
    return rows
