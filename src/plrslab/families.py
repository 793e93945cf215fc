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
N up to term 2L: two gap lists, at N = 1 and N = 2, give the largest N
passing the window, and one classify call there supplies the proof.  A
deeper horizon only rechecks that N; a first failure it finds past the
window is a ConjectureViolation, not a reason to search lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence as SequenceT

from .errors import ConjectureViolation, OutOfRangeError
from .seqcore import CoefficientVector
from .verdicts import AnalysisConfig, ProofTag, classify


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
    g = 0
    while g < len(c) and c[g] == 1:
        g += 1
    if g == 0:
        return None
    j = g
    while j < len(c) and c[j] == 0:
        j += 1
    k = j - g
    if k == 0 or j != len(c) - 1:
        return None
    return FamilySpec(g, k, c[-1])


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
    p = tuple(int(x) for x in prefix)
    if not p:
        raise ValueError("prefix must be nonempty")
    if p[0] < 1:
        raise ValueError("prefix must start with a positive coefficient")
    if any(x < 0 for x in p):
        raise ValueError("prefix coefficients must be nonnegative")
    return p


def window_max_n(
    prefix: tuple[int, ...], gaps_at_1: SequenceT[int], gaps_at_2: SequenceT[int]
) -> int:
    """Largest N >= 1 keeping every gap B_n(N) = alpha_n - beta_n N >= 0; 0 if none.

    The gaps are B_1..B_h of [prefix, 1] and [prefix, 2], h <= 2L, so
    beta_n = B_n(1) - B_n(2) and alpha_n = B_n(1) + beta_n.  The passing N
    form an interval; if it starts above 1, downward closure puts the first
    failure of its lower end past the window: ConjectureViolation, no guess.
    """
    lines = [(2 * b1 - b2, b1 - b2) for b1, b2 in zip(gaps_at_1, gaps_at_2)]
    if any(beta == 0 and alpha < 0 for alpha, beta in lines):
        return 0
    hi = min(alpha // beta for alpha, beta in lines if beta > 0)
    lo = max((-(alpha // -beta) for alpha, beta in lines if beta < 0), default=1)
    if hi < max(lo, 1):
        return 0
    if lo > 1:
        raise ConjectureViolation(prefix + (lo,), None)
    return hi


def empirical_max_n(
    prefix: Iterable[int], config: Optional[AnalysisConfig] = None
) -> EmpiricalMax:
    """The largest N with a non-Incomplete verdict for [prefix, N].

    For n <= 2L, N multiplies only H_1..H_{n-L} in the gaps, so
    window_max_n finds the largest N passing B_1..B_{min(h, 2L)} from two
    gap lists, capped by the family bound, and classify runs once there.
    Every smaller N passes the same gaps.  A horizon h past 2L can make
    that verdict Incomplete only by a first failure past 2L, which raises
    ConjectureViolation.  A conjectural verdict steps down to the largest
    N with a proof.
    """
    p = _validated_prefix(prefix)
    cfg = config or AnalysisConfig()
    L = len(p) + 1
    horizon = cfg.effective_horizon(L)

    def verdict_at(n: int):
        return classify(CoefficientVector(p + (n,)), cfg)

    gaps = (CoefficientVector(p + (n,)).sequence.gaps(min(horizon, 2 * L)) for n in (1, 2))
    max_n = window_max_n(p, *gaps)
    shape = family_shape(p + (1,))
    bound = family_bound(shape.g, shape.k) if shape else None
    if bound is not None:
        max_n = min(max_n, bound.max_n)
    if not max_n:
        return EmpiricalMax(0, 0, None)
    top = verdict_at(max_n)
    if top.is_incomplete:
        raise ConjectureViolation(p + (max_n,), top.first_failure_index)
    if top.is_complete:
        return EmpiricalMax(max_n, max_n, top.proof)
    for n in range(max_n - 1, 0, -1):
        v = verdict_at(n)
        if v.is_complete:
            return EmpiricalMax(max_n, n, v.proof)
    return EmpiricalMax(max_n, 0, None)


@dataclass(frozen=True)
class FigureRow:
    k: int
    g: int
    empirical_max_n: int
    closed_form_max_n: Optional[int]
    provenance: str


def _figure_cell(k: int, g: int, cfg: AnalysisConfig) -> FigureRow:
    emp = empirical_max_n((1,) * g + (0,) * k, cfg)
    closed = max_n_g_ones(g, k)
    if emp.max_n == 0:
        provenance = "none"
    elif emp.proven_max_n == emp.max_n and emp.proof is not None:
        provenance = emp.proof.rule.value
    else:
        provenance = "conjectural"
    return FigureRow(k, g, emp.max_n, closed.max_n if closed else None, provenance)


def figure1_table(
    k_values: Iterable[int],
    g_values: Iterable[int],
    config: Optional[AnalysisConfig] = None,
) -> list[FigureRow]:
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
    cfg = config or AnalysisConfig()
    return [_figure_cell(k, g, cfg) for k in ks for g in gs]


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
