"""Legal digit strings (generalized Zeckendorf) and distinct-term sums.

A digit string a_1 ... a_m (most significant first) denotes the value
sum_i a_i * H_{m+1-i} over the terms of a generator [c_1, ..., c_L].
The string is *legal* when a_1 > 0, every a_i >= 0, and either

  1. m < L and a_i = c_i for all i <= m, or
  2. some s in {1, ..., L} has a_1 = c_1, ..., a_{s-1} = c_{s-1} and
     a_s < c_s, followed by any number of zeros, followed by a remainder
     block that is itself legal or empty.

Every nonnegative integer has exactly one legal string (the generalized
Zeckendorf decomposition), with one degenerate exception: the constant
generator [1] admits no nonempty legal string at all, because a block must
open with a digit below c_1 = 1.

Construction here is greedy, most significant digit first.  Its state is
either "between blocks" or "matched the first s coefficients of the
current block".  The largest value a legal completion of P digits can take
is H_{P+1} - 1 between blocks, and that minus the matched digits' value
inside a block, so the greedy loop needs no lookahead table: it takes the
next coefficient whenever it fits and closes the block otherwise.  The
exhaustive enumerator below is kept deliberately independent of that
machinery (it filters raw digit strings through the legality predicate) so
it can serve as the oracle for the constructive path.

All three searches bisect the terms <= N, refused once they could pass the
memory budget.  Distinct sums follow Brown: up to the first negative gap the
sums of distinct H_1..H_j fill [0, S_j], so bit vectors start only there.
render_pieces also takes terms in decimal, as seqcore.term_texts renders
them, in time linear in their digits past its cut.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence as SequenceT

from .errors import CapExceededError, CapTooLargeError, NoLegalDecompositionError
from .seqcore import BITMAP_BUDGET_BITS, DEFAULT_ORACLE_CAP, CoefficientVector

DigitString = tuple[int, ...]

#: Ceiling for the brute-force enumeration oracle.
ENUM_CAP = 200


@dataclass(frozen=True)
class DistinctDecomposition:
    """Distinct term indices (1-based, increasing) summing to a target."""

    indices: tuple[int, ...]
    terms: tuple[int, ...]

    @property
    def value(self) -> int:
        return sum(self.terms)


def value_of(cv: CoefficientVector, digits: SequenceT[int]) -> int:
    """sum_i a_i * H_{m+1-i}; the empty string has value 0."""
    m = len(digits)
    if m == 0:
        return 0
    prefix = cv.sequence.prefix(m)
    return sum(d * prefix[m - 1 - i] for i, d in enumerate(digits))


def is_legal(cv: CoefficientVector, digits: SequenceT[int]) -> bool:
    """Decide legality of a digit string by direct block recursion, in one pass."""
    c = cv.coefficients
    L = len(c)
    a, m = digits, len(digits)
    if any(d < 0 for d in a):
        return False
    i = 0  # start of the current block
    while i < m:
        if a[i] == 0:
            return False
        j = 0
        while i + j < m and j < L and a[i + j] == c[j]:
            j += 1
        if i + j == m:
            return j < L  # exact coefficient prefix may only end a string
        if j == L:
            return False  # matched all L coefficients with digits left over
        if a[i + j] > c[j]:
            return False
        # Block closes at offset j with a digit below c_{j+1}; skip trailing zeros.
        i += j + 1
        while i < m and a[i] == 0:
            i += 1
    return True


def _terms_upto(cv: CoefficientVector, n: int) -> list[int]:
    """[H_1, ..., H_k] for the largest k with H_k <= n (n >= 1, cv not [1]).

    Visits H_L, H_2L, ... up to the first above n, as H_{k+L} >= 2 H_k, then
    bisects; refused once its k terms of up to bits(H_k) bits pass the budget.
    Visits that can neither stop nor refuse are skipped: as bits(H_{m+1}) <=
    bits(H_m) + g for g = bits(c_1 + ... + c_L), the j terms after H_k stay
    below 2^(b-1) <= n while bits(H_k) + j g < b = bits(n), and inside the
    budget while (k + j) b is."""
    step = k = len(cv)
    g, b = sum(cv.coefficients).bit_length(), n.bit_length()
    while (h := cv.sequence.term(k)) <= n:
        if k * h.bit_length() > BITMAP_BUDGET_BITS:
            raise CapExceededError(f"the terms of {list(cv)} up to a {b}-bit N may need "
                                   f"over the {BITMAP_BUDGET_BITS}-bit budget")
        j = min((b - 1 - h.bit_length()) // g, BITMAP_BUDGET_BITS // b - k)
        k += max(step, j // step * step)
    terms = cv.sequence.prefix(k)
    return terms[:bisect_right(terms, n)]


def legal_decompose(cv: CoefficientVector, n: int) -> DigitString:
    """The legal digit string with value n, built greedily.

    The string has m digits for the m with H_m <= n < H_{m+1} (refused when
    those terms could pass the memory budget).  Between blocks with P
    positions left the remainder stays below H_{P+1}, the largest value a
    legal completion of P digits can take; so with c_1..c_s matched, the
    next digit is c_{s+1} if s + 1 < L and c_{s+1} H_j fits, else remainder
    // H_j (below c_{s+1}), closing the block: 0 at one comparison, others by
    subtracting H_j (one divmod if c_{s+1} > 4).  n = 0 maps to the empty string.
    """
    if n < 0:
        raise ValueError("target must be >= 0")
    if n == 0:
        return ()
    if cv.coefficients == (1,):
        raise NoLegalDecompositionError(
            "the constant generator [1] only represents 0; every nonempty "
            "block would need a first digit below c_1 = 1"
        )
    c = cv.coefficients
    L = len(c)
    terms = _terms_upto(cv, n)
    m = len(terms)
    terms.append(cv.sequence.term(m + 1))  # H_1 .. H_{m+1}

    digits: list[int] = []
    remaining = n
    state = 0  # 0 = between blocks, s >= 1 = matched c_1..c_s in current block
    for j in range(m, 0, -1):
        h = terms[j - 1]
        if remaining < h:  # digit 0: it matches c_{s+1} = 0 (never c_L) or closes the block
            d, state = 0, state + 1 if c[state] == 0 else 0
        elif state == 0 and remaining >= terms[j]:
            raise RuntimeError(f"no legal continuation for {n} under {cv}")
        else:
            cnext = c[state]
            if cnext > 4:  # one divmod, where subtracting could take many steps
                d, r = divmod(remaining, h)
                d, remaining = (d, r) if d < cnext else (cnext, remaining - cnext * h)
            else:
                d = 0
                while d < cnext and remaining >= h:
                    d, remaining = d + 1, remaining - h
            state = state + 1 if d == cnext else 0
            if state == L:  # the digit is c_L or more
                raise RuntimeError(f"no legal continuation for {n} under {cv}")
        digits.append(d)
    if remaining != 0:
        raise RuntimeError(f"greedy construction missed {n} under {cv}")
    return tuple(digits)


def enumerate_legal(cv: CoefficientVector, n: int) -> list[DigitString]:
    """All legal digit strings with value n, by brute force.

    Enumerates raw digit strings (digits up to max c_i, length up to the
    last term <= n) pruned only on value, then filters through is_legal.
    Kept independent of the greedy construction so it can act as its
    uniqueness oracle.
    """
    if n < 0:
        raise ValueError("target must be >= 0")
    if n > ENUM_CAP:
        raise CapExceededError(f"target {n} above the enumeration cap {ENUM_CAP}")
    if n == 0:
        return [()]
    c = cv.coefficients
    if c == (1,):
        return []
    maxd = max(c)
    values = _terms_upto(cv, n)

    found: list[DigitString] = []

    def search(msf_terms: list[int], suffix_max: list[int], acc: list[int], rem: int) -> None:
        if not msf_terms:
            if rem == 0:
                digits = tuple(acc)
                if is_legal(cv, digits):
                    found.append(digits)
            return
        if rem > suffix_max[len(acc)]:
            return  # even all-max digits cannot reach the target
        h = msf_terms[0]
        lo = 1 if not acc else 0  # leading digit must be positive
        for d in range(lo, maxd + 1):
            v = d * h
            if v > rem:
                break
            acc.append(d)
            search(msf_terms[1:], suffix_max, acc, rem - v)
            acc.pop()

    for length in range(1, len(values) + 1):
        msf = values[:length][::-1]
        suffix_max = [maxd * sum(msf[i:]) for i in range(length + 1)]
        search(msf, suffix_max, [], n)
    return found


def check_distinct_cap(n: int, cap: int) -> None:
    """Refuse a distinct-sum target above cap, naming it by its bit length."""
    if n > cap:
        raise CapExceededError(f"target of {n.bit_length()} bits above the distinct-sum cap {cap}")


def distinct_decompose(
    cv: CoefficientVector, n: int, *, cap: int = DEFAULT_ORACLE_CAP
) -> Optional[DistinctDecomposition]:
    """A set of distinct terms summing to n, or None when no such set exists.

    Back-traces over the sums of distinct terms <= n, preferring the largest
    usable term at each step.  By Brown's criterion the sums of H_1..H_j are
    the interval [0, S_j] while B_1..B_j >= 0, so subset-sum bit vectors
    start at the first negative gap; a complete generator needs none.
    """
    if n < 1:
        raise ValueError("target must be >= 1")
    check_distinct_cap(n, cap)
    if cv.coefficients == (1,):
        # All terms equal 1, so n ones (indices 1..n) always work.
        return DistinctDecomposition(tuple(range(1, n + 1)), (1,) * n)
    terms = _terms_upto(cv, n)
    if (len(terms) + 1) * (n + 1) > BITMAP_BUDGET_BITS:
        raise CapTooLargeError(
            f"back-trace over {len(terms)} terms for a {n.bit_length()}-bit target "
            "exceeds the bitmap budget"
        )
    seq = cv.sequence
    f = seq.first_gap_below(len(terms)) or len(terms) + 1
    layers = []  # layers[j]: the sums of H_1..H_{f+j} up to n, as bits
    if f <= len(terms):
        full = (1 << (n + 1)) - 1
        bits = (1 << (seq.partial_sum(f - 1) + 1)) - 1  # the sums of H_1..H_{f-1}, as S_{f-1} < H_f <= n
        for t in terms[f - 1:]:
            bits = (bits | (bits << t)) & full
            layers.append(bits)
    if not (layers[-1] >> n & 1 if layers else n <= seq.partial_sum(len(terms))):
        return None
    picked, rem = [], n
    for i in range(len(terms), 0, -1):
        t = terms[i - 1]
        if t <= rem and (rem - t <= seq.partial_sum(i - 1) if i <= f else layers[i - 1 - f] >> (rem - t) & 1):
            picked.append(i)
            rem -= t
    if rem != 0:
        raise RuntimeError(f"back-trace failed for {n} under {cv}")
    picked.reverse()
    return DistinctDecomposition(tuple(picked), tuple(terms[i - 1] for i in picked))


def render_decomposition(cv: CoefficientVector, digits: SequenceT[int]) -> str:
    """Human-readable form, e.g. "9 = 1·5 + 2·2" or "10 = 8 + 2".

    Multipliers are spelled out whenever any digit exceeds 1; a pure 0/1
    string prints as a plain sum of terms.
    """
    terms = reversed(cv.sequence.prefix(len(digits))) if digits else ()
    return "".join(render_pieces(value_of(cv, digits), digits, terms))


def render_pieces(total: int, digits: SequenceT[int], terms) -> Iterator[str]:
    """render_decomposition's text in pieces, none needing JSON escapes; terms[i]
    (H_{m-i}, under digits[i]) may be an int or its decimal text."""
    yield f"{total} = "
    multipliers = any(d > 1 for d in digits)
    sep = ""
    for d, t in zip(digits, terms):
        if d:
            yield f"{sep}{d}·" if multipliers else sep
            yield str(t)
            sep = " + "
    if not sep:  # no nonzero digit, so the total is 0
        yield "0"
