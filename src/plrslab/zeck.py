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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence as SequenceT

from .errors import CapExceededError, CapTooLargeError, NoLegalDecompositionError
from .seqcore import CoefficientVector

DigitString = tuple[int, ...]

#: Default ceiling for the brute-force enumeration oracle.
DEFAULT_ENUM_CAP = 200

#: Default ceiling for subset-sum back-traced distinct decompositions.
DEFAULT_DISTINCT_CAP = 10**6

#: Memory budget (bits) for the stack of back-trace bitmaps.
BACKTRACE_BUDGET_BITS = 2**28


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
    seq = cv.sequence
    prefix = seq.prefix(m)
    return sum(d * prefix[m - 1 - i] for i, d in enumerate(digits))


def is_legal(cv: CoefficientVector, digits: SequenceT[int]) -> bool:
    """Decide legality of a digit string by direct block recursion."""
    c = cv.coefficients
    L = len(c)
    a = tuple(digits)
    if any(d < 0 for d in a):
        return False
    while a:
        if a[0] == 0:
            return False
        m = len(a)
        j = 0
        while j < m and j < L and a[j] == c[j]:
            j += 1
        if j == m:
            return m < L  # exact coefficient prefix may only end a string
        if j == L:
            return False  # matched all L coefficients with digits left over
        if a[j] > c[j]:
            return False
        # Block closes at position j+1 with a[j] < c[j]; skip trailing zeros.
        t = j + 1
        while t < m and a[t] == 0:
            t += 1
        a = a[t:]
    return True


def legal_decompose(cv: CoefficientVector, n: int) -> DigitString:
    """The legal digit string with value n, built greedily.

    The string has m digits for the m with H_m <= n < H_{m+1}.  Between
    blocks with P positions left the remainder stays below H_{P+1}, the
    largest value a legal completion of P digits can take; so with c_1..c_s
    matched, the next block digit c_{s+1} is taken whenever s + 1 < L and
    c_{s+1} * H_j still fits, and otherwise remainder // H_j closes the block
    (it is below c_{s+1}).  n = 0 maps to the empty string.
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
    seq = cv.sequence
    m = 1
    while seq.term(m + 1) <= n:
        m += 1
    terms = seq.prefix(m + 1)  # H_1 .. H_{m+1}

    digits: list[int] = []
    remaining = n
    state = 0  # 0 = between blocks, s >= 1 = matched c_1..c_s in current block
    for j in range(m, 0, -1):
        h = terms[j - 1]
        if state == 0 and remaining >= terms[j]:
            raise RuntimeError(f"no legal continuation for {n} under {cv}")
        cnext = c[state]
        if state + 1 < L and cnext * h <= remaining:
            d, state = cnext, state + 1
        else:
            d, state = remaining // h, 0
            if d >= cnext:
                raise RuntimeError(f"no legal continuation for {n} under {cv}")
        digits.append(d)
        remaining -= d * h
    if remaining != 0:
        raise RuntimeError(f"greedy construction missed {n} under {cv}")
    return tuple(digits)


def enumerate_legal(
    cv: CoefficientVector, n: int, *, cap: int = DEFAULT_ENUM_CAP
) -> list[DigitString]:
    """All legal digit strings with value n, by brute force.

    Enumerates raw digit strings (digits up to max c_i, length up to the
    last term <= n) pruned only on value, then filters through is_legal.
    Kept independent of the greedy construction so it can act as its
    uniqueness oracle.
    """
    if n < 0:
        raise ValueError("target must be >= 0")
    if n > cap:
        raise CapExceededError(f"target {n} above the enumeration cap {cap}")
    if n == 0:
        return [()]
    c = cv.coefficients
    if c == (1,):
        return []
    maxd = max(c)
    seq = cv.sequence
    values: list[int] = []  # H_1.. while <= n
    i = 1
    while True:
        h = seq.term(i)
        if h > n:
            break
        values.append(h)
        i += 1

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


def distinct_decompose(
    cv: CoefficientVector,
    n: int,
    *,
    cap: int = DEFAULT_DISTINCT_CAP,
    budget_bits: int = BACKTRACE_BUDGET_BITS,
) -> Optional[DistinctDecomposition]:
    """A set of distinct terms summing to n, or None when no such set exists.

    Runs the subset-sum bit vector over every term <= n and back-traces,
    preferring the largest usable term at each step.
    """
    if n < 1:
        raise ValueError("target must be >= 1")
    if n > cap:
        raise CapExceededError(f"target {n} above the distinct-sum cap {cap}")
    if cv.coefficients == (1,):
        # All terms equal 1, so n ones (indices 1..n) always work.
        return DistinctDecomposition(tuple(range(1, n + 1)), (1,) * n)
    seq = cv.sequence
    terms: list[int] = []
    i = 1
    while True:
        h = seq.term(i)
        if h > n:
            break
        terms.append(h)
        i += 1
    if (len(terms) + 1) * (n + 1) > budget_bits:
        raise CapTooLargeError(
            f"back-trace over {len(terms)} terms at cap {n} exceeds the bitmap budget"
        )
    full = (1 << (n + 1)) - 1
    layers = [1]
    bits = 1
    for t in terms:
        bits = (bits | (bits << t)) & full
        layers.append(bits)
    if not (bits >> n) & 1:
        return None
    picked: list[int] = []
    rem = n
    for i in range(len(terms), 0, -1):
        t = terms[i - 1]
        if t <= rem and (layers[i - 1] >> (rem - t)) & 1:
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
    total = value_of(cv, digits)
    m = len(digits)
    if m == 0 or all(d == 0 for d in digits):
        return "0 = 0"
    prefix = cv.sequence.prefix(m)
    parts = [(d, prefix[m - 1 - i]) for i, d in enumerate(digits) if d > 0]
    if any(d > 1 for d, _ in parts):
        rhs = " + ".join(f"{d}·{t}" for d, t in parts)
    else:
        rhs = " + ".join(str(t) for _, t in parts)
    return f"{total} = {rhs}"


def decomposition_json(cv: CoefficientVector, digits: SequenceT[int]) -> dict:
    """Wire form of a digit string: {N, digits, terms, legal}."""
    m = len(digits)
    prefix = cv.sequence.prefix(m) if m else []
    return {
        "N": value_of(cv, digits),
        "digits": list(digits),
        "terms": [prefix[m - 1 - i] for i in range(m)],
        "legal": is_legal(cv, digits),
    }
