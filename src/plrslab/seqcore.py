"""Generators, exact term arithmetic, and Brown's gaps.

A generator is a coefficient list [c_1, ..., c_L] with L >= 1, c_1 >= 1,
c_L >= 1 and every entry nonnegative.  It defines the integer sequence

    H_1 = 1
    H_{n+1} = c_1 H_n + c_2 H_{n-1} + ... + c_n H_1 + 1     (1 <= n < L)
    H_{n+1} = c_1 H_n + c_2 H_{n-1} + ... + c_L H_{n+1-L}   (n >= L)

Terms are plain Python ints, so they stay exact at any size, and each costs
O(runs of equal nonzero coefficients), not O(L) (see Sequence).  The n-th
Brown gap

    B_n = 1 + (H_1 + ... + H_{n-1}) - H_n

is the slack in Brown's completeness criterion: the sequence is complete
(every positive integer is a sum of distinct terms) exactly when B_n >= 0
for all n, and a negative gap at n certifies that 1 + H_1 + ... + H_{n-1}
has no such representation.

Each CoefficientVector owns the memo of its terms (its `sequence`), so
terms live exactly as long as the vector that a caller holds.

Indexing is 1-based throughout, matching the recurrence above.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import accumulate, groupby
from typing import Iterator, Optional, Sequence as SequenceT

from .errors import (
    EmptyVectorError,
    LeadingZeroError,
    NegativeCoefficientError,
    TrailingZeroError,
    VectorValidationError,
)

#: Default ceiling (largest target) for subset-sum cross-checks and
#: distinct-term decompositions.
DEFAULT_ORACLE_CAP = 10**6

#: Memory budget, in bits, for reachability and back-trace bitmaps.
BITMAP_BUDGET_BITS = 2**28


def _reject_coefficients(coeffs: tuple) -> None:
    """Raise for the first coefficient that is not a nonnegative int."""
    for i, c in enumerate(coeffs):
        if not isinstance(c, int):
            raise VectorValidationError(f"coefficient c_{i + 1} = {c!r} is not an integer")
        if c < 0:
            raise NegativeCoefficientError(i + 1, c)


class CoefficientVector:
    """Validated, immutable generator [c_1, ..., c_L].

    `head`, keyword-only and when given, is the generator's own first terms
    [H_1, ..., H_k], known to the caller; its `sequence` then starts from them
    (see Sequence).
    """

    __slots__ = ("coefficients", "_sequence")

    def __init__(self, coefficients: SequenceT[int], *, head: Optional[SequenceT[int]] = None) -> None:
        coeffs = tuple(coefficients)
        if not coeffs:
            raise EmptyVectorError()
        for c in coeffs:
            if not isinstance(c, int) or c < 0:
                _reject_coefficients(coeffs)
        if coeffs[0] == 0:
            raise LeadingZeroError()
        if coeffs[-1] == 0:
            raise TrailingZeroError()
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_sequence", Sequence(self, head=head) if head else None)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"CoefficientVector is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return self.coefficients == other.coefficients if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"CoefficientVector(coefficients={self.coefficients!r})"

    @classmethod
    def parse(cls, text: str) -> "CoefficientVector":
        """Parse a comma-separated coefficient list such as "1,0,4"."""
        return cls(parse_coefficients(text))

    def __len__(self) -> int:
        return len(self.coefficients)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coefficients)

    def __getitem__(self, i: int) -> int:
        return self.coefficients[i]

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self.coefficients) + "]"

    @property
    def sequence(self) -> "Sequence":
        """The memo of this generator's terms, shared by every caller of this vector."""
        if self._sequence is None:
            object.__setattr__(self, "_sequence", Sequence(self))
        return self._sequence


def parse_coefficients(text: str) -> tuple[int, ...]:
    """The ints of a comma-separated list such as "1,0,4" or the prefix "1,0", unvalidated."""
    try:
        return tuple(int(p) for p in text.split(","))  # int() strips the spaces around each
    except ValueError:
        raise VectorValidationError(f"cannot parse coefficient vector {text!r}") from None


def nonzero_runs(c: SequenceT[int]) -> tuple[tuple[int, int, int], ...]:
    """(start, stop, v) for each maximal run c[start:stop] of one value v != 0; none for c = ()."""
    runs, stop = [], 0
    for v, run in groupby(c):
        start, stop = stop, stop + len(list(run))
        if v:
            runs.append((start, stop, v))
    return tuple(runs)


class Sequence:
    """Lazily extended memo of terms and prefix sums for one generator.

    With S_k = H_1 + ... + H_k and the maximal runs c_{start+1} = ... =
    c_stop = v != 0, H_{m+1} = [m < L] + sum over runs with start < m of
    v (S_{m-start} - S_{max(m-stop, 0)}): two runs for [1 x g, 0 x k, N].
    A one-wide run reads H_{m-start} itself; v = 1 adds without a multiply.
    The first run (c_1 >= 1) is read for every term past H_1, so a term
    starts from its product, not from 0: [2, 1] costs one multiply and one
    add.  Prefix sums keep step with the terms only when a wider run reads
    them; else they are made when partial_sum, first_gap_below or gaps reads.

    CoefficientVector.sequence holds one per vector and frees it with the
    vector; a Sequence built directly is a private memo, for independent
    re-checks.  It keeps only L, not the vector, so the two form no cycle.

    `head` = [H_1, ..., H_k] starts the memo from terms the caller already
    holds, such as a prefix walk's; they are taken on trust, so they must be
    this generator's own.

    Single writer: reads extend the memo in place, so a Sequence must not be
    shared across threads; the lists prefix() returns are copies, safe to
    hand around.
    """

    __slots__ = ("_length", "_first", "_rest", "_wide", "_terms", "_sums")

    def __init__(
        self, generator: CoefficientVector, *, head: Optional[SequenceT[int]] = None
    ) -> None:
        c = generator.coefficients
        self._length = len(c)
        runs = nonzero_runs(c)
        self._first, self._rest = runs[0], runs[1:]  # the run at c_1, the others
        self._wide = len(runs) < len(c) - c.count(0)  # some run is wider than one
        self._terms: list[int] = list(head) if head else [1]
        self._sums: list[int] = [0]  # S_0, ..., S_k for some k <= len(_terms)

    def _sums_to(self, n: int) -> list[int]:
        """The kept sums S_0, S_1, ..., extended to S_n; H_1..H_n must be known."""
        sums = self._sums
        if len(sums) <= n:
            sums[-1:] = accumulate(self._terms[len(sums) - 1:n], initial=sums[-1])
        return sums

    def _extend_to(self, n: int) -> None:
        terms = self._terms
        if n <= len(terms):
            return
        L = self._length
        _, w, c1 = self._first
        rest = self._rest
        sums = self._sums_to(len(terms)) if self._wide else None
        for m in range(len(terms), n):  # H_1..H_m known, computing H_{m+1}
            if m < L:
                x = terms[m - 1] if w == 1 else sums[m] - sums[max(m - w, 0)]
                val = (x if c1 == 1 else c1 * x) + 1
                for start, stop, v in rest:
                    if start >= m:
                        break
                    x = terms[m - stop] if stop - start == 1 else sums[m - start] - sums[max(m - stop, 0)]
                    val += x if v == 1 else v * x
            else:
                x = terms[m - 1] if w == 1 else sums[m] - sums[m - w]
                val = x if c1 == 1 else c1 * x
                for start, stop, v in rest:
                    x = terms[m - stop] if stop - start == 1 else sums[m - start] - sums[m - stop]
                    val += x if v == 1 else v * x
            terms.append(val)
            if sums is not None:
                sums.append(sums[-1] + val)

    def term(self, n: int) -> int:
        """H_n (1-based)."""
        if n < 1:
            raise ValueError("term index must be >= 1")
        self._extend_to(n)
        return self._terms[n - 1]

    def prefix(self, n: int) -> list[int]:
        """[H_1, ..., H_n] as a fresh list."""
        if n < 1:
            raise ValueError("prefix length must be >= 1")
        self._extend_to(n)
        return self._terms[:n]

    def partial_sum(self, n: int) -> int:
        """H_1 + ... + H_n, with the empty sum for n = 0."""
        if n < 0:
            raise ValueError("partial sum index must be >= 0")
        self._extend_to(n)
        return self._sums_to(n)[n]

    def first_gap_below(self, stop: int, start: int = 1) -> Optional[int]:
        """The least n in start..stop with B_n < 0, or None; builds no list."""
        if start > stop:
            return None
        self._extend_to(stop)
        terms = self._terms
        sums = self._sums_to(stop - 1)
        for i in range(start - 1, stop):
            if terms[i] > sums[i] + 1:  # B_n < 0 iff H_n > S_{n-1} + 1
                return i + 1
        return None

    def gaps(self, n: int) -> list[int]:
        """[B_1, ..., B_n]: B_1 = 0 and B_{n+1} - B_n = 2 H_n - H_{n+1}."""
        if n < 1:
            raise ValueError("gap count must be >= 1")
        self._extend_to(n)
        sums = self._sums_to(n - 1)
        terms = self._terms
        return [1 + sums[i] - terms[i] for i in range(n)]


#: Terms of at most this many bits are rendered by str(); term_texts carries
#: larger ones in decimal arithmetic.  Rendering every term up to 1,536-4,096
#: bits, cuts of 1,024-1,152 bits came out fastest.
STR_MAX_BITS = 1024
#: Text-mode decompose str()s only the terms under nonzero digits, which beat
#: term_texts up to 2,500-2,900 bits over the eight bench legal generators.
TEXT_DECOMPOSE_MAX_BITS = 2048


def term_texts(cv: CoefficientVector, m: int) -> Iterator[Iterator[str]]:
    """str(H_1), ..., str(H_m) as lazy runs, in time linear in the digits past STR_MAX_BITS.

    str() of an int takes time quadratic in its digits (CPython <= 3.11).  So
    past the cut the recurrence goes on in exact decimal arithmetic, seeded by
    the last L int terms and keeping a window of L terms, and each further
    text costs O(digits) per nonzero c_i: as in Sequence, a term starts from
    c_1's product, not from 0.  Its last L terms must equal the int
    terms (Decimal == int: exact, and free of str()'s digit limit); as c_L >= 1
    the recurrence runs backwards too, so that vouches for every decimal term.
    Runs: the terms under the cut, then 64-term blocks, the last after that check.
    """
    terms = cv.sequence.prefix(m) if m > 0 else []
    k = bisect_right(terms, STR_MAX_BITS, key=int.bit_length)  # terms never decrease
    yield map(str, terms[:k])
    if k == m:
        return
    import decimal  # here, not at module level, where every command would pay for it

    c = cv.coefficients
    L = len(c)
    # window[-1 - i] is H_{n-i}; None stands for a coefficient of 1, added unmultiplied.
    (_, c1), *steps = [(i, None if v == 1 else decimal.Decimal(v)) for i, v in enumerate(c) if v]
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          traps=[decimal.Inexact, decimal.Rounded])
    window = deque(map(decimal.Decimal, terms[max(k - L, 0):k]), maxlen=L)  # ..., H_n
    for lo in range(k, m, 64):  # blocks of terms, so that no yield leaks ctx to the caller
        block = []
        with decimal.localcontext(ctx):
            for n in range(lo, min(lo + 64, m)):  # H_1..H_n known, computing H_{n+1}
                val = window[-1] if c1 is None else c1 * window[-1]  # n >= k >= 1: H_1 is under the cut
                if n < L:
                    val += 1
                for i, v in steps:
                    if i >= n:
                        break
                    x = window[-1 - i]
                    val += x if v is None else v * x
                window.append(val)
                block.append(val)
        if lo + 64 >= m:  # the last block waits for the check
            for j, val in zip(range(m - len(window), m), window):
                if val != terms[j]:
                    raise RuntimeError(f"decimal term H_{j + 1} of {cv} differs from the int term")
        yield map(str, block)
