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
from dataclasses import KW_ONLY, InitVar, dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Optional, Sequence as SequenceT

from .errors import (
    EmptyVectorError,
    LeadingZeroError,
    NegativeCoefficientError,
    TrailingZeroError,
    VectorValidationError,
)


def _reject_coefficients(coeffs: tuple) -> None:
    """Raise for the first coefficient that is not a nonnegative int."""
    for i, c in enumerate(coeffs):
        if not isinstance(c, int):
            raise VectorValidationError(f"coefficient c_{i + 1} = {c!r} is not an integer")
        if c < 0:
            raise NegativeCoefficientError(i + 1, c)


@dataclass(frozen=True)
class CoefficientVector:
    """Validated, immutable generator [c_1, ..., c_L].

    `head`, keyword-only and when given, is the generator's own first terms
    [H_1, ..., H_k], known to the caller; its `sequence` then starts from them
    (see Sequence).
    """

    coefficients: tuple[int, ...]
    _: KW_ONLY
    head: InitVar[Optional[SequenceT[int]]] = None

    def __post_init__(self, head: Optional[SequenceT[int]]) -> None:
        coeffs = tuple(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise EmptyVectorError()
        for c in coeffs:
            if not isinstance(c, int) or c < 0:
                _reject_coefficients(coeffs)
        if coeffs[0] == 0:
            raise LeadingZeroError()
        if coeffs[-1] == 0:
            raise TrailingZeroError()
        if head:
            self.__dict__["sequence"] = Sequence(self, head=head)

    @classmethod
    def parse(cls, text: str) -> "CoefficientVector":
        """Parse a comma-separated coefficient list such as "1,0,4"."""
        parts = [p.strip() for p in text.split(",")]
        try:
            raw = [int(p) for p in parts]
        except ValueError:
            raise VectorValidationError(f"cannot parse coefficient vector {text!r}") from None
        return cls(tuple(raw))

    def __len__(self) -> int:
        return len(self.coefficients)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coefficients)

    def __getitem__(self, i: int) -> int:
        return self.coefficients[i]

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self.coefficients) + "]"

    @cached_property
    def sequence(self) -> "Sequence":
        """The memo of this generator's terms, shared by every caller of this vector."""
        return Sequence(self)


def nonzero_runs(c: SequenceT[int]) -> tuple[tuple[int, int, int], ...]:
    """(start, stop, v) for each maximal run c[start:stop] of one value v != 0; none for c = ()."""
    cuts = [0, *(i for i in range(1, len(c)) if c[i] != c[i - 1]), len(c)]
    return tuple((a, b, c[a]) for a, b in zip(cuts, cuts[1:]) if a < b and c[a])


class Sequence:
    """Lazily extended memo of terms and prefix sums for one generator.

    With S_k = H_1 + ... + H_k and the maximal runs c_{start+1} = ... =
    c_stop = v != 0, H_{m+1} = [m < L] + sum over runs with start < m of
    v (S_{m-start} - S_{max(m-stop, 0)}): two runs for [1 x g, 0 x k, N].

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

    __slots__ = ("_length", "_runs", "_terms", "_sums")

    def __init__(
        self, generator: CoefficientVector, *, head: Optional[SequenceT[int]] = None
    ) -> None:
        self._length = len(generator.coefficients)
        self._runs = nonzero_runs(generator.coefficients)
        self._terms: list[int] = list(head) if head else [1]
        self._sums: list[int] = [0, *accumulate(head)] if head else [0, 1]  # H_1 + ... + H_k

    def _extend_to(self, n: int) -> None:
        L = self._length
        runs = self._runs
        terms = self._terms
        sums = self._sums
        for m in range(len(terms), n):  # H_1..H_m known, computing H_{m+1}
            if m < L:
                val = 1
                for start, stop, v in runs:
                    if start >= m:
                        break
                    val += v * (sums[m - start] - (sums[m - stop] if m > stop else 0))
            else:
                val = 0
                for start, stop, v in runs:
                    val += v * (sums[m - start] - sums[m - stop])
            terms.append(val)
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
        if n:
            self._extend_to(n)
        return self._sums[n]

    def first_gap_below(self, stop: int, floor: int = 0, start: int = 1) -> Optional[int]:
        """The least n in start..stop with B_n < floor, or None; builds no list."""
        self._extend_to(stop)
        terms = self._terms
        sums = self._sums
        slack = 1 - floor  # B_n < floor iff H_n > S_{n-1} + 1 - floor
        for i in range(start - 1, stop):
            if terms[i] > sums[i] + slack:
                return i + 1
        return None

    def gaps(self, n: int) -> list[int]:
        """[B_1, ..., B_n]: B_1 = 0 and B_{n+1} - B_n = 2 H_n - H_{n+1}."""
        if n < 1:
            raise ValueError("gap count must be >= 1")
        self._extend_to(n)
        sums = self._sums
        terms = self._terms
        return [1 + sums[i] - terms[i] for i in range(n)]


def terms_prefix(cv: CoefficientVector, n: int) -> list[int]:
    """[H_1, ..., H_n] for the given generator."""
    return cv.sequence.prefix(n)


#: Terms of at most this many bits are rendered by str(); term_texts carries
#: larger ones in decimal arithmetic.  A decimal step beats str() from about
#: 1,500 bits on; the margin covers setting up the decimal part.
STR_MAX_BITS = 2048


def term_texts(cv: CoefficientVector, m: int) -> list[str]:
    """[str(H_1), ..., str(H_m)], in time linear in the digits past STR_MAX_BITS.

    str() of an int takes time quadratic in its digits (CPython <= 3.11).  So
    past the cut the recurrence goes on in exact decimal arithmetic, seeded by
    parsing the last L texts and keeping a window of L terms, and each further
    text costs O(digits) per nonzero c_i.  Its last L terms must equal the int
    terms' texts: as c_L >= 1, the recurrence runs backwards as well, so that
    check vouches for every decimal term.
    """
    terms = cv.sequence.prefix(m) if m > 0 else []
    k = bisect_right(terms, STR_MAX_BITS, key=int.bit_length)  # terms never decrease
    texts = [str(t) for t in terms[:k]]
    if k == m:
        return texts
    import decimal  # here, not at module level, where every command would pay for it

    c = cv.coefficients
    L = len(c)
    nonzero = [(i, v) for i, v in enumerate(c) if v]
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          traps=[decimal.Inexact, decimal.Rounded])
    window = deque(map(decimal.Decimal, texts[-L:]), maxlen=L)  # ..., H_n
    with decimal.localcontext(ctx):
        for n in range(k, m):  # H_1..H_n known, computing H_{n+1}
            val = decimal.Decimal(1 if n < L else 0)
            for i, v in nonzero:
                if i >= n:
                    break
                val += v * window[-1 - i]
            window.append(val)
            texts.append(str(val))
    for j in range(max(k, m - L), m):
        if texts[j] != str(terms[j]):
            raise RuntimeError(f"decimal term H_{j + 1} of {cv} differs from the int term")
    return texts
