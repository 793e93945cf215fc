"""Closed-form maximal-last-coefficient bounds.

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

classify's family rule cites these bounds; verdicts.empirical_max_n checks
them against Brown's gaps.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence as SequenceT

from .errors import OutOfRangeError
from .seqcore import CoefficientVector


class FamilySpec(NamedTuple):
    """Shape parameters of a [1 x g, 0 x k, N] generator."""

    g: int
    k: int
    n: int


def family_shape(coefficients: SequenceT[int]) -> Optional[FamilySpec]:
    """Parse [1 x g, 0 x k, N] with g >= 1, k >= 1; None for any other shape."""
    c = tuple(coefficients)
    if len(c) < 3 or c[-2] != 0 or c[-1] == 0:  # no room for g, k >= 1, no zero before N, or N = 0
        return None
    g = c.index(0)
    if g == 0 or c[:g] != (1,) * g or any(c[g:-1]):
        return None
    return FamilySpec(g, len(c) - 1 - g, c[-1])


class BoundResult(NamedTuple):
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


def prefix_family(prefix: tuple[int, ...]) -> Optional[tuple[int, int, BoundResult]]:
    """(g, k, family_bound(g, k)) when every [prefix, N] is [1 x g, 0 x k, N]
    and the bound exists, else None: what rule (c) of window_rules reads."""
    shape = family_shape(prefix + (1,))
    bound = None if shape is None else family_bound(shape.g, shape.k)
    return None if bound is None else (shape.g, shape.k, bound)


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
