"""Plain reference arithmetic the benchmark checks the program against.

Written from the definitions in the paper, sharing no code with plrslab:
the recurrence, Brown's gap, and the closed-form family bounds.
"""

from __future__ import annotations

from typing import Iterator, Optional


def terms(coeffs: tuple[int, ...]) -> Iterator[int]:
    """H_1, H_2, ... of the generator, without end."""
    L = len(coeffs)
    h: list[int] = []
    while True:
        m = len(h)
        if m == 0:
            nxt = 1
        else:
            nxt = sum(coeffs[i] * h[m - 1 - i] for i in range(min(m, L)))
            if m < L:
                nxt += 1
        h.append(nxt)
        yield nxt


def prefix(coeffs: tuple[int, ...], n: int) -> list[int]:
    """[H_1, ..., H_n]."""
    it = terms(coeffs)
    return [next(it) for _ in range(n)]


def terms_upto(coeffs: tuple[int, ...], limit: int) -> list[int]:
    """Every term <= limit; the terms are nondecreasing."""
    out = []
    for t in terms(coeffs):
        if t > limit:
            return out
        out.append(t)
    raise AssertionError("unreachable")


def first_failure(coeffs: tuple[int, ...], horizon: int) -> Optional[tuple[int, int]]:
    """(n, witness) for the first n <= horizon with B_n < 0, else None.

    B_n = 1 + H_1 + ... + H_{n-1} - H_n, and the witness 1 + H_1 + ... +
    H_{n-1} is then the smallest integer that is no sum of distinct terms.
    """
    total = 0
    for n, h in enumerate(terms(coeffs), start=1):
        if n > horizon:
            return None
        if 1 + total - h < 0:
            return n, 1 + total
        total += h
    raise AssertionError("unreachable")


def family_bound(g: int, k: int) -> Optional[int]:
    """Largest complete N for [1 x g, 0 x k, N] where the paper gives it.

    g = 1: ceil((k+2)(k+3)/4).  g = 2: floor((F_{k+6} - k - 5)/4) with
    F_1 = 1, F_2 = 2.  g >= k: 2^(k+1) - ceil(k / 2^(g-k)).  Otherwise None.
    """
    if g == 1:
        return -(-(k + 2) * (k + 3) // 4)
    if g == 2:
        a, b = 1, 2
        for _ in range(k + 5):
            a, b = b, a + b
        return (a - k - 5) // 4
    if g >= k:
        return 2 ** (k + 1) - -(-k // 2 ** (g - k))
    return None
