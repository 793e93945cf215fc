from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

import pytest

from plrslab import CoefficientVector, first_failure_census
from plrslab.hunt import coefficient_ranges
from plrslab.seqcore import Sequence


class Scan(NamedTuple):
    first_failure: Optional[int]
    gaps: tuple[int, ...]


def brown_scan(cv, horizon):
    """B_1..B_horizon from the definition, B_n = 1 + H_1 + ... + H_{n-1} - H_n,
    and the least n with B_n < 0 (None when there is none)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    terms = Sequence(cv).prefix(horizon)
    gaps = tuple(1 + s - t for s, t in zip(itertools.accumulate(terms, initial=0), terms))
    return Scan(next((n for n, b in enumerate(gaps, 1) if b < 0), None), gaps)


def enumerate_vectors(length):
    """All capped vectors of the given length, in lexicographic order."""
    for coeffs in itertools.product(*coefficient_ranges(length)):
        yield CoefficientVector(coeffs)


def weak_window_check(cv):
    """The strict-window criterion: B_n >= 0 for n < L and B_n > 0 for
    L <= n <= 2L - 1; at L = 1, c_1 <= 2."""
    L = len(cv)
    if L == 1:
        return cv[0] <= 2
    seq = Sequence(cv)
    return seq.first_gap_below(L - 1) is None and seq.first_gap_below(2 * L - 1, 1, L) is None


def check_fail_at_2l_minus_1(k):
    """First failure index of [1 x k, 0, 4], scanned to 4L; expected to be
    exactly 2k + 3."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return brown_scan(CoefficientVector((1,) * k + (0, 4)), 4 * (k + 2)).first_failure


def greedy_legal_digits(cv, n):
    """The legal digits of n >= 0 by the plain greedy loop, for cv other than
    [1]: with c_1..c_s matched, take c_{s+1} while s + 1 < L and c_{s+1} * H_j
    fits, else close the block with remainder // H_j.  The reference for
    zeck.legal_decompose."""
    c, seq = cv.coefficients, Sequence(cv)
    m = 0
    while seq.term(m + 1) <= n:
        m += 1
    digits, remaining, state = [], n, 0
    for j in range(m, 0, -1):
        h = seq.term(j)
        if state + 1 < len(c) and c[state] * h <= remaining:
            d, state = c[state], state + 1
        else:
            d, state = remaining // h, 0
        digits.append(d)
        remaining -= d * h
    assert remaining == 0 and all(0 <= d <= max(c) for d in digits), (cv, n)
    return tuple(digits)


def passing_range_by_passes(lines):
    """families.passing_range in three passes over the lines: the reference."""
    if any(beta == 0 and alpha < 0 for alpha, beta in lines):
        return range(0)
    hi = min(alpha // beta for alpha, beta in lines if beta > 0)
    lo = max((-(alpha // -beta) for alpha, beta in lines if beta < 0), default=1)
    return range(max(lo, 1), hi + 1)


def family_shape_by_loops(c):
    """(g, k, N) for c = [1 x g, 0 x k, N] with g, k >= 1, else None, by walking
    the ones and then the zeros: the reference for families.family_shape."""
    if len(c) < 3 or c[-2] != 0:
        return None
    g = 0
    while g < len(c) and c[g] == 1:
        g += 1
    j = g
    while j < len(c) and c[j] == 0:
        j += 1
    return (g, j - g, c[-1]) if g and j > g and j == len(c) - 1 else None


@pytest.fixture(scope="session")
def census_reports():
    """Full first-failure censuses for L = 1..4, computed once per session."""
    return {L: first_failure_census(L) for L in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def classified_rows(census_reports):
    """Census rows for L = 1..4 bucketed by verdict.

    The supplemental L = 1 witness [3] sits outside the capped enumeration,
    so it is dropped here; property suites quantify over the enumeration.
    """
    buckets = {"incomplete": [], "complete": [], "conjecturally_complete": []}
    for L, report in census_reports.items():
        size = {1: 2, 2: 8, 3: 80, 4: 1440}[L]
        for row in itertools.islice(report.rows(), size):
            buckets[row.verdict].append(row)
    return buckets
