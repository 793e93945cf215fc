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
