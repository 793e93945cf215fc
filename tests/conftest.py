from __future__ import annotations

import itertools

import pytest

from plrslab import first_failure_census


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
