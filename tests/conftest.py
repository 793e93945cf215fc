from __future__ import annotations

import csv
import io
import itertools
from typing import NamedTuple, Optional

import pytest

from plrslab import CapExceededError, CoefficientVector, is_legal
from plrslab.verdicts import FIGURE_CSV_HEADER, FigureRow
from plrslab.hunt import (RECORDS_CSV_HEADER, CensusReport, CensusRow, _expand, _rows_file_fields,
                          census_horizon, census_records, census_report, coefficient_ranges)
from plrslab.seqcore import Sequence
from plrslab.zeck import DigitString, _terms_upto


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
    return seq.first_gap_below(L - 1) is None and all(b > 0 for b in seq.gaps(2 * L - 1)[L - 1:])


def value_of(cv, digits):
    """sum_i a_i * H_{m+1-i}, the value of a digit string a_1 ... a_m under
    cv's terms; the empty string has value 0."""
    m = len(digits)
    if m == 0:
        return 0
    prefix = Sequence(cv).prefix(m)
    return sum(d * prefix[m - 1 - i] for i, d in enumerate(digits))


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


#: Ceiling for the brute-force enumeration oracle.
ENUM_CAP = 200


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


def passing_range_by_passes(lines):
    """verdicts.passing_range in three passes over the lines: the reference."""
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


def parse_figure_csv(text):
    """The FigureRows of the CSV that `figure --format csv` prints."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ",".join(FIGURE_CSV_HEADER):
        raise ValueError("unexpected figure CSV header")
    rows = []
    for ln in lines[1:]:
        k, g, emp, closed, prov = ln.split(",")
        rows.append(FigureRow(int(k), int(g), int(emp), int(closed) if closed else None, prov))
    return rows


class Census(NamedTuple):
    """One census as the tests read it: the fold's report and the stream's records."""

    report: CensusReport
    records: list[CensusRow]

    def rows(self):
        """One CensusRow per vector, in lexicographic order."""
        return _expand(self.report.length, self.records)


def run_census(length, deep_horizon=None, **files) -> Census:
    """The census of this length: its record stream read into a list, and folded."""
    horizon = census_horizon(length, deep_horizon)
    records = list(census_records(length, horizon, **files))
    return Census(census_report(length, records, horizon), records)


def census_rows_to_csv(rows) -> str:
    """Records as the rows file holds them, header first."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORDS_CSV_HEADER)
    writer.writerows(map(_rows_file_fields, rows))
    return buf.getvalue()


@pytest.fixture(scope="session")
def census_reports():
    """Full first-failure censuses for L = 1..4, computed once per session."""
    return {L: run_census(L) for L in (1, 2, 3, 4)}


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
