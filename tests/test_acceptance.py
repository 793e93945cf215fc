"""Acceptance suite: one test per criterion, exact integer checks throughout.

Every test prints a single `[acceptance] criterion NN PASS` line on success
(visible with `pytest -s` or in captured output); a failure shows up as the
test failing, so each criterion has exactly one pass/fail line either way.
"""

import contextlib
import io
from itertools import product

from plrslab import (
    CoefficientVector,
    brown_scan,
    classify,
    distinct_decompose,
    empirical_max_n,
    enumerate_legal,
    fib,
    is_complete_up_to,
    legal_decompose,
    max_n_double_one,
    max_n_single_one,
    render_decomposition,
    terms_prefix,
    value_of,
)
from plrslab.cli import main
from plrslab.families import figure1_table, parse_figure_csv

from conftest import check_fail_at_2l_minus_1


def _report(number: int, detail: str) -> None:
    print(f"[acceptance] criterion {number:02d} PASS: {detail}")


def _figure_csv(k_range: str, g_range: str) -> str:
    """stdout of `plrslab figure --format csv` over the given ranges."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["figure", "--k-range", k_range, "--g-range", g_range, "--format", "csv"]) == 0
    return out.getvalue()


def test_criterion_01_worked_examples():
    """Introductory worked examples classify and decompose exactly."""
    assert classify(CoefficientVector((1, 1))).is_complete

    one_three = CoefficientVector((1, 3))
    verdict = classify(one_three)
    assert verdict.is_incomplete
    assert verdict.witness == 4
    ok, missing = is_complete_up_to(one_three, 100)
    assert not ok and missing == 4  # oracle confirms 4 is the smallest gap

    digits = legal_decompose(one_three, 9)
    assert digits == (1, 2, 0)
    assert value_of(one_three, digits) == 9
    assert render_decomposition(one_three, digits) == "9 = 1·5 + 2·2"
    assert distinct_decompose(one_three, 9) is None

    assert classify(CoefficientVector((1, 0, 0, 0, 0, 0, 15))).is_incomplete
    assert classify(CoefficientVector((1, 1, 0, 0, 0, 0, 15))).is_complete
    assert classify(CoefficientVector((1, 2, 0, 0, 0, 0, 15))).is_incomplete
    _report(1, "worked examples match, witness 4 oracle-verified")


def test_criterion_02_all_positive_characterization():
    """Strictly positive vectors, L <= 5, c_i <= 4: complete iff the two shapes."""
    checked = 0
    for length in range(1, 6):
        for coeffs in product(range(1, 5), repeat=length):
            cv = CoefficientVector(coeffs)
            expected = coeffs == (1,) * length or coeffs == (1,) * (length - 1) + (2,)
            verdict = classify(cv)
            assert verdict.is_complete == expected, coeffs
            assert not verdict.is_conjectural, coeffs
            oracle_ok, missing = is_complete_up_to(cv, 10**5)
            assert oracle_ok == expected, (coeffs, missing)
            checked += 1
    assert checked == 4 + 16 + 64 + 256 + 1024
    _report(2, f"{checked} strictly positive vectors agree with the oracle at cap 1e5")


def test_criterion_03_single_one_bound():
    """empirical_max_n([1, 0 x k]) = ceil((k+2)(k+3)/4) for 0 <= k <= 10."""
    for k in range(0, 11):
        expected = -(-((k + 2) * (k + 3)) // 4)
        assert max_n_single_one(k).max_n == expected
        emp = empirical_max_n((1,) + (0,) * k)
        assert emp.max_n == expected, k
        assert emp.proven_max_n == expected, k
    _report(3, "single-one family bound matches empirically for k = 0..10")


def test_criterion_04_double_one_bound():
    """empirical_max_n([1, 1, 0 x k]) = floor((F_{k+6} - k - 5)/4) for 0 <= k <= 8."""
    for k in range(0, 9):
        expected = (fib(k + 6) - k - 5) // 4
        assert max_n_double_one(k).max_n == expected
        emp = empirical_max_n((1, 1) + (0,) * k)
        assert emp.max_n == expected, k
        assert emp.proven_max_n == expected, k
    _report(4, "double-one family bound matches empirically for k = 0..8")


def test_criterion_05_g_ones_regimes_as_csv():
    """Plateau/ramp formulas reproduced empirically over the covered grid."""
    all_rows = []
    for k in range(1, 5):
        log2k = (k - 1).bit_length()
        g_values = list(range(k, k + log2k + 3))
        rows = figure1_table([k], g_values)
        all_rows.extend(rows)
        for row in rows:
            if row.g >= k + log2k:
                expected = 2 ** (k + 1) - 1  # plateau
            else:
                expected = 2 ** (k + 1) - -(-k // 2 ** (row.g - k))  # ramp
            assert row.empirical_max_n == expected, (k, row.g)
            assert row.closed_form_max_n == expected, (k, row.g)
        # plateau shape: nondecreasing in g, constant once the plateau starts
        values = [r.empirical_max_n for r in rows]
        assert values == sorted(values)
        plateau = [r.empirical_max_n for r in rows if r.g >= k + log2k]
        assert len(set(plateau)) == 1
        assert parse_figure_csv(_figure_csv(str(k), f"{g_values[0]}:{g_values[-1]}")) == rows
    _report(5, f"g-ones regimes match for k = 1..4 ({len(all_rows)} CSV rows round-trip)")


def test_criterion_06_extremal_family_first_failure():
    """[1 x k, 0, 4] first fails exactly at term 2k + 3, never earlier."""
    for k in range(1, 11):
        assert check_fail_at_2l_minus_1(k) == 2 * k + 3, k
        scan = brown_scan(CoefficientVector((1,) * k + (0, 4)), 2 * k + 3)
        assert all(g >= 0 for g in scan.gaps[: 2 * k + 2]), k
        assert scan.gaps[2 * k + 2] < 0, k
    _report(6, "first failure of [1 x k, 0, 4] lands at 2k+3 for k = 1..10")


def test_criterion_07_first_failure_census(census_reports):
    """Exhaustive census at L = 1..4: no failure beyond max(2L-1, 2)."""
    expected_max = {1: 2, 2: 3, 3: 5, 4: 7}
    for length, report in census_reports.items():
        window = max(2 * length - 1, 2)
        assert report.max_first_failure <= window
        assert report.max_first_failure == expected_max[length]
        for row in report.rows():
            if row.first_failure is not None:
                assert row.first_failure <= window, row
    assert (1, 0, 4) in census_reports[3].extremal_vectors
    assert census_reports[3].extremal_vectors == ((1, 0, 4),)
    assert (1, 1, 0, 4) in census_reports[4].extremal_vectors
    scanned = sum(r.vectors_scanned for r in census_reports.values())
    _report(7, f"census over {scanned} vectors stays inside the window, [1,0,4] extremal at L=3")


def test_criterion_08_modification_theorems(classified_rows):
    """Append, decrease-last, and merge modifications behave as proven."""
    incomplete = [CoefficientVector(r.vector) for r in classified_rows["incomplete"]]
    complete = [CoefficientVector(r.vector) for r in classified_rows["complete"]]

    appended = 0
    for cv in incomplete:
        for extra in range(1, 5):
            assert classify(CoefficientVector(cv.coefficients + (extra,))).is_incomplete, (
                cv,
                extra,
            )
            appended += 1

    decreased = 0
    for cv in complete:
        coeffs = cv.coefficients
        for smaller in range(1, coeffs[-1]):
            modified = CoefficientVector(coeffs[:-1] + (smaller,))
            assert not classify(modified).is_incomplete, (cv, smaller)
            decreased += 1

    merged = 0
    for cv in incomplete:
        coeffs = cv.coefficients
        if len(coeffs) < 2:
            continue
        merged_cv = CoefficientVector(coeffs[:-2] + (coeffs[-2] + coeffs[-1],))
        assert classify(merged_cv).is_incomplete, cv
        merged += 1

    _report(
        8,
        f"zero violations over {appended} appends, {decreased} decreases, {merged} merges",
    )


def test_criterion_09_unique_legal_decompositions():
    """Exactly one legal string per value, equal to the greedy construction."""
    vectors = [
        CoefficientVector(c)
        for c in [(1, 1), (1, 3), (2, 1), (1, 0, 4), (3,), (1, 1, 2)]
    ]
    for cv in vectors:
        for n in range(0, 201):
            strings = enumerate_legal(cv, n)
            assert len(strings) == 1, (cv, n, strings)
            assert strings[0] == legal_decompose(cv, n), (cv, n)
        for n in range(0, 5001):
            assert value_of(cv, legal_decompose(cv, n)) == n, (cv, n)
    _report(9, "uniqueness holds to N = 200 and round-trip to N = 5000 for all six vectors")


def test_criterion_10_maximal_sequence_envelope(classified_rows):
    """Complete sequences sit under 2^(n-1); ones-then-two attains it exactly."""
    checked = 0
    for row in classified_rows["complete"]:
        prefix = terms_prefix(CoefficientVector(row.vector), 30)
        assert all(h <= 2**i for i, h in enumerate(prefix)), row.vector
        checked += 1
    for length in range(1, 7):
        cv = CoefficientVector((1,) * (length - 1) + (2,))
        assert terms_prefix(cv, 40) == [2**i for i in range(40)], length
    _report(10, f"{checked} complete vectors below the doubling envelope; equality for ones+2")
