import itertools

import pytest

from plrslab import (
    CoefficientVector,
    CompletenessVerdict,
    ConjectureViolation,
    OutOfRangeError,
    classify,
    corollary_shift_bound,
    empirical_max_n,
    family_bound,
    family_shape,
    fib,
    figure1_table,
    max_n_double_one,
    max_n_g_ones,
    max_n_single_one,
)
from plrslab import families
from plrslab.cli import main
from plrslab.families import (
    FamilySpec,
    gap_table,
    parse_figure_csv,
    shifted_one_vector,
    window_max_n,
)
from plrslab.verdicts import FAILS_PAST_WINDOW, effective_horizon

from conftest import family_shape_by_loops


class TestFib:
    def test_shifted_indexing(self):
        assert fib(1) == 1
        assert fib(2) == 2
        assert fib(10) == 89
        assert [fib(i) for i in range(1, 8)] == [1, 2, 3, 5, 8, 13, 21]


class TestClosedForms:
    @pytest.mark.parametrize("k,expected", [(0, 2), (1, 3), (5, 14)])
    def test_single_one(self, k, expected):
        b = max_n_single_one(k)
        assert b.max_n == expected and b.exact

    @pytest.mark.parametrize("k,expected", [(1, 3), (2, 6), (4, 20)])
    def test_double_one(self, k, expected):
        b = max_n_double_one(k)
        assert b.max_n == expected and b.exact

    def test_g_ones(self):
        assert max_n_g_ones(3, 2).max_n == 7
        assert max_n_g_ones(3, 2).rule == "g_ones_plateau"
        assert max_n_g_ones(2, 2).max_n == 6
        assert max_n_g_ones(2, 2).rule == "g_ones_ramp"
        assert max_n_g_ones(1, 2) is None

    def test_regime_boundary_agreement(self):
        for k in range(1, 10):
            boundary = k + (k - 1).bit_length()
            plateau = 2 ** (k + 1) - 1
            ramp_at_boundary = 2 ** (k + 1) - -(-k // 2 ** (boundary - k))
            assert plateau == ramp_at_boundary

    def test_monotone_in_g(self):
        for k in range(1, 6):
            values = [max_n_g_ones(g, k).max_n for g in range(k, k + 8)]
            assert values == sorted(values)

    def test_cross_theorem_consistency(self):
        # the g = 2 column of the g-ones bound must match the double-one bound
        for k in (1, 2):
            assert max_n_g_ones(2, k).max_n == max_n_double_one(k).max_n

    def test_family_bound_dispatch(self):
        assert family_bound(1, 5).rule == "single_one"
        assert family_bound(2, 7).rule == "double_one"
        assert family_bound(4, 2).rule == "g_ones_plateau"
        assert family_bound(3, 5) is None


class TestFamilyShape:
    def test_parses(self):
        assert family_shape((1, 0, 4)) == FamilySpec(1, 1, 4)
        assert family_shape((1, 1, 0, 0, 0, 0, 15)) == FamilySpec(2, 4, 15)
        assert family_shape((1, 0, 1)) == FamilySpec(1, 1, 1)

    def test_rejects_other_shapes(self):
        assert family_shape((1, 1)) is None  # no zeros
        assert family_shape((2, 0, 4)) is None
        assert family_shape((1, 0, 1, 2)) is None
        assert family_shape((1, 2, 0, 0, 0, 0, 15)) is None

    def test_roundtrip(self):
        spec = FamilySpec(3, 2, 7)
        assert family_shape(spec.to_vector().coefficients) == spec

    def test_matches_loops_on_every_small_tuple(self):
        # Entries 0..2, lengths 0..8: 9,841 tuples, (1, 0, 0) among them,
        # whose zero last entry would otherwise read as N = 0.
        tuples = [c for m in range(9) for c in itertools.product(range(3), repeat=m)]
        assert len(tuples) == 9841
        for c in tuples:
            spec = family_shape(c)
            assert (spec and (spec.g, spec.k, spec.n)) == family_shape_by_loops(c), c
        assert family_shape((1, 0, 0)) is None


class TestCorollaryShift:
    def test_bound_value(self):
        b = corollary_shift_bound(6, 2)
        assert b.max_n == 11 and not b.exact
        assert corollary_shift_bound(6, 4).max_n == 11

    def test_vectors_classify_complete(self):
        for length in (6, 7, 8):
            n = corollary_shift_bound(length, 2).max_n
            for i in range(2, length - 1):
                cv = shifted_one_vector(length, i, n)
                assert not classify(cv).is_incomplete, cv

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            corollary_shift_bound(5, 2)
        with pytest.raises(OutOfRangeError):
            corollary_shift_bound(6, 5)
        with pytest.raises(OutOfRangeError):
            corollary_shift_bound(6, 1)


@pytest.fixture
def probed(monkeypatch):
    """The last coefficients whose window gaps empirical_max_n hands to
    classify's rules, in order."""
    seen = []
    rules = families.window_rules

    def counting(coeffs, gaps, head, horizon=None):
        seen.append(coeffs[-1])
        return rules(coeffs, gaps, head, horizon)

    monkeypatch.setattr(families, "window_rules", counting)
    return seen


class TestEmpiricalMax:
    def test_examples(self):
        assert empirical_max_n([1, 0]).max_n == 3
        assert empirical_max_n([1, 1, 0, 0]).max_n == 6
        assert empirical_max_n([1]).max_n == 2

    def test_proven_equals_inclusive_on_families(self):
        emp = empirical_max_n([1, 0, 0])
        assert emp.max_n == emp.proven_max_n == max_n_single_one(2).max_n

    def test_each_probe_classified_once(self, probed):
        emp = empirical_max_n([1, 1, 0, 0])
        assert emp.max_n == emp.proven_max_n == 6
        # The gap table gives 6 directly; the window rules there supply the proof.
        assert probed == [6]

    def test_conjectural_max_steps_down_to_a_proof(self, probed):
        emp = empirical_max_n([1, 1, 1, 0, 0, 0, 0, 0])
        assert classify(CoefficientVector((1, 1, 1, 0, 0, 0, 0, 0, emp.max_n))).is_conjectural
        assert emp.proven_max_n == emp.max_n - 1
        assert probed == [emp.max_n, emp.max_n - 1]

    def test_failure_past_the_window_is_a_violation(self, monkeypatch):
        # [1,1,0,0,6] passes B_1..B_10; pretend that no rule proves it and
        # that a horizon of 15 finds B_13 < 0.
        rules, scan = families.window_rules, families.scan_past_window

        def no_rule_at_6(coeffs, gaps, head, horizon=None):
            return None if coeffs[-1] == 6 else rules(coeffs, gaps, head, horizon)

        def fails_at_13(cv, horizon, above_bound):
            if cv.coefficients[-1] == 6:
                return CompletenessVerdict.incomplete(13, 1 + cv.sequence.partial_sum(12))
            return scan(cv, horizon, above_bound)

        monkeypatch.setattr(families, "window_rules", no_rule_at_6)
        monkeypatch.setattr(families, "scan_past_window", fails_at_13)
        with pytest.raises(ConjectureViolation) as exc:
            empirical_max_n([1, 1, 0, 0], horizon=15)
        assert exc.value.vector == (1, 1, 0, 0, 6)
        assert exc.value.first_failure == 13

    @pytest.mark.parametrize("horizon", [None, 15])
    def test_classify_gets_the_callers_horizon(self, monkeypatch, horizon):
        # Both halves of classify, the window rules and the scan past the
        # window, see the caller's horizon.
        ruled, scanned = [], []
        rules, scan = families.window_rules, families.scan_past_window

        def rules_spy(coeffs, gaps, head, h=None):
            ruled.append(h)
            return rules(coeffs, gaps, head, h)

        def scan_spy(cv, h, above_bound):
            scanned.append(h)
            return scan(cv, h, above_bound)

        monkeypatch.setattr(families, "window_rules", rules_spy)
        monkeypatch.setattr(families, "scan_past_window", scan_spy)
        empirical_max_n([1, 1, 1, 0, 0, 0, 0, 0], horizon)
        assert ruled and set(ruled) == {horizon}
        assert scanned and set(scanned) == {horizon}

    def test_vector_built_only_where_no_rule_decides(self, monkeypatch):
        # Over the 8 x 8 figure grid, a probe [prefix, N] is built as a
        # CoefficientVector exactly when the window rules leave it open.
        built, probes, open_probes = [], [], []
        init = CoefficientVector.__post_init__
        rules = families.window_rules

        def counting_init(cv, head):
            built.append(tuple(cv.coefficients))
            init(cv, head)

        def rules_spy(coeffs, gaps, head, horizon=None):
            found = rules(coeffs, gaps, head, horizon)
            probes.append(coeffs)
            if found is None or found is FAILS_PAST_WINDOW:
                open_probes.append(coeffs)
            return found

        monkeypatch.setattr(CoefficientVector, "__post_init__", counting_init)
        monkeypatch.setattr(families, "window_rules", rules_spy)
        opened = 0
        for k in range(1, 9):
            for g in range(1, 9):
                prefix = (1,) * g + (0,) * k
                built.clear()
                open_probes.clear()
                empirical_max_n(prefix)
                assert [c for c in built if c[:-1] == prefix] == open_probes, prefix
                opened += len(open_probes)
        assert len(probes) >= 64 and 0 < opened < len(probes)

    def test_prefix_with_no_complete_extension(self):
        emp = empirical_max_n([2])
        assert emp.max_n == 0 and emp.proven_max_n == 0 and emp.proof is None

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            empirical_max_n([])
        with pytest.raises(ValueError):
            empirical_max_n([0, 1])


class TestWindowMaxN:
    def test_negative_slope_that_does_not_bind(self):
        # B_11 of [1,0,0,0,0,N] is 45, 50, 55 at N = 1, 2, 3: beta < 0.
        prefix = (1, 0, 0, 0, 0)
        _, table = gap_table(prefix, 11)
        alpha, beta = table[10]
        assert [alpha - beta * n for n in (1, 2, 3)] == [45, 50, 55]
        assert window_max_n(prefix, table) == max_n_single_one(4).max_n == 11

    def test_lower_end_above_one_raises(self):
        # B_2(N) = N - 3 rises with N and B_3(N) = 9 - N falls: N in [3, 9].
        with pytest.raises(ConjectureViolation) as exc:
            window_max_n((1, 0), [(0, 0), (-3, -1), (9, 1)])
        assert exc.value.vector == (1, 0, 3)
        assert exc.value.first_failure is None

    def test_empty_interval(self):
        # N >= 3 from below, N <= 2 from above.
        assert window_max_n((1, 0), [(0, 0), (-3, -1), (2, 1)]) == 0

    def test_flat_negative_gap(self):
        assert window_max_n((1, 0), [(0, 0), (-1, 0), (9, 1)]) == 0


class TestFigureTable:
    def test_pinned_rows(self):
        rows = figure1_table([2], [2, 3, 4])
        assert [(r.empirical_max_n, r.closed_form_max_n) for r in rows] == [
            (6, 6),
            (7, 7),
            (7, 7),
        ]

    def test_k1_g1(self):
        (row,) = figure1_table([1], [1])
        assert row.empirical_max_n == 3 and row.closed_form_max_n == 3

    def test_gap_in_coverage_left_empty(self):
        (row,) = figure1_table([3], [1])
        assert row.closed_form_max_n is None
        assert row.empirical_max_n == max_n_single_one(3).max_n  # still measured

    def test_csv_roundtrip(self, capsys):
        rows = figure1_table([1, 2], [1, 2, 3])
        assert main(["figure", "--k-range", "1:2", "--g-range", "1:3", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "k,g,empirical_max_n,closed_form_max_n,provenance"
        assert parse_figure_csv(text) == rows

    def test_range_validation(self):
        with pytest.raises(ValueError):
            figure1_table([], [1])
        with pytest.raises(ValueError):
            figure1_table([0], [1])


def test_config_horizon_never_below_floor():
    assert effective_horizon(5, horizon=3) == 9
    assert effective_horizon(1, horizon=3) == 3
    assert effective_horizon(4) == 7
