import gc
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from plrslab import (
    BoundResult,
    CapTooLargeError,
    CoefficientVector,
    ConjectureViolation,
    ProofRule,
    brown_scan,
    classify,
    is_complete_up_to,
    subset_sum_reachable,
    terms_prefix,
)
from plrslab import families, verdicts
from plrslab.seqcore import Sequence
from plrslab.verdicts import FAILS_PAST_WINDOW, CompleteLasts, effective_horizon, node_pieces, verdict_to_json

from conftest import weak_window_check


def powerset_sums(terms):
    """Brute-force oracle: all sums of distinct terms."""
    out = set()
    for r in range(len(terms) + 1):
        for combo in combinations(terms, r):
            out.add(sum(combo))
    return out


class TestBrownScan:
    def test_one_three_fails_at_three(self):
        scan = brown_scan(CoefficientVector((1, 3)), 10)
        assert scan.first_failure == 3
        assert scan.gaps[:3] == (0, 0, -1)

    def test_fibonacci_never_fails(self):
        assert brown_scan(CoefficientVector((1, 1)), 50).first_failure is None

    def test_one_zero_four_fails_at_five(self):
        assert brown_scan(CoefficientVector((1, 0, 4)), 10).first_failure == 5

    def test_trace_covers_whole_horizon(self):
        assert len(brown_scan(CoefficientVector((1, 3)), 10).gaps) == 10

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            brown_scan(CoefficientVector((1, 1)), 0)


class TestWeakWindow:
    def test_examples(self):
        assert weak_window_check(CoefficientVector((1, 0, 3))) is True
        assert weak_window_check(CoefficientVector((1, 1, 2))) is False  # gaps all 0
        assert weak_window_check(CoefficientVector((2,))) is True
        assert weak_window_check(CoefficientVector((1,))) is True
        assert weak_window_check(CoefficientVector((3,))) is False


class TestSubsetSum:
    def test_one_three_terms(self):
        reach = subset_sum_reachable([1, 2, 5, 11], 8)
        got = {m for m in range(1, 9) if reach.is_reachable(m)}
        assert got == {1, 2, 3, 5, 6, 7, 8}
        assert reach.smallest_missing() == 4
        assert reach.missing() == [4]

    def test_powers_of_two_reach_everything(self):
        reach = subset_sum_reachable([1, 2, 4, 8, 16], 31)
        assert reach.smallest_missing() is None

    def test_sparse_terms(self):
        reach = subset_sum_reachable([1, 3], 2)
        assert reach.is_reachable(1)
        assert not reach.is_reachable(2)

    @pytest.mark.parametrize("terms", [[1, 2, 5], [2, 3, 3, 7], [1, 1, 1], [4]])
    def test_against_powerset(self, terms):
        cap = sum(terms) + 3
        reach = subset_sum_reachable(terms, cap)
        oracle = powerset_sums(terms)
        for m in range(1, cap + 1):
            assert reach.is_reachable(m) == (m in oracle)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            subset_sum_reachable([3, 1], 5)

    def test_budget_guard(self):
        with pytest.raises(CapTooLargeError):
            subset_sum_reachable([1], 10**10)


class TestIsCompleteUpTo:
    def test_one_three(self):
        assert is_complete_up_to(CoefficientVector((1, 3)), 8) == (False, 4)
        assert is_complete_up_to(CoefficientVector((1, 3)), 3) == (True, None)

    def test_fibonacci(self):
        assert is_complete_up_to(CoefficientVector((1, 1)), 100) == (True, None)

    def test_degenerate_ones(self):
        assert is_complete_up_to(CoefficientVector((1,)), 10**6) == (True, None)


class TestClassify:
    def test_all_positive_shapes(self):
        v = classify(CoefficientVector((1, 1, 2)))
        assert v.is_complete and v.proof.rule is ProofRule.ALL_POSITIVE
        v = classify(CoefficientVector((1, 1, 1)))
        assert v.is_complete and v.proof.rule is ProofRule.ALL_POSITIVE

    def test_doubling_tagged_geometric(self):
        v = classify(CoefficientVector((2,)))
        assert v.is_complete and v.proof.rule is ProofRule.GEOMETRIC_L1

    def test_one_one_three_incomplete(self):
        v = classify(CoefficientVector((1, 1, 3)))
        assert v.is_incomplete
        assert v.first_failure_index == 4
        assert v.witness == 8

    def test_worked_seven_coefficient_examples(self):
        assert classify(CoefficientVector((1, 0, 0, 0, 0, 0, 15))).is_incomplete
        v = classify(CoefficientVector((1, 1, 0, 0, 0, 0, 15)))
        assert v.is_complete and v.proof.rule is ProofRule.FAMILY_DOUBLE_ONE
        assert classify(CoefficientVector((1, 2, 0, 0, 0, 0, 15))).is_incomplete

    def test_family_single_one(self):
        v = classify(CoefficientVector((1, 0, 3)))
        assert v.is_complete and v.proof.rule is ProofRule.FAMILY_SINGLE_ONE
        assert v.proof.params["bound"] == 3

    def test_family_bound_violated_past_the_window(self, monkeypatch):
        # [1,0,3] passes every gap it is scanned for; a bound of 2 claims it
        # fails, so the failure would lie past the window.
        too_low = BoundResult(2, "single_one", exact=True)
        monkeypatch.setattr(families, "family_bound", lambda g, k: too_low)
        for horizon in (None, 40):
            with pytest.raises(ConjectureViolation) as exc:
                classify(CoefficientVector((1, 0, 3)), horizon)
            assert exc.value.vector == (1, 0, 3)
            assert exc.value.first_failure is None

    def test_merge_rule_fires(self):
        # merging the last two gives [1,0,3], complete by the single-one bound
        v = classify(CoefficientVector((1, 0, 1, 2)))
        assert v.is_complete and v.proof.rule is ProofRule.MERGE_LAST

    @pytest.mark.parametrize("horizon", [None, 40])
    def test_merged_vector_gets_the_callers_horizon(self, monkeypatch, horizon):
        # The merged vector is one shorter, so its own floor is 2L - 3; it is
        # handed the caller's horizon, not the 2L - 1 the outer vector scans.
        calls = []
        proves = verdicts.proves_complete

        def spy(cv, h=None):
            calls.append((cv.coefficients, h))
            return proves(cv, h)

        monkeypatch.setattr(verdicts, "proves_complete", spy)
        v = classify(CoefficientVector((1, 0, 1, 2)), horizon)
        assert v.is_complete and v.proof.rule is ProofRule.MERGE_LAST
        assert calls == [((1, 0, 3), horizon)]

    def test_weak_window_fires(self):
        v = classify(CoefficientVector((1, 0, 1, 0, 0, 11)))
        assert v.is_complete and v.proof.rule is ProofRule.WEAK_WINDOW

    def test_failure_past_the_window_found_by_the_last_scan(self, monkeypatch):
        # With the window cut to 2, [1,0,2,2,2,4] passes it and no rule proves
        # it: only the scan from the window to the horizon finds its failure.
        real = verdicts.effective_horizon
        monkeypatch.setattr(
            verdicts, "effective_horizon", lambda L, h=None: 2 if h is None else real(L, h)
        )
        cv = CoefficientVector((1, 0, 2, 2, 2, 4))
        v = classify(cv, 24)
        assert v.is_incomplete and v.first_failure_index == 11
        assert v.witness == 1 + sum(terms_prefix(cv, 10))
        # A family vector above its bound scans there too: [1,1,1,0,4] fails at 9.
        v = classify(CoefficientVector((1, 1, 1, 0, 4)), 20)
        assert v.is_incomplete and v.first_failure_index == 9

    @pytest.mark.parametrize(
        "coeffs, rule, reached",
        [
            ((1, 0, 1, 2), ProofRule.MERGE_LAST, {4: 7, 3: 5}),
            ((1, 0, 1, 0, 0, 11), ProofRule.WEAK_WINDOW, {6: 11, 5: 9}),
            ((1, 0, 2, 3), None, {4: 16, 3: 5}),
            ((1, 0, 2, 1, 2), ProofRule.WEAK_WINDOW, {5: 9, 4: 7, 3: 5}),
        ],
    )
    def test_terms_past_the_window_only_for_unproved_vectors(self, monkeypatch, coeffs, rule, reached):
        # At horizon 4L a vector that a rule proves computes no term past its
        # window 2L - 1, nor does its merged vector past 2L - 3 when a rule
        # proves it ([1,0,3]) or it fails inside ([1,0,1,0,11], [1,0,5]); the
        # conjectural [1,0,2,3] is scanned to the horizon, but not as the
        # merged vector of [1,0,2,1,2], where only whether it is Complete counts.
        seen = {}
        extend = Sequence._extend_to

        def spy(self, n):
            seen[self._length] = max(seen.get(self._length, 0), n)
            extend(self, n)

        monkeypatch.setattr(Sequence, "_extend_to", spy)
        v = classify(CoefficientVector(coeffs), 4 * len(coeffs))
        assert (v.proof.rule if v.proof else None) is rule
        assert seen == reached

    def test_conjectural_survivor(self):
        v = classify(CoefficientVector((1, 0, 2, 3)))
        assert v.is_conjectural
        assert v.horizon == 7

    def test_incomplete_invariants(self):
        cv = CoefficientVector((1, 3))
        v = classify(cv)
        gaps = brown_scan(cv, 10).gaps
        n = v.first_failure_index
        assert gaps[n - 1] < 0
        assert all(g >= 0 for g in gaps[: n - 1])
        assert v.witness == 1 + sum(terms_prefix(cv, n - 1))

    def test_retained_memory_bounded_by_input(self):
        # Terms live with the vector that holds them: once the vectors are
        # dropped, classifying 2,000 of them leaves nothing behind, and
        # nothing waits for the cyclic collector to be freed.
        classify(CoefficientVector((1, 1, 0, 0, 1)))  # first-call imports
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in range(2, 2002):
                classify(CoefficientVector((1, 1, 0, 0, n)))
            cycles = gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert cycles == 0
        assert retained < 64 * 1024

    def test_horizon_floor_applies(self):
        # an explicit horizon below max(2L-1, 2) is raised, not honored
        v = classify(CoefficientVector((3,)), horizon=1)
        assert v.is_incomplete and v.first_failure_index == 2

    def test_json_schema(self):
        cv = CoefficientVector((1, 3))
        v = classify(cv)
        payload = verdict_to_json(cv, v, brown_scan(cv, 4).gaps)
        assert list(payload) == [
            "vector",
            "verdict",
            "proof",
            "first_failure",
            "witness",
            "horizon",
            "gaps",
        ]
        assert payload["verdict"] == "incomplete"
        assert payload["witness"] == 4


def _each_c(pieces):
    return {c: found for a, b, found in pieces for c in range(a, b)}


class TestNodePieces:
    """window_rules over a range of c_L, against each c read alone from the same
    gap lines alpha_n - beta_n c (made up here, so every sign of beta shows)."""

    @given(
        st.lists(st.tuples(st.integers(-40, 40), st.integers(-4, 4)), min_size=4, max_size=4),
        st.integers(1, 12), st.integers(1, 16), st.integers(1, 16), st.integers(0, 5),
    )
    @example([(3, 0), (-2, -1), (9, 3), (5, 1)], 1, 10, 1, 0)  # gaps of 0 at c = 2, 3
    @example([(3, 0), (-4, -2), (0, 0), (40, 1)], 1, 12, 4, 2)  # B_6 = 0 for every c
    @settings(max_examples=300, deadline=None)
    def test_pieces_match_each_c(self, lines, first, width, merged_lo, merged_width):
        # [1, 0, 2, c]: neither rule (b) nor (c) applies, so the passing c are
        # decided by (d), here the made-up range of merged_* (merged last
        # coefficients 2 + c), then by (e), B_n > 0 for n = 4..7.
        prefix, L = (1, 0, 2), 4
        table = [(0, 0), (1, 0), lines[0], (100, 1), *lines[1:]]
        stop = first + width
        merged = range(merged_lo, merged_lo + merged_width)
        lasts = CompleteLasts((1, 0), None, None)
        lasts.ranges = [(merged.start + 2, merged.stop + 2)] if merged else []
        found = _each_c(node_pieces(prefix, table, [], first, stop, lasts, None))
        for c in range(first, stop):
            gaps = [a - b * c for a, b in table]
            if min(gaps) < 0:
                expected = next(n for n, gap in enumerate(gaps, 1) if gap < 0)
            elif c in merged:
                expected = ProofRule.MERGE_LAST
            elif min(gaps[L - 1:]) > 0:
                expected = ProofRule.WEAK_WINDOW
            else:
                expected = None
            assert found.pop(c) == expected, (c, gaps)
        assert not found

    @pytest.mark.parametrize("prefix, rules", [
        ((), {1: ProofRule.ALL_POSITIVE, 2: ProofRule.GEOMETRIC_L1}),
        ((1, 1), {1: ProofRule.ALL_POSITIVE, 2: ProofRule.ALL_POSITIVE}),
        ((1, 0), {c: ProofRule.FAMILY_SINGLE_ONE for c in (1, 2, 3)} | {4: FAILS_PAST_WINDOW}),
    ])
    def test_coefficients_and_family_bound(self, prefix, rules):
        # Rules (b) and (c) read the coefficients; (c) splits at the bound, 3
        # for [1, 0, N].  Every made-up gap is positive.
        table = [(100, 0)] * effective_horizon(len(prefix) + 1)
        assert _each_c(node_pieces(prefix, table, [], min(rules), max(rules) + 1, None, None)) == rules

    def test_all_positive_shape_checked(self):
        with pytest.raises(RuntimeError, match=r"\[1, 1, 3\] is not all-positive complete"):
            node_pieces((1, 1), [(100, 0)] * 5, [], 1, 4, None, None)


class TestClassifySoundnessSpot:
    @pytest.mark.parametrize(
        "coeffs", [(1, 0, 3), (1, 0, 1, 2), (1, 0, 1, 0, 0, 11), (1, 1, 0, 0, 0, 0, 15)]
    )
    def test_complete_verdicts_hold_up_to_oracle(self, coeffs):
        cv = CoefficientVector(coeffs)
        assert classify(cv).is_complete
        ok, missing = is_complete_up_to(cv, 50_000)
        assert ok, missing

    @pytest.mark.parametrize("coeffs", [(1, 3), (1, 1, 3), (1, 0, 4), (2, 1)])
    def test_incomplete_witnesses_verified(self, coeffs):
        cv = CoefficientVector(coeffs)
        v = classify(cv)
        assert v.is_incomplete
        ok, missing = is_complete_up_to(cv, v.witness)
        assert not ok and missing == v.witness
