"""Cross-cutting invariants, mostly oracle-vs-implementation equivalences."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from plrslab import (
    AnalysisConfig,
    CoefficientVector,
    brown_gap_series,
    brown_scan,
    classify,
    distinct_decompose,
    empirical_max_n,
    enumerate_legal,
    enumerate_vectors,
    is_complete_up_to,
    is_legal,
    legal_decompose,
    subset_sum_reachable,
    terms_prefix,
    value_of,
)
from plrslab.seqcore import Sequence


@st.composite
def coefficient_vectors(draw, max_length=6, max_coeff=5):
    length = draw(st.integers(1, max_length))
    first = draw(st.integers(1, max_coeff))
    if length == 1:
        return CoefficientVector((first,))
    interior = draw(
        st.lists(st.integers(0, max_coeff), min_size=length - 2, max_size=length - 2)
    )
    last = draw(st.integers(1, max_coeff))
    return CoefficientVector((first, *interior, last))


class TestSequenceIdentities:
    @given(coefficient_vectors())
    @settings(max_examples=150, deadline=None)
    def test_initial_condition_identity(self, cv):
        # H_{n+1} - 1 = sum_{i<=n} c_i H_{n+1-i} for n < L
        L = len(cv)
        prefix = terms_prefix(cv, L)
        for n in range(1, L):
            lhs = prefix[n] - 1
            rhs = sum(cv[i] * prefix[n - 1 - i] for i in range(n))
            assert lhs == rhs

    @given(coefficient_vectors(), st.integers(2, 25))
    @settings(max_examples=150, deadline=None)
    def test_gap_recurrence(self, cv, depth):
        gaps = brown_gap_series(cv, depth)
        prefix = terms_prefix(cv, depth)
        for n in range(1, depth):
            assert gaps[n] - gaps[n - 1] == 2 * prefix[n - 1] - prefix[n]

    @given(coefficient_vectors())
    @settings(max_examples=150, deadline=None)
    def test_strictly_increasing_unless_degenerate(self, cv):
        prefix = terms_prefix(cv, 20)
        if cv.coefficients == (1,):
            assert prefix == [1] * 20
        else:
            assert all(b > a for a, b in zip(prefix, prefix[1:]))

    @pytest.mark.parametrize("length", range(1, 9))
    def test_ones_then_two_doubles(self, length):
        cv = CoefficientVector((1,) * (length - 1) + (2,))
        assert terms_prefix(cv, 30) == [2**i for i in range(30)]


class TestFiniteBrownEquivalence:
    """Nonnegative gaps through n  <=>  [1, S_n] fully reachable from H_1..H_n."""

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_over_enumeration(self, length):
        for cv in enumerate_vectors(length):
            gaps = brown_gap_series(cv, 12)
            prefix = terms_prefix(cv, 12)
            for n in range(1, 13):
                total = sum(prefix[:n])
                gaps_ok = all(g >= 0 for g in gaps[:n])
                if gaps_ok:
                    reach = subset_sum_reachable(prefix[:n], total)
                    assert reach.smallest_missing() is None, (cv, n)
                else:
                    k0 = next(i + 1 for i, g in enumerate(gaps[:n]) if g < 0)
                    witness = 1 + sum(prefix[: k0 - 1])
                    reach = subset_sum_reachable(prefix[:n], witness)
                    assert not reach.is_reachable(witness), (cv, n)

    @pytest.mark.parametrize("length", [2, 3])
    def test_witness_law(self, length):
        for cv in enumerate_vectors(length):
            scan = brown_scan(cv, 12)
            if scan.first_failure is None:
                continue
            witness = 1 + sum(terms_prefix(cv, scan.first_failure - 1))
            reach = subset_sum_reachable(terms_prefix(cv, 12), witness)
            assert not reach.is_reachable(witness)
            assert all(reach.is_reachable(m) for m in range(1, witness))


class TestSubsetSumOracle:
    @given(st.lists(st.integers(1, 30), min_size=0, max_size=9), st.integers(1, 80))
    @settings(max_examples=200, deadline=None)
    def test_bitmap_matches_powerset(self, terms, cap):
        terms = sorted(terms)
        reach = subset_sum_reachable(terms, cap)
        sums = {sum(c) for r in range(len(terms) + 1) for c in combinations(terms, r)}
        for m in range(1, cap + 1):
            assert reach.is_reachable(m) == (m in sums)


DECOMPOSITION_SET = [
    CoefficientVector(c) for c in [(1, 1), (1, 3), (2, 1), (1, 0, 4), (3,), (1, 1, 2)]
]


class TestDecompositionInvariants:
    @given(
        st.sampled_from(DECOMPOSITION_SET),
        st.integers(0, 5000),
    )
    @settings(max_examples=250, deadline=None)
    def test_round_trip(self, cv, n):
        digits = legal_decompose(cv, n)
        assert value_of(cv, digits) == n
        assert is_legal(cv, digits)

    def test_fibonacci_specialization(self):
        fib = CoefficientVector((1, 1))
        for n in range(0, 500):
            digits = legal_decompose(fib, n)
            assert set(digits) <= {0, 1}
            assert all(not (a == b == 1) for a, b in zip(digits, digits[1:]))

    @pytest.mark.parametrize("cv", DECOMPOSITION_SET)
    def test_legal_digit_bound(self, cv):
        bound = max(cv.coefficients)
        for n in range(0, 60):
            for digits in enumerate_legal(cv, n):
                assert all(d <= bound for d in digits)

    @pytest.mark.parametrize(
        "coeffs,cap", [((1, 3), 60), ((1, 1), 60), ((2, 1), 60), ((3,), 40)]
    )
    def test_completeness_linkage(self, coeffs, cap):
        cv = CoefficientVector(coeffs)
        every_target_hit = all(
            distinct_decompose(cv, m) is not None for m in range(1, cap + 1)
        )
        complete, _ = is_complete_up_to(cv, cap)
        assert every_target_hit == complete


class TestVectorMemoConsistency:
    """A vector's own memo, once extended, agrees with a Sequence built apart."""

    def test_fresh_sequence_agrees_with_vector_memo(self):
        cv = CoefficientVector((1, 0, 2, 5))
        assert terms_prefix(cv, 15) == cv.sequence.prefix(15)
        fresh = Sequence(cv)
        assert fresh.prefix(15) == cv.sequence.prefix(15)
        assert [fresh.gap(n) for n in range(1, 16)] == brown_gap_series(cv, 15)


class TestClassifierSoundness:
    """Verdicts over the full L <= 4 enumeration never contradict ground truth."""

    def test_complete_never_contradicted_by_oracle(self, classified_rows):
        for row in classified_rows["complete"]:
            ok, missing = is_complete_up_to(CoefficientVector(row.vector), 10**5)
            assert ok, (row.vector, missing)

    def test_incomplete_only_with_deep_gap_violation(self, classified_rows):
        for row in classified_rows["incomplete"]:
            cv = CoefficientVector(row.vector)
            scan = brown_scan(cv, 4 * len(cv))
            assert scan.first_failure == row.first_failure, row.vector

    def test_conjectural_survivors_pass_the_oracle(self, classified_rows):
        for row in classified_rows["conjecturally_complete"]:
            ok, missing = is_complete_up_to(CoefficientVector(row.vector), 10**5)
            assert ok, (row.vector, missing)


def bisection_max_n(prefix, cfg):
    """The doubling-plus-bisection search over verdicts that the gap lists replaced.

    Starts from 2^(k+2) for k trailing zeros in the prefix, doubles while
    [prefix, hi] is not Incomplete, then bisects; proven_max_n is the largest
    N at or below that with a Complete verdict.
    """
    p = tuple(prefix)

    def verdict_at(n):
        return classify(CoefficientVector(p + (n,)), cfg)

    trailing_zeros = 0
    for x in reversed(p):
        if x != 0:
            break
        trailing_zeros += 1
    hi = max(4, 2 ** (trailing_zeros + 2))
    while not verdict_at(hi).is_incomplete:
        hi *= 2
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if verdict_at(mid).is_incomplete:
            hi = mid
        else:
            lo = mid
    for n in range(lo, 0, -1):
        v = verdict_at(n)
        if v.is_complete:
            return lo, n, v.proof
    return lo, 0, None


@st.composite
def prefixes(draw, max_length=8):
    length = draw(st.integers(1, max_length))
    first = draw(st.integers(1, 3))
    return (first, *draw(st.lists(st.integers(0, 3), min_size=length - 1, max_size=length - 1)))


class TestEmpiricalMaxOracle:
    """The gap-list maximum agrees with bisection over classify verdicts."""

    @given(prefixes(), st.sampled_from([None, 0, 1, 5]))
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection(self, prefix, past_2l):
        # None keeps the default 2L - 1; 2L is the widest affine window, and
        # horizons past it reclassify the window's maximum deeper.
        L = len(prefix) + 1
        cfg = AnalysisConfig(horizon=None if past_2l is None else 2 * L + past_2l)
        emp = empirical_max_n(prefix, cfg)
        assert (emp.max_n, emp.proven_max_n, emp.proof) == bisection_max_n(prefix, cfg)

    @given(prefixes())
    @settings(max_examples=200, deadline=None)
    def test_max_n_is_the_last_n_not_incomplete(self, prefix):
        n = empirical_max_n(prefix).max_n
        if n:
            assert not classify(CoefficientVector(prefix + (n,))).is_incomplete
        assert classify(CoefficientVector(prefix + (n + 1,))).is_incomplete


class TestDominantRootCrossCheck:
    """P(2) = 2^L - sum c_i 2^(L-i) < 0 puts the dominant root above 2, so B goes negative."""

    @given(coefficient_vectors(max_length=9, max_coeff=3))
    @settings(max_examples=300, deadline=None)
    def test_never_complete_when_p2_negative(self, cv):
        L = len(cv)
        p2 = 2**L - sum(c * 2 ** (L - i) for i, c in enumerate(cv, start=1))
        if p2 < 0:
            assert not classify(cv).is_complete, cv
