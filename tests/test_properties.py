"""Cross-cutting invariants, mostly oracle-vs-implementation equivalences."""

import functools
import itertools
import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plrslab import (
    CoefficientVector,
    CompletenessVerdict,
    ConjectureViolation,
    ProofRule,
    ProofTag,
    classify,
    distinct_decompose,
    empirical_max_n,
    enumerate_legal,
    family_bound,
    family_shape,
    is_complete_up_to,
    is_legal,
    legal_decompose,
    subset_sum_reachable,
    terms_prefix,
    value_of,
)
from plrslab import families, hunt, seqcore, verdicts
from plrslab.families import gap_table, passing_range
from plrslab.seqcore import Sequence
from plrslab.verdicts import _BOUND_RULE_TAGS, CompleteLasts, effective_horizon, window_rules

from conftest import (brown_scan, enumerate_vectors, greedy_legal_digits, passing_range_by_passes,
                      weak_window_check)


def lasts_chain(prefix, horizon, memo):
    """The CompleteLasts of prefix, its ancestors' in turn, shared through memo."""
    level = None
    for d in range(len(prefix) + 1):
        if prefix[:d] not in memo:
            memo[prefix[:d]] = CompleteLasts(prefix[:d], level, horizon)
        level = memo[prefix[:d]]
    return level


def leaf_rows(L, prefix, first, stop, horizon, memo):
    """The census rows of [prefix, c], c in range(first, stop), decided together
    from the walk's H_1..H_L, rule (d) asking the shared chain in memo."""
    head = Sequence(CoefficientVector(prefix + (1,))).prefix(L)  # no c_L in them
    merged = lasts_chain(prefix[:-1], horizon, memo) if prefix else None
    return list(hunt._expand(L, hunt._node_records(prefix, head, first, stop, merged, horizon)))


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
        gaps = cv.sequence.gaps(depth)
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


class TestListFreeScan:
    """The scans that build no gap list agree with Sequence.gaps."""

    @given(coefficient_vectors(max_length=7), st.integers(1, 30), st.integers(1, 30),
           st.sampled_from([0, 1]))
    @example(CoefficientVector((1, 0, 4)), 1, 5, 0)  # first fails at 5, the last index
    @example(CoefficientVector((1, 0, 4)), 5, 5, 0)
    @settings(max_examples=300, deadline=None)
    def test_first_gap_below_matches_gaps(self, cv, start, stop, floor):
        gaps = Sequence(cv).gaps(stop)
        expected = next((n for n in range(start, stop + 1) if gaps[n - 1] < floor), None)
        assert cv.sequence.first_gap_below(stop, floor, start) == expected

    @given(coefficient_vectors(max_length=7, max_coeff=4))
    @example(CoefficientVector((1, 1)))  # B_2 = 0 inside the window
    @settings(max_examples=300, deadline=None)
    def test_weak_window_matches_gaps(self, cv):
        L = len(cv)
        if L == 1:
            expected = cv[0] <= 2
        else:
            gaps = Sequence(cv).gaps(2 * L - 1)
            expected = min(gaps[: L - 1]) >= 0 and min(gaps[L - 1:]) > 0
        assert weak_window_check(cv) is expected


class TestSharedMergedVerdicts:
    @given(
        st.lists(coefficient_vectors(max_length=7, max_coeff=4), min_size=1, max_size=8),
        st.sampled_from([None, 13, 20, 28]),
    )
    @settings(max_examples=100, deadline=None)
    def test_shared_dict_matches_fresh_classify(self, vectors, horizon):
        # One chain of CompleteLasts per prefix, shared by many node
        # decisions at one horizon, over each drawn vector and its siblings
        # [.., a, s - a]: every row, proof tag included, is a fresh
        # classify's, and so is every last coefficient the chain holds.
        memo = {}
        for cv in vectors:
            L, siblings = len(cv), [cv.coefficients]
            if L >= 2:
                head, s = cv.coefficients[:-2], cv[-2] + cv[-1]
                siblings += [head + (a, s - a) for a in range(L == 2, s)]
            for sib in siblings:
                rows = leaf_rows(L, sib[:-1], sib[-1], sib[-1] + 1, horizon, memo)
                assert rows == [hunt._row(sib, classify(CoefficientVector(sib), horizon))]
        for q, lasts in memo.items():
            if lasts.ranges is None:
                continue
            top = max([1, *(b for _, b in lasts.ranges)])
            for s in range(1, top + 2):
                complete = any(a <= s < b for a, b in lasts.ranges)
                assert complete == classify(CoefficientVector(q + (s,)), horizon).is_complete, (q, s)


def scan_first_classify(coeffs, horizon):
    """classify's verdict with the gap scan to the full depth first, on a private memo."""
    cv = CoefficientVector(coeffs)
    L = len(coeffs)
    depth = effective_horizon(L, horizon)
    seq = Sequence(cv)
    n = seq.first_gap_below(depth)
    if n is not None:
        return CompletenessVerdict.incomplete(n, 1 + seq.partial_sum(n - 1))
    if min(coeffs) >= 1:
        rule = ProofRule.GEOMETRIC_L1 if coeffs == (2,) else ProofRule.ALL_POSITIVE
        return CompletenessVerdict.complete(ProofTag.make(rule))
    shape = family_shape(coeffs)
    bound = None if shape is None else family_bound(shape.g, shape.k)
    if bound is not None:
        if shape.n > bound.max_n:
            raise ConjectureViolation(coeffs, None)
        return CompletenessVerdict.complete(ProofTag.make(
            _BOUND_RULE_TAGS[bound.rule], g=shape.g, k=shape.k, last=shape.n, bound=bound.max_n
        ))
    if L >= 2:
        key = coeffs[:-2] + (coeffs[-2] + coeffs[-1],)
        if scan_first_classify(key, horizon).is_complete:
            tag = ProofTag.make(ProofRule.MERGE_LAST, merged_last=key[-1])
            return CompletenessVerdict.complete(tag)
    if weak_window_check(CoefficientVector(coeffs)):
        tag = ProofTag.make(ProofRule.WEAK_WINDOW, window_end=max(2 * L - 1, 2))
        return CompletenessVerdict.complete(tag)
    return CompletenessVerdict.conjecturally_complete(depth)


@st.composite
def family_vectors(draw, max_length=8):
    g = draw(st.integers(1, max_length - 2))
    k = draw(st.integers(1, max_length - 1 - g))
    return CoefficientVector((1,) * g + (0,) * k + (draw(st.integers(1, 2 ** (g + k + 1))),))


@st.composite
def sparse_vectors(draw, max_length=8):
    # [1, 0 or 1, small values, a larger last one]: the shapes of the census
    # leaves that the strict-window rule proves or that survive conjecturally.
    L = draw(st.integers(3, max_length))
    interior = draw(st.lists(st.integers(0, 4), min_size=L - 3, max_size=L - 3))
    return CoefficientVector((1, draw(st.integers(0, 1)), *interior, draw(st.integers(1, 2 * L))))


@st.composite
def vectors_and_horizons(draw):
    cv = draw(st.one_of(
        coefficient_vectors(max_length=8, max_coeff=2),
        coefficient_vectors(max_length=8, max_coeff=4),
        family_vectors(),
        sparse_vectors(),
    ))
    return cv, draw(st.one_of(st.none(), st.integers(1, 8 * len(cv))))


class TestProofsBeforeTheDeepScan:
    """Proving before scanning past the window changes no verdict."""

    @given(vectors_and_horizons())
    @example((CoefficientVector((1, 1, 1, 0, 4)), None))  # first fails at 2L - 1
    @example((CoefficientVector((1, 0, 4)), 24))  # a family vector above its bound
    @example((CoefficientVector((1, 0, 2, 3)), 32))  # conjectural
    @settings(max_examples=400, deadline=None)
    def test_matches_scan_first_reference(self, case):
        cv, horizon = case
        assert classify(cv, horizon) == scan_first_classify(cv.coefficients, horizon)


class TestFiniteBrownEquivalence:
    """Nonnegative gaps through n  <=>  [1, S_n] fully reachable from H_1..H_n."""

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_over_enumeration(self, length):
        for cv in enumerate_vectors(length):
            gaps = cv.sequence.gaps(12)
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


def _is_legal_by_slicing(cv, digits) -> bool:
    """The former is_legal, which copies the tail at every block: the oracle."""
    c = cv.coefficients
    L = len(c)
    a = tuple(digits)
    if any(d < 0 for d in a):
        return False
    while a:
        if a[0] == 0:
            return False
        m = len(a)
        j = 0
        while j < m and j < L and a[j] == c[j]:
            j += 1
        if j == m:
            return m < L
        if j == L:
            return False
        if a[j] > c[j]:
            return False
        t = j + 1
        while t < m and a[t] == 0:
            t += 1
        a = a[t:]
    return True


class TestIsLegalOracle:
    @given(coefficient_vectors(), st.lists(st.integers(-1, 6), max_size=30))
    @settings(max_examples=400, deadline=None)
    def test_random_strings(self, cv, digits):
        assert is_legal(cv, digits) == _is_legal_by_slicing(cv, digits)

    @given(coefficient_vectors(max_length=8), st.one_of(st.integers(1, 64), st.integers(1024, 4096)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_long_legal_strings_and_their_mutants(self, cv, bits, data):
        assume(cv.coefficients != (1,))
        n = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        digits = legal_decompose(cv, n)
        assert is_legal(cv, digits) and _is_legal_by_slicing(cv, digits)
        at = data.draw(st.integers(0, len(digits) - 1))
        new = data.draw(st.integers(-1, max(cv) + 1))
        cut = data.draw(st.integers(0, len(digits)))
        for mutant in (digits[:at] + (new,) + digits[at + 1:], digits[:cut], digits[cut:]):
            assert is_legal(cv, mutant) == _is_legal_by_slicing(cv, mutant)


class TestDecompositionInvariants:
    @given(
        st.one_of(coefficient_vectors(max_length=7), coefficient_vectors(max_length=4, max_coeff=2000)),
        st.integers(1, 600),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_greedy_matches_reference(self, cv, bits, data):
        # Coefficients up to 4 are taken by subtraction, larger ones by one divmod.
        assume(cv.coefficients != (1,))
        n = data.draw(st.integers(0, (1 << bits) - 1))
        assert legal_decompose(cv, n) == greedy_legal_digits(cv, n), (cv, n)

    @pytest.mark.parametrize("coeffs", [(1000, 1), (4, 5), (5, 0, 0, 4), (9, 9, 9), (2, 1, 3, 0, 0, 0, 2)])
    def test_greedy_matches_reference_on_large_n(self, coeffs):
        cv = CoefficientVector(coeffs)
        rng = random.Random(sum(coeffs))
        for bits in (64, 1024, 4096):
            for n in (1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits)):
                assert legal_decompose(cv, n) == greedy_legal_digits(cv, n), (coeffs, n)

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
        assert fresh.gaps(15) == cv.sequence.gaps(15)


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


def bisection_max_n(prefix, horizon):
    """The doubling-plus-bisection search over verdicts that the gap lists replaced.

    Starts from 2^(k+2) for k trailing zeros in the prefix, doubles while
    [prefix, hi] is not Incomplete, then bisects; proven_max_n is the largest
    N at or below that with a Complete verdict.
    """
    p = tuple(prefix)

    def verdict_at(n):
        return classify(CoefficientVector(p + (n,)), horizon)

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
        horizon = None if past_2l is None else 2 * L + past_2l
        emp = empirical_max_n(prefix, horizon)
        assert (emp.max_n, emp.proven_max_n, emp.proof) == bisection_max_n(prefix, horizon)

    @given(prefixes())
    @settings(max_examples=200, deadline=None)
    def test_max_n_is_the_last_n_not_incomplete(self, prefix):
        n = empirical_max_n(prefix).max_n
        if n:
            assert not classify(CoefficientVector(prefix + (n,))).is_incomplete
        assert classify(CoefficientVector(prefix + (n + 1,))).is_incomplete


@functools.cache
def _census_leaf_prefixes(max_length=6):
    """The prefixes c_1..c_{L-1} of the census leaves, L <= max_length."""
    found = set()
    for L in range(1, max_length + 1):
        found.update(r.vector[:-1] for r in hunt._census_records(L, 4 * L) if not hunt._is_run(r))
    return sorted(found)


@st.composite
def family_prefixes(draw, max_length=7):
    g = draw(st.integers(1, max_length - 1))
    return (1,) * g + (0,) * draw(st.integers(1, max_length - g))


sibling_prefixes = st.one_of(
    prefixes(max_length=7),
    family_prefixes(),
    st.integers(0, 7).map(lambda m: (1,) * m),
    # Built when first drawn, not when the tests are collected.
    st.integers(0, 10**6).map(lambda i: _census_leaf_prefixes()[i % len(_census_leaf_prefixes())]),
)


class TestGapTable:
    """One table of gap lines gives every [prefix, N]'s gaps up to 2L."""

    @given(
        st.one_of(
            prefixes(),
            st.builds(lambda g, k: (1,) * g + (0,) * k, st.integers(1, 24), st.integers(1, 24)),
        ),
        st.data(),
    )
    @example((1,) * 24 + (0,) * 24, None)
    @settings(max_examples=150, deadline=None)
    def test_lines_give_the_gaps_to_2l(self, prefix, data):
        # B_{L+1} = alpha - N, as beta = H_1 = 1, so the N it passes are
        # 1..alpha; their number grows like 2^k, so the ends and a few
        # between are checked.
        L = len(prefix) + 1
        head, table = gap_table(prefix, 2 * L)
        assert head == Sequence(CoefficientVector(prefix + (1,))).prefix(L)
        assert len(table) == 2 * L and table[L][1] == 1
        top = table[L][0]
        if top < 1:
            return
        probes = {1, top}
        if data is not None:
            probes.update(data.draw(st.lists(st.integers(1, top), max_size=3)))
        for n in sorted(probes):
            gaps = [a - b * n for a, b in table]
            assert gaps == Sequence(CoefficientVector(prefix + (n,))).gaps(2 * L), (prefix, n)

    @given(
        st.one_of(
            prefixes(),
            st.just(()),  # L = 1
            st.tuples(st.integers(1, 9), st.lists(st.integers(0, 9), max_size=4)).map(lambda t: (t[0], *t[1])),
            # Wide runs, some of coefficients above 1.
            st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), min_size=1, max_size=4).map(
                lambda rs: (2,) + tuple(c for c, width in rs for _ in range(width))),
        ),
        st.integers(1, 40),
    )
    @example((), 3)
    @example((1,), 2)
    @example((3,), 1)
    @example((1, 1, 1, 0, 0, 0), 6)
    @example((2, 2, 2, 0, 0, 0, 3, 3, 3), 5)
    @settings(max_examples=150, deadline=None)
    def test_every_window(self, prefix, n):
        # Windows 1..2L: below L, L, L + 1, 2L - 1 and 2L among them.
        L = len(prefix) + 1
        seq = Sequence(CoefficientVector(prefix + (n,)))
        for window in range(1, 2 * L + 1):
            head, table = gap_table(prefix, window)
            assert head == seq.prefix(min(window, L)), (prefix, window)
            assert [a - b * n for a, b in table] == seq.gaps(window), (prefix, n, window)

    @given(
        st.lists(st.tuples(st.integers(-60, 60), st.integers(-4, 4)), max_size=10),
        st.tuples(st.integers(-60, 60), st.integers(1, 4)),
        st.integers(0, 10),
    )
    @example([(-1, 0)], (5, 1), 0)  # a flat negative gap: no N passes
    @example([(5, 0), (-3, -1), (-2, 0)], (9, 1), 3)
    @example([(-30, -4)], (60, 1), 1)  # N >= 8 from below
    @settings(max_examples=300, deadline=None)
    def test_passing_range_matches_three_passes(self, lines, rising, at):
        lines.insert(min(at, len(lines)), rising)  # at least one line with beta > 0
        assert passing_range(lines) == passing_range_by_passes(lines), lines


class TestSiblingGapTable:
    """The census decides the leaves below a prefix together, from one table of window gaps."""

    @given(sibling_prefixes, st.one_of(st.none(), st.just(0), st.integers(1, 32)), st.data())
    @example((1, 1, 1, 1, 1, 1, 0), 0, None)  # first fails at 2L - 1 = 15 for c_L = 4
    @example((1, 0, 2), None, None)  # [1,0,2,3] is conjectural
    @example((1, 0), 0, None)  # family_single_one up to its bound, 5
    @settings(max_examples=150, deadline=None)
    def test_table_path_matches_classify(self, prefix, past_4l, data):
        # The table's gaps are each vector's, and the rows the node decides
        # for a range of c_L, with one chain of merged verdicts for all of
        # them, are classify's, one by one: first failure, verdict and proof.
        # The range runs over every c_L with B_{L+1} >= 0 (the leaves the
        # walk reaches) and one past; then, when drawn, from and to values
        # around the ends of the passing range, the family bound, the c where
        # a line turns negative or nonpositive, and the ends of the merged
        # generator's complete ranges.  The horizon is None, 4L, or past it
        # up to 8L.
        L = len(prefix) + 1
        horizon = None if past_4l is None else 4 * L + min(past_4l, 4 * L)
        window = effective_horizon(L)
        terms = Sequence(CoefficientVector(prefix + (1,))).prefix(L)  # H_1..H_L: no c_L in them
        head, table = gap_table(prefix, window)
        assert head == terms
        assert len(table) == window
        passing = passing_range(table)
        assert table[L][1] == 1  # B_{L+1} = alpha - c_L, as beta = H_1 = 1
        memo = {}
        spans = [(1, max(table[L][0], 0) + 2)]
        if data is not None:
            shape = family_shape(prefix + (1,))
            bound = shape and family_bound(shape.g, shape.k)
            ends = [passing.start, passing.stop, spans[0][1], bound.max_n + 1 if bound else 1]
            ends += sorted(verdicts._cuts(table, 0) | verdicts._cuts(table, 1))
            if prefix:
                ends += [s - prefix[-1] for r in lasts_chain(prefix[:-1], horizon, memo).found() for s in r]
            near = st.sampled_from(ends).flatmap(lambda x: st.integers(max(x - 2, 1), max(x + 2, 3)))
            first, last = sorted((data.draw(near), data.draw(near)))
            spans.append((first, last + 1))
        for first, stop in spans:
            rows = leaf_rows(L, prefix, first, stop, horizon, memo)
            assert [r.vector for r in rows] == [prefix + (c,) for c in range(first, stop)]
            for c, row in zip(range(first, stop), rows):
                cv = CoefficientVector(prefix + (c,))
                gaps = [a - b * c for a, b in table]
                assert gaps == Sequence(cv).gaps(window), cv
                assert (c in passing) == (min(gaps) >= 0), cv
                fresh = classify(cv, horizon)
                assert row == hunt._row(cv.coefficients, fresh), cv
                found = window_rules(cv.coefficients, gaps, terms, horizon)
                if isinstance(found, ProofTag):
                    assert fresh.proof == found, cv


class TestDominantRootCrossCheck:
    """P(2) = 2^L - sum c_i 2^(L-i) < 0 puts the dominant root above 2, so B goes negative."""

    @given(coefficient_vectors(max_length=9, max_coeff=3))
    @settings(max_examples=300, deadline=None)
    def test_never_complete_when_p2_negative(self, cv):
        L = len(cv)
        p2 = 2**L - sum(c * 2 ** (L - i) for i, c in enumerate(cv, start=1))
        if p2 < 0:
            assert not classify(cv).is_complete, cv


class _CheckedSequence(Sequence):
    """A Sequence that asserts a given head is its generator's own terms."""

    heads = 0

    def __init__(self, generator, *, head=None):
        super().__init__(generator, head=head)
        if head:
            assert list(head) == Sequence(generator).prefix(len(head)), (generator, head)
            type(self).heads += 1


def _checked_heads():
    """Patch seqcore so every head handed to a vector is checked and counted."""
    _CheckedSequence.heads = 0
    return mock.patch.object(seqcore, "Sequence", _CheckedSequence)


class TestHeads:
    """Terms started from a caller's head are the vector's own, verdicts unchanged."""

    @given(coefficient_vectors(max_length=7, max_coeff=4), st.sampled_from([None, 13, 20]))
    @settings(max_examples=150, deadline=None)
    def test_leaf_head_and_merged_dict_match_fresh_classify(self, cv, horizon):
        # As a census leaf: its terms start from the walk's H_1..H_L, and
        # merged verdicts come from a chain of CompleteLasts, first empty,
        # then found.
        fresh = classify(CoefficientVector(cv.coefficients), horizon)
        L, memo = len(cv), {}
        with _checked_heads():
            for _ in range(2):
                head = Sequence(cv).prefix(L + 1)
                leaf = classify(CoefficientVector(cv.coefficients, head=head), horizon)
                assert (leaf.status, leaf.proof) == (fresh.status, fresh.proof)
                assert leaf == fresh
                rows = leaf_rows(L, cv.coefficients[:-1], cv[-1], cv[-1] + 1, horizon, memo)
                assert rows == [hunt._row(cv.coefficients, fresh)]

    @given(prefixes(), st.sampled_from([None, 0, 3]))
    @settings(max_examples=150, deadline=None)
    def test_empirical_max_n_heads_are_fresh_terms(self, prefix, past_2l):
        # Each probe's window rules read the table's H_1..H_L, and the
        # vectors started from them (a probe that no rule decides, to be
        # scanned, or a merged generator) get the vector's own terms.
        horizon = None if past_2l is None else 2 * (len(prefix) + 1) + past_2l
        fresh = empirical_max_n(prefix, horizon)
        rules, scan = families.window_rules, families.scan_past_window
        probes, scanned = [], []

        def checked_rules(coeffs, gaps, head, h=None):
            assert list(head) == Sequence(CoefficientVector(coeffs)).prefix(len(coeffs)), coeffs
            probes.append(coeffs)
            return rules(coeffs, gaps, head, h)

        def counted_scan(cv, h, above_bound):
            scanned.append(cv.coefficients)
            return scan(cv, h, above_bound)

        with _checked_heads(), mock.patch.object(families, "window_rules", checked_rules), \
                mock.patch.object(families, "scan_past_window", counted_scan):
            assert empirical_max_n(prefix, horizon) == fresh
            assert len(probes) >= (fresh.max_n > 0)
            assert _CheckedSequence.heads >= len(scanned)
