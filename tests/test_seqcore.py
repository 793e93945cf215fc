import decimal
import itertools
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from plrslab import (
    CoefficientVector,
    EmptyVectorError,
    LeadingZeroError,
    NegativeCoefficientError,
    Sequence,
    TrailingZeroError,
    VectorValidationError,
)
from plrslab import seqcore
from plrslab.seqcore import term_texts


def naive_terms(coeffs, n):
    """Independent recomputation of the recurrence, used as the oracle."""
    L = len(coeffs)
    H = [1]
    while len(H) < n:
        m = len(H)
        if m < L:
            H.append(sum(coeffs[i] * H[m - 1 - i] for i in range(m)) + 1)
        else:
            H.append(sum(coeffs[i] * H[m - 1 - i] for i in range(L)))
    return H


class TestValidation:
    def test_accepts_paper_style_vectors(self):
        cv = CoefficientVector([1, 3])
        assert len(cv) == 2
        assert cv.coefficients == (1, 3)

    def test_accepts_degenerate_one(self):
        assert CoefficientVector([1]).coefficients == (1,)

    def test_interior_zeros_fine(self):
        assert len(CoefficientVector([1, 0, 0, 7])) == 4

    def test_empty_rejected(self):
        with pytest.raises(EmptyVectorError):
            CoefficientVector([])

    def test_leading_zero_rejected(self):
        with pytest.raises(LeadingZeroError):
            CoefficientVector([0, 1])

    def test_trailing_zero_rejected(self):
        with pytest.raises(TrailingZeroError):
            CoefficientVector([1, 0])

    def test_negative_rejected_with_index(self):
        with pytest.raises(NegativeCoefficientError) as exc:
            CoefficientVector([1, -2, 1])
        assert exc.value.index == 2

    def test_parse(self):
        assert CoefficientVector.parse("1, 0, 4").coefficients == (1, 0, 4)
        with pytest.raises(VectorValidationError):
            CoefficientVector.parse("1,x")

    def test_immutable_and_hashable(self):
        cv = CoefficientVector([1, 3])
        assert hash(cv) == hash(CoefficientVector((1, 3)))
        with pytest.raises(Exception):
            cv.coefficients = (2,)
        with pytest.raises(AttributeError):
            del cv.coefficients
        assert cv.sequence is cv.sequence and cv.coefficients == (1, 3)


@given(st.lists(st.integers(0, 3), max_size=12))
def test_nonzero_runs_match_an_index_scan(c):
    # Reference: one pass over the indices, cutting where the value changes.
    runs, start = [], 0
    for i in range(1, len(c) + 1):
        if i == len(c) or c[i] != c[start]:
            if c[start]:
                runs.append((start, i, c[start]))
            start = i
    assert seqcore.nonzero_runs(c) == seqcore.nonzero_runs(tuple(c)) == tuple(runs)


#: The reads of a Sequence, drawn in any order.
READS = ("term", "prefix", "partial_sum", "gaps", "first_gap_below")


class TestTerms:
    @pytest.mark.parametrize(
        "coeffs,n,expected",
        [
            ((1, 1), 4, 5),
            ((1, 3), 4, 11),
            ((1,), 7, 1),
            ((1, 0, 4), 5, 15),
        ],
    )
    def test_single_terms(self, coeffs, n, expected):
        assert CoefficientVector(coeffs).sequence.term(n) == expected

    def test_prefixes(self):
        assert CoefficientVector((1, 1)).sequence.prefix(5) == [1, 2, 3, 5, 8]
        assert CoefficientVector((2,)).sequence.prefix(5) == [1, 2, 4, 8, 16]
        assert CoefficientVector((1, 1, 2)).sequence.prefix(6) == [1, 2, 4, 8, 16, 32]

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1, 3),
            (1, 0, 4),
            (2, 1),
            (1, 1, 1),
            (3,),
            (1, 0, 0, 0, 0, 0, 15),
            (1,),
            (1,) * 24 + (0,) * 24 + (5000,),  # the largest figure vector
            (1,) + (0,) * 58 + (7,),  # L = 60, one long zero run
            (5,) * 60,  # one run
            (2, 2, 3, 3, 3, 1, 1, 0, 0, 4, 4),  # adjacent runs of distinct values
            tuple(range(1, 61)),  # every run of length one
            (1, 0, 1, 0, 1, 0, 1),
        ],
    )
    def test_against_naive_recomputation(self, coeffs):
        n = max(12, 2 * len(coeffs) + 3)
        assert Sequence(CoefficientVector(coeffs)).prefix(n) == naive_terms(coeffs, n)

    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(1, 20)), min_size=1, max_size=8),
        st.integers(1, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_runs_against_naive_recomputation(self, blocks, length):
        # Blocks of repeated values give long zero runs and equal neighbours.
        coeffs = [v for v, width in blocks for _ in range(width)][:length]
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or 1
        n = 2 * len(coeffs) + 3
        assert Sequence(CoefficientVector(coeffs)).prefix(n) == naive_terms(coeffs, n)

    @given(
        st.lists(st.tuples(st.sampled_from([0, 1, 1, 2, 7]), st.sampled_from([1, 1, 2, 4])), max_size=6),
        st.integers(0, 30),
    )
    @example([(3, 1), (1, 1), (2, 3), (0, 2), (1, 4), (5, 1), (0, 1), (1, 1)], 0)
    @example([(1, 1), (4, 1), (1, 2), (0, 3), (1, 1), (2, 1), (2, 1)], 5)
    @settings(max_examples=200, deadline=None)
    def test_single_runs_mixed_with_longer_runs(self, blocks, k):
        # One-wide runs (v = 1 and v > 1), which read H_{m-start} from the
        # memo, next to longer runs, which take a difference of prefix sums;
        # from H_1 a term at a time across the +1 phase, and from a head of
        # k terms before, at or past L.
        coeffs = [1] + [v for v, width in blocks for _ in range(width)] + [1]
        n = 3 * len(coeffs) + 5
        expected = naive_terms(coeffs, n)
        seq = Sequence(CoefficientVector(coeffs))
        assert [seq.term(i) for i in range(1, n + 1)] == expected
        if k:
            assert Sequence(CoefficientVector(coeffs), head=expected[:k]).prefix(n) == expected

    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=9),
        st.integers(1, 20),
        st.lists(st.tuples(st.sampled_from(READS), st.integers(0, 60), st.integers(1, 40)), max_size=12),
    )
    # Wide first runs, whose prefix sums the terms read, with a head.
    @example([2, 2, 0, 1], 3, [("first_gap_below", 9, 4), ("term", 30, 1), ("partial_sum", 5, 1),
                               ("gaps", 40, 1), ("partial_sum", 29, 1)])
    @example([3, 3, 3], 5, [("partial_sum", 2, 1), ("gaps", 12, 1), ("term", 27, 1),
                            ("first_gap_below", 26, 3), ("prefix", 9, 1)])
    @settings(max_examples=200, deadline=None)
    def test_head_continues_the_recurrence(self, coeffs, k, reads):
        # A memo started from the first k terms, before, at or past L, goes
        # on exactly as a fresh one; the vector's own memo too.  Reads in a
        # drawn order, each extending the memo or not, see the same terms,
        # sums and gaps: the sums are made when read, or kept in step with
        # the terms when a wide run reads them.
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or 1
        n = 2 * len(coeffs) + 21
        expected = naive_terms(coeffs, n)
        sums = list(itertools.accumulate(expected, initial=0))
        gaps = [1 + s - h for s, h in zip(sums, expected)]
        naive = {
            "term": lambda i: expected[i - 1],
            "prefix": lambda i: expected[:i],
            "partial_sum": lambda i: sums[i],
            "gaps": lambda i: gaps[:i],
            "first_gap_below": lambda i, start: next((m for m in range(start, i + 1) if gaps[m - 1] < 0), None),
        }
        for head in (None, expected[:k]):
            seq = Sequence(CoefficientVector(coeffs), head=head)
            for name, i, start in reads:
                lo = 0 if name == "partial_sum" else 1
                args = (lo + i % (n + 1 - lo),) + ((start,) if name == "first_gap_below" else ())
                assert getattr(seq, name)(*args) == naive[name](*args), (head, name, args)
        assert seq.prefix(n) == expected
        assert seq.gaps(n) == Sequence(CoefficientVector(coeffs)).gaps(n)
        assert [seq.partial_sum(i) for i in range(n)] == [sum(expected[:i]) for i in range(n)]
        cv = CoefficientVector(coeffs, head=expected[:k])
        assert cv == CoefficientVector(coeffs)
        assert cv.sequence.prefix(n) == expected
        # Terms taken on trust are never passed by position.
        with pytest.raises(TypeError):
            CoefficientVector(coeffs, expected[:k])
        with pytest.raises(TypeError):
            Sequence(CoefficientVector(coeffs), expected[:k])

    @pytest.mark.parametrize("coeffs", [(1, 1, 0, 0, 3, 3, 3, 0, 9), (1,) * 5 + (0,) * 5 + (7,)])
    def test_extension_in_steps_across_the_plus_one_phase(self, coeffs):
        # Each extension resumes where the last stopped, before, at and past L.
        seq = Sequence(CoefficientVector(coeffs))
        expected = naive_terms(coeffs, 2 * len(coeffs) + 3)
        for n in range(1, len(expected) + 1):
            assert seq.term(n) == expected[n - 1]
        assert seq.prefix(len(expected)) == expected

    def test_figure_vector_is_two_runs(self):
        assert seqcore.nonzero_runs((1,) * 24 + (0,) * 24 + (5000,)) == ((0, 24, 1), (48, 49, 5000))

    def test_prefix_consistent_with_term(self):
        cv = CoefficientVector((1, 2, 3))
        prefix = cv.sequence.prefix(10)
        assert prefix == [cv.sequence.term(i) for i in range(1, 11)]

    def test_memo_extends_lazily(self):
        seq = Sequence(CoefficientVector((1, 1)))
        assert seq.term(3) == 3
        assert seq.term(8) == 34
        assert seq.prefix(4) == [1, 2, 3, 5]

    def test_index_validation(self):
        with pytest.raises(ValueError):
            CoefficientVector((1, 1)).sequence.term(0)


class TestBrownGaps:
    @pytest.mark.parametrize("coeffs", [(1,), (2,), (1, 3), (1, 0, 4), (4, 4)])
    def test_first_gap_always_zero(self, coeffs):
        assert CoefficientVector(coeffs).sequence.gaps(1)[0] == 0

    def test_doubling_sequence_gap_zero(self):
        # direct summation oracle: 1 + (2^5 - 1) - 2^5
        cv = CoefficientVector((2,))
        assert cv.sequence.gaps(6)[5] == 1 + sum(cv.sequence.prefix(5)) - cv.sequence.term(6) == 0

    def test_one_zero_four_gap(self):
        cv = CoefficientVector((1, 0, 4))
        assert cv.sequence.gaps(5)[4] == 1 + sum(cv.sequence.prefix(4)) - cv.sequence.term(5) == -1

    @pytest.mark.parametrize("coeffs", [(1, 3), (1, 0, 4), (2,), (1, 1, 1, 1)])
    def test_series_matches_direct_sums(self, coeffs):
        cv = CoefficientVector(coeffs)
        series = cv.sequence.gaps(10)
        prefix = cv.sequence.prefix(10)
        for n in range(1, 11):
            assert series[n - 1] == 1 + sum(prefix[: n - 1]) - prefix[n - 1]

    def test_gap_recurrence(self):
        # B_{n+1} - B_n = 2 H_n - H_{n+1}
        cv = CoefficientVector((1, 0, 2, 5))
        series = cv.sequence.gaps(15)
        prefix = cv.sequence.prefix(15)
        for n in range(1, 15):
            assert series[n] - series[n - 1] == 2 * prefix[n - 1] - prefix[n]

    def test_monotone_unless_degenerate(self):
        for coeffs in [(2,), (1, 1), (1, 0, 4), (3, 2)]:
            prefix = CoefficientVector(coeffs).sequence.prefix(12)
            assert all(b > a for a, b in zip(prefix, prefix[1:]))
        ones = CoefficientVector((1,)).sequence.prefix(12)
        assert ones == [1] * 12

    def test_empty_scan_adds_no_term(self, monkeypatch):
        # scan_past_window at the default horizon asks for start = 2L > stop = 2L - 1.
        seq = CoefficientVector((1, 0, 4), head=[1, 2, 3]).sequence
        calls = []
        monkeypatch.setattr(Sequence, "_extend_to", lambda self, n: calls.append(n))
        assert seq.first_gap_below(5, start=6) is None
        assert calls == []


def texts_of(cv, m):
    """Every text of term_texts(cv, m), its runs joined."""
    return list(itertools.chain.from_iterable(term_texts(cv, m)))


class TestTermTexts:
    @given(st.lists(st.integers(0, 300), min_size=1, max_size=8), st.integers(0, 60))
    @example([300, 0, 0, 0, 0, 0, 0, 1], 30)  # decimal from H_2, inside the +1 phase
    @example([1, 0, 0, 0, 0, 0, 0, 1], 60)  # decimal from past L
    @example([2, 1], 0)
    @settings(max_examples=300, deadline=None)
    def test_matches_str_across_the_cut(self, coeffs, m):
        # With the cut at 8 bits, H_2 = c_1 + 1 alone can pass it, so the
        # decimal recurrence starts before, at or past L, or not at all.
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or 1
        with mock.patch.object(seqcore, "STR_MAX_BITS", 8):
            texts = texts_of(CoefficientVector(coeffs), m)
        assert texts == [str(h) for h in naive_terms(coeffs, m)[:m]]

    def test_past_the_default_digit_limit(self):
        # The closing check compares Decimal == int, exact and without the
        # int/str digit limit: texts past 4,300 digits need no lifted limit.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int/str digit limit before Python 3.10.7")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            texts = texts_of(CoefficientVector((9,)), 4600)  # H_n = 9^(n-1)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(texts[-1]) > 4300
        assert [decimal.Decimal(texts[i]) for i in (0, 1000, 4599)] == [1, 9**1000, 9**4599]

    def test_terms_below_the_cut_come_from_str(self, monkeypatch):
        cv = CoefficientVector((2, 1))
        m = sum(1 for t in cv.sequence.prefix(2000) if t.bit_length() <= seqcore.STR_MAX_BITS)
        monkeypatch.setitem(sys.modules, "decimal", None)  # importing it now fails
        assert texts_of(cv, m) == [str(t) for t in cv.sequence.prefix(m)]
        with pytest.raises(ImportError):
            texts_of(cv, m + 1)

    def test_a_decimal_term_unlike_the_int_term_refused(self, monkeypatch):
        prefix = Sequence.prefix

        def last_off_by_one(self, n):
            terms = prefix(self, n)
            terms[-1] += 1
            return terms

        monkeypatch.setattr(Sequence, "prefix", last_off_by_one)
        monkeypatch.setattr(seqcore, "STR_MAX_BITS", 8)
        texts = []
        with pytest.raises(RuntimeError, match="H_20 "):
            texts.extend(itertools.chain.from_iterable(term_texts(CoefficientVector((2, 1)), 20)))
        assert len(texts) < 20  # the last texts wait for the check
