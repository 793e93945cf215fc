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
    terms_prefix,
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
        assert terms_prefix(CoefficientVector((1, 1)), 5) == [1, 2, 3, 5, 8]
        assert terms_prefix(CoefficientVector((2,)), 5) == [1, 2, 4, 8, 16]
        assert terms_prefix(CoefficientVector((1, 1, 2)), 6) == [1, 2, 4, 8, 16, 32]

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
        st.lists(st.integers(0, 4), min_size=1, max_size=9),
        st.integers(1, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_head_continues_the_recurrence(self, coeffs, k):
        # A memo started from the first k terms, before, at or past L, goes
        # on exactly as a fresh one; the vector's own memo too.
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or 1
        n = 2 * len(coeffs) + 21
        expected = naive_terms(coeffs, n)
        seq = Sequence(CoefficientVector(coeffs), head=expected[:k])
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
        seq = Sequence(CoefficientVector((1,) * 24 + (0,) * 24 + (5000,)))
        assert seq._runs == ((0, 24, 1), (48, 49, 5000))

    def test_prefix_consistent_with_term(self):
        cv = CoefficientVector((1, 2, 3))
        prefix = terms_prefix(cv, 10)
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
        assert cv.sequence.gaps(6)[5] == 1 + sum(terms_prefix(cv, 5)) - cv.sequence.term(6) == 0

    def test_one_zero_four_gap(self):
        cv = CoefficientVector((1, 0, 4))
        assert cv.sequence.gaps(5)[4] == 1 + sum(terms_prefix(cv, 4)) - cv.sequence.term(5) == -1

    @pytest.mark.parametrize("coeffs", [(1, 3), (1, 0, 4), (2,), (1, 1, 1, 1)])
    def test_series_matches_direct_sums(self, coeffs):
        cv = CoefficientVector(coeffs)
        series = cv.sequence.gaps(10)
        prefix = terms_prefix(cv, 10)
        for n in range(1, 11):
            assert series[n - 1] == 1 + sum(prefix[: n - 1]) - prefix[n - 1]

    def test_gap_recurrence(self):
        # B_{n+1} - B_n = 2 H_n - H_{n+1}
        cv = CoefficientVector((1, 0, 2, 5))
        series = cv.sequence.gaps(15)
        prefix = terms_prefix(cv, 15)
        for n in range(1, 15):
            assert series[n] - series[n - 1] == 2 * prefix[n - 1] - prefix[n]

    def test_monotone_unless_degenerate(self):
        for coeffs in [(2,), (1, 1), (1, 0, 4), (3, 2)]:
            prefix = terms_prefix(CoefficientVector(coeffs), 12)
            assert all(b > a for a, b in zip(prefix, prefix[1:]))
        ones = terms_prefix(CoefficientVector((1,)), 12)
        assert ones == [1] * 12


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
            texts = term_texts(CoefficientVector(coeffs), m)
        assert texts == [str(h) for h in naive_terms(coeffs, m)[:m]]

    def test_terms_below_the_cut_come_from_str(self, monkeypatch):
        cv = CoefficientVector((2, 1))
        m = sum(1 for t in terms_prefix(cv, 2000) if t.bit_length() <= seqcore.STR_MAX_BITS)
        monkeypatch.setitem(sys.modules, "decimal", None)  # importing it now fails
        assert term_texts(cv, m) == [str(t) for t in terms_prefix(cv, m)]
        with pytest.raises(ImportError):
            term_texts(cv, m + 1)

    def test_a_decimal_term_unlike_the_int_term_refused(self, monkeypatch):
        prefix = Sequence.prefix

        def last_off_by_one(self, n):
            terms = prefix(self, n)
            terms[-1] += 1
            return terms

        monkeypatch.setattr(Sequence, "prefix", last_off_by_one)
        monkeypatch.setattr(seqcore, "STR_MAX_BITS", 8)
        with pytest.raises(RuntimeError, match="H_20 "):
            term_texts(CoefficientVector((2, 1)), 20)
