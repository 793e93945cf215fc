import json
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from plrslab import (
    CapExceededError,
    CoefficientVector,
    NoLegalDecompositionError,
    Sequence,
    zeck,
    distinct_decompose,
    is_legal,
    legal_decompose,
)
from plrslab.cli import main

from conftest import enumerate_legal, value_of

FIB = CoefficientVector((1, 1))
ONE_THREE = CoefficientVector((1, 3))


def _distinct_by_bit_vectors(coeffs, n):
    """Indices of distinct_decompose's answer from a subset-sum bit vector over
    every term <= n, back-traced largest term first; None when n has none."""
    seq = Sequence(CoefficientVector(coeffs))
    terms = []
    while (t := seq.term(len(terms) + 1)) <= n:
        terms.append(t)
    full = (1 << (n + 1)) - 1
    layers = [1]
    for t in terms:
        layers.append((layers[-1] | layers[-1] << t) & full)
    if not layers[-1] >> n & 1:
        return None
    picked, rem = [], n
    for i in range(len(terms), 0, -1):
        t = terms[i - 1]
        if t <= rem and layers[i - 1] >> (rem - t) & 1:
            picked.append(i)
            rem -= t
    return tuple(reversed(picked))


def _terms_upto_by_steps(cv, n, budget):
    """The terms <= n found by visiting H_L, H_2L, ... one by one; None where
    a visited k has k terms of up to bits(H_k) bits over the budget."""
    step = k = len(cv)
    while (h := cv.sequence.term(k)) <= n:
        if k * h.bit_length() > budget:
            return None
        k += step
    terms = cv.sequence.prefix(k)
    return terms[:bisect_right(terms, n)]


def _witness(coeffs):
    """1 + S_{f-1} for the first negative gap B_f, or None within 40 terms."""
    seq = Sequence(CoefficientVector(coeffs))
    f = seq.first_gap_below(40)
    return None if f is None else 1 + seq.partial_sum(f - 1)


_generators = st.lists(st.integers(0, 4), min_size=1, max_size=5).map(
    lambda c: (c[0] or 1, *c[1:-1], c[-1] or 1) if len(c) > 1 else (c[0] or 2,)
).filter(lambda c: c != (1,))


class TestIsLegal:
    def test_examples(self):
        assert is_legal(ONE_THREE, (1, 2, 0)) is True
        assert is_legal(FIB, (1, 1)) is False  # full coefficient match, no close
        assert is_legal(FIB, (0, 1)) is False  # leading digit must be positive
        assert is_legal(FIB, ()) is True

    def test_negative_digits_rejected(self):
        assert is_legal(FIB, (1, -1)) is False

    def test_condition_one_prefixes(self):
        cv = CoefficientVector((1, 0, 4))
        assert is_legal(cv, (1,)) is True
        assert is_legal(cv, (1, 0)) is True  # matches c_1, c_2 with m < L
        assert is_legal(cv, (1, 0, 4)) is False  # full block of length L

    def test_digit_above_coefficient_dies(self):
        assert is_legal(ONE_THREE, (2, 0)) is False
        assert is_legal(ONE_THREE, (1, 3)) is False  # a_2 = c_2 at end of string

    def test_blocks_chain(self):
        # 1 < 2 closes a block immediately; any legal tail may follow
        cv = CoefficientVector((2, 1))
        assert is_legal(cv, (1, 1, 1)) is True
        assert is_legal(cv, (2, 0)) is True  # c_1 matched, closes with 0 < c_2


class TestValueOf:
    def test_examples(self):
        assert value_of(ONE_THREE, (1, 2, 0)) == 9
        assert value_of(ONE_THREE, ()) == 0
        assert value_of(FIB, (1, 0, 0, 1, 0)) == 10


class TestLegalDecompose:
    def test_examples(self):
        assert legal_decompose(ONE_THREE, 9) == (1, 2, 0)
        assert legal_decompose(FIB, 10) == (1, 0, 0, 1, 0)
        assert legal_decompose(FIB, 0) == ()

    def test_single_coefficient_is_base_c(self):
        cv = CoefficientVector((3,))
        assert legal_decompose(cv, 5) == (1, 2)  # base-3 "12"
        assert value_of(cv, (1, 2)) == 5

    def test_degenerate_one_raises(self):
        with pytest.raises(NoLegalDecompositionError):
            legal_decompose(CoefficientVector((1,)), 1)
        assert legal_decompose(CoefficientVector((1,)), 0) == ()

    def test_output_always_legal(self):
        for coeffs in [(1, 1), (1, 3), (2, 1), (1, 0, 4), (3,), (1, 1, 2)]:
            cv = CoefficientVector(coeffs)
            for n in range(0, 120):
                digits = legal_decompose(cv, n)
                assert value_of(cv, digits) == n
                assert is_legal(cv, digits)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            legal_decompose(FIB, -1)


class TestEnumerateLegal:
    def test_unique_examples(self):
        assert enumerate_legal(FIB, 10) == [(1, 0, 0, 1, 0)]
        assert enumerate_legal(ONE_THREE, 9) == [(1, 2, 0)]
        assert enumerate_legal(FIB, 0) == [()]

    def test_matches_greedy_on_small_range(self):
        cv = CoefficientVector((2, 1))
        for n in range(0, 60):
            strings = enumerate_legal(cv, n)
            assert strings == [legal_decompose(cv, n)]

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            enumerate_legal(FIB, 10_000)

    def test_degenerate_one(self):
        assert enumerate_legal(CoefficientVector((1,)), 0) == [()]
        assert enumerate_legal(CoefficientVector((1,)), 5) == []


class TestDistinctDecompose:
    def test_examples(self):
        assert distinct_decompose(ONE_THREE, 9) is None
        dd = distinct_decompose(FIB, 10)
        assert dd.terms == (2, 8)
        assert dd.indices == (2, 5)
        dd = distinct_decompose(CoefficientVector((2,)), 7)
        assert dd.terms == (1, 2, 4)

    def test_sum_matches_and_indices_increase(self):
        for coeffs in [(1, 1), (2,), (2, 1), (1, 0, 4)]:
            cv = CoefficientVector(coeffs)
            for n in range(1, 80):
                dd = distinct_decompose(cv, n)
                if dd is None:
                    continue
                assert sum(dd.terms) == n
                assert list(dd.indices) == sorted(set(dd.indices))

    def test_degenerate_one(self):
        dd = distinct_decompose(CoefficientVector((1,)), 5)
        assert dd.indices == (1, 2, 3, 4, 5)
        assert dd.terms == (1, 1, 1, 1, 1)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            distinct_decompose(FIB, 10**7)

    @pytest.mark.parametrize(
        "coeffs", [(1, 3), (1, 0, 4), (1, 1), (2,), (1, 2), (3, 2), (1, 0, 2, 2, 2, 3, 1, 2), (1, 4, 1)]
    )
    def test_same_indices_as_bit_vectors_past_the_witness(self, coeffs):
        # Complete and incomplete generators, N from 1 to well past the
        # witness 1 + S_{f-1}: the intervals [0, S_j] up to the first
        # negative gap pick exactly what the bit vectors pick.
        top = 3 * (_witness(coeffs) or 300) + 40
        for n in range(1, top):
            dd = distinct_decompose(CoefficientVector(coeffs), n)
            assert (dd and dd.indices) == _distinct_by_bit_vectors(coeffs, n), n

    @given(_generators, st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_indices_as_bit_vectors(self, coeffs, data):
        w = _witness(coeffs)
        ns = [data.draw(st.integers(1, 4 * (w or 500) + 20), label="n")]
        if w is not None:
            ns += [w - 1, w, w + 1]  # w - 1 >= 1, as B_1 = 0
        for n in ns:
            dd = distinct_decompose(CoefficientVector(coeffs), n)
            assert (dd and dd.indices) == _distinct_by_bit_vectors(coeffs, n), n


class TestTermsUpto:
    @pytest.mark.parametrize("coeffs", [(2, 1), (1, 1), (3, 2), (1, 0, 4), (2, 1, 3, 0, 0, 0, 2), (7,), (15,)])
    @pytest.mark.parametrize("budget", [40, 150, 700, 4000])
    def test_refuses_at_the_budget_edge_as_steps_of_l(self, coeffs, budget):
        # On both sides of each term around the edge: the same terms or the
        # same refusal, with the memo grown exactly as far.
        ref = Sequence(CoefficientVector(coeffs)).prefix(200)
        refused = 0
        for h in ref:
            for n in (h - 1, h, h + 1):
                if n < 1:
                    continue
                cv, by_steps = CoefficientVector(coeffs), CoefficientVector(coeffs)
                expected = _terms_upto_by_steps(by_steps, n, budget)
                with mock.patch.object(zeck, "BITMAP_BUDGET_BITS", budget):
                    if expected is None:
                        refused += 1
                        with pytest.raises(CapExceededError, match="budget"):
                            zeck._terms_upto(cv, n)
                    else:
                        assert zeck._terms_upto(cv, n) == expected
                assert len(cv.sequence._terms) == len(by_steps.sequence._terms)
        assert refused

    @given(_generators, st.integers(1, 2**400), st.integers(10, 20000))
    @settings(max_examples=200, deadline=None)
    def test_same_answer_as_steps_of_l(self, coeffs, n, budget):
        cv, by_steps = CoefficientVector(coeffs), CoefficientVector(coeffs)
        expected = _terms_upto_by_steps(by_steps, n, budget)
        with mock.patch.object(zeck, "BITMAP_BUDGET_BITS", budget):
            try:
                got = zeck._terms_upto(cv, n)
            except CapExceededError:
                got = None
        assert got == expected
        assert len(cv.sequence._terms) == len(by_steps.sequence._terms)


def rendered(cv, n, digits):
    """render_pieces' text for the digits of n under cv, read off cv's terms."""
    terms = cv.sequence.prefix(len(digits))[::-1] if digits else []
    return "".join(zeck.render_pieces(n, digits, terms))


class TestRendering:
    def test_multiplier_style(self):
        digits = legal_decompose(ONE_THREE, 9)
        assert rendered(ONE_THREE, 9, digits) == "9 = 1·5 + 2·2"

    def test_plain_sum_style(self):
        digits = legal_decompose(FIB, 10)
        assert rendered(FIB, 10, digits) == "10 = 8 + 2"

    def test_zero(self):
        assert rendered(FIB, 0, ()) == "0 = 0"

    def test_json_shape(self, capsys):
        assert main(["decompose", "1,3", "9", "--mode", "legal", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["results"]["legal"]
        assert payload == {
            "N": 9,
            "digits": [1, 2, 0],
            "terms": [5, 2, 1],
            "legal": True,
            "rendered": "9 = 1·5 + 2·2",
        }
