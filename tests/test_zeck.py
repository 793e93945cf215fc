import json

import pytest

from plrslab import (
    CapExceededError,
    CoefficientVector,
    NoLegalDecompositionError,
    distinct_decompose,
    enumerate_legal,
    is_legal,
    legal_decompose,
    render_decomposition,
    value_of,
)
from plrslab.cli import main

FIB = CoefficientVector((1, 1))
ONE_THREE = CoefficientVector((1, 3))


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


class TestRendering:
    def test_multiplier_style(self):
        digits = legal_decompose(ONE_THREE, 9)
        assert render_decomposition(ONE_THREE, digits) == "9 = 1·5 + 2·2"

    def test_plain_sum_style(self):
        digits = legal_decompose(FIB, 10)
        assert render_decomposition(FIB, digits) == "10 = 8 + 2"

    def test_zero(self):
        assert render_decomposition(FIB, ()) == "0 = 0"

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
