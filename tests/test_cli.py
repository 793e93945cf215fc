import ast
import contextlib
import csv
import hashlib
import io
import itertools
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import plrslab
from plrslab import (
    CoefficientVector,
    ConjectureViolation,
    NoLegalDecompositionError,
    Sequence,
    cli,
    distinct_decompose,
    hunt,
    is_legal,
    legal_decompose,
    verdicts,
)
from plrslab.cli import main
from plrslab.hunt import (
    CENSUS_CSV_HEADER,
    CensusRow,
    _is_run,
    _last,
    coefficient_ranges,
    parse_census_csv,
)

from conftest import census_rows_to_csv, parse_figure_csv, run_census, value_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """`python ARGS` in a new interpreter that imports this checkout's plrslab."""
    env = {**os.environ, "PYTHONPATH": str(Path(plrslab.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def _no_work(*args, **kwargs):
    raise AssertionError("an oversized request reached the computation")


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextlib.contextmanager
def _no_digit_limit():
    """Lift the int/str conversion limit of this process, where it has one."""
    limit = _digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestGen:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "gen", "1,3", "--count", "4")
        assert code == 0
        assert out == "1 2 5 11\n"

    def test_degenerate(self, capsys):
        code, out, _ = run(capsys, "gen", "1", "--count", "3")
        assert code == 0 and out == "1 1 1\n"

    def test_zero_count_exit_2(self, capsys):
        assert run(capsys, "gen", "2", "--count", "0") == (2, "", "error: --count must be >= 1\n")

    def test_doubling(self, capsys):
        code, out, _ = run(capsys, "gen", "1,1,2", "--count", "5")
        assert code == 0 and out == "1 2 4 8 16\n"

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "gen", "1,3", "--count", "4", "--format", "json")
        payload = json.loads(out)
        assert list(payload) == ["command", "inputs", "results", "tool_version"]
        assert payload["results"]["terms"] == [1, 2, 5, 11]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "gen", "2", "--count", "3", "--format", "csv")
        assert out == "n,term\n1,1\n2,2\n3,4\n"

    def test_invalid_vector_exits_2(self, capsys):
        code, out, err = run(capsys, "gen", "0,1")
        assert code == 2
        assert out == ""
        assert "positive" in err

    def test_oversized_count_exit_five(self, capsys, monkeypatch):
        monkeypatch.setattr(Sequence, "prefix", _no_work)
        code, out, err = run(capsys, "gen", "1,1", "--count", str(10**9))
        assert code == 5
        assert out == ""
        assert "budget" in err

    def test_terms_past_the_digit_limit(self, capsys):
        limit = _digit_limit()
        code, out, err = run(capsys, "gen", "2", "--count", "20000")
        assert (code, err) == (0, "")
        assert _digit_limit() == limit  # restored on return
        last = out.rsplit(" ", 1)[1].strip()
        assert len(last) > 4300
        with _no_digit_limit():
            assert int(last) == 2**19999

    def test_json_memory_holds_no_prefix_sums(self):
        # The memo holds the 20,000 terms (~25 MB); a prefix sum kept beside
        # each term, which nothing here reads, peaked at ~54 MB traced.
        sink = _HashingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["gen", "2", "--count", "20000", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.sha.hexdigest() == "e63446860ef02a9a81cd9c0e67e6f2b81751286ee7dbd68be1b67fad79490be6"
        assert peak < 35 * 2**20


class TestAnalyze:
    def test_complete_exit_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", "1,1,0,0,0,0,15")
        assert code == 0
        assert "complete" in out

    def test_incomplete_exit_three(self, capsys):
        code, out, _ = run(capsys, "analyze", "1,2,0,0,0,0,15")
        assert code == 3

    def test_conjectural_exit_four(self, capsys):
        code, out, _ = run(capsys, "analyze", "1,0,2,3")
        assert code == 4

    def test_doubling_complete(self, capsys):
        code, _, _ = run(capsys, "analyze", "2")
        assert code == 0

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "analyze", "1,3", "--format", "json")
        payload = json.loads(out)["results"]
        assert payload["verdict"] == "incomplete"
        assert payload["first_failure"] == 3
        assert payload["witness"] == 4
        assert payload["witness_verified"] is True
        assert payload["gaps"][0] == 0

    def test_oversized_horizon_exit_five(self, capsys, monkeypatch):
        monkeypatch.setattr(verdicts, "classify", _no_work)
        monkeypatch.setattr(Sequence, "gaps", _no_work)
        code, out, err = run(capsys, "analyze", "1,1", "--horizon", str(10**9))
        assert code == 5
        assert out == ""
        assert "budget" in err

    def test_oracle_cap_below_one_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "1,0,4", "--oracle-cap", "0")
        assert code == 2
        assert out == ""
        assert "--oracle-cap" in err

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "analyze", "1,0,4", "--format", "json")
        _, second, _ = run(capsys, "analyze", "1,0,4", "--format", "json")
        assert first == second

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_gaps_past_the_digit_limit(self, capsys, fmt):
        code, out, err = run(
            capsys, "analyze", "1,1,1,1", "--horizon", "16000", "--format", fmt
        )
        assert (code, err) == (0, "")
        assert max(len(digits) for digits in re.findall(r"\d+", out)) > 4300


class TestDecompose:
    def test_negative_n_exit_2(self, capsys):
        assert run(capsys, "decompose", "2,1", "-1") == (2, "", "error: N must be >= 0\n")

    def test_both_modes(self, capsys):
        code, out, _ = run(capsys, "decompose", "1,3", "9", "--mode", "both")
        assert code == 0
        assert "legal: 9 = 1·5 + 2·2" in out
        assert "distinct: none" in out

    def test_legal_only(self, capsys):
        code, out, _ = run(capsys, "decompose", "1,1", "10", "--mode", "legal")
        assert out == "legal: 10 = 8 + 2\n"

    def test_zero_is_empty(self, capsys):
        code, out, _ = run(capsys, "decompose", "1,1", "0")
        assert code == 0
        assert "legal: empty" in out
        assert "distinct: empty" in out

    def test_cap_exit_five(self, capsys):
        code, _, err = run(capsys, "decompose", "1,1", "99", "--mode", "distinct", "--oracle-cap", "10")
        assert code == 5
        assert "cap" in err

    @pytest.mark.parametrize("n", ["5", "0"])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    @pytest.mark.parametrize("mode", ["distinct", "both"])
    def test_oracle_cap_below_one_exit_2(self, capsys, monkeypatch, mode, cap, n):
        monkeypatch.setattr(plrslab.zeck, "legal_decompose", _no_work)
        monkeypatch.setattr(plrslab.zeck, "distinct_decompose", _no_work)
        code, out, err = run(capsys, "decompose", "2,1", n, "--mode", mode, "--oracle-cap", cap)
        assert (code, out) == (2, "")
        assert "--oracle-cap must be >= 1" in err

    def test_legal_mode_ignores_oracle_cap(self, capsys):
        code, out, _ = run(capsys, "decompose", "2,1", "5", "--mode", "legal", "--oracle-cap", "0")
        assert (code, out) == (0, "legal: 5 = 1·3 + 2·1\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "1,1", "10", "--format", "json")
        results = json.loads(out)["results"]
        assert results["legal"]["digits"] == [1, 0, 0, 1, 0]
        assert results["legal"]["terms"] == [8, 5, 3, 2, 1]
        assert results["distinct"]["terms"] == [2, 8]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("mode", ["legal", "distinct", "both"])
    @pytest.mark.parametrize(
        "vector,n",
        [("1,3", 9), ("1,1", 10), ("1,1", 0), ("1", 0), ("1", 5), ("2,0,3", 12345), ("3,1,1", 0)],
    )
    def test_stdout_matches_whole_dict_encoding(self, capsys, vector, n, mode, fmt):
        code, out, _ = run(capsys, "decompose", vector, str(n), "--mode", mode, "--format", fmt)
        assert code == 0
        _assert_same_text(out, _decompose_stdout_by_dict(vector, n, mode, fmt))

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("vector", ["2,1", "1,1", "2,1,3,0,0,0,2"])
    def test_stdout_for_a_4096_bit_n_matches_whole_dict_encoding(self, capsys, vector, fmt):
        n = (1 << 4095) + 0x9E3779B97F4A7C15 ** 50
        with _no_digit_limit():
            text = str(n)
            code, out, _ = run(capsys, "decompose", vector, text, "--mode", "legal", "--format", fmt)
            expected = _decompose_stdout_by_dict(vector, n, "legal", fmt)
        assert code == 0
        _assert_same_text(out, expected)

    def test_legal_json_memory_streamed(self):
        # Whole, the envelope of a 4096-bit N under [2, 1] (2.9 MB) peaked
        # at ~13 MB, as it did concatenated from streamed pieces; streamed it
        # peaks at ~4.5 MB: the term texts and the term memo, plus ~0.1 MB
        # when this call first imports decimal.  Keeping every decimal term
        # in place of term_texts' window of L peaked at 5.5 MB.
        n = (1 << 4095) + 0x9E3779B97F4A7C15 ** 50
        with _no_digit_limit():
            text = str(n)
            digest = hashlib.sha256(_decompose_stdout_by_dict("2,1", n, "legal", "json").encode())
        sink = _HashingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["decompose", "2,1", text, "--mode", "legal", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.sha.hexdigest() == digest.hexdigest()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("mode", ["both", "distinct"])
    def test_distinct_cap_refuses_before_legal_work(self, capsys, monkeypatch, mode, fmt):
        monkeypatch.setattr(plrslab.zeck, "legal_decompose", _no_work)
        with _no_digit_limit():
            text = str(2**4095 + 12345)
        code, out, err = run(capsys, "decompose", "2,1", text, "--mode", mode, "--format", fmt)
        assert code == 5
        assert out == ""
        assert "4096 bits" in err  # N's size, not its 1,233 digits
        assert len(err) < 200

    def test_csv_refused_before_legal_work(self, monkeypatch):
        monkeypatch.setattr(plrslab.zeck, "legal_decompose", _no_work)
        with _no_digit_limit():
            text = str(2**16000 + 12345)
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "2,1", text, "--mode", "legal", "--format", "csv"])
        assert exc.value.code == 2

    def test_oversized_n_exit_five(self, capsys):
        # Its terms could pass the 2^28-bit budget: about 15,700 terms of up
        # to 20,000 bits, and 71 MB of JSON.  With both modes the distinct
        # cap refuses it first, before any legal work.
        with _no_digit_limit():
            text = str(2**20000 + 12345)
        for mode, reason in (("legal", "budget"), ("both", "distinct-sum cap")):
            code, out, err = run(capsys, "decompose", "2,1", text, "--mode", mode, "--format", "json")
            assert code == 5
            assert out == ""
            assert reason in err


def _render_by_parts(cv, digits) -> str:
    """The former render_decomposition, which joins one string per part."""
    m = len(digits)
    if m == 0 or all(d == 0 for d in digits):
        return "0 = 0"
    prefix = cv.sequence.prefix(m)
    parts = [(d, prefix[m - 1 - i]) for i, d in enumerate(digits) if d > 0]
    if any(d > 1 for d, _ in parts):
        rhs = " + ".join(f"{d}·{t}" for d, t in parts)
    else:
        rhs = " + ".join(str(t) for _, t in parts)
    return f"{value_of(cv, digits)} = {rhs}"


def _decompose_stdout_by_dict(vector: str, n: int, mode: str, fmt: str) -> str:
    """decompose stdout built as one dict per result and encoded whole."""
    cv = CoefficientVector.parse(vector)
    results: dict = {"N": n}
    lines = []
    if mode in ("legal", "both"):
        try:
            digits = legal_decompose(cv, n)
        except NoLegalDecompositionError:
            results["legal"] = None
            lines.append("legal: none")
        else:
            m = len(digits)
            prefix = cv.sequence.prefix(m) if m else []
            rendered = _render_by_parts(cv, digits)
            results["legal"] = {
                "N": value_of(cv, digits),
                "digits": list(digits),
                "terms": [prefix[m - 1 - i] for i in range(m)],
                "legal": is_legal(cv, digits),
                "rendered": rendered,
            }
            lines.append(f"legal: {rendered}" if n else "legal: empty")
    if mode in ("distinct", "both"):
        dd = distinct_decompose(cv, n) if n else None
        if not n:
            results["distinct"] = {"indices": [], "terms": []}
            lines.append("distinct: empty")
        elif dd is None:
            results["distinct"] = None
            lines.append("distinct: none")
        else:
            results["distinct"] = {"indices": list(dd.indices), "terms": list(dd.terms)}
            lines.append(f"distinct: {n} = " + " + ".join(str(t) for t in reversed(dd.terms)))
    if fmt == "text":
        return "".join(line + "\n" for line in lines)
    envelope = {
        "command": "decompose",
        "inputs": {"vector": list(cv), "N": n, "mode": mode},
        "results": results,
        "tool_version": plrslab.__version__,
    }
    return json.dumps(envelope, ensure_ascii=False) + "\n"


class TestBound:
    def test_single_one(self, capsys):
        code, out, _ = run(capsys, "bound", "--single-one", "--k", "5")
        assert code == 0 and out == "14\n"

    def test_double_one(self, capsys):
        code, out, _ = run(capsys, "bound", "--double-one", "--k", "4")
        assert out == "20\n"

    def test_g_ones_uncovered(self, capsys):
        code, out, _ = run(capsys, "bound", "--g-ones", "--g", "1", "--k", "2")
        assert code == 0 and "no closed form" in out

    def test_shift(self, capsys):
        code, out, _ = run(capsys, "bound", "--shift", "--L", "6", "--i", "2", "--format", "json")
        payload = json.loads(out)["results"]
        assert payload["max_n"] == 11
        assert payload["vector"] == [1, 1, 0, 0, 0, 11]
        assert payload["exact"] is False

    def test_shift_out_of_range_exit_2(self, capsys):
        code, _, _ = run(capsys, "bound", "--shift", "--L", "5", "--i", "2")
        assert code == 2

    def test_requires_exactly_one_family(self, capsys):
        code, _, _ = run(capsys, "bound", "--single-one", "--double-one", "--k", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--single-one"], "--single-one requires --k"),
        (["--double-one"], "--double-one requires --k"),
        (["--g-ones", "--k", "3"], "--g-ones requires --g and --k"),
        (["--shift", "--L", "8"], "--shift requires --L and --i"),
    ])
    def test_missing_parameter_exit_2(self, capsys, argv, message):
        assert run(capsys, "bound", *argv) == (2, "", f"error: {message}\n")


class TestMaxn:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "maxn", "1,1,0,0")
        assert code == 0 and out == "6\n"

    def test_prefix_with_trailing_zero_is_fine(self, capsys):
        code, out, _ = run(capsys, "maxn", "1,0")
        assert out == "3\n"

    def test_conjectural_maximum_above_the_proven_one(self, capsys):
        # [1,0,1,0,0,12] passes its window and no rule proves it; 11 has a
        # strictly positive window.
        assert run(capsys, "maxn", "1,0,1,0,0") == (0, "12\nproven only up to 11\n", "")
        code, out, err = run(capsys, "maxn", "1,0,1,0,0", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"] == {
            "prefix": [1, 0, 1, 0, 0], "max_n": 12, "proven_max_n": 11, "proof": "weak_window"
        }

    def test_invalid_prefix(self, capsys):
        code, _, _ = run(capsys, "maxn", "0,1")
        assert code == 2

    @pytest.mark.parametrize("prefix", [",1", "1,x", ""])
    def test_unparsable_prefix_named(self, capsys, prefix):
        # The prefix is parsed as every vector argument is, and the error names it.
        code, out, err = run(capsys, "maxn", prefix)
        assert (code, out, err) == (2, "", f"error: cannot parse coefficient vector {prefix!r}\n")

    def test_oversized_horizon_exit_five(self, capsys, monkeypatch):
        # [1,1,N] fails at term 4 once N > 1 + H_1 + H_2 + H_3 = 8; 20,000
        # terms of [1,1,8] may pass the bitmap budget.
        monkeypatch.setattr(verdicts, "empirical_max_n", _no_work)
        code, out, err = run(capsys, "maxn", "1,1", "--horizon", "20000")
        assert code == 5
        assert out == ""
        assert "budget" in err

    def test_guard_sized_by_the_gap_table(self, capsys):
        # Up to 2L, empirical_max_n holds one gap table of 2L - 1 lines, so
        # [1 x 1000, 0 x 1000] (L = 2001) is accepted, and it agrees with its
        # figure cell.
        code, out, _ = run(capsys, "figure", "--k-range", "1000", "--g-range", "1000", "--format", "csv")
        assert code == 0
        (cell,) = parse_figure_csv(out)
        code, out, err = run(capsys, "maxn", ",".join(["1"] * 1000 + ["0"] * 1000), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["max_n"] == cell.empirical_max_n == 2**1001 - 1000

    def test_guard_past_2l_sized_by_every_term(self, capsys, monkeypatch):
        # Past 2L the largest N is scanned to the horizon: 4,003 terms of
        # [1 x 1000, 0 x 1000, N] may pass the budget.  The refusal names L,
        # not the vector.
        monkeypatch.setattr(verdicts, "empirical_max_n", _no_work)
        prefix = ",".join(["1"] * 1000 + ["0"] * 1000)
        code, out, err = run(capsys, "maxn", prefix, "--horizon", "4003")
        assert (code, out) == (5, "")
        assert "L = 2001" in err and "budget" in err and len(err) < 200

    def test_oversized_gap_table_exit_five(self, capsys, monkeypatch):
        # At the default horizon the table of L = 5,794 could pass the budget
        # (8 L^2 bits), as a figure cell with k + g = 5,793 does.
        monkeypatch.setattr(verdicts, "empirical_max_n", _no_work)
        code, out, err = run(capsys, "maxn", ",".join(["1"] * 5793))
        assert (code, out) == (5, "")
        assert "L = 5794" in err and len(err) < 200

    @pytest.mark.parametrize("horizon", [[], ["--horizon", "60"]])
    def test_horizon_past_2l_agrees(self, capsys, horizon):
        # 60 > 2L = 10 reclassifies the window's maximum at the deeper horizon.
        code, out, _ = run(capsys, "maxn", "1,0,1,0", *horizon)
        assert code == 0 and out == "7\n"


# sha256 prefixes of census stdout, the same at every --jobs value, from the
# per-vector census these must keep matching.
CENSUS_STDOUT = {
    "--L 1 --format json": "aa2857a6ff1bf793",
    "--L 2 --format json": "d5b22ffb33a94676",
    "--L 3 --format json": "3d6a7fb3e0c62cd7",
    "--L 4 --format json": "a1d64ec34c8043fc",
    "--L 5 --deep --format json": "6aa11501982b9af4",
    "--L 4 --format csv": "845013ea6a5d6130",
    "--L 5 --deep": "33073dfa6e118802",
}


# Full sha256 of census --L 6 --deep stdout, from the census with one record
# per failing value; L = 6 is the first length with runs at every depth.
CENSUS_L6_STDOUT = {
    "json": "17dd2a5e5ed8da7501b975ab788943d56f67c5360e3e7620529c51fe2ab0bba5",
    "csv": "11548aba4d25a46f3ece0afde53925a4121b2176174e4753d00a4e01189361f0",
}


def _census_envelope_per_row(census) -> str:
    """The census JSON envelope built from one dict per vector and encoded whole."""
    report = census.report
    results = report.to_json()
    results["rows"] = [
        {
            "vector": list(r.vector),
            "first_failure": r.first_failure,
            "verdict": r.verdict,
            "proof_tag": r.proof,
        }
        for r in census.rows()
    ]
    envelope = {
        "command": "census",
        "inputs": {"L": report.length, "deep_horizon": report.deep_horizon},
        "results": results,
        "tool_version": plrslab.__version__,
    }
    return json.dumps(envelope, ensure_ascii=False) + "\n"


def _census_csv_per_row(census) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CENSUS_CSV_HEADER)
    for r in census.rows():
        ff = "" if r.first_failure is None else r.first_failure
        writer.writerow([",".join(str(c) for c in r.vector), ff, r.verdict, r.proof])
    return buf.getvalue()


def _assert_same_text(got: str, expected: str) -> None:
    # A long one-line text: report where it first differs, not a full diff.
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
        at = min(len(got), len(expected)) if at is None else at
        lo = max(at - 40, 0)
        raise AssertionError(
            f"differs at {at} of {len(expected)}: "
            f"{got[lo:at + 40]!r} != {expected[lo:at + 40]!r}"
        )


class _HashingSink(io.TextIOBase):
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)


class TestCensus:
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_rows_written_per_record_match_per_row_encoding(self, capsys, L):
        argv = ["census", "--L", str(L), "--deep", "--jobs", "2"]
        census = run_census(L)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        _assert_same_text(out, _census_envelope_per_row(census))
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        _assert_same_text(out, _census_csv_per_row(census))

    def test_json_memory_bounded_by_largest_record(self):
        # Building one dict per vector, then the whole text, peaks at ~24 MB
        # here; written per record the peak stays well under 4 MB.
        sink = _HashingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["census", "--L", "5", "--deep", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.sha.hexdigest()[:16] == CENSUS_STDOUT["--L 5 --deep --format json"]
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("command", list(CENSUS_STDOUT))
    def test_stdout_pinned(self, capsys, tmp_path, command, jobs):
        digest = CENSUS_STDOUT[command]
        argv = ["census", *command.split(), "--jobs", str(jobs)]
        files = ["--checkpoint", str(tmp_path / "c.ckpt"), "--rows", str(tmp_path / "c.csv")]
        # plain, writing a checkpoint, then resuming the finished one
        for extra in ([], files, files):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_per_vector_output_past_the_row_budget_exit_5(self, capsys, monkeypatch, tmp_path, fmt):
        monkeypatch.setattr(hunt, "census_records", _no_work)
        files = ["--checkpoint", str(tmp_path / "c.ckpt"), "--rows", str(tmp_path / "c.csv")]
        code, out, err = run(capsys, "census", "--L", "8", "--deep", "--format", fmt, *files)
        assert (code, out) == (5, "")
        assert "108,379,814,400 rows" in err
        assert list(tmp_path.iterdir()) == []

    def test_row_budget_admits_l7_only(self, monkeypatch):
        assert hunt.enumeration_size(7) <= cli.CENSUS_ROW_BUDGET < hunt.enumeration_size(8)
        # Text mode prints the summary alone, so no row budget holds it back.
        monkeypatch.setattr(hunt, "census_records", _no_work)
        with pytest.raises(AssertionError, match="reached the computation"):
            main(["census", "--L", "8", "--deep"])

    def test_json_same_at_every_jobs_value(self, capsys):
        argv = ["census", "--L", "3", "--format", "json", "--jobs"]
        outs = [run(capsys, *argv, jobs) for jobs in ("1", "2")]
        assert outs[0] == outs[1] and outs[0][0] == 0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_l6_stdout_pinned(self, fmt):
        # 310 MB of JSON, 97 MB of CSV: hashed as written, never held.
        sink = _HashingSink()
        with contextlib.redirect_stdout(sink):
            code = main(["census", "--L", "6", "--deep", "--format", fmt])
        assert code == 0
        assert sink.sha.hexdigest() == CENSUS_L6_STDOUT[fmt]

    def test_deep_horizon_stdout_pinned(self):
        # Only leaves that no rule proves are scanned past 2L - 1 = 9, here
        # to 60; the rows are those of scanning every leaf to 60 first.
        sink = _HashingSink()
        with contextlib.redirect_stdout(sink):
            code = main(["census", "--L", "5", "--deep", "--deep-horizon", "60", "--format", "json"])
        assert code == 0
        assert sink.sha.hexdigest() == (
            "75a427f04db58bf0604f0ce9ef411981bf233638f06fb4d0050f9500195b61fe"
        )

    def test_l7_text_summary_pinned(self, capsys):
        code, out, _ = run(capsys, "census", "--L", "7", "--deep")
        assert code == 0
        assert out == (
            "L: 7\n"
            "vectors scanned: 420076800\n"
            "max first failure: 13\n"
            "extremal: [1, 1, 1, 1, 1, 0, 4]\n"
            "conjectural survivors: 661\n"
        )

    @pytest.mark.parametrize("where", ["walk", "fold"])
    def test_failure_mid_census_keeps_the_records_before_it(self, capsys, tmp_path, monkeypatch, where):
        # A failure part way through, raised by the walk as it comes to its
        # 20th prefix with leaves, or by the fold as it asks for its 31st
        # record: exit 6, and the rows file holds whole lines of exactly the
        # records yielded before it.  The rerun replays them and prints the
        # plain run's bytes.
        argv = ["census", "--L", "5", "--deep"]
        ckpt, rows = tmp_path / "c.ckpt", tmp_path / "c.csv"
        files = ["--checkpoint", str(ckpt), "--rows", str(rows)]
        plain = run(capsys, *argv)
        records = run_census(5).records
        nodes = []
        node_records, fold = hunt._node_records, hunt.census_report

        def failing_node_records(prefix, *args):
            nodes.append(prefix)
            if len(nodes) == 20:
                raise ConjectureViolation(prefix, None)
            return node_records(prefix, *args)

        def failing_fold(length, stream, deep_horizon):
            def reading():
                for k, rec in enumerate(stream, 1):
                    yield rec
                    if k == 30:
                        raise ConjectureViolation(rec.vector, None)

            return fold(length, reading(), deep_horizon)

        if where == "walk":
            monkeypatch.setattr(hunt, "_node_records", failing_node_records)
        else:
            monkeypatch.setattr(hunt, "census_report", failing_fold)
        code, out, err = run(capsys, *argv, *files)
        assert (code, out) == (6, "")
        assert err.startswith("conjecture violation: ")
        if where == "walk":
            yielded = next(i for i, r in enumerate(records) if not _is_run(r) and r.vector[:-1] == nodes[-1])
        else:
            yielded = 30
        assert 0 < yielded < len(records)
        assert rows.read_text() == census_rows_to_csv(records[:yielded])
        monkeypatch.undo()
        assert run(capsys, *argv, *files) == plain
        assert rows.read_text() == census_rows_to_csv(records)

    def test_resume_with_other_parameters_exit_2(self, capsys, tmp_path):
        files = ["--checkpoint", str(tmp_path / "c.ckpt"), "--rows", str(tmp_path / "c.csv")]
        assert run(capsys, "census", "--L", "3", *files)[0] == 0
        for other in (["--L", "3", "--deep-horizon", "20"], ["--L", "4"]):
            code, out, err = run(capsys, "census", *other, *files)
            assert code == 2
            assert out == ""
            assert "census L=3 deep_horizon=12" in err

    @pytest.mark.parametrize(
        "change,message",
        [
            ("run starts one value too low", "does not follow the records before it"),
            ("run starts one value too high", "does not follow the records before it"),
            ("per-value encoding", "run-record header"),
        ],
    )
    def test_resume_refuses_misstated_rows_exit_2(self, capsys, tmp_path, change, message):
        ckpt, rows = tmp_path / "c.ckpt", tmp_path / "c.csv"
        files = ["--checkpoint", str(ckpt), "--rows", str(rows)]
        assert run(capsys, "census", "--L", "4", *files)[0] == 0
        ranges = coefficient_ranges(4)
        records = parse_census_csv(rows.read_text())
        if change == "per-value encoding":
            # one record per failing value, under the old header
            per_value = [
                r._replace(vector=r.vector[:-1] + (c,), end=None)
                for r in records
                for c in range(r.vector[-1], _last(r) + 1)
            ]
            text = census_rows_to_csv(per_value).replace("record,", "vector,", 1)
        else:
            # a run with room on both sides inside its coefficient's range
            at = next(
                i for i, r in enumerate(records)
                if _is_run(r) and r.vector[-1] - 1 > ranges[len(r.vector) - 1].start
                and r.vector[-1] + 1 < ranges[len(r.vector) - 1].stop
            )
            shift = -1 if "low" in change else 1
            vec = records[at].vector
            records[at] = records[at]._replace(vector=vec[:-1] + (vec[-1] + shift,))
            text = census_rows_to_csv(records)
        rows.write_text(text)
        code, out, err = run(capsys, "census", "--L", "4", *files)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("given", ["--rows", "--checkpoint"])
    def test_rows_and_checkpoint_only_together_exit_2(self, capsys, tmp_path, given):
        code, out, err = run(capsys, "census", "--L", "3", given, str(tmp_path / "f"))
        assert code == 2
        assert out == ""
        assert "together" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_checkpoint_with_prefix_lines_resumes(self, capsys, tmp_path, monkeypatch, fmt):
        # Files of a census that split its work by (c_1, c_2): the checkpoint
        # lists finished prefixes after its header, and the rows file has one
        # record per prefix that fails above depth 2 (1,2  1,3  1,4  2,0..2,4).
        # Those rows are in that older run's order, so they are recomputed:
        # the checkpoint is cut to its header, the rows file is rewritten in
        # the run-record encoding, and stdout is the fresh run's.
        argv = ["census", "--L", "4", "--format", fmt]
        fresh = run(capsys, *argv)
        records = run_census(4).records
        assert [r.vector for r in records[-2:]] == [(1, 2), (2,)]
        by_prefix = records[:-2] + [CensusRow((1, c), 3, "incomplete", "") for c in (2, 3, 4)]
        by_prefix += [CensusRow((2, c), 2, "incomplete", "") for c in range(5)]
        every_prefix = "".join(f"{a},{b}\n" for a in (1, 2) for b in range(5))
        ckpt, rows = tmp_path / "c.ckpt", tmp_path / "c.csv"
        files = ["--checkpoint", str(ckpt), "--rows", str(rows)]
        leaves = []
        node_records = hunt._node_records

        def counting_node_records(prefix, head, first, stop, merged, horizon):
            leaves.extend(prefix + (c,) for c in range(first, stop))
            return node_records(prefix, head, first, stop, merged, horizon)

        monkeypatch.setattr(hunt, "_node_records", counting_node_records)
        # finished; and stopped after writing the records of (1, 1) but
        # before listing it, so that every leaf is in the rows file
        for listed, written in [(every_prefix, by_prefix), ("1,0\n", records[:-2])]:
            ckpt.write_text("census L=4 deep_horizon=16\n" + listed)
            rows.write_text(census_rows_to_csv(written))
            leaves.clear()
            assert run(capsys, *argv, *files) == fresh
            assert ckpt.read_text() == "census L=4 deep_horizon=16\n"
            assert rows.read_text() == census_rows_to_csv(records)
            assert leaves == [r.vector for r in hunt._expand(4, [r for r in records if not _is_run(r)])]

    def test_rows_ending_inside_a_failing_prefix_exit_2(self, capsys, tmp_path):
        # One row per vector of 1,0,4, whose completions all fail at term 4,
        # stopping before its last: the census has the run 1,0,4+ there.
        records = run_census(4).records
        at = records.index(CensusRow((1, 0, 4), 4, "incomplete", "", 8))  # every c_3 >= 4
        per_vector = [records[at]._replace(vector=(1, 0, 4, c), end=None) for c in range(1, 17)]
        ckpt, rows = tmp_path / "c.ckpt", tmp_path / "c.csv"
        files = ["--checkpoint", str(ckpt), "--rows", str(rows)]
        for stop in (1, 15):
            ckpt.write_text("census L=4 deep_horizon=16\n")
            rows.write_text(census_rows_to_csv(records[:at] + per_vector[:stop]))
            code, out, err = run(capsys, "census", "--L", "4", *files)
            assert code == 2
            assert out == ""
            assert "record [1, 0, 4, 1] does not follow the records before it" in err

    def test_forged_leaf_record_exit_2(self, capsys, tmp_path):
        # A complete leaf restated as failing past the window: the rerun
        # re-scans it and refuses the rows file, rather than report a
        # conjecture violation (exit 6).  Then leaves past the family bound,
        # ends below the start, past the top of the range or no number, an
        # end short of L, and a run written as leaves with an end.
        ckpt, rows = tmp_path / "c.ckpt", tmp_path / "c.csv"
        files = ["--checkpoint", str(ckpt), "--rows", str(rows)]
        fresh = run(capsys, "census", "--L", "3", *files)
        assert fresh[0] == 0
        text = rows.read_text()
        line = '"1,0,1:3",,complete,family_single_one'
        assert line + "\n" in text
        for forged, message in [
            ('"1,0,1:3",9,incomplete,', "record [1, 0, 1] does not fail where it says"),
            ('"1,0,1:4",,complete,family_single_one', "record [1, 0, 4] does not fail where it says"),
            ('"1,0,1:0",,complete,family_single_one', "record [1, 0, 1] does not follow"),
            ('"1,0,1:99999999999999",,complete,family_single_one', "record [1, 0, 1] does not follow"),
            ('"1,0,1:x",,complete,family_single_one', f"rows file {rows} line 2 is not a census record"),
            ('"1,0,1:",,complete,family_single_one', f"rows file {rows} line 2 is not a census record"),
            ('"1,x,1",,complete,family_single_one', f"rows file {rows} line 2 is not a census record"),
            ('"1,1:2",,complete,family_single_one', "record [1, 1] does not follow"),
            ('"1,0,5:8",4,incomplete,', "record [1, 0, 5]+ does not fail where it says"),
        ]:
            ckpt.write_text("census L=3 deep_horizon=12\n")
            rows.write_text(text.replace(line, forged))
            code, out, err = run(capsys, "census", "--L", "3", *files)
            assert (code, out) == (2, ""), forged
            assert message in err, forged

    @pytest.mark.parametrize("L", [4, 5])
    def test_rows_file_of_one_line_per_leaf_resumes(self, capsys, tmp_path, L):
        # A fresh rows file has one line per record.  A finished rows file
        # with one line per leaf, as earlier versions wrote, resumes with the
        # same stdout and is left as it is, and so does one torn inside a
        # node's leaves.
        argv = ["census", "--L", str(L), "--deep", "--format", "json"]
        ckpt, rows = tmp_path / "c.ckpt", tmp_path / "c.csv"
        files = ["--checkpoint", str(ckpt), "--rows", str(rows)]
        code, fresh, _ = run(capsys, *argv, *files)
        assert code == 0
        records = run_census(L).records
        assert rows.read_text().count("\n") == len(records) + 1
        per_leaf = [
            r if _is_run(r) else r._replace(vector=r.vector[:-1] + (c,), end=None)
            for r in records
            for c in ([None] if _is_run(r) else range(r.vector[-1], _last(r) + 1))
        ]
        assert len(per_leaf) > len(records)
        text = census_rows_to_csv(per_leaf)
        # torn in the last leaf's line that has a leaf of its node before it
        cut = next(
            i for i in range(len(per_leaf) - 1, 0, -1)
            if not _is_run(per_leaf[i]) and per_leaf[i - 1].vector[:-1] == per_leaf[i].vector[:-1]
        )
        torn = census_rows_to_csv(per_leaf[:cut]) + text.splitlines(keepends=True)[cut + 1][:3]
        for written, kept in [(text, text), (torn, census_rows_to_csv(per_leaf[:cut]))]:
            ckpt.write_text(f"census L={L} deep_horizon={4 * L}\n")
            rows.write_text(written)
            assert run(capsys, *argv, *files) == (0, fresh, "")
            after = rows.read_text()
            assert after == text if written is text else after.startswith(kept)

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unusable_checkpoint_path_exit_2(self, capsys, tmp_path, where):
        path = tmp_path / "no" / "dir" if where == "missing directory" else tmp_path
        for given in ("--checkpoint", "--rows"):
            files = {"--checkpoint": str(tmp_path / "c.ckpt"), "--rows": str(tmp_path / "c.csv")}
            files[given] = str(path)
            code, out, err = run(capsys, "census", "--L", "3", *itertools.chain(*files.items()))
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and str(path) in err and "Traceback" not in err

    def test_deep_horizon_size_guard_exit_5(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(hunt, "census_records", _no_work)
        files = ["--checkpoint", str(tmp_path / "c.ckpt"), "--rows", str(tmp_path / "c.csv")]
        code, out, err = run(capsys, "census", "--L", "2", "--deep-horizon", "30000", *files)
        assert code == 5
        assert out == ""
        assert "budget" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("horizon", ["-30000", "0", "7"])
    def test_deep_horizon_below_4l_exit_2(self, capsys, tmp_path, monkeypatch, horizon):
        # Refused as below 4L before the size guard reads it: -30000 is no
        # request for 30,000 terms.
        monkeypatch.setattr(hunt, "census_records", _no_work)
        files = ["--checkpoint", str(tmp_path / "c.ckpt"), "--rows", str(tmp_path / "c.csv")]
        code, out, err = run(capsys, "census", "--L", "2", "--deep-horizon", horizon, *files)
        assert (code, out, err) == (2, "", "error: deep_horizon must be >= 4L = 8\n")
        assert list(tmp_path.iterdir()) == []

    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "census", "--L", "3")
        assert code == 0
        assert "max first failure: 5" in out
        assert "[1, 0, 4]" in out

    def test_csv_roundtrip(self, capsys):
        code, out, _ = run(capsys, "census", "--L", "2", "--format", "csv")
        header, *rows = csv.reader(io.StringIO(out))
        assert header == CENSUS_CSV_HEADER
        assert len(rows) == 8
        assert rows[0][0] == "1,1"

    def test_deep_required_for_l5(self, capsys):
        code, _, err = run(capsys, "census", "--L", "5")
        assert code == 2
        assert "--deep" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "census", "--L", "1", "--format", "json")
        payload = json.loads(out)["results"]
        assert payload["max_first_failure"] == 2
        assert payload["extremal_vectors"] == [[3]]


# sha256 of figure --k-range 1:24 --g-range 1:24 --format json; the JSON
# inputs do not echo --jobs, so every --jobs value prints the same bytes.
FIGURE_STDOUT = "8718ff905b5c8d47093cfa4b15dbd01f0f4b7333d4559243cf3dc0fad6b25f82"
# The same for --k-range 1:48 --g-range 1:48.
FIGURE_48_STDOUT = "dd672bdc96a2ff009b2ad4c2eafb361fd8e3f0b651030add073f2ca6a1b1b2b8"


class TestFigure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stdout_pinned(self, capsys, jobs):
        argv = ["--k-range", "1:24", "--g-range", "1:24", "--format", "json"]
        code, out, _ = run(capsys, "figure", *argv, "--jobs", str(jobs))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == FIGURE_STDOUT

    def test_48_grid_pinned(self, capsys):
        argv = ["--k-range", "1:48", "--g-range", "1:48", "--format", "json"]
        code, out, _ = run(capsys, "figure", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == FIGURE_48_STDOUT

    def test_csv_matches_module_parser(self, capsys):
        code, out, _ = run(capsys, "figure", "--k-range", "2", "--g-range", "2:4", "--format", "csv")
        rows = parse_figure_csv(out)
        assert [(r.empirical_max_n, r.closed_form_max_n) for r in rows] == [
            (6, 6),
            (7, 7),
            (7, 7),
        ]

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "figure", "--k-range", "1", "--g-range", "1:2", "--format", "json")
        _, second, _ = run(capsys, "figure", "--k-range", "1", "--g-range", "1:2", "--format", "json")
        assert first == second

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "figure", "--k-range", "3:1", "--g-range", "1")
        assert code == 2

    def test_oversized_grid_exit_five(self, capsys, monkeypatch):
        # Its largest cell, L = 5,793, may hold 8 L^2 > 2^28 bits of gap
        # table; the grid is refused before its first, small, cell runs.
        monkeypatch.setattr(verdicts, "gap_table", _no_work)
        code, out, err = run(capsys, "figure", "--k-range", "1:5000", "--g-range", "1:792")
        assert code == 5
        assert out == ""
        assert "budget" in err

    def test_size_guard_bounds_the_gap_table(self, capsys, monkeypatch):
        # Sized by a cell's gap table, not by all its terms: cells up to
        # L = 5,792 pass, [1 x 1000, 0 x 1000] among them.
        monkeypatch.setattr(verdicts, "figure1_table", lambda ks, gs: [])
        for k_range, g_range, expected in [("1000", "1000", 0), ("5000", "791", 0), ("5000", "792", 5)]:
            code, _, _ = run(capsys, "figure", "--k-range", k_range, "--g-range", g_range)
            assert code == expected, (k_range, g_range)


COMMANDS = ["gen", "analyze", "decompose", "bound", "maxn", "census", "figure"]

# Later calls leave out options that earlier calls set; two are argparse errors.
REUSE_SEQUENCE = [
    ["decompose", "1,3", "9", "--mode", "legal"],
    ["decompose", "1,3", "9"],
    ["decompose", "1,3", "9", "--mode", "distinct", "--format", "json"],
    ["decompose", "1,3", "9", "--format", "json"],
    ["analyze", "1,0,2,3", "--horizon", "40", "--format", "json"],
    ["analyze", "1,0,2,3", "--format", "json"],
    ["analyze", "1,3", "--oracle-cap", "3", "--format", "json"],
    ["analyze", "1,3", "--format", "json"],
    ["decompose", "1,3", "--mode", "legal"],  # N missing
    ["decompose", "1,3", "9"],
    ["gen", "1,3", "--count", "4", "--format", "csv"],
    ["gen", "1,3"],
    ["bound", "--single-one", "--k", "5"],
    ["bound", "--double-one", "--k", "5"],
    ["census", "--L", "3", "--jobs", "2", "--format", "json"],
    ["census", "--L", "3", "--format", "json"],
    ["-v", "census", "--L", "2"],
    ["census", "--L", "2"],
    ["maxn", "1,1,0,0", "--horizon", "20", "--format", "json"],
    ["maxn", "1,1,0,0", "--format", "json"],
    ["figure", "--k-range", "1", "--g-range", "1:2", "--format", "json"],
    ["figure", "--k-range", "1", "--g-range", "1:2"],
    ["gen", "1,3", "--bogus"],  # unknown option
    ["gen", "1,3"],
]


def _outcome(capsys, argv):
    """Exit code (or argparse's SystemExit code), stdout and stderr of one call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_dispatch_reaches_a_rebound_command(self, capsys, monkeypatch):
        assert main(["gen", "1,3"]) == 0
        monkeypatch.setattr(cli, "cmd_gen", lambda args: 42)
        assert main(["gen", "1,3"]) == 42

    @pytest.mark.parametrize("argv", [["bound", "--single-one", "--k", "5"], ["maxn", "1,0"]])
    def test_no_csv_form_is_an_argparse_error(self, capsys, argv):
        code, out, err = _outcome(capsys, [*argv, "--format", "csv"])
        assert (code, out) == (("SystemExit", 2), "")
        assert "invalid choice: 'csv'" in err

    def test_parser_not_built_at_import(self):
        proc = _fresh("-c", "import plrslab.cli as c; print(c.build_parser.cache_info().currsize)")
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_sequence_matches_fresh_parsers(self, capsys, monkeypatch):
        reused = [_outcome(capsys, argv) for argv in REUSE_SEQUENCE]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [_outcome(capsys, argv) for argv in REUSE_SEQUENCE]
        for argv, got, expected in zip(REUSE_SEQUENCE, reused, fresh):
            assert got == expected, argv
        codes = [code for code, _, _ in reused]
        assert codes.count(("SystemExit", 2)) == 2
        assert codes.count(cli.EXIT_CONJECTURAL) == 2  # 1,0,2,3 at both horizons

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help(self, capsys, command):
        outs = []
        for _ in range(2):
            code, out, err = _outcome(capsys, [command, "--help"])
            assert (code, err) == (("SystemExit", 0), "")
            outs.append(out)
        assert outs[0].startswith(f"usage: plrslab {command} ")
        assert outs[0] == outs[1]

    def test_version(self, capsys):
        code, out, err = _outcome(capsys, ["--version"])
        assert (code, out, err) == (("SystemExit", 0), f"plrslab {plrslab.__version__}\n", "")


class TestVerbose:
    @pytest.mark.parametrize("flags", [(False, True, False), (True, False, True)])
    def test_debug_lines_only_for_the_verbose_call(self, capsys, flags):
        outs = []
        for verbose in flags:
            code, out, err = run(capsys, *(["-v"] if verbose else []), "census", "--L", "3")
            assert code == 0
            lines = err.splitlines()
            if verbose:
                assert lines and all(line.startswith("DEBUG plrslab.hunt: ") for line in lines)
            else:
                assert err == ""
            outs.append(out)
        assert outs[0] == outs[1] == outs[2] != ""

    def test_records_go_to_the_stderr_of_each_call(self):
        sinks = [io.StringIO(), io.StringIO()]
        for sink in sinks:
            with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(io.StringIO()):
                assert main(["-v", "census", "--L", "3"]) == 0
        assert "DEBUG plrslab.hunt: census L=3" in sinks[0].getvalue()
        assert sinks[0].getvalue() == sinks[1].getvalue()

    def test_host_logging_left_alone(self, capsys, caplog):
        root = logging.getLogger()
        package = logging.getLogger("plrslab")
        host_level = package.level
        package.setLevel(logging.INFO)  # a host's own setting
        try:
            before = (list(root.handlers), root.level, list(package.handlers))
            code, _, err = run(capsys, "-v", "census", "--L", "3")
            assert code == 0 and "DEBUG plrslab.hunt" in err
            assert (list(root.handlers), root.level, list(package.handlers)) == before
            assert package.level == logging.INFO
        finally:
            package.setLevel(host_level)
        # Records still reach the host's own root handlers.
        assert any(r.name == "plrslab.hunt" and r.levelno == logging.DEBUG for r in caplog.records)


def test_results_only_on_stdout(capsys):
    code, out, err = run(capsys, "analyze", "1,3", "--format", "json")
    assert json.loads(out)  # stdout is pure JSON
    assert err == ""


def test_python_dash_m_runs_the_cli():
    proc = _fresh("-m", "plrslab", "gen", "1,3", "--count", "4")
    assert proc.returncode == 0
    assert proc.stdout == "1 2 5 11\n"


# Runs `python -m plrslab ARGV` in this interpreter; prints its exit code, its
# stdout and the modules it loaded as one JSON object.
_LOADED_BY_RUN = """
import io, json, runpy, sys
from contextlib import redirect_stdout
before = set(sys.modules)
sys.argv = ["plrslab", *sys.argv[1:]]
with redirect_stdout(io.StringIO()) as out:
    try:
        runpy.run_module("plrslab", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "out": out.getvalue(), "loaded": sorted(set(sys.modules) - before)}))
"""

IMPORT_ARGVS = {
    "gen": ["gen", "2", "--count", "3"],
    "analyze": ["analyze", "1,3", "--format", "json"],
    "decompose": ["decompose", "2,1", "40", "--format", "json"],
    "bound": ["bound", "--single-one", "--k", "5"],
    "maxn": ["maxn", "1,1,0,0"],
    "figure": ["figure", "--k-range", "1:2", "--g-range", "1:2", "--format", "csv"],
    "census": ["census", "--L", "3"],
}


def _loaded_by(argv: list[str]) -> tuple[int, str, set[str]]:
    """Exit code, stdout and newly loaded modules of `python -m plrslab argv`."""
    proc = _fresh("-c", _LOADED_BY_RUN, *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    return report["code"], report["out"], set(report["loaded"])


class TestImportSurface:
    """A command loads only the plrslab modules that it runs."""

    def test_package_import_loads_no_submodule(self):
        proc = _fresh("-c", "import sys, plrslab; print(sorted(m for m in sys.modules if 'plrslab' in m))")
        assert (proc.returncode, proc.stdout) == (0, "['plrslab']\n")

    def test_gen_loads_cli_errors_and_seqcore_only(self):
        code, out, loaded = _loaded_by(IMPORT_ARGVS["gen"])
        assert (code, out) == (0, "1 2 4\n")
        assert {m for m in loaded if m.startswith("plrslab.")} == {
            "plrslab.cli", "plrslab.errors", "plrslab.seqcore"
        }
        assert not {"logging", "json", "csv"} & loaded  # text output needs neither format

    def test_bound_loads_no_classifier(self):
        # The closed forms sit below the classifier that cites them.
        code, out, loaded = _loaded_by(IMPORT_ARGVS["bound"])
        assert (code, out) == (0, "14\n")
        assert {m for m in loaded if m.startswith("plrslab.")} == {
            "plrslab.cli", "plrslab.errors", "plrslab.seqcore", "plrslab.families"
        }

    def test_package_imports_are_acyclic(self):
        # Every relative import, at any depth (a command's deferred imports
        # too), is an edge between two modules of the package; "from . import
        # name" of a non-module name imports __init__.
        package = Path(plrslab.__file__).resolve().parent
        modules = {path.stem for path in package.glob("*.py")}
        edges = {name: set() for name in modules}
        for name in modules:
            for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
                if not isinstance(node, ast.ImportFrom) or not node.level:
                    continue
                if node.module:
                    edges[name].add(node.module.split(".")[0])
                else:
                    edges[name].update(a.name if a.name in modules else "__init__" for a in node.names)
        done, path = set(), []

        def visit(name):
            assert name not in path, " -> ".join(path[path.index(name):] + [name])
            if name not in done:
                path.append(name)
                for target in sorted(edges[name]):
                    visit(target)
                path.pop()
                done.add(name)

        for name in sorted(modules):
            visit(name)
        assert edges["families"] == {"errors", "seqcore"}

    def test_every_top_level_name_has_a_caller(self):
        # Each top-level function, class and assigned name of the package is
        # read (as a Name, an Attribute or an import) by some other top-level
        # statement of the package: a name only _EXPORTS' strings or the
        # tests reach is dead code.  Commands are reached through the parser.
        exempt = {"__getattr__", "__dir__", "__version__", "__all__"}
        package = Path(plrslab.__file__).resolve().parent
        statements = [(path.name, stmt) for path in sorted(package.glob("*.py"))
                      for stmt in ast.parse(path.read_text()).body]

        def defined(stmt):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                return {stmt.name}
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                return set()
            return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}

        def read(stmt):
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
            return names

        reads = [read(stmt) for _, stmt in statements]
        dead = [
            f"{module}:{stmt.lineno} {name}"
            for i, (module, stmt) in enumerate(statements)
            for name in sorted(defined(stmt) - exempt)
            if not name.startswith("cmd_") and not any(name in r for j, r in enumerate(reads) if j != i)
        ]
        assert dead == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_census_loads_hunt(self, capsys, command):
        code, out, loaded = _loaded_by(IMPORT_ARGVS[command])
        assert (code, out) == _outcome(capsys, IMPORT_ARGVS[command])[:2]
        assert ("plrslab.hunt" in loaded) == (command == "census")
        assert ("plrslab.zeck" in loaded) == (command == "decompose")
        assert "logging" not in loaded  # census loads it only for -v

    def test_every_public_name_resolves(self):
        code = (
            "import plrslab\n"
            "assert all(getattr(plrslab, name) is not None for name in plrslab.__all__)\n"
            "from plrslab import *\n"
            "try:\n"
            "    plrslab.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        proc = _fresh("-c", code)
        assert (proc.returncode, proc.stdout) == (
            0, "module 'plrslab' has no attribute 'no_such_name'\n"
        ), proc.stderr

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_command_imports_dataclasses(self, capsys, command):
        # Records are NamedTuples and slotted classes, so no command pays for
        # dataclasses, nor for the inspect, ast and dis it imports.
        code, out, loaded = _loaded_by(IMPORT_ARGVS[command])
        assert (code, out) == _outcome(capsys, IMPORT_ARGVS[command])[:2]
        assert not {"dataclasses", "inspect", "ast", "dis"} & loaded

    def test_verbose_census_logs_in_a_fresh_process(self):
        proc = _fresh("-m", "plrslab", "-v", "census", "--L", "3")
        assert proc.returncode == 0
        assert proc.stderr.startswith("DEBUG plrslab.hunt: census L=3")
        assert proc.stdout == _fresh("-m", "plrslab", "census", "--L", "3").stdout != ""
