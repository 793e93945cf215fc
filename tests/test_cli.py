import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import plrslab
from plrslab import cli
from plrslab.cli import main
from plrslab import first_failure_census
from plrslab.families import parse_figure_csv
from plrslab.hunt import CENSUS_CSV_HEADER, parse_census_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        monkeypatch.setattr(cli, "terms_prefix", _no_work)
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
        monkeypatch.setattr(cli, "classify", _no_work)
        monkeypatch.setattr(cli, "brown_scan", _no_work)
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

    def test_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "1,1", "10", "--format", "json")
        results = json.loads(out)["results"]
        assert results["legal"]["digits"] == [1, 0, 0, 1, 0]
        assert results["legal"]["terms"] == [8, 5, 3, 2, 1]
        assert results["distinct"]["terms"] == [2, 8]


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


class TestMaxn:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "maxn", "1,1,0,0")
        assert code == 0 and out == "6\n"

    def test_prefix_with_trailing_zero_is_fine(self, capsys):
        code, out, _ = run(capsys, "maxn", "1,0")
        assert out == "3\n"

    def test_invalid_prefix(self, capsys):
        code, _, _ = run(capsys, "maxn", "0,1")
        assert code == 2

    def test_oversized_horizon_exit_five(self, capsys, monkeypatch):
        # [1,1,N] fails at term 4 once N > 1 + H_1 + H_2 + H_3 = 8; 20,000
        # terms of [1,1,8] may pass the bitmap budget.
        monkeypatch.setattr(cli.families, "empirical_max_n", _no_work)
        code, out, err = run(capsys, "maxn", "1,1", "--horizon", "20000")
        assert code == 5
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize("horizon", [[], ["--horizon", "60"]])
    def test_horizon_past_2l_agrees(self, capsys, horizon):
        # 60 > 2L = 10 reclassifies the window's maximum at the deeper horizon.
        code, out, _ = run(capsys, "maxn", "1,0,1,0", *horizon)
        assert code == 0 and out == "7\n"


# sha256 prefixes of census stdout at --jobs 1 and --jobs 2 (the JSON
# inputs echo --jobs), from the per-vector census these must keep matching.
CENSUS_STDOUT = {
    "--L 1 --format json": ("799dafa3bb6341bc", "3201cbde8556154e"),
    "--L 2 --format json": ("7626c0511b976ad8", "1f409b2dc76f9c55"),
    "--L 3 --format json": ("7dfb027359c74062", "9291d5877a5d85c1"),
    "--L 4 --format json": ("82809382cecad09a", "3a623de601cd5f87"),
    "--L 5 --deep --format json": ("98bdbbf941e33ca2", "a0d903105e7d1ade"),
    "--L 4 --format csv": ("845013ea6a5d6130", "845013ea6a5d6130"),
    "--L 5 --deep": ("33073dfa6e118802", "33073dfa6e118802"),
}


def _census_envelope_per_row(report, jobs: int) -> str:
    """The census JSON envelope built from one dict per vector and encoded whole."""
    results = report.to_json()
    results["rows"] = [
        {
            "vector": list(r.vector),
            "first_failure": r.first_failure,
            "verdict": r.verdict,
            "proof_tag": r.proof,
        }
        for r in report.rows()
    ]
    envelope = {
        "command": "census",
        "inputs": {"L": report.length, "deep_horizon": report.deep_horizon, "jobs": jobs},
        "results": results,
        "tool_version": plrslab.__version__,
    }
    return json.dumps(envelope, ensure_ascii=False) + "\n"


def _census_csv_per_row(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CENSUS_CSV_HEADER)
    for r in report.rows():
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
        report = first_failure_census(L)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        _assert_same_text(out, _census_envelope_per_row(report, 2))
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        _assert_same_text(out, _census_csv_per_row(report))

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
        assert sink.sha.hexdigest()[:16] == CENSUS_STDOUT["--L 5 --deep --format json"][0]
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("command", list(CENSUS_STDOUT))
    def test_stdout_pinned(self, capsys, tmp_path, command, jobs):
        digest = CENSUS_STDOUT[command][jobs - 1]
        argv = ["census", *command.split(), "--jobs", str(jobs)]
        files = ["--checkpoint", str(tmp_path / "c.ckpt"), "--rows", str(tmp_path / "c.csv")]
        # plain, writing a checkpoint, then resuming the finished one
        for extra in ([], files, files):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_resume_with_other_parameters_exit_2(self, capsys, tmp_path):
        files = ["--checkpoint", str(tmp_path / "c.ckpt"), "--rows", str(tmp_path / "c.csv")]
        assert run(capsys, "census", "--L", "3", *files)[0] == 0
        for other in (["--L", "3", "--deep-horizon", "20"], ["--L", "4"]):
            code, out, err = run(capsys, "census", *other, *files)
            assert code == 2
            assert out == ""
            assert "census L=3 deep_horizon=12" in err

    @pytest.mark.parametrize("given", ["--rows", "--checkpoint"])
    def test_rows_and_checkpoint_only_together_exit_2(self, capsys, tmp_path, given):
        code, out, err = run(capsys, "census", "--L", "3", given, str(tmp_path / "f"))
        assert code == 2
        assert out == ""
        assert "together" in err
        assert list(tmp_path.iterdir()) == []

    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "census", "--L", "3")
        assert code == 0
        assert "max first failure: 5" in out
        assert "[1, 0, 4]" in out

    def test_csv_roundtrip(self, capsys):
        code, out, _ = run(capsys, "census", "--L", "2", "--format", "csv")
        rows = parse_census_csv(out)
        assert len(rows) == 8
        assert rows[0].vector == (1, 1)

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


def test_results_only_on_stdout(capsys):
    code, out, err = run(capsys, "analyze", "1,3", "--format", "json")
    assert json.loads(out)  # stdout is pure JSON
    assert err == ""


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(plrslab.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "plrslab", "gen", "1,3", "--count", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 2 5 11\n"
