import hashlib
import itertools
import json
import os
import tracemalloc
from collections import Counter

import pytest

from plrslab import (
    CoefficientVector,
    ConjectureViolation,
    Sequence,
    classify,
    hunt,
    verdicts,
)
from plrslab import families
from plrslab.families import BoundResult
from plrslab.verdicts import empirical_max_n, figure1_table
from plrslab.hunt import (
    RECORDS_CSV_HEADER,
    CensusRow,
    _completion_counts,
    _expand,
    _is_run,
    _node_records,
    _row,
    _walk,
    census_horizon,
    census_records,
    census_report,
    coefficient_ranges,
    csv_rows,
    enumeration_size,
    json_rows,
    parse_census_csv,
)

from conftest import brown_scan, census_rows_to_csv, check_fail_at_2l_minus_1, enumerate_vectors, run_census


def leaf_vectors(length, records):
    """The vectors of the leaf records among records, in order."""
    return [r.vector for r in _expand(length, [r for r in records if not _is_run(r)])]


class TestEnumeration:
    def test_length_one(self):
        assert [list(v) for v in enumerate_vectors(1)] == [[1], [2]]

    def test_counts(self):
        assert enumeration_size(2) == 8
        assert enumeration_size(3) == 80
        assert enumeration_size(4) == 1440

    def test_lexicographic_and_capped(self, census_reports):
        vectors = [tuple(v) for v in enumerate_vectors(3)]
        assert vectors == sorted(vectors)
        assert vectors == [r.vector for r in census_reports[3].rows()]
        for vec in vectors:
            assert 1 <= vec[0] <= 2
            assert 0 <= vec[1] <= 4
            assert 1 <= vec[2] <= 8


class TestCensus:
    def test_length_one(self, census_reports):
        report = census_reports[1].report
        assert report.max_first_failure == 2
        assert [list(v) for v in report.extremal_vectors] == [[3]]
        assert report.vectors_scanned == 3  # [1], [2], plus the witness [3]
        assert report.notes  # the vacuous-window caveat is surfaced

    def test_length_two(self, census_reports):
        report = census_reports[2].report
        assert report.max_first_failure == 3
        assert [list(v) for v in report.extremal_vectors] == [[1, 3], [1, 4]]
        assert report.vectors_scanned == 8

    def test_length_three(self, census_reports):
        report = census_reports[3].report
        assert report.max_first_failure == 5
        assert [list(v) for v in report.extremal_vectors] == [[1, 0, 4]]
        assert report.vectors_scanned == 80

    def test_length_four(self, census_reports):
        report = census_reports[4].report
        assert report.max_first_failure == 7
        assert (1, 1, 0, 4) in report.extremal_vectors

    def test_length_six(self):
        # 413 records: one per failing run of c_j, and one per run of leaves
        # of one prefix of length L - 1 that share first failure, verdict and
        # proof.
        report, records = run_census(6)
        assert report.vectors_scanned == 3_231_360
        assert len(records) == 413
        assert report.max_first_failure == 11
        assert report.extremal_vectors == ((1, 0, 2, 2, 2, 4), (1, 1, 1, 1, 0, 4))
        assert report.equality_window_vectors == 102

    def test_summary_fold_holds_no_records(self):
        # The fold reads each record as the stream yields it, so a census that
        # prints only its summary keeps none of its 2,502 records at L = 7:
        # its traced peak is about 0.04 MiB, a list of them takes 0.4 MiB.
        tracemalloc.start()
        try:
            report = census_report(7, census_records(7, 28), 28)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.vectors_scanned == 420_076_800
        assert report.extremal_vectors == ((1, 1, 1, 1, 1, 0, 4),)
        assert report.equality_window_vectors == 661
        assert peak < 0.2 * 2**20

    def test_window_respected(self, census_reports):
        for L, census in census_reports.items():
            assert census.report.max_first_failure <= max(2 * L - 1, 2)

    def test_deep_horizon_validation(self):
        assert census_horizon(3) == census_horizon(3, 12) == 12
        with pytest.raises(ValueError, match="deep_horizon must be >= 4L = 12"):
            census_horizon(3, 11)
        with pytest.raises(ValueError, match="deep_horizon must be >= 4L = 12"):
            next(census_records(3, 11))

    def test_rows_csv_roundtrip(self, census_reports):
        # Records come back as they are, one line each, and so do rows of
        # one vector each.
        for L in (3, 4):
            records = list(census_reports[L].records)
            text = census_rows_to_csv(records)
            assert text.count("\n") == len(records) + 1
            assert parse_census_csv(text) == records
            rows = list(census_reports[L].rows())
            assert parse_census_csv(census_rows_to_csv(rows)) == rows

    def test_json_shape(self, census_reports):
        census = census_reports[3]
        payload = census.report.to_json()
        assert payload["L"] == 3
        assert payload["max_first_failure"] == 5
        assert "rows" not in payload
        rows = json.loads("[" + "".join(json_rows(3, census.records)) + "]")
        assert len(rows) == 80
        assert rows[0].keys() == {"vector", "first_failure", "verdict", "proof_tag"}
        assert [tuple(r["vector"]) for r in rows] == [r.vector for r in census.rows()]

    def test_violation_raised_on_late_failure(self):
        # The fold stops at the first record past the window, reading no further.
        rows = [CensusRow((1, 3), 3, "incomplete", ""), CensusRow((1, 4), 9, "incomplete", "")]
        after = CensusRow((2,), 2, "incomplete", "", 2)
        stream = iter([*rows, after])
        with pytest.raises(ConjectureViolation) as exc:
            census_report(2, stream, 8)
        assert exc.value.vector == (1, 4)
        assert exc.value.first_failure == 9
        assert next(stream) is after


@pytest.fixture(scope="module")
def brute_force_rows():
    """Census rows for L = 1..5 by classifying every vector in turn."""
    rows = {}
    for L in range(1, 6):
        rows[L] = [_row(cv.coefficients, classify(cv, 4 * L)) for cv in enumerate_vectors(L)]
    return rows


class TestPrunedCensus:
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_records_match_brute_force(self, brute_force_rows, L):
        expected = brute_force_rows[L]
        census = run_census(L)
        rows = list(census.rows())
        assert len(rows) == census.report.vectors_scanned == len(expected) + (L == 1)
        assert rows[: len(expected)] == expected

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("first", [1, 2, None])
    def test_block_matches_brute_force(self, brute_force_rows, monkeypatch, L, first):
        # Replaying the census's first k records, the walk yields them and goes
        # on to the end: expanded, the records are the brute-force rows, and
        # only the leaves after the cut are classified.  The cuts are those
        # before a record whose c_1 is `first` (for 2, the end too), or every
        # cut when None; past L = 3, at least six of them, the end included.
        expected = brute_force_rows[L]
        records = list(_walk(L, 4 * L))
        assert list(_expand(L, records)) == expected
        firsts = [r.vector[0] for r in records] + [2]  # the end follows the c_1 = 2 records
        cuts = [k for k, c in enumerate(firsts) if first in (None, c)]
        if L > 3:
            cuts = sorted({*cuts[:: max(len(cuts) // 6, 1)], cuts[-1]})
            assert len(cuts) >= (6 if first != 2 else 2)
        leaves = _counting_node_records(monkeypatch)
        for k in cuts:
            leaves.clear()
            assert list(_walk(L, 4 * L, records[:k])) == records, k
            assert leaves == leaf_vectors(L, records[k:]), k

    def test_only_survivors_are_classified(self, monkeypatch):
        leaves = []

        def counting_node_records(prefix, *args):
            found = _node_records(prefix, *args)
            leaves.extend(_expand(5, found))
            return found

        monkeypatch.setattr(hunt, "_node_records", counting_node_records)
        report, records = run_census(5)
        assert report.vectors_scanned == 48_960
        assert len(records) == 86  # 139 with one record per leaf
        assert len(leaves) == 107
        assert Counter(r.proof or r.verdict for r in leaves) == {
            "weak_window": 27,
            "merge_last": 26,
            "incomplete": 18,
            "conjecturally_complete": 17,
            "family_single_one": 8,
            "family_double_one": 6,
            "family_g_ones": 3,
            "all_positive": 2,
        }

    def test_each_merged_vector_classified_once_per_prefix(self, monkeypatch):
        # Of the 107 leaves at L = 5, only the 17 that no rule proves are
        # built as vectors, to be scanned past the window, and no merged
        # vector is: each ancestor's merged generators are decided once, from
        # its own gap table (one CompleteLasts found per ancestor).  At L = 6
        # the 102 conjectural survivors are the only vectors built.
        built, found, scanned = [], [], []
        init, find, scan = CoefficientVector.__init__, verdicts.CompleteLasts._find, hunt.scan_past_window

        def counting_init(cv, coefficients, *, head=None):
            init(cv, coefficients, head=head)
            built.append(cv.coefficients)

        def counting_find(lasts):
            found.append(lasts.prefix)
            return find(lasts)

        def scan_spy(cv, horizon, above_bound):
            v = scan(cv, horizon, above_bound)
            scanned.append((cv.coefficients, v.status.value))
            return v

        monkeypatch.setattr(CoefficientVector, "__init__", counting_init)
        monkeypatch.setattr(verdicts.CompleteLasts, "_find", counting_find)
        monkeypatch.setattr(verdicts, "proves_complete", None)
        monkeypatch.setattr(hunt, "scan_past_window", scan_spy)
        for L, unproved in ((5, 17), (6, 102)):
            built.clear(), found.clear(), scanned.clear()
            report = run_census(L).report
            assert len(built) == unproved == report.equality_window_vectors
            assert [v for v, _ in scanned] == built
            assert {status for _, status in scanned} == {"conjecturally_complete"}
            assert {len(v) for v in built} == {L}
            assert len(found) == len(set(found)) > 0
            assert {len(q) for q in found} <= set(range(L - 1))

    def test_window_rules_derive_no_family_shape(self, monkeypatch):
        # node_pieces derives its prefix's family once and hands it to every
        # window_rules call it makes, which derives none.
        inside, shapes = [], {"inside": 0, "outside": 0}
        rules, shape = verdicts.window_rules, families.family_shape

        def rules_spy(*args):
            inside.append(True)
            try:
                return rules(*args)
            finally:
                inside.pop()

        def shape_spy(c):
            shapes["inside" if inside else "outside"] += 1
            return shape(c)

        monkeypatch.setattr(verdicts, "window_rules", rules_spy)
        monkeypatch.setattr(families, "family_shape", shape_spy)
        assert run_census(5).report.equality_window_vectors == 17
        assert shapes["inside"] == 0 and shapes["outside"] > 0

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_merged_verdicts_held_per_prefix(self, monkeypatch, L):
        # Each node of depth L - 2 hands its leaves' nodes one memo of its
        # own (a CompleteLasts), and that memo, with the chain of its
        # parents', holds only its own prefixes.
        held = {}  # id(memo) -> (memo, prefixes of the leaves it was handed)

        def node_records(prefix, head, first, stop, merged, horizon):
            held.setdefault(id(merged), (merged, set()))[1].add(prefix[: L - 2])
            return _node_records(prefix, head, first, stop, merged, horizon)

        monkeypatch.setattr(hunt, "_node_records", node_records)
        run_census(L)
        prefixes = set()
        for merged, leaf_prefixes in held.values():
            assert merged is not None
            assert len(leaf_prefixes) == 1
            (prefix,) = leaf_prefixes
            assert prefix not in prefixes
            prefixes.add(prefix)
            assert merged.prefix == prefix
            level = merged
            while level.parent is not None:
                assert level.parent.prefix == level.prefix[:-1], (prefix, level.prefix)
                level = level.parent
            assert level.prefix == ()
        # At L <= 3 every leaf is settled before the merge-last rule.
        assert any(merged.ranges is not None for merged, _ in held.values()) == (L >= 4)

    def test_merged_family_vector_above_its_bound_is_scanned(self, monkeypatch):
        # A bound of 2 for [1, 0, N] puts [1, 0, 3], the merged generator of
        # the leaf [1, 0, 1, 2], above it while it passes its window.  As
        # classify's merge step does, the census scans it past the window
        # and, finding no failure there, raises.
        real = families.family_bound
        too_low = BoundResult(2, "single_one", exact=True)
        monkeypatch.setattr(families, "family_bound", lambda g, k: too_low if (g, k) == (1, 1) else real(g, k))
        for run in (lambda: classify(CoefficientVector((1, 0, 1, 2))), lambda: run_census(4)):
            with pytest.raises(ConjectureViolation) as exc:
                run()
            assert (exc.value.vector, exc.value.first_failure) == ((1, 0, 3), None)


def _oracle_rows(L: int) -> list[CensusRow]:
    """The census row of every capped vector, each scanned and classified alone."""
    ranges = [range(1, 3)] + [range(0, 2**i + 1) for i in range(2, L)]
    ranges += [range(1, 2**L + 1)] * (L > 1)
    rows = []
    for vec in itertools.product(*ranges):
        cv = CoefficientVector(vec)
        verdict = classify(cv, 4 * L)
        first = brown_scan(cv, 4 * L).first_failure
        assert first == verdict.first_failure_index
        proof = verdict.proof.rule.value if verdict.proof is not None else ""
        rows.append(CensusRow(vec, first, verdict.status.value, proof))
    return rows


class TestRunRecords:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_expanded_records_match_per_vector_oracle(self, census_reports, L):
        expected = _oracle_rows(L)
        rows = list(census_reports[L].rows())
        assert len(rows) == len(expected) + (L == 1)  # and the L = 1 witness [3]
        assert rows[: len(expected)] == expected

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_runs_start_at_first_failing_value(self, census_reports, L):
        census = census_reports.get(L) or run_census(L)
        ranges = coefficient_ranges(L)
        runs = [r for r in census.records if _is_run(r)]
        assert runs
        for rec in runs:
            j = len(rec.vector)
            assert (rec.first_failure, rec.verdict, rec.proof) == (j + 1, "incomplete", "")
            if rec.vector[-1] > ranges[j - 1].start:
                below = rec.vector[:-1] + (rec.vector[-1] - 1,)
                below += tuple(r.start for r in ranges[j:])
                assert brown_scan(CoefficientVector(below), j + 1).first_failure is None


def _split_at(monkeypatch, depth: int) -> None:
    """Make the row texts split records at `depth` in place of their own."""
    monkeypatch.setattr(
        hunt, "_expand", lambda length, records, d=None: _expand(length, records, d if d is None else depth)
    )


def _digest(pieces) -> str:
    sha = hashlib.sha256()
    for piece in pieces:
        sha.update(piece.encode())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def reports_4_to_6():
    return {L: run_census(L) for L in (4, 5, 6)}


class TestRowTexts:
    @pytest.mark.parametrize("L", [4, 5, 6])
    def test_same_bytes_at_every_split_depth(self, monkeypatch, reports_4_to_6, L):
        # At L = 4 and 5 the texts are also those of one row at a time.  At
        # L = 6, depths 0 and L - 2 are checked against the default, L - 3:
        # depths 1 and 2 would add ~3 s, and L - 1 and L, nearly one record
        # per vector, ~20 s each.
        records = reports_4_to_6[L].records

        def texts():
            return _digest(json_rows(L, records)), _digest(csv_rows(L, records))

        if L < 6:
            rows = list(reports_4_to_6[L].rows())
            json_text = ", ".join(
                json.dumps({"vector": list(r.vector), "first_failure": r.first_failure,
                            "verdict": r.verdict, "proof_tag": r.proof}, ensure_ascii=False)
                for r in rows
            )
            csv_text = census_rows_to_csv(rows).partition("\n")[2]
            expected = (_digest([json_text]), _digest([csv_text]))
        else:
            expected = texts()
        for depth in range(L + 1) if L < 6 else (0, L - 2):
            _split_at(monkeypatch, depth)
            assert texts() == expected, depth

    @pytest.mark.parametrize("L", [4, 5, 6])
    def test_a_piece_holds_the_rows_of_one_prefix_of_length_l_minus_2(self, reports_4_to_6, L):
        # Every CSV row ends in a newline, and a block's last one is in the
        # piece after it.
        rows = max(piece.count("\n") + 1 for piece in csv_rows(L, reports_4_to_6[L].records))
        assert rows <= _completion_counts(L)[L - 2]


CKPT_L3 = "census L=3 deep_horizon=12\n"
# A line whose fields do not parse, the replaced second line of the rows file.
NO_RECORD = r"rows file \S*census\.rows\.csv line 2 is not a census record"


def _counting_node_records(monkeypatch) -> list:
    """Patch hunt._node_records to record each leaf it decides."""
    leaves = []

    def node_records(prefix, head, first, stop, merged, horizon):
        leaves.extend(prefix + (c,) for c in range(first, stop))
        return _node_records(prefix, head, first, stop, merged, horizon)

    monkeypatch.setattr(hunt, "_node_records", node_records)
    return leaves


class TestCensusCheckpoint:
    def test_resume_matches_fresh_run(self, tmp_path, census_reports, monkeypatch):
        # An interrupted run leaves its first k records; the rerun keeps them,
        # classifies only the leaves after them, and completes the rows file.
        fresh = census_reports[3]
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        leaves = _counting_node_records(monkeypatch)
        for k in range(len(fresh.records) + 1):
            rows.write_text(census_rows_to_csv(fresh.records[:k]))
            ckpt.write_text(CKPT_L3)
            leaves.clear()
            resumed = run_census(3, checkpoint_path=ckpt, rows_path=rows)
            assert resumed == fresh, k
            assert leaves == leaf_vectors(3, fresh.records[k:])
            assert ckpt.read_text() == CKPT_L3
            assert parse_census_csv(rows.read_text()) == list(fresh.records)

    @pytest.mark.parametrize("L", [3, 4])
    def test_replay_keeps_the_reloaded_records(self, census_reports, L):
        # A resume holds one object per record: the walk yields each reloaded
        # record itself, run records too, and the parsed rows share one
        # string per verdict and proof tag.
        records = list(census_reports[L].records)
        reloaded = parse_census_csv(census_rows_to_csv(records))
        replayed = list(_walk(L, 4 * L, reloaded))
        assert replayed == records
        assert all(a is b for a, b in zip(replayed, reloaded))
        assert any(_is_run(r) for r in reloaded)
        for field in ("verdict", "proof"):
            texts = [getattr(r, field) for r in reloaded]
            assert len({id(t) for t in texts}) == len(set(texts)), field

    def test_resume_discards_uncheckpointed_rows(self, tmp_path, census_reports, monkeypatch):
        # Rows beside a missing, empty or torn checkpoint header are of an
        # unknown deep horizon: they are recomputed, not double-counted.
        fresh = census_reports[3]
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        leaves = _counting_node_records(monkeypatch)
        for ckpt_text in (None, "", CKPT_L3[:-1], "census L=3"):
            rows.write_text(census_rows_to_csv(fresh.records[:6]))
            ckpt.unlink(missing_ok=True)
            if ckpt_text is not None:
                ckpt.write_text(ckpt_text)
            leaves.clear()
            resumed = run_census(3, checkpoint_path=ckpt, rows_path=rows)
            assert resumed == fresh
            assert leaves == leaf_vectors(3, fresh.records)
            assert ckpt.read_text() == CKPT_L3
            assert parse_census_csv(rows.read_text()) == list(fresh.records)

    def test_torn_rows_tail_recomputed(self, tmp_path, census_reports):
        # A crash while a record was being appended: the rows file ends
        # anywhere, and the records in its whole lines are kept.
        fresh = census_reports[3]
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        full = census_rows_to_csv(fresh.records)
        for cut in range(full.index("\n") + 1, len(full)):
            rows.write_text(full[:cut])
            ckpt.write_text(CKPT_L3)
            resumed = run_census(3, checkpoint_path=ckpt, rows_path=rows)
            assert resumed == fresh, cut
            assert rows.read_text() == full

    def test_records_with_a_gap_rejected(self, tmp_path, census_reports):
        # Each record must start where the one before it ends.
        fresh = census_reports[3]
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        for gap in range(len(fresh.records) - 1):
            ckpt.write_text(CKPT_L3)
            rows.write_text(census_rows_to_csv(fresh.records[:gap] + fresh.records[gap + 1:]))
            with pytest.raises(ValueError, match="does not follow the records before it"):
                run_census(3, checkpoint_path=ckpt, rows_path=rows)

    def test_torn_checkpoint_tail_recomputed(self, tmp_path, census_reports):
        # A checkpoint written with a list of finished (c_1, c_2) prefixes
        # after its header, torn anywhere: it is cut back to the header.
        fresh = census_reports[3]
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        text = CKPT_L3 + "1,0\n1,1\n"
        for cut in range(len(text) + 1):
            rows.write_text(census_rows_to_csv(fresh.records[:8]))
            ckpt.write_text(text[:cut])
            resumed = run_census(3, checkpoint_path=ckpt, rows_path=rows)
            assert resumed == fresh, cut
            assert ckpt.read_text() == CKPT_L3
            assert parse_census_csv(rows.read_text()) == list(fresh.records)

    @pytest.mark.parametrize("k", [1, 2, 50, 107])
    def test_interrupted_run_keeps_every_record_found(self, tmp_path, monkeypatch, k):
        # The run stops as it comes to decide its k-th leaf, with the other
        # leaves of that leaf's node.  Every record found before that node
        # is in the rows file, and the rerun decides only the leaves after it.
        fresh = run_census(5)
        leaves = leaf_vectors(5, fresh.records)
        assert len(leaves) == 107
        node = leaves[k - 1][:-1]
        before = leaves.index(next(v for v in leaves if v[:-1] == node))
        at = next(i for i, r in enumerate(fresh.records) if not _is_run(r) and r.vector[:-1] == node)
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        decided = _counting_node_records(monkeypatch)
        counting = hunt._node_records

        def stopping_node_records(prefix, head, first, stop, merged, horizon):
            if len(decided) + stop - first >= k:
                raise RuntimeError("stopped")
            return counting(prefix, head, first, stop, merged, horizon)

        monkeypatch.setattr(hunt, "_node_records", stopping_node_records)
        with pytest.raises(RuntimeError, match="stopped"):
            run_census(5, checkpoint_path=ckpt, rows_path=rows)
        assert len(decided) == before
        assert parse_census_csv(rows.read_text()) == list(fresh.records[:at])

        monkeypatch.setattr(hunt, "_node_records", counting)
        decided.clear()
        resumed = run_census(5, checkpoint_path=ckpt, rows_path=rows)
        assert resumed == fresh
        assert decided == leaves[before:]
        assert parse_census_csv(rows.read_text()) == list(fresh.records)

    def test_finished_resume_leaves_rows_file_alone(self, tmp_path, census_reports):
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        run_census(3, checkpoint_path=ckpt, rows_path=rows)
        before = rows.read_bytes()
        os.utime(rows, ns=(0, 0))

        resumed = run_census(3, checkpoint_path=ckpt, rows_path=rows)
        assert resumed == census_reports[3]
        assert rows.read_bytes() == before
        assert rows.stat().st_mtime_ns == 0

    @pytest.mark.parametrize(
        "vector", ["1,0,9", "1,5", "1,1", "2,0", "1", "1,0,4,1", "1,0,4+", "1,1+", "1,0,9+"]
    )
    def test_foreign_row_rejected(self, tmp_path, census_reports, vector):
        # one record no L = 3 census writes: out of the cap, a prefix that
        # does not first fail at term 3 (or fails at term 2), too long, a run
        # whose first value passes B_4 or B_3.  Beside a whole checkpoint
        # header it is refused; beside an empty checkpoint the rows are of an
        # unknown deep horizon and are recomputed unread.
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        foreign = ",".join(RECORDS_CSV_HEADER) + f'\n"{vector}",3,incomplete,\n'
        ckpt.write_text(CKPT_L3)
        rows.write_text(foreign)
        with pytest.raises(ValueError):
            run_census(3, checkpoint_path=ckpt, rows_path=rows)
        ckpt.write_text("")
        rows.write_text(foreign)
        assert run_census(3, checkpoint_path=ckpt, rows_path=rows) == census_reports[3]
        assert rows.read_text() == census_rows_to_csv(census_reports[3].records)

    def test_records_past_the_end_rejected(self, tmp_path, census_reports):
        # A finished rows file with one more record: the last one again, or
        # the first, which the walk has already passed.
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        records = census_reports[3].records
        for extra in (records[-1], records[0]):
            ckpt.write_text(CKPT_L3)
            rows.write_text(census_rows_to_csv([*records, extra]))
            with pytest.raises(ValueError, match="lies past the end of the L = 3 census"):
                run_census(3, checkpoint_path=ckpt, rows_path=rows)

    @pytest.mark.parametrize(
        "line,forged,error",
        [
            # a complete leaf stated to fail, or to fail at no term
            ('"1,0,1:3",,complete,family_single_one', '"1,0,1:3",9,incomplete,', "does not fail"),
            ('"1,0,1:3",,complete,family_single_one', '"1,0,1:3",,incomplete,', "does not fail"),
            # a complete leaf with a first failure, and a verdict no census writes
            ('"1,0,1:3",,complete,family_single_one', '"1,0,1:3",4,complete,family_single_one', "does not fail"),
            ('"1,0,1:3",,complete,family_single_one', '"1,0,1:3",,proven,family_single_one',
             r"does not fail where it says \(proven"),
            # [1, 0, 4] first fails at 5, not earlier or later
            ('"1,0,4",5,incomplete,', '"1,0,4",4,incomplete,', "does not fail"),
            ('"1,0,4",5,incomplete,', '"1,0,4",6,incomplete,', "does not fail"),
            ('"1,0,4",5,incomplete,', '"1,0,4",5,conjecturally_complete,', "does not fail"),
            # or at none: a negative window gap refutes a complete or conjectural leaf
            ('"1,0,4",5,incomplete,', '"1,0,4",,complete,family_single_one', "does not fail"),
            ('"1,0,4",5,incomplete,', '"1,0,4",,conjecturally_complete,', "does not fail"),
            # leaves whose end passes the family bound, lies below their start,
            # or past the top of the range (refused before any leaf is checked),
            # or is no number
            ('"1,0,1:3",,complete,family_single_one', '"1,0,1:4",,complete,family_single_one',
             r"\[1, 0, 4\] does not fail"),
            ('"1,0,1:3",,complete,family_single_one', '"1,0,1:0",,complete,family_single_one',
             r"\[1, 0, 1\] does not follow"),
            ('"1,0,1:3",,complete,family_single_one', '"1,0,1:99999999999999",,complete,family_single_one',
             r"\[1, 0, 1\] does not follow"),
            ('"1,0,1:3",,complete,family_single_one', '"1,0,1:x",,complete,family_single_one', NO_RECORD),
            ('"1,0,1:3",,complete,family_single_one', '"1,0,1:",,complete,family_single_one', NO_RECORD),
            ('"1,0,1:3",,complete,family_single_one', '"1,x,1",,complete,family_single_one', NO_RECORD),
            # an end on a prefix shorter than L
            ('"1,1,1:2",,complete,all_positive', '"1,1:2",,complete,all_positive', r"\[1, 1\] does not follow"),
            # a leaf where the walk has a run of [1, 0, 5..8], and that run
            # with a misstated first failure or verdict
            ('"1,0,5+",4,incomplete,', '"1,0,5",4,incomplete,', r"\[1, 0, 5\] does not follow"),
            ('"1,0,5+",4,incomplete,', '"1,0,5+",5,incomplete,', r"\[1, 0, 5\]\+ does not fail"),
            ('"1,0,5+",4,incomplete,', '"1,0,5+",4,complete,', r"\[1, 0, 5\]\+ does not fail"),
            ('"1,0,5+",4,incomplete,', '"1,0,5+",,complete,family_single_one', r"\[1, 0, 5\]\+ does not fail"),
            # or that run as one line per value, or as leaves with an end:
            # only a "+" line is a run
            ('"1,0,5+",4,incomplete,', "\n".join(f'"1,0,{c}",4,incomplete,' for c in range(5, 9)),
             r"\[1, 0, 5\] does not follow"),
            ('"1,0,5+",4,incomplete,', '"1,0,5:8",4,incomplete,', r"\[1, 0, 5\]\+ does not fail"),
        ],
    )
    def test_forged_leaf_rejected(self, tmp_path, census_reports, line, forged, error):
        # A leaf record's verdict is one of the three, its first failure agrees
        # with it, and an incomplete leaf's gaps go negative first where it says.
        # A run record, and no leaf in its place, must be the walk's own.
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        text = census_rows_to_csv(census_reports[3].records)
        assert line + "\n" in text
        ckpt.write_text(CKPT_L3)
        rows.write_text(text.replace(line + "\n", forged + "\n"))
        with pytest.raises(ValueError, match=error):
            run_census(3, checkpoint_path=ckpt, rows_path=rows)

    def test_plus_line_at_leaf_depth_must_state_a_run(self, tmp_path, census_reports):
        # "1+" in place of the leaves [1] and [2] of L = 1, stated complete.
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        ckpt.write_text("census L=1 deep_horizon=4\n")
        rows.write_text(census_rows_to_csv([]) + "1+,,complete,all_positive\n")
        with pytest.raises(ValueError, match=r"\[1\]\+ does not fail where it says"):
            run_census(1, checkpoint_path=ckpt, rows_path=rows)
        ckpt.write_text("census L=1 deep_horizon=4\n")
        rows.write_text(census_rows_to_csv(census_reports[1].records[:2]))
        assert run_census(1, checkpoint_path=ckpt, rows_path=rows) == census_reports[1]

    def test_leaf_failing_past_the_deep_horizon_refused_unscanned(
        self, tmp_path, census_reports, monkeypatch
    ):
        # A leaf was scanned to the deep horizon, so a stated failure past it
        # is refused without scanning there: 10**9 terms would not fit in memory.
        # Every gap scan goes through Sequence.gaps, the walk's terms included.
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        text = census_rows_to_csv(census_reports[3].records)
        ckpt.write_text(CKPT_L3)
        rows.write_text(text.replace('"1,0,4",5,incomplete,', f'"1,0,4",{10**9},incomplete,'))
        gaps = Sequence.gaps

        def bounded_gaps(self, n):
            if n > 12:
                raise AssertionError(f"scan to {n}")
            return gaps(self, n)

        monkeypatch.setattr(Sequence, "gaps", bounded_gaps)
        with pytest.raises(ValueError, match="does not fail where it says"):
            run_census(3, checkpoint_path=ckpt, rows_path=rows)

    def test_rows_file_in_run_encoding(self, tmp_path, census_reports):
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "census.rows.csv"
        run_census(3, checkpoint_path=ckpt, rows_path=rows)
        text = rows.read_text()
        assert text.startswith("record,first_failure,verdict,proof_tag\n")
        assert '"1,0,5+",4,incomplete,\n' in text  # every c_3 >= 5 after (1, 0)
        assert '"1,0,1:3",,complete,family_single_one\n' in text  # c_3 = 1..3
        assert '"1,0,4",5,incomplete,\n' in text
        assert parse_census_csv(text) == list(census_reports[3].records)

    def test_checkpoint_requires_rows_file(self, tmp_path):
        with pytest.raises(ValueError):
            run_census(2, checkpoint_path=tmp_path / "x.ckpt")

    def test_inconsistent_checkpoint_rejected(self, tmp_path):
        ckpt = tmp_path / "census.ckpt"
        rows = tmp_path / "rows.csv"
        ckpt.write_text("0\n")
        rows.write_text("vector,first_failure,verdict,proof_tag\n")
        with pytest.raises(ValueError):
            run_census(3, checkpoint_path=ckpt, rows_path=rows)


class TestTwoLMinusOneFamily:
    @pytest.mark.parametrize("k,expected", [(1, 5), (2, 7), (6, 15)])
    def test_examples(self, k, expected):
        assert check_fail_at_2l_minus_1(k) == expected

    def test_k_validation(self):
        with pytest.raises(ValueError):
            check_fail_at_2l_minus_1(0)


def add_front_ones_violations_by_classify(k, g_max, horizon):
    """Every (g, N) with N <= max_n(g) not Incomplete at g but Incomplete at g + 1."""

    def incomplete(g, n):
        return classify(CoefficientVector((1,) * g + (0,) * k + (n,)), horizon).is_incomplete

    violations = []
    for g in range(1, g_max):
        max_n = empirical_max_n((1,) * g + (0,) * k, horizon).max_n
        for n in range(1, max_n + 1):
            if not incomplete(g, n) and incomplete(g + 1, n):
                violations.append((g, n))
    return violations


def front_ones_maxima(k, g_max, horizon=None):
    """The largest N of [1 x g, 0 x k, N] for g = 1..g_max: the figure's row of
    k at the default horizon, empirical_max_n at any other."""
    if horizon is None:
        return [r.empirical_max_n for r in figure1_table([k], range(1, g_max + 1))]
    return [empirical_max_n((1,) * g + (0,) * k, horizon).max_n for g in range(1, g_max + 1)]


def falls(maxima):
    """(g, N) for each N in (maxima[g], maxima[g - 1]]: the N whose vector with
    prefix g is not Incomplete, and Incomplete once a 1 is prepended."""
    return [(g, n) for g, (hi, lo) in enumerate(zip(maxima, maxima[1:]), 1) for n in range(lo + 1, hi + 1)]


class TestAddFrontOnes:
    """Prepending a 1 keeps [1 x g, 0 x k, N] complete: the figure's maxima
    never fall from g to g + 1."""

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("horizon", ["default", "2L+5"])
    def test_violations_match_classify_oracle(self, k, horizon):
        g_max = 5
        # the longest vector scanned is [1 x g_max, 0 x k, N]
        h = None if horizon == "default" else 2 * (g_max + k + 1) + 5
        maxima = front_ones_maxima(k, g_max, h)
        # no prefix here loses completeness, so both sides are empty; the
        # next test covers a falling maximum
        assert falls(maxima) == add_front_ones_violations_by_classify(k, g_max, h) == []

    def test_violations_read_off_a_falling_maximum(self):
        # Off these families a prepended 1 can lose completeness:
        # [1,0,3,0,3,1] is not Incomplete, [1,1,0,3,0,3,1] is.
        prefix = (1, 0, 3, 0, 3)
        maxima = [empirical_max_n(prefix).max_n, empirical_max_n((1,) + prefix).max_n]
        lost = [(1, n) for n in range(1, maxima[0] + 1)
                if classify(CoefficientVector((1,) + prefix + (n,))).is_incomplete]
        assert falls(maxima) == lost == [(1, 1)]

    def test_k1_no_violations(self):
        assert front_ones_maxima(1, 5) == [3, 3, 3, 3, 3]

    def test_k2_plateau(self):
        # single-one bound at g = 1, double-one at g = 2, plateau from g = 3
        assert front_ones_maxima(2, 5) == [5, 6, 7, 7, 7]

    def test_k4_bound_rises(self):
        maxima = front_ones_maxima(4, 3)
        assert maxima == sorted(maxima)
        assert maxima[1] == 20  # g = 2 hits the double-one bound

    def test_validation(self):
        with pytest.raises(ValueError, match="k and g must be >= 1"):
            front_ones_maxima(0, 3)
        with pytest.raises(ValueError, match="k and g must be >= 1"):
            figure1_table([1], [0, 1])
