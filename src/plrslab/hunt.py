"""Exhaustive evidence gathering for the first-failure window conjectures.

The census enumerates every generator of length L with c_i <= 2^i (first and
last coefficients positive) and records where Brown's gap first goes
negative.  The cap is sound: a coefficient above 2^i forces a failure by
term i + 1 <= L + 1, which never exceeds the conjectured window, so capped
vectors cannot hide a late first failure.  The open conjecture under test
says no generator first fails after term max(2L - 1, 2).

The census never scans most vectors term by term.  For j <= L the term
H_{j+1} depends only on c_1..c_j and grows with c_j, so Brown's gap B_{j+1}
shrinks as c_j grows.  A depth-first search over coefficient prefixes
computes one new term per node; once B_{j+1} < 0, that prefix first fails at
term j + 1 whatever follows, and so does the prefix with any larger c_j.
The leaves below one prefix of length L - 1 are decided together, a range
of c_L at a time (_node_records); only a leaf that no rule proves is built
as a vector, to be scanned past 2L - 1.

The census is a stream of records (CensusRow, census_records) that tile
the enumeration in lexicographic order: one per failing run of c_j, and one
per run of leaves of one prefix that share first failure, verdict and
proof.  One fold (census_report) reads the stream once for the summary and
keeps no record but the extremal ones, so a census printing its summary
holds no list of records.  Output that lists every vector is written per
record (_record_texts), so memory is bounded by the rows of one prefix of
length L - 2 (8,320 at L = 7), not by the output.  A checkpointed census
appends each record to a rows file as the stream yields it, one line per
record, and a rerun replays the records through the search and decides
only what lies past them (_walk).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import re
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import ConjectureViolation
from .seqcore import CoefficientVector
from .verdicts import (FAILS_PAST_WINDOW, CompleteLasts, CompletenessVerdict, ProofRule, classify,
                       effective_horizon, gap_table, node_pieces, passing_range, scan_past_window,
                       table_terms)


def coefficient_ranges(length: int) -> list[range]:
    """Per-position coefficient ranges for the capped enumeration."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if length == 1:
        return [range(1, 3)]
    ranges = [range(1, 3)]
    ranges += [range(0, 2**i + 1) for i in range(2, length)]
    ranges.append(range(1, 2**length + 1))
    return ranges


def enumeration_size(length: int) -> int:
    return _completion_counts(length)[0]


def _completion_counts(length: int) -> list[int]:
    """counts[j] is the number of completions of a prefix of length j."""
    ranges = coefficient_ranges(length)
    return [math.prod(len(r) for r in ranges[j:]) for j in range(length + 1)]


# --------------------------------------------------------------------------
# Census


class CensusRow(NamedTuple):
    """A census record: every vector it stands for shares the other fields.

    It stands for every completion of `vector`, and with `end` set for every
    completion of `vector` with its last coefficient raised up to `end`.  At
    full length and without `end` it is the row of that one vector.  A run
    record, whose prefix first fails at its own last term, ends at the top of
    that coefficient's range: every larger value fails there too.  The rows
    file writes one line per record: "1,0,5+" for a run, "1,0,1:3" for
    leaves with an end, "1,0,4" for one leaf.
    """

    vector: tuple[int, ...]
    first_failure: Optional[int]
    verdict: str
    proof: str
    end: Optional[int] = None


def _last(rec: CensusRow) -> int:
    """The last value of its last coefficient that the record stands for."""
    return rec.vector[-1] if rec.end is None else rec.end


def _is_run(rec: CensusRow) -> bool:
    return rec.end is not None and rec.first_failure == len(rec.vector) + 1


def _label(rec: CensusRow) -> str:
    return f"{list(rec.vector)}{'+' * _is_run(rec)}"


def _expand(
    length: int, records: Iterable[CensusRow], depth: Optional[int] = None
) -> Iterator[CensusRow]:
    """The records split into one per prefix of length `depth`, in order.

    The default depth, L, gives one row per vector.  A record that fixes
    `depth` coefficients or more, a run's last one not counted, is left whole.
    """
    ranges = coefficient_ranges(length)
    if depth is None:
        depth = length
    for rec in records:
        j = len(rec.vector) - 1
        if j + 1 - (rec.end is not None) >= depth:
            yield rec
            continue
        for c in range(rec.vector[j], _last(rec) + 1):
            prefix = rec.vector[:j] + (c,)
            for suffix in itertools.product(*ranges[j + 1:depth]):
                yield CensusRow(prefix + suffix, rec.first_failure, rec.verdict, rec.proof)


def _record_texts(
    length: int,
    records: Iterable[CensusRow],
    sep: str,
    head: str,
    tail: Callable[[CensusRow], str],
    row_sep: str = "",
) -> Iterator[str]:
    """The rows of every record, as text pieces joined by row_sep.

    A row is head + c_1 sep ... sep c_L + tail(record), and rows are joined
    by row_sep.  The rows "c_{j+1} sep ... sep c_L" that complete a prefix
    of length j are built once per j, as one "\0"-joined block per value of
    c_{j+1}, and shared by every record of that length.  A record of prefix
    length j takes all of them; one with an end takes the slice from its
    last coefficient to its end, after its first j - 1 coefficients (joined
    into one block at full length), and a leaf is one row.  A tail is built
    once per (first failure, verdict, proof).

    Each block gives three pieces: the first row's start, the block with
    every "\0" replaced by tail + row_sep + start, and the last row's tail;
    so no text is copied after replace builds it.  Records fixing fewer than
    L - 3 coefficients are first split into one per prefix of that length,
    so no table for a shorter prefix is built and a piece holds the rows of
    one prefix of length L - 2 at most.
    """
    ranges = coefficient_ranges(length)
    tables: dict[int, list[str]] = {length - 1: [str(c) for c in ranges[-1]]}
    tails: dict[tuple[Optional[int], str, str], str] = {}

    def blocks(j: int) -> list[str]:
        if j not in tables:
            below = "\0".join(blocks(j + 1))
            tables[j] = [f"{c}{sep}" + below.replace("\0", f"\0{c}{sep}") for c in ranges[j]]
        return tables[j]

    joint = ""
    for rec in _expand(length, records, max(length - 3, 0)):
        key = (rec.first_failure, rec.verdict, rec.proof)
        end = tails.get(key)
        if end is None:
            end = tails[key] = tail(rec)
        j = len(rec.vector)
        if rec.end is not None:
            j -= 1
            pieces = blocks(j)[rec.vector[j] - ranges[j].start: rec.end + 1 - ranges[j].start]
            if j == length - 1:
                pieces = ["\0".join(pieces)]
        elif j == length:
            j -= 1
            pieces = [str(rec.vector[j])]
        else:
            pieces = blocks(j)
        start = head + "".join(f"{c}{sep}" for c in rec.vector[:j])
        between = end + row_sep + start
        for block in pieces:
            yield joint + start
            yield block.replace("\0", between)
            yield end
            joint = row_sep


def _csv_line(fields: list) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


class CensusReport(NamedTuple):
    length: int
    max_first_failure: int
    extremal_vectors: tuple[tuple[int, ...], ...]
    vectors_scanned: int
    equality_window_vectors: int
    deep_horizon: int
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        """The JSON summary; its "rows" array is written by json_rows()."""
        return {
            "L": self.length,
            "max_first_failure": self.max_first_failure,
            "extremal_vectors": [list(v) for v in self.extremal_vectors],
            "vectors_scanned": self.vectors_scanned,
            "equality_window_vectors": self.equality_window_vectors,
            "deep_horizon": self.deep_horizon,
            "notes": list(self.notes),
        }


def json_rows(length: int, records: Iterable[CensusRow]) -> Iterator[str]:
    """The text inside the JSON "rows" array, in pieces.

    Joined, the pieces are the json.dumps(..., ensure_ascii=False) text of
    one {"vector", "first_failure", "verdict", "proof_tag"} object per
    vector, in lexicographic order.
    """
    import json  # here, so that a census without JSON output does not load it

    def tail(rec: CensusRow) -> str:
        fields = {"first_failure": rec.first_failure, "verdict": rec.verdict, "proof_tag": rec.proof}
        return "], " + json.dumps(fields, ensure_ascii=False)[1:]

    return _record_texts(length, records, ", ", '{"vector": [', tail, ", ")


def csv_rows(length: int, records: Iterable[CensusRow]) -> Iterator[str]:
    """The CSV data lines, in pieces, as csv.writer writes them."""
    # csv.writer quotes the vector field exactly when it holds a comma.
    quote = '"' if length > 1 else ""

    def tail(rec: CensusRow) -> str:
        return quote + "," + _csv_line(_tail_fields(rec))

    return _record_texts(length, records, ",", quote, tail)


CENSUS_CSV_HEADER = ["vector", "first_failure", "verdict", "proof_tag"]
# The rows file of a checkpointed census: one line per record.  A run's prefix
# ends in "+" ("1,0,3+" stands for every c_3 >= 3), and a record of leaves
# with an end adds ":" and the end ("1,0,1:3" stands for c_3 = 1..3).
RECORDS_CSV_HEADER = ["record", *CENSUS_CSV_HEADER[1:]]


def _tail_fields(r: CensusRow) -> list:
    return ["" if r.first_failure is None else r.first_failure, r.verdict, r.proof]


def _rows_file_fields(r: CensusRow) -> list:
    """The rows-file line of one record, as csv fields."""
    record = ",".join(map(str, r.vector))
    if r.end is not None:
        record += "+" if _is_run(r) else f":{r.end}"
    return [record, *_tail_fields(r)]


def parse_census_csv(text: str, source: str = "rows file") -> list[CensusRow]:
    """Records from a rows file, one per line.

    A line ending in "+" must state a run's fields, and one with an end
    (":b") must not.  A line that is not four fields of a record is refused,
    naming `source` and the line.  Lines are read one at a time, with no
    StringIO copy of the text at four bytes a character, and records share
    one string per verdict and proof tag.
    """
    reader = csv.reader(m.group() for m in re.finditer(r"[^\n]*\n|[^\n]+", text))
    header = next(reader, None)
    if header != RECORDS_CSV_HEADER:
        raise ValueError(f"unexpected census rows header {header}")
    rows: list[CensusRow] = []
    for fields in reader:
        try:
            record, ff, verdict, proof = fields
            prefix, colon, last = record.partition(":")
            run = not colon and prefix.endswith("+")
            vector = tuple(map(int, prefix.removesuffix("+").split(",")))
            end = int(last) if colon else 2 ** len(vector) if run else None  # c_i <= 2^i
            first = int(ff) if ff else None
        except ValueError:
            raise ValueError(f"{source} line {reader.line_num} is not a census record: {fields}") from None
        rec = CensusRow(vector, first, sys.intern(verdict), sys.intern(proof), end)
        if run != _is_run(rec):
            raise ValueError(f"record {list(vector)}+ does not fail where it says")
        rows.append(rec)
    return rows


def _add(records: list[CensusRow], rec: CensusRow) -> None:
    """Append rec, or join it to the last record when both stand for leaves of
    one prefix, one run of them after the other, with the same fields."""
    if records:
        last = records[-1]
        if last[1:4] == rec[1:4] and last.vector[:-1] == rec.vector[:-1] and _last(last) + 1 == rec.vector[-1]:
            records[-1] = CensusRow(*last[:4], _last(rec))
            return
    records.append(rec)


def _row(vector: tuple[int, ...], v: CompletenessVerdict) -> CensusRow:
    proof = v.proof.rule.value if v.proof is not None else ""
    return CensusRow(vector, v.first_failure_index, v.status.value, proof)


def _node_records(prefix: tuple[int, ...], head: list[int], first: int, stop: int,
                  merged: Optional[CompleteLasts], horizon: int) -> list[CensusRow]:
    """The records of the leaves [prefix, c], c in range(first, stop): their
    window gaps B_1..B_W, W = max(2L - 1, 2), are affine in c, so one table
    (verdicts.gap_table) gives them all, and classify's rules are asked only
    where an answer can change (verdicts.node_pieces), rule (d) asking
    `merged`, the CompleteLasts of prefix[:-1].  Only a leaf that no rule
    proves is built, from the walk's terms `head` = [H_1, ..., H_L] and the
    table's further lines (verdicts.table_terms), and scanned past the window."""
    table = gap_table(prefix, effective_horizon(len(prefix) + 1))[1]
    records: list[CensusRow] = []
    for a, b, found in node_pieces(prefix, table, head, first, stop, merged, horizon):
        end = b - 1 if b - a > 1 else None
        if isinstance(found, int):
            _add(records, CensusRow(prefix + (a,), found, "incomplete", "", end))
        elif isinstance(found, ProofRule):
            _add(records, CensusRow(prefix + (a,), None, "complete", found.value, end))
        else:
            for c in range(a, b):
                cv = CoefficientVector(prefix + (c,), head=table_terms(head, table, c))
                _add(records, _row(cv.coefficients, scan_past_window(cv, horizon, found is FAILS_PAST_WINDOW)))
    return records


def _walk(
    length: int, deep_horizon: int, reloaded: Iterable[CensusRow] = ()
) -> Iterator[CensusRow]:
    """Records covering the enumeration, in order, the replayed `reloaded` first.

    Expanded, they equal classifying each vector in turn.  A node stops at
    its first failing c_{j+1}: one run record stands for it and every larger
    value.  The leaves below one node of depth L - 1 are decided together
    (_node_records).  Rule (d) asks whether [c_1..c_{L-2}, c_{L-1} + c_L] is
    Complete; each ancestor of depth L - 2 or less holds the answer for its
    own prefix (verdicts.CompleteLasts), dropped when the walk leaves it.

    Each reloaded record must be the walk's next: a run equal to it, or a
    record of leaves of one node, with one of the three verdicts.  Each
    leaf's window gaps are re-checked from the table: an incomplete leaf must
    first fail where it says, within the deep horizon (past the window, by a
    scan of its terms), and a complete or conjectural leaf must state no
    failure and have no negative window gap.  Their proof tags, and a
    conjectural leaf's gaps past the window, are trusted: re-deciding them
    would cost what the resume saves.  The leaves of a node past the last
    reloaded record are decided afresh.  A mismatch, or a record left past
    the end, raises ValueError.
    """
    ranges = coefficient_ranges(length)
    window = effective_horizon(length)
    pending = iter(reloaded)

    def check(rec: CensusRow, prefix: tuple[int, ...], table: list, passing: range, head: list):
        n = rec.first_failure
        for c in range(rec.vector[-1], _last(rec) + 1):
            # The first failure within the window, from the table.
            first = None if c in passing else next(m for m, (a, b) in enumerate(table, 1) if a < b * c)
            if rec.verdict == "incomplete" and n is not None and 1 <= n <= deep_horizon:
                if first == n or first is None and n > window and CoefficientVector(
                    prefix + (c,), head=table_terms(head, table, c)
                ).sequence.first_gap_below(n, start=window + 1) == n:
                    continue
            elif rec.verdict in ("complete", "conjecturally_complete") and n is None and first is None:
                continue
            raise ValueError(f"record {list(prefix + (c,))} does not fail where it says ({rec.verdict}, {n})")

    def leaves(prefix: tuple[int, ...], terms: list[int], stop: int, merged: Optional[CompleteLasts]):
        c, table = ranges[-1].start, None
        while c < stop and (rec := next(pending, None)) is not None:
            if rec.vector != prefix + (c,) or not c <= _last(rec) < stop:
                raise ValueError(f"record {_label(rec)} does not follow the records before it")
            if table is None:
                table = gap_table(prefix, window)[1]
                passing = passing_range(table)
            check(rec, prefix, table, passing, terms)
            yield rec
            c = _last(rec) + 1
        if c < stop:
            yield from _node_records(prefix, terms, c, stop, merged, deep_horizon)

    def walk(prefix: tuple[int, ...], terms: list[int], total: int, merged: Optional[CompleteLasts]):
        # terms = [H_1, ..., H_{j+1}] with total their sum; B_1..B_{j+1} >= 0.
        # merged: the CompleteLasts of prefix, or at depth L - 1 of its parent.
        j = len(prefix)
        r = ranges[j]
        # H_{j+2} = base + c_{j+1} * H_1, and B_{j+2} >= 0 iff H_{j+2} <= 1 + total.
        base = sum(c * terms[j - i] for i, c in enumerate(prefix)) + (j + 1 < length)
        stop = min(max(2 + total - base, r.start), r.stop)  # the first failing c_{j+1}
        if j + 1 < length:
            for c in range(r.start, stop):
                term = base + c
                child = prefix + (c,)
                below = CompleteLasts(child, merged, deep_horizon) if j + 1 < length - 1 else merged
                yield from walk(child, terms + [term], total + term, below)
        elif r.start < stop:
            yield from leaves(prefix, terms, stop, merged)
        if stop == r.stop:
            return
        run = CensusRow(prefix + (stop,), j + 2, "incomplete", "", r.stop - 1)
        rec = next(pending, None)
        if rec is not None and (rec.vector, rec.end) != (run.vector, run.end):
            raise ValueError(f"record {_label(rec)} does not follow the records before it")
        if rec not in (None, run):
            raise ValueError(f"record {_label(run)} does not fail where it says")
        yield run if rec is None else rec

    yield from walk((), [1], 1, CompleteLasts((), None, deep_horizon) if length > 1 else None)
    if (rest := next(pending, None)) is not None:
        raise ValueError(f"record {_label(rest)} lies past the end of the L = {length} census")


def _reverify_first_failure(vector: tuple[int, ...], expected: int) -> None:
    # Second pass, straight from the recurrence, sharing no code with Sequence.
    terms: list[int] = []
    for n in range(1, expected + 1):
        term = sum(c * t for c, t in zip(vector, reversed(terms[-len(vector):]))) + (n <= len(vector))
        gap = 1 + sum(terms) - term
        if n < expected and gap < 0:
            raise RuntimeError(f"{list(vector)} re-verifies to an earlier failure {n}")
        if n == expected and gap >= 0:
            raise RuntimeError(f"{list(vector)} does not fail at term {expected}")
        terms.append(term)


def census_report(length: int, records: Iterable[CensusRow], deep_horizon: int) -> CensusReport:
    """The summary of a census, read in one pass over its records, keeping only
    the extremal ones.  Raises ConjectureViolation at the first record failing
    past max(2L - 1, 2): a discovery to report, not an internal error."""
    window = effective_horizon(length)
    counts = _completion_counts(length)
    max_ff = 0
    extremal: list[CensusRow] = []
    scanned = 0
    survivors = 0
    for rec in records:
        covered = counts[len(rec.vector)] * (_last(rec) - rec.vector[-1] + 1)
        scanned += covered
        if rec.first_failure is not None:
            if rec.first_failure > window:
                raise ConjectureViolation(rec.vector, rec.first_failure)
            if rec.first_failure > max_ff:
                max_ff = rec.first_failure
                extremal = [rec]
            elif rec.first_failure == max_ff:
                extremal.append(rec)
        elif rec.verdict == "conjecturally_complete":
            survivors += covered
    extremal_vectors = tuple(row.vector for row in _expand(length, extremal))
    for vec in extremal_vectors:
        _reverify_first_failure(vec, max_ff)
    notes: tuple[str, ...] = ()
    if length == 1:
        notes = (
            "window 2L-1 = 1 is vacuous at L = 1; generators [c] with c >= 3 "
            "sit beyond the enumeration cap and all first fail at term 2, so "
            "[3] is scanned as a supplemental witness and the window floor "
            "max(2L-1, 2) = 2 applies",
        )
    return CensusReport(
        length=length,
        max_first_failure=max_ff,
        extremal_vectors=extremal_vectors,
        vectors_scanned=scanned,
        equality_window_vectors=survivors,
        deep_horizon=deep_horizon,
        notes=notes,
    )


def census_horizon(length: int, deep_horizon: Optional[int] = None) -> int:
    """The deep horizon of a census of this length: 4L unless set, and never lower."""
    if deep_horizon is None:
        return 4 * length
    if deep_horizon < 4 * length:
        raise ValueError(f"deep_horizon must be >= 4L = {4 * length}")
    return deep_horizon


def _read_whole_lines(path: Path) -> tuple[str, str]:
    """The file's text, and that text without a torn last line.

    A crash mid-append can tear only the line after the last newline.
    """
    text = path.read_text() if path.exists() else ""
    return text, text[: text.rfind("\n") + 1]


def _load_checkpoint(length: int, deep_horizon: int, ckpt: Path, rows: Path) -> list[CensusRow]:
    """The records an earlier run wrote, unchecked: the census replays them.

    Cuts the checkpoint to its header line and drops a torn last line of the
    rows file, rewriting a file only when that changes it.  Rows beside a
    checkpoint that is not that one line (no whole header: an unknown deep
    horizon; finished (c_1, c_2) prefixes after it: an older run's order)
    are recomputed.  Rejects a checkpoint of another census and a rows file
    in another encoding.
    """
    header = f"census L={length} deep_horizon={deep_horizon}"
    text, ckpt_whole = _read_whole_lines(ckpt)
    if ckpt_whole and not ckpt_whole.startswith(header + "\n"):
        raise ValueError(
            f"checkpoint {ckpt} is for {ckpt_whole.splitlines()[0]!r}, but this run is {header!r}"
        )
    if text != header + "\n":
        ckpt.write_text(header + "\n")

    text, whole = _read_whole_lines(rows)
    if ckpt_whole != header + "\n" or not whole:
        whole = ",".join(RECORDS_CSV_HEADER) + "\n"
    if not whole.startswith(",".join(RECORDS_CSV_HEADER) + "\n"):
        raise ValueError(
            f"rows file {rows} does not start with the run-record header "
            f"{','.join(RECORDS_CSV_HEADER)!r}; remove it and the checkpoint to rerun"
        )
    records = parse_census_csv(whole, f"rows file {rows}")
    if whole != text:
        rows.write_text(whole)
    return records


def census_records(
    length: int,
    deep_horizon: int,
    *,
    checkpoint_path: Optional[str | Path] = None,
    rows_path: Optional[str | Path] = None,
) -> Iterator[CensusRow]:
    """The records of every capped vector of the given length, each once, in order.

    Vectors that survive the prefix search are classified.  Those that no
    proof rule proves are scanned past 2L - 1 to deep_horizon, at least 4L
    (census_horizon).  With checkpoint_path and rows_path set (one needs the
    other), the records an earlier run wrote are replayed first, and each
    record found after them is appended to the rows file before it is
    yielded; closing the stream flushes and closes that file.  At L = 1 the
    beyond-cap witness [3] comes last, unwritten.
    """
    deep_horizon = census_horizon(length, deep_horizon)
    ckpt = Path(checkpoint_path) if checkpoint_path is not None else None
    rows_file = Path(rows_path) if rows_path is not None else None
    if (ckpt is None) != (rows_file is None):
        raise ValueError("census rows and checkpoint files must be given together")
    reloaded = _load_checkpoint(length, deep_horizon, ckpt, rows_file) if ckpt else []
    records = _walk(length, deep_horizon, reloaded)
    yield from itertools.islice(records, len(reloaded))
    found = 0
    with (rows_file.open("a") if rows_file else contextlib.nullcontext()) as fh:
        writer = csv.writer(fh, lineterminator="\n") if fh else None
        for found, rec in enumerate(records, 1):
            if writer:
                writer.writerow(_rows_file_fields(rec))
            yield rec
    if logging := sys.modules.get("logging"):  # loaded by -v or a host, else no handler exists
        logging.getLogger(__name__).debug(
            "census L=%d: %d records reloaded, %d found", length, len(reloaded), found)

    if length == 1:
        # The window 2L - 1 = 1 is vacuous and [1], [2] never fail; every [c]
        # with c >= 3 lies past the cap and first fails at term 2, so [3] is
        # scanned to make the reported maximum meaningful.
        yield _row((3,), classify(CoefficientVector((3,)), deep_horizon))
