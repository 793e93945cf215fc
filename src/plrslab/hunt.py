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
Only the prefixes that reach length L with no negative gap are classified,
and only the leaves that no proof rule proves are scanned past 2L - 1.

The census is a list of records.  A record is a CensusRow whose vector is
a prefix p of length <= L; it stands for every completion of p, all of
which share its first failure, verdict and proof.  A run record (run set)
stands as well for every prefix that raises p's last coefficient within its
range: once c_{j+1} fails at term j + 2, so does every larger value.  The
search yields one run record per failing run and one per classified
vector, in lexicographic order, so the records tile the enumeration.
Output that lists every vector is written per record:
CensusReport.json_rows() and csv_rows() join the record's fields to the
texts of its completions, built once per prefix length from L - 3 on, so
no per-vector object is made and memory is bounded by the rows of one
prefix of length L - 2 (8,320 at L = 7), not by the output.
CensusReport.rows() expands the records to one CensusRow per vector for
callers that inspect rows one by one.

A checkpointed census appends each record to a rows file as the search
finds it, one line per record under a "record,..." header, a run marked by
a "+" after its last coefficient; the checkpoint file names L and the deep
horizon.  A rerun drops a torn last line, replays the records through the
search from the first vector, and classifies only the leaves past them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .errors import ConjectureViolation
from .seqcore import CoefficientVector, Sequence
from .verdicts import brown_scan, classify
from .families import empirical_max_n

log = logging.getLogger(__name__)


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


def enumerate_vectors(length: int) -> Iterator[CoefficientVector]:
    """All capped vectors of the given length, in lexicographic order."""
    for coeffs in itertools.product(*coefficient_ranges(length)):
        yield CoefficientVector(coeffs)


def _completion_counts(length: int) -> list[int]:
    """counts[j] is the number of completions of a prefix of length j."""
    ranges = coefficient_ranges(length)
    return [math.prod(len(r) for r in ranges[j:]) for j in range(length + 1)]


# --------------------------------------------------------------------------
# Census


@dataclass(frozen=True, slots=True)
class CensusRow:
    """A census record: every vector it stands for shares the other fields.

    It stands for every completion of `vector`, and with `run` set for every
    completion of `vector` with its last coefficient raised up to the top of
    that coefficient's range.  At full length and without `run` it is the
    row of that one vector.
    """

    vector: tuple[int, ...]
    first_failure: Optional[int]
    verdict: str
    proof: str
    run: bool = False


def _run_width(ranges: list[range], rec: CensusRow) -> int:
    """How many values of its last coefficient the record stands for."""
    return ranges[len(rec.vector) - 1].stop - rec.vector[-1] if rec.run else 1


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
        if j + 1 - rec.run >= depth:
            yield rec
            continue
        for c in range(rec.vector[j], rec.vector[j] + _run_width(ranges, rec)):
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
    length j takes all of them; a run record takes the slice from its last
    coefficient on, after its first j - 1 coefficients, and a leaf is one
    row.  A tail is built once per (first failure, verdict, proof).

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
        if rec.run:
            j -= 1
            pieces = blocks(j)[rec.vector[j] - ranges[j].start:]
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


@dataclass(frozen=True)
class CensusReport:
    length: int
    max_first_failure: int
    extremal_vectors: tuple[tuple[int, ...], ...]
    vectors_scanned: int
    equality_window_vectors: int
    deep_horizon: int
    notes: tuple[str, ...]
    records: tuple[CensusRow, ...]

    def rows(self) -> Iterator[CensusRow]:
        """One CensusRow per vector, in lexicographic order.

        For callers that inspect rows one by one; the JSON and CSV output
        is written per record by json_rows() and csv_rows().
        """
        return _expand(self.length, self.records)

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

    def json_rows(self) -> Iterator[str]:
        """The text inside the JSON "rows" array, in pieces.

        Joined, the pieces are the json.dumps(..., ensure_ascii=False) text
        of one {"vector", "first_failure", "verdict", "proof_tag"} object per
        vector, in lexicographic order.
        """

        def tail(rec: CensusRow) -> str:
            fields = {"first_failure": rec.first_failure, "verdict": rec.verdict, "proof_tag": rec.proof}
            return "], " + json.dumps(fields, ensure_ascii=False)[1:]

        return _record_texts(self.length, self.records, ", ", '{"vector": [', tail, ", ")

    def csv_rows(self) -> Iterator[str]:
        """The CSV data lines, in pieces, as csv.writer writes them."""
        # csv.writer quotes the vector field exactly when it holds a comma.
        quote = '"' if self.length > 1 else ""

        def tail(rec: CensusRow) -> str:
            return quote + "," + _csv_line(_csv_fields(rec)[1:])

        return _record_texts(self.length, self.records, ",", quote, tail)


CENSUS_CSV_HEADER = ["vector", "first_failure", "verdict", "proof_tag"]
# The rows file of a checkpointed census: one line per record, a run record's
# prefix ending in "+" ("1,0,3+" stands for every c_3 >= 3).
RECORDS_CSV_HEADER = ["record", *CENSUS_CSV_HEADER[1:]]


def _csv_fields(r: CensusRow) -> list:
    return [
        ",".join(str(c) for c in r.vector) + "+" * r.run,
        "" if r.first_failure is None else r.first_failure,
        r.verdict,
        r.proof,
    ]


def census_rows_to_csv(rows: list[CensusRow]) -> str:
    """Records as the rows file holds them, header first."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORDS_CSV_HEADER)
    writer.writerows(_csv_fields(r) for r in rows)
    return buf.getvalue()


def parse_census_csv(text: str) -> list[CensusRow]:
    """Records from a rows file, or rows from `census --format csv`."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header not in (RECORDS_CSV_HEADER, CENSUS_CSV_HEADER):
        raise ValueError(f"unexpected census CSV header {header}")
    rows = []
    for vec, ff, verdict, proof in reader:
        run = vec.endswith("+")
        rows.append(
            CensusRow(
                tuple(int(x) for x in vec.rstrip("+").split(",")),
                int(ff) if ff else None,
                verdict,
                proof,
                run,
            )
        )
    return rows


def _row_for(
    cv: CoefficientVector, horizon: int, merged: Optional[dict[tuple[int, ...], bool]] = None
) -> CensusRow:
    v = classify(cv, horizon, merged=merged)
    proof = v.proof.rule.value if v.proof is not None else ""
    return CensusRow(cv.coefficients, v.first_failure_index, v.status.value, proof)


def _census_records(
    length: int, deep_horizon: int, reloaded: Iterable[CensusRow] = ()
) -> Iterator[CensusRow]:
    """Records covering the enumeration, in order, the replayed `reloaded` first.

    Expanded, they equal classifying each vector in turn.  A node stops at
    its first failing c_{j+1}: one run record stands for it and every larger
    value.  Each reloaded record must be the walk's next: a run equal to it,
    or a leaf of its vector with one of the three verdicts.  An incomplete
    leaf is re-scanned from the walk's terms to its stated first failure,
    within the deep horizon.  The others must state none and are trusted:
    re-classifying them would cost what the resume saves.  A mismatch, or a
    record left past the end, raises ValueError.

    A leaf's terms start from the walk's H_1..H_{L+1}.  The leaves below one
    node of depth L - 2 share their merged generators [.., c_{L-1} + c_L],
    so that node holds one dict of merged verdicts for classify; it is
    dropped when the walk leaves the node.
    """
    ranges = coefficient_ranges(length)
    shared_depth = max(length - 2, 0)
    pending = iter(reloaded)

    def label(rec: CensusRow) -> str:
        return f"{list(rec.vector)}{'+' * rec.run}"

    def replayed(vector: tuple[int, ...], run: bool) -> Optional[CensusRow]:
        rec = next(pending, None)
        if rec is not None and (rec.vector, rec.run) != (vector, run):
            raise ValueError(f"record {label(rec)} does not follow the records before it")
        return rec

    def leaf(prefix: tuple[int, ...], terms: list[int], merged: dict) -> CensusRow:
        rec = replayed(prefix, False)
        if rec is None:
            return _row_for(CoefficientVector(prefix, head=terms), deep_horizon, merged)
        n = rec.first_failure
        if rec.verdict == "incomplete" and n is not None and 1 <= n <= deep_horizon:
            if CoefficientVector(prefix, head=terms).sequence.first_gap_below(n) == n:
                return rec
        elif rec.verdict in ("complete", "conjecturally_complete") and n is None:
            return rec
        raise ValueError(f"record {list(prefix)} does not fail where it says ({rec.verdict}, {n})")

    def walk(prefix: tuple[int, ...], terms: list[int], total: int, merged: Optional[dict]):
        # terms = [H_1, ..., H_{j+1}] with total their sum; B_1..B_{j+1} >= 0.
        j = len(prefix)
        if j == length:
            yield leaf(prefix, terms, merged)
            return
        if j == shared_depth:
            merged = {}
        # H_{j+2} = base + c_{j+1} * H_1, and B_{j+2} >= 0 iff H_{j+2} <= 1 + total.
        base = sum(c * terms[j - i] for i, c in enumerate(prefix)) + (j + 1 < length)
        for c in ranges[j]:
            term = base + c
            if term > 1 + total:
                run = CensusRow(prefix + (c,), j + 2, "incomplete", "", run=True)
                if replayed(run.vector, True) not in (None, run):
                    raise ValueError(f"record {label(run)} does not fail where it says")
                yield run
                return
            yield from walk(prefix + (c,), terms + [term], total + term, merged)

    yield from walk((), [1], 1, None)
    if (rest := next(pending, None)) is not None:
        raise ValueError(f"record {label(rest)} lies past the end of the L = {length} census")


def _reverify_first_failure(vector: tuple[int, ...], expected: int) -> None:
    # Second pass, summing the prefix directly instead of using the
    # Sequence's cumulative sums.
    seq = Sequence(CoefficientVector(vector))
    for n in range(1, expected + 1):
        gap = 1 + sum(seq.prefix(n - 1) if n > 1 else []) - seq.term(n)
        if n < expected and gap < 0:
            raise RuntimeError(f"{list(vector)} re-verifies to an earlier failure {n}")
        if n == expected and gap >= 0:
            raise RuntimeError(f"{list(vector)} does not fail at term {expected}")


def _supplemental_vectors(length: int) -> list[CoefficientVector]:
    # At L = 1 the conjectured window 2L-1 = 1 is vacuous and the capped
    # enumeration ([1], [2]) never fails; every [c] with c >= 3 lies beyond
    # the cap and first fails at term 2, so one representative is scanned to
    # make the reported maximum meaningful.
    if length == 1:
        return [CoefficientVector((3,))]
    return []


def _aggregate(
    length: int, records: list[CensusRow], deep_horizon: int
) -> CensusReport:
    window = max(2 * length - 1, 2)
    counts = _completion_counts(length)
    ranges = coefficient_ranges(length)
    max_ff = 0
    extremal: list[CensusRow] = []
    scanned = 0
    survivors = 0
    for rec in records:
        covered = counts[len(rec.vector)] * _run_width(ranges, rec)
        scanned += covered
        if rec.first_failure is not None:
            if rec.first_failure > window:
                log.error(
                    "conjecture violation: %s first fails at %d (window %d)",
                    list(rec.vector),
                    rec.first_failure,
                    window,
                )
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
        records=tuple(records),
    )


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
        whole = census_rows_to_csv([])
    if not whole.startswith(",".join(RECORDS_CSV_HEADER) + "\n"):
        raise ValueError(
            f"rows file {rows} does not start with the run-record header "
            f"{','.join(RECORDS_CSV_HEADER)!r}; remove it and the checkpoint to rerun"
        )
    records = parse_census_csv(whole)
    if whole != text:
        rows.write_text(whole)
    return records


def first_failure_census(
    length: int,
    deep_horizon: Optional[int] = None,
    *,
    checkpoint_path: Optional[str | Path] = None,
    rows_path: Optional[str | Path] = None,
) -> CensusReport:
    """Report the first failure of every capped vector of the given length.

    Vectors that survive the prefix search are classified.  Those that no
    proof rule proves are scanned past 2L - 1 to deep_horizon, which
    defaults to 4L and may not be set lower.  Raises
    ConjectureViolation if any first failure lands past max(2L - 1, 2);
    that is a discovery to report, not an internal error.  With
    checkpoint_path and rows_path set (one needs the other), each record is
    appended to the rows file as it is found, and a rerun replays the
    records and searches on past them.
    """
    if deep_horizon is None:
        deep_horizon = 4 * length
    if deep_horizon < 4 * length:
        raise ValueError(f"deep_horizon must be >= 4L = {4 * length}")

    ckpt = Path(checkpoint_path) if checkpoint_path is not None else None
    rows_file = Path(rows_path) if rows_path is not None else None
    if (ckpt is None) != (rows_file is None):
        raise ValueError("census rows and checkpoint files must be given together")
    reloaded = _load_checkpoint(length, deep_horizon, ckpt, rows_file) if ckpt else []
    found = _census_records(length, deep_horizon, reloaded)
    records = list(itertools.islice(found, len(reloaded)))
    if rows_file is None:
        records.extend(found)
    else:
        with rows_file.open("a") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for rec in found:
                writer.writerow(_csv_fields(rec))
                records.append(rec)
    n = len(reloaded)
    log.debug("census L=%d: %d records reloaded, %d found", length, n, len(records) - n)

    records.extend(_row_for(cv, deep_horizon) for cv in _supplemental_vectors(length))
    return _aggregate(length, records, deep_horizon)


# --------------------------------------------------------------------------
# Targeted checks


def check_fail_at_2l_minus_1(k: int) -> Optional[int]:
    """First failure index of [1 x k, 0, 4]; expected to be exactly 2k + 3."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cv = CoefficientVector((1,) * k + (0, 4))
    scan = brown_scan(cv, 4 * (k + 2))
    return scan.first_failure


@dataclass(frozen=True)
class AddFrontOnesRow:
    g: int
    max_n: int
    proven_max_n: int


@dataclass(frozen=True)
class AddFrontOnesReport:
    k: int
    g_max: int
    rows: tuple[AddFrontOnesRow, ...]
    violations: tuple[tuple[int, int], ...]  # (g, N) where g+1 lost completeness

    @property
    def holds(self) -> bool:
        return not self.violations


def add_front_ones_scan(k: int, g_max: int, horizon: Optional[int] = None) -> AddFrontOnesReport:
    """Check that prepending a 1 preserves (conjectural) completeness.

    For each g < g_max and each N up to the empirical maximum for the
    prefix (1 x g, 0 x k), any non-Incomplete verdict for [1 x g, 0 x k, N]
    must survive at [1 x (g+1), 0 x k, N].  The non-Incomplete N of a
    prefix are exactly 1..max_n (empirical_max_n raises ConjectureViolation
    when a first failure past the window would break that), so the
    violations are the N in (max_n(g+1), max_n(g)].  They are evidence
    against the front-ones monotonicity conjecture and are reported, not
    raised.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g_max < 2:
        raise ValueError("g_max must be >= 2")
    maxima = {g: empirical_max_n((1,) * g + (0,) * k, horizon) for g in range(1, g_max + 1)}
    rows = tuple(
        AddFrontOnesRow(g, maxima[g].max_n, maxima[g].proven_max_n)
        for g in range(1, g_max + 1)
    )
    violations = tuple(
        (g, n)
        for g in range(1, g_max)
        for n in range(maxima[g + 1].max_n + 1, maxima[g].max_n + 1)
    )
    return AddFrontOnesReport(k, g_max, rows, violations)
