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
Only the prefixes that reach length L with no negative gap are classified.

The census is a list of prefix records.  A record is a CensusRow whose
vector is a prefix p of length <= L; it stands for every completion of p,
all of which share its first failure, verdict and proof.  The search yields
one record per failing prefix and one per classified vector, in
lexicographic order.  Output that lists every vector is written per record:
CensusReport.json_rows() and csv_rows() join the record's fields to the
texts of its completions, built once per prefix length, so no per-vector
object is made and memory is bounded by the largest record.
CensusReport.rows() expands the records to one CensusRow per vector for
callers that inspect rows one by one.

Work is split into shards, one per top-level prefix (c_1, c_2), run
in-process.  A checkpoint, whose first line names L and the deep horizon,
lists the finished shards and the rows file holds their records, so a long
run resumes where it stopped; a torn last line in either file is dropped.
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
from .verdicts import AnalysisConfig, brown_scan, classify
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
    """A prefix record: every completion of `vector` shares the other fields.

    At full length the record is the row of that one vector.
    """

    vector: tuple[int, ...]
    first_failure: Optional[int]
    verdict: str
    proof: str


def _expand(length: int, records: Iterable[CensusRow]) -> Iterator[CensusRow]:
    """One row per completion of each record, in record order."""
    ranges = coefficient_ranges(length)
    for rec in records:
        for suffix in itertools.product(*ranges[len(rec.vector):]):
            yield CensusRow(rec.vector + suffix, rec.first_failure, rec.verdict, rec.proof)


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
    by row_sep.  The suffixes "sep c_{j+1} ... sep c_L" that complete a
    prefix of length j are built once per j, as one "\0"-joined block per
    value of c_{j+1}, and shared by every record of that length; each block
    becomes one piece, so a piece holds at most the rows of one prefix of
    length j + 1.
    """
    ranges = coefficient_ranges(length)
    tables: dict[int, list[str]] = {length: [""]}

    def blocks(j: int) -> list[str]:
        if j not in tables:
            below = "\0".join(blocks(j + 1))
            tables[j] = [
                sep + str(c) + below.replace("\0", "\0" + sep + str(c)) for c in ranges[j]
            ]
        return tables[j]

    first = True
    for rec in records:
        start = head + sep.join(str(c) for c in rec.vector)
        end = tail(rec)
        for block in blocks(len(rec.vector)):
            text = start + block.replace("\0", end + row_sep + start) + end
            yield text if first else row_sep + text
            first = False


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


def _csv_fields(r: CensusRow) -> list:
    return [
        ",".join(str(c) for c in r.vector),
        "" if r.first_failure is None else r.first_failure,
        r.verdict,
        r.proof,
    ]


def census_rows_to_csv(rows: list[CensusRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CENSUS_CSV_HEADER)
    writer.writerows(_csv_fields(r) for r in rows)
    return buf.getvalue()


def parse_census_csv(text: str) -> list[CensusRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CENSUS_CSV_HEADER:
        raise ValueError("unexpected census CSV header")
    rows = []
    for rec in reader:
        vec, ff, verdict, proof = rec
        rows.append(
            CensusRow(
                tuple(int(x) for x in vec.split(",")),
                int(ff) if ff else None,
                verdict,
                proof,
            )
        )
    return rows


def _row_for(cv: CoefficientVector, cfg: AnalysisConfig) -> CensusRow:
    v = classify(cv, cfg)
    proof = v.proof.rule.value if v.proof is not None else ""
    return CensusRow(cv.coefficients, v.first_failure_index, v.status.value, proof)


def _shards(length: int) -> list[tuple[int, ...]]:
    """The top-level prefixes (c_1, c_2), or (c_1,) at L = 1, in order."""
    return list(itertools.product(*coefficient_ranges(length)[:2]))


def _shard_records(length: int, deep_horizon: int, shard: tuple[int, ...]) -> list[CensusRow]:
    """Records covering every completion of `shard`, by prefix-pruned search.

    Expanded, they equal classifying each of those vectors in turn.
    """
    ranges = [range(c, c + 1) for c in shard] + coefficient_ranges(length)[len(shard):]
    cfg = AnalysisConfig(horizon=deep_horizon)
    records: list[CensusRow] = []

    def walk(prefix: tuple[int, ...], terms: list[int], total: int) -> None:
        # terms = [H_1, ..., H_{j+1}] with total their sum; B_1..B_{j+1} >= 0.
        j = len(prefix)
        if j == length:
            records.append(_row_for(CoefficientVector(prefix), cfg))
            return
        # H_{j+2} = base + c_{j+1} * H_1, and B_{j+2} >= 0 iff H_{j+2} <= 1 + total.
        base = sum(c * terms[j - i] for i, c in enumerate(prefix)) + (j + 1 < length)
        for c in ranges[j]:
            term = base + c
            if term <= 1 + total:
                walk(prefix + (c,), terms + [term], total + term)
            else:
                # A record never spans shards: a prefix that fails above the
                # shard's depth is recorded as the shard itself.
                failed = prefix + (c,) if j >= len(shard) else shard
                records.append(CensusRow(failed, j + 2, "incomplete", ""))

    walk((), [1], 1)
    return records


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
    max_ff = 0
    extremal: list[CensusRow] = []
    scanned = 0
    survivors = 0
    for rec in records:
        covered = counts[len(rec.vector)]
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


def _load_checkpoint(
    length: int, deep_horizon: int, ckpt: Path, rows_file: Path
) -> dict[tuple[int, ...], list[CensusRow]]:
    """Records of the shards an earlier run finished, by shard.

    Drops torn last lines and the records of unfinished shards, rewriting a
    file only when that changes it.  Rejects a checkpoint of another census,
    a record outside the enumeration or misstating its prefix's failure,
    and a finished shard whose records do not cover it.
    """
    header = f"census L={length} deep_horizon={deep_horizon}"
    text, whole = _read_whole_lines(ckpt)
    lines = whole.splitlines() or [header]
    if lines[0] != header:
        raise ValueError(f"checkpoint {ckpt} is for {lines[0]!r}, but this run is {header!r}")
    if whole != text or not whole:
        ckpt.write_text("".join(line + "\n" for line in lines))
    shards = _shards(length)
    done: dict[tuple[int, ...], list[CensusRow]] = {}
    for line in lines[1:]:
        shard = tuple(int(c) for c in line.split(","))
        if shard not in shards:
            raise ValueError(f"checkpointed shard {line!r} lies outside this enumeration")
        done[shard] = []

    text, whole = _read_whole_lines(rows_file)
    records = parse_census_csv(whole) if whole else []
    ranges = coefficient_ranges(length)
    depth = len(shards[0])
    for rec in records:
        vec = rec.vector
        if not depth <= len(vec) <= length or any(c not in r for c, r in zip(vec, ranges)):
            raise ValueError(f"record {list(vec)} lies outside the L = {length} enumeration")
        if len(vec) < length:
            # Every completion shares B_1..B_{len(vec)+1}: check them on the first.
            first = vec + tuple(r.start for r in ranges[len(vec):])
            gaps = Sequence(CoefficientVector(first)).gaps(len(vec) + 1)
            fails = next((n for n, gap in enumerate(gaps, 1) if gap < 0), None)
            if (rec.verdict, rec.first_failure) != ("incomplete", fails):
                raise ValueError(f"record {list(vec)} does not fail where it says")
        if vec[:depth] in done:
            done[vec[:depth]].append(rec)
    counts = _completion_counts(length)
    for shard, recs in done.items():
        covered = sum(counts[len(r.vector)] for r in recs)
        if covered != counts[depth]:
            raise ValueError(
                f"checkpointed shard {list(shard)} has records for {covered} "
                f"of its {counts[depth]} vectors"
            )
    kept = [r for shard in shards if shard in done for r in done[shard]]
    if whole != text or not whole or len(kept) != len(records):
        rows_file.write_text(census_rows_to_csv(kept))
    return done


def first_failure_census(
    length: int,
    deep_horizon: Optional[int] = None,
    *,
    checkpoint_path: Optional[str | Path] = None,
    rows_path: Optional[str | Path] = None,
) -> CensusReport:
    """Report the first failure of every capped vector of the given length.

    Vectors that survive the prefix search are classified with a scan to
    deep_horizon, which defaults to 4L and may not be set lower.  Raises
    ConjectureViolation if any first failure lands past max(2L - 1, 2);
    that is a discovery to report, not an internal error.  With
    checkpoint_path and rows_path set (one needs the other), finished
    shards are skipped on rerun and their records reloaded from the rows
    file.
    """
    if deep_horizon is None:
        deep_horizon = 4 * length
    if deep_horizon < 4 * length:
        raise ValueError(f"deep_horizon must be >= 4L = {4 * length}")

    ckpt = Path(checkpoint_path) if checkpoint_path is not None else None
    rows_file = Path(rows_path) if rows_path is not None else None
    if (ckpt is None) != (rows_file is None):
        raise ValueError("census rows and checkpoint files must be given together")
    done: dict[tuple[int, ...], list[CensusRow]] = {}
    if ckpt is not None:
        done = _load_checkpoint(length, deep_horizon, ckpt, rows_file)

    records: list[CensusRow] = []
    for shard in _shards(length):
        if shard in done:
            records.extend(done[shard])
            continue
        found = _shard_records(length, deep_horizon, shard)
        if ckpt is not None:
            with rows_file.open("a") as fh:
                fh.write(census_rows_to_csv(found).split("\n", 1)[1])
            with ckpt.open("a") as fh:
                fh.write(",".join(str(c) for c in shard) + "\n")
        records.extend(found)
        log.debug("census L=%d shard %s done (%d records)", length, list(shard), len(found))

    cfg = AnalysisConfig(horizon=deep_horizon)
    records.extend(_row_for(cv, cfg) for cv in _supplemental_vectors(length))
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


def add_front_ones_scan(
    k: int, g_max: int, config: Optional[AnalysisConfig] = None
) -> AddFrontOnesReport:
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
    cfg = config or AnalysisConfig()
    maxima = {g: empirical_max_n((1,) * g + (0,) * k, cfg) for g in range(1, g_max + 1)}
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
