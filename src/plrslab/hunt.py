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
computes one new term per node; once B_{j+1} < 0, that value of c_j and
every larger one first fail at term j + 1, whatever follows, and their rows
are emitted without a scan.  Only the prefixes that reach length L with
no negative gap are classified in full.

Work is split into contiguous shards of the lexicographic enumeration and
run in-process; rows concatenate in enumeration order and the report is a
pure max/merge over them.  A plain-text checkpoint (one completed shard id
per line) plus the incrementally written rows file make long runs
resumable.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from .errors import ConjectureViolation
from .seqcore import CoefficientVector, Sequence
from .verdicts import AnalysisConfig, brown_scan, classify
from . import families
from .families import empirical_max_n

log = logging.getLogger(__name__)

DEFAULT_SHARD_SIZE = 256


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
    return math.prod(len(r) for r in coefficient_ranges(length))


def enumerate_vectors(length: int) -> Iterator[CoefficientVector]:
    """All capped vectors of the given length, in lexicographic order."""
    for coeffs in itertools.product(*coefficient_ranges(length)):
        yield CoefficientVector(coeffs)


def vector_at(length: int, index: int) -> CoefficientVector:
    """Mixed-radix decode of an enumeration index (0-based, lexicographic)."""
    ranges = coefficient_ranges(length)
    sizes = [len(r) for r in ranges]
    total = math.prod(sizes)
    if not 0 <= index < total:
        raise IndexError(f"index {index} outside [0, {total})")
    coeffs = []
    rem = index
    stride = total
    for pos in range(length):
        stride //= sizes[pos]
        q, rem = divmod(rem, stride)
        coeffs.append(ranges[pos][q])
    return CoefficientVector(tuple(coeffs))


def index_of(vector: CoefficientVector | tuple[int, ...]) -> int:
    """Inverse of vector_at for vectors inside the capped enumeration."""
    coeffs = tuple(vector) if not isinstance(vector, CoefficientVector) else vector.coefficients
    return _rank(coeffs, coefficient_ranges(len(coeffs)))


def _rank(coeffs: tuple[int, ...], ranges: list[range]) -> int:
    idx = 0
    for pos, (c, r) in enumerate(zip(coeffs, ranges)):
        if c not in r:
            raise ValueError(f"coefficient {c} at position {pos + 1} outside the cap")
        idx = idx * len(r) + (c - r.start)
    return idx


# --------------------------------------------------------------------------
# Census


@dataclass(frozen=True, slots=True)
class CensusRow:
    vector: tuple[int, ...]
    first_failure: Optional[int]
    verdict: str
    proof: str


@dataclass(frozen=True)
class CensusReport:
    length: int
    max_first_failure: int
    extremal_vectors: tuple[tuple[int, ...], ...]
    vectors_scanned: int
    equality_window_vectors: int
    deep_horizon: int
    notes: tuple[str, ...]
    rows: tuple[CensusRow, ...]

    def to_json(self) -> dict:
        return {
            "L": self.length,
            "max_first_failure": self.max_first_failure,
            "extremal_vectors": [list(v) for v in self.extremal_vectors],
            "vectors_scanned": self.vectors_scanned,
            "equality_window_vectors": self.equality_window_vectors,
            "deep_horizon": self.deep_horizon,
            "notes": list(self.notes),
            "rows": [
                {
                    "vector": list(r.vector),
                    "first_failure": r.first_failure,
                    "verdict": r.verdict,
                    "proof_tag": r.proof,
                }
                for r in self.rows
            ],
        }


CENSUS_CSV_HEADER = ["vector", "first_failure", "verdict", "proof_tag"]


def census_rows_to_csv(rows: list[CensusRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CENSUS_CSV_HEADER)
    for r in rows:
        writer.writerow(
            [
                ",".join(str(c) for c in r.vector),
                "" if r.first_failure is None else r.first_failure,
                r.verdict,
                r.proof,
            ]
        )
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


def _failed_rows(
    rows: list[CensusRow],
    ranges: list[range],
    sizes: list[int],
    prefix: tuple[int, ...],
    first: int,
    start: int,
    stop: int,
    failure: int,
) -> None:
    """Append an incomplete row, first failing at `failure`, for every
    completion of `prefix` whose enumeration index lies in [start, stop).

    `first` is the index of the prefix's first completion, and sizes[j] is
    the number of completions of a prefix of length j.
    """
    j = len(prefix)
    if start <= first and first + sizes[j] <= stop:
        for suffix in itertools.product(*ranges[j:]):
            rows.append(CensusRow(prefix + suffix, failure, "incomplete", ""))
        return
    width = sizes[j + 1]
    lo = max(0, (start - first) // width)
    hi = min(len(ranges[j]), -(-(stop - first) // width))
    for q in range(lo, hi):
        _failed_rows(
            rows, ranges, sizes, prefix + (ranges[j][q],), first + q * width, start, stop, failure
        )


def _census_block(length: int, deep_horizon: int, start: int, stop: int) -> list[CensusRow]:
    """Rows for enumeration indices [start, stop), by prefix-pruned search.

    Equal, row for row, to classifying each vector_at(length, i) in turn.
    """
    ranges = coefficient_ranges(length)
    sizes = [1] * (length + 1)
    for j in range(length - 1, -1, -1):
        sizes[j] = sizes[j + 1] * len(ranges[j])
    cfg = AnalysisConfig(horizon=deep_horizon)
    rows: list[CensusRow] = []

    def walk(prefix: tuple[int, ...], first: int, terms: list[int], total: int) -> None:
        # terms = [H_1, ..., H_{j+1}] with total their sum; B_1..B_{j+1} >= 0.
        j = len(prefix)
        if j == length:
            rows.append(_row_for(CoefficientVector(prefix), cfg))
            return
        # H_{j+2} = base + c_{j+1} * H_1, and B_{j+2} >= 0 iff c_{j+1} <= limit.
        base = sum(c * terms[j - i] for i, c in enumerate(prefix)) + (j + 1 < length)
        limit = 1 + total - base
        r = ranges[j]
        width = sizes[j + 1]
        lo = max(0, (start - first) // width)
        hi = min(len(r), -(-(stop - first) // width))
        cut = min(max(lo, limit + 1 - r.start), hi)
        for q in range(lo, cut):
            term = base + r[q]
            walk(prefix + (r[q],), first + q * width, terms + [term], total + term)
        if cut < hi:
            _failed_rows(
                rows, ranges, sizes, prefix, first, max(start, first + cut * width), stop, j + 2
            )

    walk((), 0, [1], 1)
    return rows


def _reverify_first_failure(vector: tuple[int, ...], expected: int) -> None:
    # Second pass over a fresh memo, summing the prefix directly instead of
    # using the cached cumulative sums.
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
    length: int, rows: list[CensusRow], deep_horizon: int
) -> CensusReport:
    window = max(2 * length - 1, 2)
    max_ff = 0
    extremal: list[tuple[int, ...]] = []
    survivors = 0
    for row in rows:
        if row.first_failure is not None:
            if row.first_failure > window:
                log.error(
                    "conjecture violation: %s first fails at %d (window %d)",
                    list(row.vector),
                    row.first_failure,
                    window,
                )
                raise ConjectureViolation(row.vector, row.first_failure)
            if row.first_failure > max_ff:
                max_ff = row.first_failure
                extremal = [row.vector]
            elif row.first_failure == max_ff:
                extremal.append(row.vector)
        elif row.verdict == "conjecturally_complete":
            survivors += 1
    for vec in extremal:
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
        extremal_vectors=tuple(extremal),
        vectors_scanned=len(rows),
        equality_window_vectors=survivors,
        deep_horizon=deep_horizon,
        notes=notes,
        rows=tuple(rows),
    )


def first_failure_census(
    length: int,
    deep_horizon: Optional[int] = None,
    *,
    jobs: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    checkpoint_path: Optional[str | Path] = None,
    rows_path: Optional[str | Path] = None,
) -> CensusReport:
    """Report the first failure of every capped vector of the given length.

    Vectors that survive the prefix search are classified with a scan to
    deep_horizon, which defaults to 4L and may not be set lower.  Raises
    ConjectureViolation if any first failure lands past max(2L - 1, 2);
    that is a discovery to report, not an internal error.  With
    checkpoint_path (and rows_path) set, completed shards are skipped on
    rerun and their rows reloaded from the rows file.  Shards run
    in-process; jobs is accepted for compatibility and has no effect.
    """
    if deep_horizon is None:
        deep_horizon = 4 * length
    if deep_horizon < 4 * length:
        raise ValueError(f"deep_horizon must be >= 4L = {4 * length}")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")

    total = enumeration_size(length)
    shard_count = -(-total // shard_size)
    shards = [
        (s, min(s * shard_size, total), min((s + 1) * shard_size, total))
        for s in range(shard_count)
    ]

    done_ids: set[int] = set()
    saved_rows: dict[int, list[CensusRow]] = {}
    ckpt = Path(checkpoint_path) if checkpoint_path is not None else None
    rows_file = Path(rows_path) if rows_path is not None else None
    if ckpt is not None:
        if rows_file is None:
            raise ValueError("rows_path is required when checkpointing")
        if ckpt.exists():
            done_ids = {int(line) for line in ckpt.read_text().split() if line.strip()}
        parsed = 0
        if rows_file.exists():
            ranges = coefficient_ranges(length)
            for row in parse_census_csv(rows_file.read_text()):
                if len(row.vector) != length:
                    raise ValueError(f"row {list(row.vector)} does not have length {length}")
                saved_rows.setdefault(_rank(row.vector, ranges) // shard_size, []).append(row)
                parsed += 1
        # Sanity: every checkpointed shard must be fully present (shard_size
        # must match the interrupted run); drop rows of unfinished shards.
        for shard_id in sorted(done_ids):
            if shard_id >= shard_count:
                raise ValueError(f"checkpointed shard {shard_id} outside this enumeration")
            _, start, stop = shards[shard_id]
            got = len(saved_rows.get(shard_id, []))
            if got != stop - start:
                raise ValueError(
                    f"checkpointed shard {shard_id} has {got} rows, expected {stop - start}"
                )
        saved_rows = {s: saved_rows[s] for s in done_ids}
        kept = [r for s in sorted(done_ids) for r in saved_rows[s]]
        if len(kept) != parsed:
            rows_file.write_text(census_rows_to_csv(kept))

    pending = [sh for sh in shards if sh[0] not in done_ids]
    results: dict[int, list[CensusRow]] = {s: saved_rows[s] for s in done_ids}

    def record(shard_id: int, rows: list[CensusRow]) -> None:
        results[shard_id] = rows
        if ckpt is not None:
            assert rows_file is not None
            new_file = not rows_file.exists()
            with rows_file.open("a") as fh:
                text = census_rows_to_csv(rows)
                fh.write(text if new_file else text.split("\n", 1)[1])
            with ckpt.open("a") as fh:
                fh.write(f"{shard_id}\n")

    for shard_id, start, stop in pending:
        rows = _census_block(length, deep_horizon, start, stop)
        record(shard_id, rows)
        log.debug("census L=%d shard %d done (%d rows)", length, shard_id, len(rows))

    ordered: list[CensusRow] = []
    for shard_id in range(shard_count):
        ordered.extend(results[shard_id])
    cfg = AnalysisConfig(horizon=deep_horizon)
    for cv in _supplemental_vectors(length):
        ordered.append(_row_for(cv, cfg))
    return _aggregate(length, ordered, deep_horizon)


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
    must survive at [1 x (g+1), 0 x k, N].  Violations are evidence against
    the front-ones monotonicity conjecture and are reported, not raised.
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
    violations: list[tuple[int, int]] = []
    for g in range(1, g_max):
        for n in range(1, maxima[g].max_n + 1):
            base = classify(families.FamilySpec(g, k, n).to_vector(), cfg)
            if base.is_incomplete:
                continue
            lifted = classify(families.FamilySpec(g + 1, k, n).to_vector(), cfg)
            if lifted.is_incomplete:
                violations.append((g, n))
    return AddFrontOnesReport(k, g_max, rows, tuple(violations))
