"""The benchmark's workloads: seeded inputs, CLI calls, and output checks.

Each workload turns a seed into one *pass*: a list of ``plrslab`` command
lines, each paired with a check.  Checks test invariants the CLI contract
fixes (exit codes, counts, re-summed digits, witnesses recomputed by the
plain recurrence in ``reference``), never which proof rule fired, so a sound
new rule does not fail them.  A census or figure output is checked in full
the first time a command line is seen; later outputs of the same command
line must be byte-identical to it, as the contract promises.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from plrslab import cli, seqcore

import reference

Check = Callable[[int, str], Optional[str]]  # (exit code, stdout) -> error or None


@dataclass(frozen=True)
class Call:
    kind: str
    argv: list[str]
    check: Check


# Held here because a traced pass rebinds seqcore.sequence_for to a wrapper.
# The memo may be removed from the program; both helpers then do nothing.
_SEQUENCE_FOR = getattr(seqcore, "sequence_for", None)


def reset_memo() -> None:
    """Start the next call from a fresh process's state: empty term memo."""
    clear = getattr(_SEQUENCE_FOR, "cache_clear", None)
    if clear is not None:
        clear()


def memo_entries() -> int:
    info = getattr(_SEQUENCE_FOR, "cache_info", None)
    return info().currsize if info is not None else 0


def invoke(argv: list[str]) -> tuple[int, str, float]:
    """Run ``plrslab argv`` in-process; return exit code, stdout and seconds."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


class _FirstThenIdentical:
    """Full check on a command line's first output, byte identity after that."""

    def __init__(self, full_check: Callable[[str], Optional[str]]) -> None:
        self.full_check = full_check
        self.digests: dict[str, bytes] = {}

    def check(self, key: str, code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        digest = hashlib.sha256(out.encode()).digest()
        if key in self.digests:
            if digest != self.digests[key]:
                return "stdout differs from the first run of the same command"
            return None
        error = self.full_check(out)
        if error is None:
            self.digests[key] = digest
        return error

    def for_key(self, key: str) -> Check:
        return lambda code, out: self.check(key, code, out)


# --------------------------------------------------------------------------
# Census at L = 5


CENSUS_L = 5
CENSUS_ARGV = ["census", "--L", str(CENSUS_L), "--deep", "--format", "json"]
CENSUS_HORIZON = 4 * CENSUS_L  # the default deep horizon
CENSUS_VECTORS = 48_960
CENSUS_MAX_FIRST_FAILURE = 9
CENSUS_EXTREMAL = [[1, 1, 1, 0, 4]]
CENSUS_INCOMPLETE = 48_871
CENSUS_SAMPLE = 64


def _capped_vectors(length: int) -> set[tuple[int, ...]]:
    # c_1 in {1, 2}, c_i <= 2^i, c_L >= 1: the census enumeration.
    ranges = [range(1, 3)] + [range(0, 2**i + 1) for i in range(2, length)]
    ranges.append(range(1, 2**length + 1))
    return set(itertools.product(*ranges))


def _census_checker(seed: int) -> Callable[[str], Optional[str]]:
    rng = random.Random(seed)

    def check(out: str) -> Optional[str]:
        results = json.loads(out)["results"]
        rows = results["rows"]
        if results["vectors_scanned"] != CENSUS_VECTORS or len(rows) != CENSUS_VECTORS:
            return f"scanned {results['vectors_scanned']} vectors, {len(rows)} rows"
        if results["max_first_failure"] != CENSUS_MAX_FIRST_FAILURE:
            return f"max first failure {results['max_first_failure']}"
        if results["extremal_vectors"] != CENSUS_EXTREMAL:
            return f"extremal vectors {results['extremal_vectors']}"
        if {tuple(r["vector"]) for r in rows} != _capped_vectors(CENSUS_L):
            return "rows do not cover the capped enumeration"
        incomplete = [r for r in rows if r["verdict"] == "incomplete"]
        if len(incomplete) != CENSUS_INCOMPLETE:
            return f"{len(incomplete)} incomplete rows"
        if any((r["first_failure"] is None) != (r["verdict"] != "incomplete") for r in rows):
            return "a row's first failure disagrees with its verdict"
        others = [r for r in rows if r["verdict"] != "incomplete"]
        sample = rng.sample(incomplete, CENSUS_SAMPLE) + rng.sample(others, CENSUS_SAMPLE // 4)
        for row in sample:
            found = reference.first_failure(tuple(row["vector"]), CENSUS_HORIZON)
            expected = found[0] if found else None
            if row["first_failure"] != expected:
                return f"{row['vector']} first fails at {expected}, row says {row['first_failure']}"
        return None

    return check


def _fresh_dir(work_dir: Path, prefix: str) -> Path:
    work_dir.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=work_dir))


def _checkpointed_argv(directory: Path, jobs: int) -> list[str]:
    return CENSUS_ARGV + [
        "--jobs", str(jobs),
        "--checkpoint", str(directory / "census.ckpt"),
        "--rows", str(directory / "census.rows.csv"),
    ]


class Workload:
    """One pass of calls; ``traced`` asks for the single-process variant."""

    name: str
    item: str  # what the throughput counts
    jobs = 1  # pool workers a call may run beside the calling process

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def calls(self, traced: bool = False) -> list[Call]:
        raise NotImplementedError

    def items(self, calls: list[Call]) -> int:
        return len(calls)

    def close(self) -> None:
        pass


class Census(Workload):
    """The L = 5 census three ways, each call reporting all 48,960 vectors.

    A pass runs the census at --jobs 2 writing a checkpoint and rows file
    into an empty directory, then the identical command rerun against that
    finished checkpoint (rows parse, merge and report with no
    classification), then the plain single-process census (--jobs 1).  Only
    the first call reaches the process pool and the rows writes, only the
    second the resume.  The plain census comes last so that the pool
    workers fork from a parent that has not yet grown to its size.
    """

    name = "census"
    item = "vectors"
    jobs = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.checker = _FirstThenIdentical(_census_checker(seed))
        self.current: Optional[Path] = None

    def calls(self, traced: bool = False) -> list[Call]:
        self.close()
        self.current = _fresh_dir(self.work_dir, "ckpt-")
        # Pool workers record no spans, so a traced pass runs the write
        # single-process; that repeats the plain census, which it then skips.
        jobs = 1 if traced else self.jobs
        argv = _checkpointed_argv(self.current, jobs)
        calls = [
            Call("census-write", argv, self.checker.for_key(f"write-{jobs}")),
            Call("census-resume", argv, self.checker.for_key(f"resume-{jobs}")),
        ]
        if not traced:
            calls.append(Call("census", CENSUS_ARGV + ["--jobs", "1"],
                              self.checker.for_key("plain")))
        return calls

    def items(self, calls: list[Call]) -> int:
        return CENSUS_VECTORS * len(calls)

    def close(self) -> None:
        if self.current is not None:
            shutil.rmtree(self.current, ignore_errors=True)
            self.current = None


# --------------------------------------------------------------------------
# Figure sweep


SWEEP_SPAN = 24


class Sweep(Workload):
    """The k, g in 1..24 figure, one call per row of k.

    Rows run from 15 to 450 ms, so the latency percentiles spread over
    calls of different sizes rather than over one call.
    """

    name = "sweep"
    item = "cells"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.rows = []
        for k in range(1, SWEEP_SPAN + 1):
            argv = ["figure", "--k-range", f"{k}:{k}", "--g-range", f"1:{SWEEP_SPAN}",
                    "--format", "json", "--jobs", "1"]
            checker = _FirstThenIdentical(lambda out, k=k: self._row_check(k, out))
            self.rows.append(Call("figure", argv, checker.for_key("row")))

    def calls(self, traced: bool = False) -> list[Call]:
        return self.rows

    def items(self, calls: list[Call]) -> int:
        return SWEEP_SPAN * len(calls)

    @staticmethod
    def _row_check(k: int, out: str) -> Optional[str]:
        rows = json.loads(out)["results"]["rows"]
        cells = {r["g"]: r for r in rows}
        if len(rows) != SWEEP_SPAN or set(cells) != set(range(1, SWEEP_SPAN + 1)):
            return f"k={k}: {len(rows)} cells do not cover g in 1..{SWEEP_SPAN}"
        for g, r in cells.items():
            if r["k"] != k:
                return f"row k={k} holds a cell of k={r['k']}"
            closed = reference.family_bound(g, k) if g >= k else None
            if r["closed_form_max_n"] != closed:
                return f"k={k} g={g}: closed form {r['closed_form_max_n']}, expected {closed}"
            if closed is not None and r["empirical_max_n"] != closed:
                return f"k={k} g={g}: empirical {r['empirical_max_n']} != closed form {closed}"
        return None


# --------------------------------------------------------------------------
# Digit and witness operations


DIGITS_LEGAL = 80
DIGITS_DISTINCT = 60


def _vector_arg(coeffs: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in coeffs)


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count values spread evenly over [lo, hi], jittered, in ascending order."""
    width = (hi - lo) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def _by_rank(sizes: list[int], generators: tuple) -> list[tuple]:
    """Pair the i-th smallest size with generator i mod len(generators).

    Every seed then gives each generator the same spread of sizes, and the
    largest sizes the same generators, so the slowest calls and the memory
    peak of a pass, which those set, do not depend on the draw.
    """
    return [(generators[i % len(generators)], size) for i, size in enumerate(sizes)]


# Lengths 2-7; c_1 >= 2 keeps the growth rate at least 2.
LEGAL_GENERATORS = (
    (2, 1), (3, 2), (2, 0, 3), (3, 1, 1), (2, 2, 0, 1), (2, 0, 1, 0, 3),
    (3, 0, 0, 2, 0, 1), (2, 1, 3, 0, 0, 0, 2),
)

# Complete generators: all ones then a 1 or 2 ([1] alone is left out, its
# answer is N ones), so every N has a distinct-terms sum.
DISTINCT_GENERATORS = ((2,),) + tuple(
    (1,) * (length - 1) + (last,) for length in range(2, 7) for last in (1, 2)
)


def _legal_call(rng: random.Random, coeffs: tuple[int, ...], bits: int) -> Call:
    # Targets of 256-4096 bits: the greedy automaton and big-integer terms.
    n = rng.getrandbits(bits) | (1 << (bits - 1))

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        legal = json.loads(out)["results"]["legal"]
        if legal is None:
            return f"no legal decomposition of a {bits}-bit N under {list(coeffs)}"
        digits = legal["digits"]
        if not digits or digits[0] <= 0 or min(digits) < 0 or legal["legal"] is not True:
            return f"malformed digit string under {list(coeffs)}"
        h = reference.prefix(coeffs, len(digits))
        m = len(digits)
        if sum(d * h[m - 1 - i] for i, d in enumerate(digits)) != n:
            return f"legal digits under {list(coeffs)} do not re-sum to N"
        return None

    argv = ["decompose", _vector_arg(coeffs), str(n), "--mode", "legal", "--format", "json"]
    return Call("legal", argv, check)


def _distinct_call(coeffs: tuple[int, ...], n: int) -> Call:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        found = json.loads(out)["results"]["distinct"]
        if found is None:
            return f"no distinct decomposition of {n} under complete {list(coeffs)}"
        idx = found["indices"]
        if not idx or idx[0] < 1 or any(a >= b for a, b in zip(idx, idx[1:])):
            return f"indices {idx} are not distinct and increasing"
        h = reference.prefix(coeffs, idx[-1])
        if [h[i - 1] for i in idx] != found["terms"] or sum(found["terms"]) != n:
            return f"distinct terms under {list(coeffs)} do not sum to {n}"
        return None

    argv = ["decompose", _vector_arg(coeffs), str(n), "--mode", "distinct",
            "--oracle-cap", str(n), "--format", "json"]
    return Call("distinct", argv, check)


def _analyze_pool() -> list[tuple[tuple[int, ...], int, int]]:
    """[1 x g, 0 x k, N] just above the family bound, witness in [1e4, 1e6]."""
    pool = []
    for g in range(1, 14):
        for k in range(1, 14):
            bound = reference.family_bound(g, k)
            if bound is None:
                continue
            for above in (1, 2, 3):
                coeffs = (1,) * g + (0,) * k + (bound + above,)
                found = reference.first_failure(coeffs, 64 * len(coeffs))
                if found is not None and 10**4 <= found[1] <= 10**6:
                    pool.append((coeffs, found[0], found[1]))
    return pool


def _analyze_call(coeffs: tuple[int, ...], fail_at: int, witness: int) -> Call:
    def check(code: int, out: str) -> Optional[str]:
        if code != 3:
            return f"{list(coeffs)}: exit code {code}, expected 3 (incomplete)"
        res = json.loads(out)["results"]
        if res["verdict"] != "incomplete" or res["witness_verified"] is not True:
            return f"{list(coeffs)}: verdict {res['verdict']}, verified {res['witness_verified']}"
        if (res["first_failure"], res["witness"]) != (fail_at, witness):
            return (f"{list(coeffs)}: failure {res['first_failure']} witness {res['witness']}, "
                    f"expected {fail_at} and {witness}")
        return None

    return Call("analyze", ["analyze", _vector_arg(coeffs), "--format", "json"], check)


class Digits(Workload):
    name = "digits"
    item = "ops"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        pool = _analyze_pool()
        legal = _by_rank(_stratified(rng, 256, 4096, DIGITS_LEGAL), LEGAL_GENERATORS)
        ops = [_legal_call(rng, coeffs, bits) for coeffs, bits in legal]
        distinct = _stratified(rng, 10**6, 4 * 10**6, DIGITS_DISTINCT)
        ops += [_distinct_call(*pair) for pair in _by_rank(distinct, DISTINCT_GENERATORS)]
        ops += [_analyze_call(*entry) for entry in pool]
        rng.shuffle(ops)
        self.ops = ops

    def calls(self, traced: bool = False) -> list[Call]:
        return self.ops


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Census, Sweep, Digits)
}
