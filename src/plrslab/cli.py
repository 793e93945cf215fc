"""Command-line front end.

Every command emits exactly one JSON envelope in json mode, a header plus
data rows in csv mode, or plain lines in text mode (the default).  Results
go to stdout only; diagnostics go to stderr, so pipelines stay clean.

Exit codes: 0 success / Complete, 2 invalid arguments or vector,
3 Incomplete, 4 ConjecturallyComplete, 5 cap exceeded, 6 a first failure
past the max(2L - 1, 2) window (a conjecture violation) found by any command.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import sys
from dataclasses import astuple
from typing import Iterable, Optional

from . import __version__, families, hunt, zeck
from .errors import (
    CapExceededError,
    CapTooLargeError,
    ConjectureViolation,
    NoLegalDecompositionError,
    OutOfRangeError,
    PLRSError,
)
from .seqcore import STR_MAX_BITS, CoefficientVector, term_texts, terms_prefix
from .verdicts import (
    BITMAP_BUDGET_BITS,
    DEFAULT_ORACLE_CAP,
    VerdictStatus,
    brown_scan,
    classify,
    effective_horizon,
    is_complete_up_to,
    verdict_to_json,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCOMPLETE = 3
EXIT_CONJECTURAL = 4
EXIT_CAP = 5
EXIT_VIOLATION = 6

#: Most rows census --format json|csv prints: L = 7 has 420,076,800, L = 8 1.08e11.
CENSUS_ROW_BUDGET = 2**30

_STATUS_EXIT = {
    VerdictStatus.COMPLETE: EXIT_OK,
    VerdictStatus.INCOMPLETE: EXIT_INCOMPLETE,
    VerdictStatus.CONJECTURALLY_COMPLETE: EXIT_CONJECTURAL,
}


def _envelope(command: str, inputs: dict, results) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "tool_version": __version__,
    }


def _print_json(envelope: dict, *slots: tuple[str, Iterable[str]]) -> None:
    """Write the envelope as one JSON line.  Each (marker, pieces) slot's pieces
    go right after the marker's next occurrence, so no large value is one string."""
    text = json.dumps(envelope, ensure_ascii=False)
    for marker, pieces in slots:
        head, _, text = text.partition(marker)
        sys.stdout.write(head + marker)
        sys.stdout.writelines(pieces)
    sys.stdout.write(text + "\n")


def _print_csv(header: list[str], rows: Iterable[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _emit(args, envelope: dict, text_lines: list[str], csv_table=None, slots=()) -> None:
    if args.format == "json":
        _print_json(envelope, *slots)
    elif args.format == "csv":
        _print_csv(*csv_table)
    else:
        for line in text_lines:
            print(line)


def _parse_span(text: str) -> list[int]:
    """Parse "2" or "1:4" (inclusive) into a list of ints."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [int(text)]


def _check_prefix_size(cv: CoefficientVector, n: int) -> None:
    """Refuse n terms whose size could pass the bitmap memory budget.

    With s = sum(c_i), H_k <= (s + 1)^L * s^k, so the n terms take at most
    about n^2 / 2 * log2(s) + n * L * log2(s + 1) bits.
    """
    s = sum(cv)
    bits = n * (n + 1) / 2 * math.log2(s) + n * (len(cv) * math.log2(s + 1) + 1)
    if bits > BITMAP_BUDGET_BITS:
        raise CapExceededError(
            f"{n} terms of {list(cv)} may need {bits:.3g} bits, "
            f"over the {BITMAP_BUDGET_BITS}-bit budget"
        )


# --------------------------------------------------------------------------
# Commands


def cmd_gen(args) -> int:
    cv = CoefficientVector.parse(args.vector)
    if args.count < 1:
        raise OutOfRangeError("--count must be >= 1")
    _check_prefix_size(cv, args.count)
    terms = terms_prefix(cv, args.count)
    envelope = _envelope(
        "gen",
        {"vector": list(cv), "count": args.count},
        {"terms": terms},
    )
    csv_table = (["n", "term"], [[i + 1, t] for i, t in enumerate(terms)])
    text = [" ".join(str(t) for t in terms)] if args.format == "text" else []
    _emit(args, envelope, text, csv_table)
    return EXIT_OK


def cmd_analyze(args) -> int:
    cv = CoefficientVector.parse(args.vector)
    if args.oracle_cap < 1:
        raise OutOfRangeError("--oracle-cap must be >= 1")
    horizon = effective_horizon(len(cv), args.horizon)
    _check_prefix_size(cv, horizon)
    verdict = classify(cv, args.horizon)
    gaps = brown_scan(cv, horizon).gaps
    payload = verdict_to_json(cv, verdict, gaps)
    payload["witness_verified"] = None
    if verdict.is_incomplete and verdict.witness is not None:
        if verdict.witness <= args.oracle_cap:
            ok, missing = is_complete_up_to(cv, verdict.witness)
            payload["witness_verified"] = (not ok) and missing == verdict.witness
    lines = [
        f"vector: {list(cv)}",
        f"verdict: {verdict.status.value}",
    ]
    if verdict.proof is not None:
        lines.append(f"proof: {verdict.proof.rule.value} {verdict.proof.params}")
    if verdict.is_incomplete:
        lines.append(f"first failure: {verdict.first_failure_index}")
        lines.append(f"witness: {verdict.witness}")
        if payload["witness_verified"] is not None:
            lines.append(f"witness verified: {payload['witness_verified']}")
    if verdict.is_conjectural:
        lines.append(f"scanned horizon: {verdict.horizon}")
    if args.format == "text":
        lines.append("gaps: " + " ".join(str(g) for g in gaps))
    envelope = _envelope(
        "analyze",
        {"vector": list(cv), "horizon": args.horizon, "oracle_cap": args.oracle_cap},
        payload,
    )
    csv_table = (["n", "gap"], [[i + 1, g] for i, g in enumerate(gaps)])
    _emit(args, envelope, lines, csv_table)
    return _STATUS_EXIT[verdict.status]


def cmd_decompose(args) -> int:
    cv = CoefficientVector.parse(args.vector)
    if args.n < 0:
        raise OutOfRangeError("N must be >= 0")
    if args.mode in ("distinct", "both"):
        if args.oracle_cap < 1:
            raise OutOfRangeError("--oracle-cap must be >= 1")
        if args.n:
            # Refuse before any legal work: the distinct part would refuse anyway.
            zeck.check_distinct_cap(args.n, args.oracle_cap)
    results: dict = {"N": args.n}
    lines: list[str] = []
    slots: list = []
    if args.mode in ("legal", "both"):
        try:
            digits = zeck.legal_decompose(cv, args.n)
        except NoLegalDecompositionError:
            results["legal"] = None
            lines.append("legal: none")
        else:
            # legal_decompose has checked that the digits sum to N.
            if args.format == "json":
                # Each term turns into decimal once, for "terms" and "rendered".
                texts = term_texts(cv, len(digits))[::-1]
                results["legal"] = {"N": args.n, "digits": list(digits), "terms": [],
                                    "legal": zeck.is_legal(cv, digits), "rendered": ""}
                slots = [('"terms": [', (f", {t}" if i else t for i, t in enumerate(texts))),
                         ('"rendered": "', zeck.render_pieces(args.n, digits, texts))]
            elif args.n:
                # Past the cut str() takes time quadratic in a term's digits; below
                # it render_pieces calls str() on the terms under nonzero digits only.
                big = args.n.bit_length() > STR_MAX_BITS
                terms = (term_texts if big else terms_prefix)(cv, len(digits))[::-1]
                lines.append("legal: " + "".join(zeck.render_pieces(args.n, digits, terms)))
            else:
                lines.append("legal: empty")
    if args.mode in ("distinct", "both"):
        if args.n == 0:
            results["distinct"] = {"indices": [], "terms": []}
            lines.append("distinct: empty")
        else:
            dd = zeck.distinct_decompose(cv, args.n, cap=args.oracle_cap)
            if dd is None:
                results["distinct"] = None
                lines.append("distinct: none")
            else:
                results["distinct"] = {"indices": list(dd.indices), "terms": list(dd.terms)}
                rhs = " + ".join(str(t) for t in reversed(dd.terms))
                lines.append(f"distinct: {args.n} = {rhs}")
    envelope = _envelope(
        "decompose",
        {"vector": list(cv), "N": args.n, "mode": args.mode},
        results,
    )
    _emit(args, envelope, lines, slots=slots)
    return EXIT_OK


def cmd_bound(args) -> int:
    chosen = [name for name in ("single_one", "double_one", "g_ones", "shift") if getattr(args, name)]
    if len(chosen) != 1:
        raise OutOfRangeError("choose exactly one of --single-one/--double-one/--g-ones/--shift")
    kind = chosen[0]
    inputs: dict = {"family": kind}
    vector = None
    if kind == "single_one":
        if args.k is None:
            raise OutOfRangeError("--single-one requires --k")
        bound = families.max_n_single_one(args.k)
        inputs["k"] = args.k
    elif kind == "double_one":
        if args.k is None:
            raise OutOfRangeError("--double-one requires --k")
        bound = families.max_n_double_one(args.k)
        inputs["k"] = args.k
    elif kind == "g_ones":
        if args.k is None or args.g is None:
            raise OutOfRangeError("--g-ones requires --g and --k")
        bound = families.max_n_g_ones(args.g, args.k)
        inputs.update({"g": args.g, "k": args.k})
        if bound is None:
            envelope = _envelope("bound", inputs, {"max_n": None, "rule": None, "exact": None})
            _emit(args, envelope, ["no closed form for g < k"])
            return EXIT_OK
    else:
        if args.length is None or args.i is None:
            raise OutOfRangeError("--shift requires --L and --i")
        bound = families.corollary_shift_bound(args.length, args.i)
        vector = families.shifted_one_vector(args.length, args.i, bound.max_n)
        inputs.update({"L": args.length, "i": args.i})
    results = {"max_n": bound.max_n, "rule": bound.rule, "exact": bound.exact}
    lines = [str(bound.max_n)]
    if vector is not None:
        results["vector"] = list(vector)
        lines.append(f"vector: {list(vector)}")
    envelope = _envelope("bound", inputs, results)
    _emit(args, envelope, lines)
    return EXIT_OK


def cmd_maxn(args) -> int:
    prefix = [int(p) for p in args.prefix.split(",")]
    horizon = effective_horizon(len(prefix) + 1, args.horizon)
    # H_{L+1} >= N gives B_{L+1} <= 1 + H_1 + ... + H_L - N, and H_1..H_L do
    # not depend on N: no larger N passes the window, so none is classified.
    head = CoefficientVector(prefix + [1])
    n_top = 1 + head.sequence.partial_sum(len(head))
    _check_prefix_size(CoefficientVector(prefix + [n_top]), horizon)
    emp = families.empirical_max_n(prefix, args.horizon)
    results = {
        "prefix": prefix,
        "max_n": emp.max_n,
        "proven_max_n": emp.proven_max_n,
        "proof": emp.proof.rule.value if emp.proof else None,
    }
    envelope = _envelope("maxn", {"prefix": prefix, "horizon": args.horizon}, results)
    lines = [str(emp.max_n)]
    if emp.proven_max_n != emp.max_n:
        lines.append(f"proven only up to {emp.proven_max_n}")
    _emit(args, envelope, lines)
    return EXIT_OK


def cmd_census(args) -> int:
    if args.length >= 5 and not args.deep:
        raise OutOfRangeError(f"census at L = {args.length} needs --deep (large enumeration)")
    if args.format != "text" and (rows := hunt.enumeration_size(args.length)) > CENSUS_ROW_BUDGET:
        raise CapExceededError(
            f"census --format {args.format} at L = {args.length} would print {rows:,} rows, "
            f"over the {CENSUS_ROW_BUDGET:,}-row budget; text mode prints the summary"
        )
    # The largest capped vector, [2, 4, ..., 2^L], has the largest terms.
    top = CoefficientVector([r.stop - 1 for r in hunt.coefficient_ranges(args.length)])
    _check_prefix_size(top, args.deep_horizon or 4 * args.length)
    try:
        report = hunt.first_failure_census(
            args.length, args.deep_horizon, checkpoint_path=args.checkpoint, rows_path=args.rows
        )
    except OSError as exc:  # an unusable --checkpoint or --rows path
        raise OutOfRangeError(str(exc)) from exc
    if args.format == "json":
        envelope = _envelope(
            "census",
            {"L": args.length, "deep_horizon": report.deep_horizon},
            {**report.to_json(), "rows": []},
        )
        _print_json(envelope, ('"rows": [', report.json_rows()))
    elif args.format == "csv":
        _print_csv(hunt.CENSUS_CSV_HEADER, [])
        sys.stdout.writelines(report.csv_rows())
    else:
        lines = [
            f"L: {report.length}",
            f"vectors scanned: {report.vectors_scanned}",
            f"max first failure: {report.max_first_failure}",
            "extremal: " + "; ".join(str(list(v)) for v in report.extremal_vectors),
            f"conjectural survivors: {report.equality_window_vectors}",
        ]
        lines.extend(f"note: {n}" for n in report.notes)
        print("\n".join(lines))
    return EXIT_OK


def cmd_figure(args) -> int:
    rows = families.figure1_table(_parse_span(args.k_range), _parse_span(args.g_range))
    # Only the form that --format prints is built.
    payload = [vars(r) for r in rows] if args.format == "json" else []  # flat rows, field order
    envelope = _envelope(
        "figure",
        {"k_range": args.k_range, "g_range": args.g_range},
        {"rows": payload},
    )
    lines = [
        f"k={r.k} g={r.g} empirical={r.empirical_max_n} "
        f"closed={'-' if r.closed_form_max_n is None else r.closed_form_max_n} "
        f"({r.provenance})"
        for r in rows
    ] if args.format == "text" else []
    csv_rows = (astuple(r) for r in rows)  # csv writes None as ""
    _emit(args, envelope, lines, (families.FIGURE_CSV_HEADER, csv_rows))
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built on the first call, reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="plrslab",
        description="Completeness lab for positive linear recurrence sequences",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, formats=("text", "json", "csv")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=formats, default="text")
        return p

    p = add("gen", "print sequence terms")
    p.add_argument("vector", help="comma-separated coefficients, e.g. 1,0,4")
    p.add_argument("--count", type=int, default=10)

    p = add("analyze", "classify a generator as complete/incomplete")
    p.add_argument("vector")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)

    p = add("decompose", "legal and distinct decompositions of N", formats=("text", "json"))
    p.add_argument("vector")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=["legal", "distinct", "both"], default="both")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)

    p = add("bound", "closed-form maximal last coefficients", formats=("text", "json"))
    p.add_argument("--single-one", dest="single_one", action="store_true")
    p.add_argument("--double-one", dest="double_one", action="store_true")
    p.add_argument("--g-ones", dest="g_ones", action="store_true")
    p.add_argument("--shift", action="store_true")
    p.add_argument("--k", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--L", dest="length", type=int)
    p.add_argument("--i", dest="i", type=int)

    p = add("maxn", "empirical maximal last coefficient for a prefix", formats=("text", "json"))
    p.add_argument("prefix", help="comma-separated prefix, e.g. 1,1,0,0")
    p.add_argument("--horizon", type=int, default=None)

    p = add("census", "exhaustive first-failure census at length L")
    p.add_argument("--L", dest="length", type=int, required=True)
    p.add_argument("--deep-horizon", dest="deep_horizon", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    p.add_argument("--deep", action="store_true", help="allow L >= 5")
    p.add_argument("--checkpoint", default=None, help="checkpoint file (with --rows)")
    p.add_argument("--rows", default=None, help="incremental rows CSV (with --checkpoint)")

    p = add("figure", "empirical vs closed-form table over (k, g)")
    p.add_argument("--k-range", dest="k_range", required=True, help="e.g. 1:4 or 2")
    p.add_argument("--g-range", dest="g_range", required=True, help="e.g. 1:8 or 3")
    p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # Terms, gaps and witnesses print in full, however many digits they have:
    # lift the int/str conversion limit (Python >= 3.10.7) for the call.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv: Optional[list[str]]) -> int:
    args = build_parser().parse_args(argv)
    # Logging is set per call, on the package logger only: a host's root
    # handlers stay as they are, and -v of one call does not carry over.
    log = logging.getLogger("plrslab")
    level = log.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    log.addHandler(handler)
    try:
        # Looked up per call, so a rebound cmd_<name> is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except (CapTooLargeError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConjectureViolation as exc:
        print(f"conjecture violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (PLRSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
