"""In-memory span tracer that wraps plrslab's public functions from outside.

Every public function of the traced modules, and the public methods of
``seqcore.Sequence``, is replaced by a wrapper that records a span
(name, start, end, parent).  The program imports many of these functions by
name (``hunt``, ``families`` and ``cli`` do ``from .verdicts import classify``
and the like), so the wrappers are installed at every import site: each
``plrslab`` module's namespace is searched for the original function object,
not only the module that defines it.  ``uninstall`` restores every binding.

Spans live in one flat integer array until the pass ends; ``summary`` turns
them into the per-layer metrics and ``write_spans`` saves them.

Only the calling process is traced: pool workers start from a fresh import
and record nothing, so traced passes run the program single-process.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

import reference

PACKAGE = "plrslab"
MODULES = ("seqcore", "verdicts", "zeck", "families", "hunt", "cli")

#: Public ``Sequence`` methods; the private ``_extend_to`` they call is
#: counted in their self time.
SEQUENCE_METHODS = ("term", "prefix", "partial_sum", "gap", "gaps")

#: Per-layer metrics, in the order the benchmark reports them, with units.
METRICS: dict[str, str] = {
    "seqcore.calls": "count",
    "seqcore.self_s": "s",
    "seqcore.sequences": "count",
    "seqcore.terms_requested": "count",
    "seqcore.memo_entries": "count",
    "verdicts.self_s": "s",
    "verdicts.classify.calls": "count",
    "verdicts.classify.top_calls": "count",
    "verdicts.classify.self_s": "s",
    "verdicts.merge_ratio": "ratio",
    "verdicts.scan.calls": "count",
    "verdicts.scan.self_s": "s",
    "verdicts.scan.useful_ratio": "ratio",
    "verdicts.rule.all_positive": "count",
    "verdicts.rule.geometric_l1": "count",
    "verdicts.rule.single_one": "count",
    "verdicts.rule.double_one": "count",
    "verdicts.rule.g_ones": "count",
    "verdicts.rule.decrease_last": "count",
    "verdicts.rule.merge_last": "count",
    "verdicts.rule.weak_window": "count",
    "verdicts.rule.incomplete": "count",
    "verdicts.rule.conjectural": "count",
    "verdicts.rule.other": "count",
    "verdicts.oracle.calls": "count",
    "verdicts.oracle.self_s": "s",
    "verdicts.oracle.bits": "count",
    "zeck.self_s": "s",
    "zeck.legal.calls": "count",
    "zeck.legal.self_s": "s",
    "zeck.legal.digits": "count",
    "zeck.distinct.calls": "count",
    "zeck.distinct.self_s": "s",
    "zeck.distinct.bits": "count",
    "families.self_s": "s",
    "families.maxn.calls": "count",
    "families.maxn.self_s": "s",
    "families.classify_per_maxn": "ratio",
    "hunt.self_s": "s",
    "hunt.census.self_s": "s",
    "hunt.csv_write.self_s": "s",
    "hunt.csv_parse.self_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

# Span names grouped into the sub-layers that have their own metrics.
GROUPS = {
    "verdicts.classify": ("verdicts.classify",),
    "verdicts.scan": ("verdicts.brown_scan",),
    "verdicts.oracle": ("verdicts.is_complete_up_to", "verdicts.subset_sum_reachable"),
    "zeck.legal": ("zeck.legal_decompose",),
    "zeck.distinct": ("zeck.distinct_decompose",),
    "families.maxn": ("families.empirical_max_n",),
    "hunt.census": ("hunt.first_failure_census",),
    "hunt.csv_write": ("hunt.census_rows_to_csv",),
    "hunt.csv_parse": ("hunt.parse_census_csv",),
}

# seqcore calls that return n values rather than the n-th one.
_SEQCORE_LISTS = {
    "seqcore.terms_prefix", "seqcore.brown_gap_series",
    "seqcore.Sequence.prefix", "seqcore.Sequence.gaps",
}

_RULE_NAMES = {
    "all_positive", "geometric_l1", "single_one", "double_one", "g_ones",
    "decrease_last", "merge_last", "weak_window",
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _public_functions(module) -> dict[str, Callable]:
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            found[name] = obj
    return found


class Tracer:
    """Records spans for the plrslab package while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")  # name id, start ns, end ns, parent index
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {
            name: sys.modules[f"{PACKAGE}.{name}"]
            for name in MODULES
            if f"{PACKAGE}.{name}" in sys.modules
        }
        wrapped: dict[int, Callable] = {}
        for short, module in modules.items():
            for name, fn in _public_functions(module).items():
                hook = self._hook_for(f"{short}.{name}")
                wrapped[id(fn)] = self._wrap(f"{short}.{name}", fn, hook)
        # Rebind at every import site, the package's own re-exports included.
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    self._patch(module, name, wrapper)
        seqcore = modules.get("seqcore")
        seq_cls = getattr(seqcore, "Sequence", None) if seqcore else None
        if seq_cls is not None:
            for name in SEQUENCE_METHODS:
                method = getattr(seq_cls, name, None)
                if method is not None:
                    span = f"seqcore.Sequence.{name}"
                    self._patch(seq_cls, name, self._wrap(span, method, self._hook_for(span)))
            self._patch(seq_cls, "__init__", self._counting(seq_cls.__init__, "seqcore.sequences"))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _counting(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans) // 4
            parent = stack[-1] if stack else -1
            spans.extend((name_id, clock(), 0, parent))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * index + 2] = clock()
                stack.pop()
            if hook is not None:
                hook(parent, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Counters recorded at the layer boundaries

    def _parent_name(self, parent: int) -> str:
        return self.names[self.spans[4 * parent]] if parent >= 0 else ""

    def _hook_for(self, name: str) -> Optional[Callable]:
        counts = self.counts
        if name.startswith("seqcore."):
            returns_list = name in _SEQCORE_LISTS

            def seqcore_hook(parent, args, kwargs, result):
                # Terms (or gaps) handed to callers outside the layer; counting
                # seqcore's internal calls too would count one request twice.
                n = args[-1] if args else None
                if type(n) is int and not self._parent_name(parent).startswith("seqcore."):
                    counts["seqcore.terms_requested"] += n if returns_list else 1
            return seqcore_hook
        if name == "verdicts.classify":
            def classify_hook(parent, args, kwargs, result):
                if self._parent_name(parent) == "verdicts.classify":
                    return
                status = result.status.value
                if status == "incomplete":
                    rule = "incomplete"
                elif status == "conjecturally_complete":
                    rule = "conjectural"
                else:
                    rule = result.proof.rule.value.removeprefix("family_")
                    if rule not in _RULE_NAMES:
                        rule = "other"
                counts["verdicts.rule." + rule] += 1
            return classify_hook
        if name == "verdicts.brown_scan":
            def scan_hook(parent, args, kwargs, result):
                horizon = _arg(args, kwargs, 1, "horizon")
                counts["scan.scanned"] += horizon
                counts["scan.useful"] += result.first_failure or horizon
            return scan_hook
        if name == "verdicts.subset_sum_reachable":
            def oracle_hook(parent, args, kwargs, result):
                cap = _arg(args, kwargs, 1, "cap")
                folded = 0
                for t in _arg(args, kwargs, 0, "terms"):
                    if t > cap:
                        break
                    folded += 1
                counts["verdicts.oracle.bits"] += folded * (cap + 1)
            return oracle_hook
        if name == "zeck.distinct_decompose":
            def distinct_hook(parent, args, kwargs, result):
                # The back-trace keeps one bitmap of N + 1 bits per term <= N,
                # plus the empty one.
                cv = _arg(args, kwargs, 0, "cv")
                n = _arg(args, kwargs, 1, "n")
                folded = len(reference.terms_upto(tuple(cv.coefficients), n))
                counts["zeck.distinct.bits"] += (folded + 1) * (n + 1)
            return distinct_hook
        if name == "zeck.legal_decompose":
            def legal_hook(parent, args, kwargs, result):
                counts["zeck.legal.digits"] += len(result)
            return legal_hook
        return None

    # ------------------------------------------------------------------
    # Results

    def span_count(self) -> int:
        return len(self.spans) // 4

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        spans, names, n = self.spans, self.names, self.span_count()
        parent = [spans[4 * i + 3] for i in range(n)]
        duration = [spans[4 * i + 2] - spans[4 * i + 1] for i in range(n)]
        own = list(duration)  # a span's self time: minus its children's
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= duration[i]
        self_ns: Counter = Counter()
        edges: Counter = Counter()  # (name, caller's name) -> calls
        for i in range(n):
            name = names[spans[4 * i]]
            self_ns[name] += own[i]
            edges[name, names[spans[4 * parent[i]]] if parent[i] >= 0 else ""] += 1

        def calls(prefix: str, caller_not: tuple[str, ...] = ()) -> int:
            return sum(
                c for (name, caller), c in edges.items()
                if name.startswith(prefix) and caller not in caller_not
            )

        def seconds(prefix: str) -> float:
            return sum(v for k, v in self_ns.items() if k.startswith(prefix)) / 1e9

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {f"{m}.self_s": seconds(m + ".") for m in MODULES}
        for group, members in GROUPS.items():
            out[f"{group}.self_s"] = sum(self_ns[k] for k in members) / 1e9
        out["seqcore.calls"] = calls("seqcore.")
        classify = calls("verdicts.classify")
        top = calls("verdicts.classify", ("verdicts.classify",))
        out["verdicts.classify.calls"] = classify
        out["verdicts.classify.top_calls"] = top
        out["verdicts.merge_ratio"] = ratio(classify - top, top)
        out["verdicts.scan.calls"] = calls("verdicts.brown_scan")
        out["verdicts.scan.useful_ratio"] = ratio(
            self.counts["scan.useful"], self.counts["scan.scanned"]
        )
        # An oracle call is an entry into the oracle from outside it.
        oracle = GROUPS["verdicts.oracle"]
        out["verdicts.oracle.calls"] = sum(calls(k, oracle) for k in oracle)
        out["zeck.legal.calls"] = calls("zeck.legal_decompose")
        out["zeck.distinct.calls"] = calls("zeck.distinct_decompose")
        maxn = calls("families.empirical_max_n")
        out["families.maxn.calls"] = maxn
        out["families.classify_per_maxn"] = ratio(
            edges["verdicts.classify", "families.empirical_max_n"], maxn
        )
        for key in ("seqcore.sequences", "seqcore.terms_requested", "verdicts.oracle.bits",
                    "zeck.legal.digits", "zeck.distinct.bits"):
            out[key] = self.counts[key]
        for rule in sorted(_RULE_NAMES) + ["incomplete", "conjectural", "other"]:
            out[f"verdicts.rule.{rule}"] = self.counts[f"verdicts.rule.{rule}"]
        out["trace.spans"] = n
        return out

    def write_spans(self, path) -> None:
        """Write every span as gzip CSV: name,start_ns,end_ns,parent_index."""
        spans = self.spans
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for i in range(self.span_count()):
                b = 4 * i
                fh.write(
                    f"{self.names[spans[b]]},{spans[b + 1]},{spans[b + 2]},{spans[b + 3]}\n"
                )
