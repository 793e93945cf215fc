"""plrslab benchmark: closed-loop CLI workloads and a traced per-module run.

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1   # every workload in turn

One client calls ``plrslab.cli.main(argv)`` in-process, one call after the
other, with stdout captured and checked; the program sees only the generated
argv.  Before every call the term memo is cleared, so each call starts from
the state of a fresh ``plrslab`` process and memo hits never pass for speed.
The program may add at most ``jobs`` pool workers (2 on census).

A run repeats the workload's pass, the same calls in the same order, until
its time is up, and each call's latency is the mean of its repetitions.

On a shared host the speed the benchmark gets swings by up to 2x, both from
second to second and over minutes.  So between calls, at most every 0.1 s,
the run also times a fixed pure-Python loop from the benchmark's own
reference code, and divides every time it reports by the host's slowdown:
the loop's mean time over its nominal time on an idle core.  The reported
times are thus those of an idle core of the reference machine, and a change
to plrslab moves them while a change in the host's load does not.  The
human-readable lines give each figure at the host's speed as well.

``--trace 0`` prints the end-to-end metrics, scaled by the slowdown except
for memory:

* ``setup_s``: wall time from starting a fresh interpreter until the
  workload's first call is ready (import and input generation), median over
  one interpreter started before the first pass and one after each pass.
* ``throughput``: work items of one pass (vectors for census, cells for
  sweep, ops for digits) over the summed latencies of its calls, that is,
  items done over time spent in calls for the whole run.
* ``op_p50_ms``, ``op_p95_ms``: nearest-rank percentiles of the calls'
  latencies, so each is the latency of one call of the pass; the
  human-readable lines give the number of calls.
* ``peak_rss_mb``: peak resident memory of a fresh process running one pass,
  its pool workers included: the largest sum of their proportional set
  sizes, sampled from /proc every 10 ms by this process, or the measured
  process's own peak RSS if that is larger.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of ``tracing.METRICS`` (counts of the first traced pass, other
values as medians over the traced passes, not scaled), with
``trace.overhead_ratio`` = total traced / total untraced pass time - 1.
The spans of the first traced pass are written to ``.bench_trace/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_trace"

WORKLOAD_NAMES = ("census", "sweep", "digits")


def _import_program():
    """Import plrslab from this checkout's src/, and nothing else."""
    if not (SRC / "plrslab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no plrslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import plrslab

    if Path(plrslab.__file__).resolve().parent != SRC / "plrslab":
        raise SystemExit(f"bench: imported plrslab from {plrslab.__file__}, not {SRC}")
    import workloads

    return workloads


class _HostSpeed:
    """How slow the host runs now, from a fixed pure-Python loop timed between calls.

    The loop is the benchmark's own reference arithmetic, so no change to
    plrslab moves it; only the host does.  It is timed before a call once at
    least PERIOD_S has passed since the last timing: every 0.1 s on the
    short calls of sweep and digits, before each of census's long calls.
    """

    PERIOD_S = 0.1
    GENERATORS = [(1,) * a + (0,) * b + (c,) for a in (1, 2, 3) for b in (0, 1, 2)
                  for c in (1, 2, 3)]
    #: The loop's time on an idle core of the machine the bounds were set on.
    NOMINAL_S = 0.0031

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        if time.perf_counter() - self.last < self.PERIOD_S:
            return
        start = time.perf_counter()
        for coeffs in self.GENERATORS:
            reference.prefix(coeffs, 120)
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def slowdown(self) -> float:
        """Mean loop time over its nominal time: 1 on an idle core, more when shared."""
        return statistics.mean(self.samples) / self.NOMINAL_S


def _rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


class _Pass:
    """One pass over a workload's calls: latencies, failures and counters."""

    def __init__(self, program, calls, speed: Optional[_HostSpeed] = None) -> None:
        gc.collect()
        self.latencies: list[Optional[float]] = []  # per call; None if it crashed
        self.failed = 0
        self.memo_peak = 0
        self.stdout_bytes = 0
        for call in calls:
            program.reset_memo()
            if speed is not None:
                speed.sample()
            try:
                code, out, seconds = program.invoke(call.argv)
            except Exception:  # a crash in the program counts as a failed call
                self.latencies.append(None)
                self._fail(call, traceback.format_exc())
                continue
            self.latencies.append(seconds)
            self.memo_peak = max(self.memo_peak, program.memo_entries())
            self.stdout_bytes += len(out.encode())
            try:
                error = call.check(code, out)
            except Exception:  # output too malformed for the check to read
                error = traceback.format_exc()
            if error is not None:
                self._fail(call, error)
        program.reset_memo()
        self.busy = sum(x for x in self.latencies if x is not None)

    def _fail(self, call, error: str) -> None:
        self.failed += 1
        print(f"bench: {call.kind} {' '.join(call.argv)}: {error}", file=sys.__stderr__)


# --------------------------------------------------------------------------
# Child processes: set-up timing and peak memory


def _child_cmd(args, probe: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--probe", probe]


def _setup_seconds(args) -> float:
    start = time.perf_counter()
    with subprocess.Popen(_child_cmd(args, "setup"), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"bench: set-up probe failed with exit code {proc.returncode}")
    return seconds


def _tree_pss_kb(pid: int) -> int:
    """Proportional set size of the process plus its direct children, from /proc.

    Forked pool workers share pages with their parent; PSS splits each
    shared page among its sharers, so the sum counts it once, as RSS would not.
    """
    total = 0
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            if int(name) != pid and ppid != pid:
                continue
            with open(f"/proc/{name}/smaps_rollup") as fh:
                total += next(int(line.split()[1]) for line in fh if line.startswith("Pss:"))
        except (OSError, StopIteration):
            continue  # the process ended while being read
    return total


def _peak_rss_mb(args) -> float:
    """Peak memory of a fresh process running one pass, its pool workers included.

    The workers run side by side, so their memory adds to the parent's; a
    parent-only figure would hide it.  The tree is sampled from here rather
    than from a thread in the measured process, whose allocations would
    then interleave with the program's at varying points and move its peak.
    """
    peak_kb = 0
    with subprocess.Popen(_child_cmd(args, "rss"), stdout=subprocess.PIPE, text=True) as proc:
        while proc.poll() is None:
            peak_kb = max(peak_kb, _tree_pss_kb(proc.pid))
            time.sleep(0.01)
        out = proc.stdout.read()
    if proc.returncode != 0:
        raise SystemExit(f"bench: memory probe failed with exit code {proc.returncode}")
    return max(peak_kb, json.loads(out.strip().splitlines()[-1])["peak_kb"]) / 1024


def _probe(args, workloads) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK)
    try:
        if args.probe == "setup":
            print("ready", flush=True)
            return 0
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            for call in wl.calls():
                workloads.reset_memo()
                workloads.invoke(call.argv)
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"peak_kb": own_kb}))
        return 0
    finally:
        wl.close()


# --------------------------------------------------------------------------
# Measurement


def _untraced(args, workloads, cls) -> dict:
    wl = cls(args.seed, WORK)
    try:
        setup = [_setup_seconds(args)]
        peak_mb = _peak_rss_mb(args)
        spent: list[float] = []  # per call of the pass, summed over repetitions
        done_reps: list[int] = []
        passes = attempted = failed = 0
        speed = _HostSpeed()
        deadline = time.perf_counter() + args.seconds
        while True:
            calls = wl.calls()
            done = _Pass(workloads, calls, speed)
            items = wl.items(calls)
            if not spent:
                spent, done_reps = [0.0] * len(calls), [0] * len(calls)
            for i, seconds in enumerate(done.latencies):
                if seconds is not None:
                    spent[i] += seconds
                    done_reps[i] += 1
            passes += 1
            attempted += len(calls)
            failed += done.failed
            # Set-up is timed between passes too, so it sees the same
            # changes in host speed as the calls.
            setup.append(_setup_seconds(args))
            if time.perf_counter() >= deadline:
                break
    finally:
        wl.close()
    # A call that crashed on every repetition has no latency.
    mean = [t / n if n else math.nan for t, n in zip(spent, done_reps)]
    ms = [x * 1000 for x in mean if x == x]
    slow = speed.slowdown()
    raw = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "throughput": (items / (sum(ms) / 1000), "items/s", f"{items} {cls.item} per pass"),
        "op_p50_ms": (_rank(ms, 0.5), "ms", f"{len(ms)} calls"),
        "op_p95_ms": (_rank(ms, 0.95), "ms", f"{len(ms)} calls"),
    }
    # Times shrink and rates grow by the slowdown: figures at the nominal speed.
    metrics = {
        name: (value * slow if unit == "items/s" else value / slow, unit)
        for name, (value, unit, _) in raw.items()
    }
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    human = [
        (name, metrics[name][0], unit, f"{note}; {value:.6g} at the host's speed")
        for name, (value, unit, note) in raw.items()
    ]
    human.append(("host_slowdown", slow, "ratio",
                  f"{len(speed.samples)} timings of the reference loop; {passes} passes"))
    for call, seconds in zip(calls, mean):
        if call.kind == "census-resume":
            human.append(("resume_s", seconds / slow, "s",
                          f"the rerun against the checkpoint; {seconds:.6g} at the host's speed"))
    human += [
        ("peak_rss_mb", peak_mb, "MB", "with pool workers" if cls.jobs > 1 else ""),
        ("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} calls"),
    ]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "human": human}


def _traced(args, workloads, cls) -> dict:
    import tracing

    wl = cls(args.seed, WORK)
    untraced, traced, summaries = [], [], []
    attempted = failed = 0
    first = None
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            calls = wl.calls(traced=True)
            done = _Pass(workloads, calls)
            untraced.append(done.busy)
            attempted += len(calls)
            failed += done.failed
            calls = wl.calls(traced=True)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                done = _Pass(workloads, calls)
            finally:
                tracer.uninstall()
            traced.append(done.busy)
            attempted += len(calls)
            failed += done.failed
            summary = tracer.summary()
            summary["seqcore.memo_entries"] = done.memo_peak
            summary["cli.stdout_bytes"] = done.stdout_bytes
            summaries.append(summary)
            if first is None:
                first = tracer
            if time.perf_counter() >= deadline:
                break
    finally:
        wl.close()
    TRACE_DIR.mkdir(exist_ok=True)
    spans_file = TRACE_DIR / f"{cls.name}-seed{args.seed}.csv.gz"
    first.write_spans(spans_file)
    metrics = {}
    for name, unit in tracing.METRICS.items():
        if name == "trace.overhead_ratio":
            value = sum(traced) / sum(untraced) - 1
        elif unit == "count":
            value = summaries[0][name]  # counts repeat exactly from pass to pass
        else:
            value = statistics.median(s[name] for s in summaries)
        metrics[name] = (value, unit)
    human = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    human += [
        ("passes", len(traced), "count", f"spans in {spans_file.relative_to(ROOT)}"),
        ("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} calls"),
    ]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "human": human}


def _report(name: str, result: dict) -> None:
    for metric, value, unit, note in result["human"]:
        print(f"{name:20} {metric:28} {value:>16.6g} {unit:10} {note}".rstrip())


def _run_all(args) -> int:
    """Run every workload in its own fresh process and combine the results."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the child processes that time set-up and measure memory.
    parser.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the child processes and pool
    # workers still running are stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workloads = _import_program()
    if args.workload == "all":
        return _run_all(args)
    if args.probe:
        return _probe(args, workloads)

    cls = workloads.WORKLOADS[args.workload]
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        # The program logs to stderr; our own messages go to the real one.
        result = (_traced if args.trace else _untraced)(args, workloads, cls)
    _report(cls.name, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
