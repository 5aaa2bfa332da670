#!/usr/bin/env python3
"""The ppv benchmark: seeded workloads run in-process, one client, closed loop.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads (see bench/manifest.json for classes and why each was chosen):
``certify`` (``ppv certify``), ``operators`` (``ppv ore`` queries plus
Wronskian operators and window realizations) and ``fractions``
(``ppv decompose`` plus reassembly).  Inputs come from bench/workloads.py
and depend only on --workload and --seed.

A run sets up (import ppv, decode the generated inputs, one untimed
warm-up task per class) several times and reports the median, then runs
rounds -- one task from every class -- back to back until the summed
task time reaches --seconds and at least MIN_TASKS tasks ran.  Every
task is checked by an untimed oracle; for the default seed its output
digest must also match bench/digests.json.  A task fails if it raises
or its oracle rejects it; a task of a known-defect class that raises its
known error (workloads.KNOWN_DEFECTS) is counted apart, in failed_share
on the summary line, not in "failed".

Timings are in reference seconds.  On a host whose cores are shared,
all work runs up to twice as slow in slow spells of a few seconds.  A
fixed exact-arithmetic loop, the gauge, is timed before every task and
after the last; each task's wall time is scaled by GAUGE_REFERENCE_S
over the mean of the two gauges around it, which gives its time at the
speed where the gauge takes GAUGE_REFERENCE_S.  setup_s is scaled the
same way.  The unscaled figures are printed on the summary line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs TRACE_ROUNDS
rounds untraced, then the same rounds with every ppv layer wrapped by
bench/tracer.py, and prints the per-layer metrics (counts repeat exactly
for a seed; layer times are unscaled wall seconds of the traced rounds)
and the tracing overhead; --seconds does not apply.  The spans go to
.bench_out/trace-<workload>-<seed>.jsonl.
The last line of standard output is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--record-digests rewrites bench/digests.json from the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads  # plain Python, no ppv import

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".bench_out"

MIN_TASKS = 100
SETUP_REPEATS = 3
DEFAULT_SEED = 0
GAUGE_STEPS = 1500
# _gauge() at full speed on a 2-vCPU Intel Xeon VM with Python 3.11.7 (the
# 5th percentile of 4000 gauges over half an hour): the unit of timings
GAUGE_REFERENCE_S = 0.0032
TRACE_ROUNDS = 3  # a traced run times these rounds untraced, then traced


def _setup(workload: str, seed: int):
    """Import ppv, decode the inputs, warm up once per class.

    Returns (reference seconds, unscaled seconds, pool); a gauge brackets
    each step, as it brackets each task.
    """
    text = workloads.pool_bytes(workload, seed)
    gauges = [_gauge()]
    start = time.perf_counter()
    import tasks  # imports ppv

    pool = [tasks.prepare(t) for t in json.loads(text)]
    steps = [time.perf_counter() - start]
    gauges.append(_gauge())
    last = {}
    for t in pool:
        last[t["class"]] = t  # the last instance of each class is never timed
    for t in last.values():
        start = time.perf_counter()
        try:
            tasks.run(workload, t)
        except Exception:  # a failing class fails in the timed phase, where it counts
            pass
        steps.append(time.perf_counter() - start)
        gauges.append(_gauge())
    return sum(reference_time(steps, gauges)), sum(steps), pool


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter, as a CLI invocation pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    scaled, raw = proc.stdout.split()[-2:]
    return float(scaled), float(raw)


def _gauge() -> float:
    """Seconds for a fixed exact-arithmetic loop: the machine's current speed."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, GAUGE_STEPS):
            acc += Fraction(1, i % 97 + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Runs tasks, times them, checks them and keeps the counts."""

    def __init__(self, workload: str, seed: int):
        import tasks

        self.tasks = tasks
        self.workload = workload
        self.digests = {}
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            self.digests = json.loads(DIGESTS.read_text()).get(workload, {})
        self.attempted = 0
        self.failed = 0  # unexpected failures
        self.known = 0  # failures of a known-defect class in its known way
        self.reasons: dict[str, int] = {}

    def one(self, task: dict, tracer=None) -> float:
        """Run, time and check one task; returns its wall time."""
        span = tracer.task_span(task["id"], task["class"]) if tracer else contextlib.nullcontext()
        known = False
        start = time.perf_counter()
        try:
            with span:
                out = self.tasks.run(self.workload, task)
            error = None
        except Exception as exc:  # any exception, PpvError included, fails the task
            error = "%s: %s" % (type(exc).__name__, exc)
            known = type(exc).__name__ == workloads.KNOWN_DEFECTS.get(task["class"])
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                error, text = self.tasks.check(self.workload, task, out)
            except Exception as exc:
                error, text = "oracle raised %s: %s" % (type(exc).__name__, exc), ""
            want = self.digests.get(task["id"])
            if error is None and want is not None and _digest(text) != want:
                error = "output digest changed for the default seed"
            if tracer:
                tracer.counters["jsonio.out_bytes"] += self.tasks.out_bytes(self.workload, out)
        self.attempted += 1
        if error is not None:
            if known:
                self.known += 1
            else:
                self.failed += 1
            key = "%s%s: %s" % ("known defect, " if known else "", task["class"], error[:160])
            self.reasons[key] = self.reasons.get(key, 0) + 1
        return elapsed

    def rounds(self, pool, seconds: float, min_tasks: int = 0, count=None, tracer=None):
        """Whole rounds until the summed task time reaches seconds (or count rounds).

        Returns the task latencies and the gauges around them: gauges[i]
        and gauges[i + 1] bracket task i.
        """
        latencies: list[float] = []
        gauges: list[float] = []
        for n, batch in enumerate(workloads.rounds(self.workload, pool)):
            if n == count or (count is None and sum(latencies) >= seconds
                              and len(latencies) >= min_tasks):
                break
            for t in batch:
                gauges.append(_gauge())
                latencies.append(self.one(t, tracer))
        gauges.append(_gauge())
        return latencies, gauges


def reference_time(latencies, gauges) -> list[float]:
    """Latencies in reference seconds (see the module docstring).

    Each latency is scaled by GAUGE_REFERENCE_S over the mean of the two
    gauges around it: its time at the speed where the gauge takes
    GAUGE_REFERENCE_S.
    """
    return [x * 2 * GAUGE_REFERENCE_S / (gauges[i] + gauges[i + 1])
            for i, x in enumerate(latencies)]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> dict:
    scaled, raw, pool = _setup(args.workload, args.seed)
    setups = [(scaled, raw)]
    for _ in range(SETUP_REPEATS - 1):
        setups.append(_setup_probe(args.workload, args.seed))
    runner = Runner(args.workload, args.seed)
    gc.collect()
    if not args.trace:
        raw, gauges = runner.rounds(pool, args.seconds, min_tasks=MIN_TASKS)
        lat = reference_time(raw, gauges)
        metrics = {
            "tasks_per_s": _metric(len(lat) / sum(lat), "1/s"),
            "task_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
            "task_p90_ms": _metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
            "setup_s": _metric(statistics.median(s for s, _ in setups), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print("unscaled: tasks_per_s %.4g, task_p50_ms %.4g, task_p90_ms %.4g, setup_s %.4g; "
              "gauge median %.3g ms (reference %.3g ms)"
              % (len(raw) / sum(raw), statistics.median(raw) * 1e3,
                 statistics.quantiles(raw, n=10)[8] * 1e3,
                 statistics.median(r for _, r in setups),
                 statistics.median(gauges) * 1e3, GAUGE_REFERENCE_S * 1e3))
        samples = len(lat)
    else:
        import tracer as tracing

        plain, plain_g = runner.rounds(pool, 0, count=TRACE_ROUNDS)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced, traced_g = runner.rounds(pool, 0, count=TRACE_ROUNDS, tracer=tr)
        finally:
            tr.uninstall()
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / ("trace-%s-%d.jsonl" % (args.workload, args.seed))
        tr.dump(str(path))
        print("spans written to %s" % path.relative_to(ROOT), file=sys.stderr)
        metrics = {k: _metric(v, u) for k, (v, u) in tracing.layer_metrics(tr).items()}
        ratio = sum(reference_time(traced, traced_g)) / sum(reference_time(plain, plain_g))
        metrics["trace.overhead_ratio"] = _metric(ratio, "ratio")
        samples = len(traced)
    for reason, n in sorted(runner.reasons.items()):
        print("failed x%d: %s" % (n, reason), file=sys.stderr)
    print("workload %s, seed %d: %d tasks attempted, %d failed unexpectedly, %d known-defect "
          "failures, failed_share %.4f, %d timed samples"
          % (args.workload, args.seed, runner.attempted, runner.failed, runner.known,
             (runner.failed + runner.known) / runner.attempted, samples))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def record_digests() -> None:
    """Digest the output of every task in the default seed's pools."""
    import tasks

    book = {}
    for workload in workloads.WORKLOADS:
        pool = [tasks.prepare(t) for t in workloads.generate(workload, DEFAULT_SEED)]
        book[workload] = {}
        for t in pool:
            try:
                out = tasks.run(workload, t)
                error, text = tasks.check(workload, t, out)
            except Exception:
                continue  # failing tasks get no digest
            if error is None:
                book[workload][t["id"]] = _digest(text)
        print("%s: %d digests" % (workload, len(book[workload])), file=sys.stderr)
    DIGESTS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "ppv" / "__init__.py").is_file():
        print("error: the ppv sources are not at %s; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        scaled, raw, _ = _setup(args.workload, args.seed)
        print(repr(scaled), repr(raw))
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
