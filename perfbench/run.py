"""hypermatch benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-threshold --seed 1 --trace 0
    python3 perfbench/run.py --workload all   # every workload, each in a fresh process

One run sets up the workload's inputs from the seed (three times; set-up
time is the import time plus the median set-up), times its items in one
closed loop (one process, no threads, the next item starts when the
previous one returns), checks every output outside the timed region and
prints, last, one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
The line before it holds the full report: tail percentile and sample count,
failed share, a digest of the deterministic outputs, and the environment.

Each workload times a fixed number of blocks of its item schedule
(``BLOCKS`` in ``workloads.py``), sized so that a run measures about
``run_seconds`` of BENCHMARK.json on the reference machine; two commits
always time the same items.  ``--seconds`` is accepted because the
benchmark's command line carries it, and sizes nothing.  Throughput is items
over the loop's wall time; latencies are per-item median and tail.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` times the same
items twice, first plain and then with every public layer function wrapped
(see ``tracing.py``), and reports per-layer metrics instead.  The exit code
is 0 only when every check passed; a missing program (no ``src/hypermatch``)
exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("pipeline-threshold", "extremal-track", "exact-solve", "link-campaign")
SETUP_REPEATS = 3
LIMITS = (
    "wall-clock time.perf_counter only; no hardware counters or machine-wide "
    "tracing; other tenants of a shared machine can slow or speed up a whole run; "
    "peak RSS is ru_maxrss of this process, set-up included"
)


class Loop:
    """What one pass over the item schedule produced."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.wall = 0.0
        self.digest = hashlib.sha256()
        self.kinds: Counter = Counter()
        self.notes: Counter = Counter()
        self.failures: list[str] = []


def measure(workload, blocks: int, run) -> Loop:
    """Time every item of ``blocks`` blocks; check outputs between blocks."""
    loop = Loop()
    clock = time.perf_counter
    for b in range(blocks):
        items = workload.block(b)
        outs = []
        start = clock()
        for kind, arg in items:
            t0 = clock()
            try:
                out = run(kind, arg)
            except Exception as exc:  # a raising item is a failed item
                out = exc
            loop.latencies.append(clock() - t0)
            outs.append(out)
        loop.wall += clock() - start
        for (kind, arg), out in zip(items, outs):
            loop.kinds[kind] += 1
            if isinstance(out, Exception):
                ok, det, notes = False, repr(out), {}
                trace = "".join(traceback.format_exception(out))
            else:
                ok, det, notes = workload.check(kind, arg, out)
                trace = ""
            loop.digest.update(repr((kind, det)).encode())
            loop.notes.update(f"{k}={v}" for k, v in notes.items())
            if not ok and len(loop.failures) < 5:
                loop.failures.append(f"{kind} {str(arg)[:80]}: {det!r:.200} {trace}")
            elif not ok:
                loop.failures.append(kind)
    return loop


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10 items
    beyond it; below 20 items no percentile above the median qualifies, so
    the maximum is reported as percentile 100."""
    s = sorted(latencies)
    n = len(s)
    if n < 20:
        return 100.0, s[-1]
    return 100.0 * (n - 10) / n, s[n - 11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: str, loop: Loop) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "seed": seed,
        "items": dict(sorted(loop.kinds.items())),
        "limits": LIMITS,
    }


def run_one(args) -> int:
    started = time.perf_counter()
    import tracing
    import workloads

    import_s = time.perf_counter() - started
    cls = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        workload = cls()
        t0 = time.perf_counter()
        try:
            workload.setup(args.seed)
        except workloads.SetupError as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 3
        setups.append(time.perf_counter() - t0)
    loop = measure(workload, cls.BLOCKS, workload.run)
    failed = len(loop.failures)
    attempted = len(loop.latencies)
    correct = failed == 0
    report: dict = {"workload": args.workload, "import_s": import_s}

    if args.trace:
        gen = tracing.Tracer()
        gen.install(tracing.SETUP_TARGETS)
        again = cls()
        try:
            gen.root("bench.setup", again.setup)(args.seed)
        finally:
            gen.uninstall()
        spans = tracing.Tracer()
        spans.install(tracing.LAYER_TARGETS)
        try:
            traced = measure(again, cls.BLOCKS, spans.root("bench.item", again.run))
        finally:
            spans.uninstall()
        metrics = tracing.layer_metrics(spans, gen, traced.wall, loop.wall)
        same = traced.digest.hexdigest() == loop.digest.hexdigest()
        correct = correct and same and not traced.failures
        report["traced_digest_matches"] = same
        report["traced_failures"] = traced.failures
        if args.spans:
            spans.write(args.spans)
    else:
        share, value = tail(loop.latencies)
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "items_per_s": (attempted / loop.wall, "1/s"),
            "item_p50_ms": (1000 * statistics.median(loop.latencies), "ms"),
            "item_tail_ms": (1000 * value, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        report["item_tail_percentile"] = share
        report["item_samples"] = attempted
        report["failed_share"] = failed / attempted
        report["setup_runs_s"] = setups

    report.update({
        "peak_rss_mb": peak_rss_mb(),
        "digest": loop.digest.hexdigest(),
        "notes": dict(sorted(loop.notes.items())),
        "failures": loop.failures,
        "environment": environment(args.seed, loop),
    })
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value} {unit}")
    if not args.trace:
        print(f"{args.workload}  failed_share = {report['failed_share']} ratio")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"report": report}, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", args.seed,
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]
                                 if not line.startswith("{")))
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + NAMES)
    parser.add_argument("--seed", default="bench-0")
    parser.add_argument("--seconds", type=float,
                        help="accepted for the benchmark's command line; sizes nothing")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report (JSON) here")
    parser.add_argument("--spans", help="traced run: write every span (JSON lines) here")
    args = parser.parse_args(argv)
    if not (SRC / "hypermatch" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'hypermatch'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
