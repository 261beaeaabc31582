"""Median, quartiles and spread of reports written by ``run.py --out``.

    python3 perfbench/summarize.py reports/*.json [--json summary.json]

Spread is (q3 - q1) / median with ``statistics.quantiles(values, n=4)``, the
figure a metric's bound in BENCHMARK.json is compared with.
"""

import argparse
import json
import statistics
from collections import defaultdict


def summarize(paths: list[str]) -> dict:
    runs: dict = defaultdict(list)
    for path in paths:
        with open(path, encoding="ascii") as f:
            report = json.load(f)
        runs[report["workload"]].append(report)
    out: dict = {}
    for workload, reports in sorted(runs.items()):
        metrics = {}
        for name, first in reports[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in reports]
            if len(values) < 2:
                raise SystemExit(f"{workload}: quartiles need at least two reports")
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else 0.0}
        out[workload] = {
            "runs": len(reports),
            "seeds": [r["environment"]["seed"] for r in reports],
            "failed": sum(len(r["failures"]) for r in reports),
            "metrics": metrics,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+")
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    summary = summarize(args.reports)
    for workload, s in summary.items():
        print(f"{workload}: {s['runs']} runs, {s['failed']} failed items")
        for name, m in s["metrics"].items():
            print(f"  {name:16s} median {m['median']:12.4f} {m['unit']:5s} "
                  f"q1 {m['q1']:12.4f}  q3 {m['q3']:12.4f}  spread {m['spread']:.4f}")
    if args.json:
        with open(args.json, "w", encoding="ascii") as f:
            json.dump(summary, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
