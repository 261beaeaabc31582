"""Inclusive time per span name from a traced run's span file.

    python3 perfbench/run.py --workload pipeline-threshold --trace 1 --spans spans.jsonl
    python3 perfbench/inclusive.py spans.jsonl

A span nested inside a span of the same name (a recursive call) is counted
once, through the outermost one.  Shares are of the summed item time.
"""

import json
import sys
from collections import Counter


def main(path: str) -> None:
    with open(path, encoding="ascii") as f:
        spans = {s["id"]: s for s in map(json.loads, f)}
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    for s in spans.values():
        up = s["parent"]
        while up is not None and spans[up]["name"] != s["name"]:
            up = spans[up]["parent"]
        if up is None:
            inclusive[s["name"]] += s["end"] - s["start"]
            calls[s["name"]] += 1
    items = sum(s["end"] - s["start"] for s in spans.values() if s["parent"] is None)
    for name, seconds in inclusive.most_common():
        print(f"{name:40s} {calls[name]:8d} {seconds:10.3f} s {100 * seconds / items:6.1f}%")


if __name__ == "__main__":
    main(sys.argv[1])
