"""Outside-in spans for the traced benchmark run.

The program under test has no recorder of its own, so the traced run replaces
public functions of ``hypermatch`` at every module attribute (or class
attribute) that holds them.  Each callee gets one span name whatever its
caller: ``solve.has_perfect_matching`` is the same span whether ``absorb`` or
the pipeline's exact fallback calls it.

A span is recorded only while an item (a root span) is open, so checks and
set-up work running between items pass straight through the wrappers.  Spans
are kept in memory (id, parent, item id, name, start, end, self time) and
written out on request; a span's self time is its duration minus the time
its child spans cover.
Per-edge helpers such as ``Hypergraph.has_edge`` are deliberately not
wrapped: they run millions of times and a wrapper would dominate them.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from typing import Callable

from hypermatch.errors import InsufficientDensity

MODULES = (
    "hypermatch",
    "hypermatch.core",
    "hypermatch.construct",
    "hypermatch.solve",
    "hypermatch.link",
    "hypermatch.extract",
    "hypermatch.absorb",
    "hypermatch.pipeline",
    "hypermatch.cli",
)


class Tracer:
    """In-memory span store plus work counters, filled by wrapped calls.

    Spans sit in parallel typed arrays (about 50 bytes each), so a traced
    run of a few hundred thousand items does not inflate the process.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")  # -1 for an item (root) span
        self.items = array("q")
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.self_times = array("d")
        self.counts: Counter = Counter()
        # open spans: [span id, root id, start, child seconds]
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _call(self, name: int, fn: Callable, args, kwargs, observe):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else None
        frame = [span_id, parent[1] if parent else span_id, time.perf_counter(), 0.0]
        stack.append(frame)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[2]
            if parent is not None:
                parent[3] += duration
            self.ids.append(span_id)
            self.parents.append(parent[0] if parent else -1)
            self.items.append(frame[1])
            self.name_ids.append(name)
            self.starts.append(frame[2])
            self.ends.append(end)
            self.self_times.append(duration - frame[3])
            if observe is not None:
                observe(self.counts, self.names[name], args, result, exc)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, observe=None) -> Callable:
        """Layer span: recorded only inside an open item."""
        key = self._intern(name)

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            return self._call(key, fn, args, kwargs, observe)

        return traced

    def root(self, name: str, fn: Callable) -> Callable:
        """Item span: every layer span opened inside it shares its id."""
        key = self._intern(name)

        def traced(*args, **kwargs):
            return self._call(key, fn, args, kwargs, None)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, targets) -> None:
        """Replace each target at its owner and at every module alias of it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for owner_path, attr, observe in targets:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            module = owner_path.partition(":")[0].rpartition(".")[2]
            wrapped = self.wrap(f"{module}.{attr}", original, observe)
            holders = [owner] + [
                m for m in modules if m is not owner and vars(m).get(attr) is original
            ]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # -- summaries -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), item spans excluded."""
        calls = [0] * len(self.names)
        seconds = [0.0] * len(self.names)
        for parent, name, self_s in zip(self.parents, self.name_ids, self.self_times):
            if parent >= 0:
                calls[name] += 1
                seconds[name] += self_s
        return {n: (calls[i], seconds[i]) for i, n in enumerate(self.names) if calls[i]}

    def write(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent and item ids."""
        with open(path, "w", encoding="ascii") as f:
            for i in range(len(self.ids)):
                parent = self.parents[i]
                f.write(json.dumps({
                    "id": self.ids[i], "parent": parent if parent >= 0 else None,
                    "item": self.items[i], "name": self.names[self.name_ids[i]],
                    "start": self.starts[i], "end": self.ends[i],
                    "self_s": self.self_times[i],
                }) + "\n")


def _resolve(path: str):
    """``"hypermatch.core:Hypergraph"`` names a class, else a module."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


# -- work counters observed at span boundaries ----------------------------------


def _scanned(counts, name, args, result, exc) -> None:
    counts["core.edges_scanned"] += len(args[0].edges)


def _extract(counts, name, args, result, exc) -> None:
    if isinstance(exc, InsufficientDensity):
        counts["extract.insufficient_density"] += 1
    if result is not None:
        counts[f"{name}.hits"] += 1
        counts[f"{name}.bucket"] += result.method == "bucket"


def _found(counts, name, args, result, exc) -> None:
    counts[f"{name}.found"] += result is not None


def _exact(counts, name, args, result, exc) -> None:
    if result is not None:
        counts["solve.nodes_explored"] += result.nodes_explored
        counts["solve.timed_out"] += result.timed_out


def _verdict(counts, name, args, result, exc) -> None:
    if result is not None:
        counts[f"link.verdict.{result.verdict.value}"] += 1


def _absorber(counts, name, args, result, exc) -> None:
    if result is not None:
        counts["absorb.attempts"] += result.attempts
        counts["absorb.successes"] += result.successes


def _gain(counts, name, args, result, exc) -> None:
    if result is not None:
        counts[f"{name}.gain"] += result[1]


def _pipeline(counts, name, args, result, exc) -> None:
    if result is None:
        return
    report = result[1]
    stages = [s["name"] for s in report.stages]
    counts["pipeline.runs"] += 1
    counts["pipeline.extend_rounds"] += sum(
        t["stage"].startswith("extend-") for t in report.cover_trace
    )
    counts["pipeline.fallback_used"] += report.fallback_used
    counts["pipeline.fallback_skipped"] += "fallback-skipped" in stages
    counts["pipeline.track_extremal"] += "extremal-matcher" in stages


CORE = "hypermatch.core:Hypergraph"

#: (owner, attribute, counter hook); the span name is ``<module>.<attribute>``.
LAYER_TARGETS = (
    (CORE, "partite_density", _scanned),
    (CORE, "induce", _scanned),
    ("hypermatch.solve", "has_perfect_matching", _found),
    ("hypermatch.solve", "max_matching_exact", _exact),
    ("hypermatch.solve", "hall_matching", None),
    ("hypermatch.link", "classify", _verdict),
    ("hypermatch.link", "verify_witness", None),
    ("hypermatch.link", "canonical_form", None),
    ("hypermatch.link", "build_link_graph", None),
    ("hypermatch.extract", "find_complete_r_partite", _extract),
    ("hypermatch.extract", "extract_one_three", _extract),
    ("hypermatch.extract", "extract_two_two", _extract),
    ("hypermatch.extract", "extract_partite_volume", _extract),
    ("hypermatch.absorb", "build_absorbing_matching", _absorber),
    ("hypermatch.absorb", "absorb", None),
    ("hypermatch.pipeline", "solve_pipeline", _pipeline),
    ("hypermatch.pipeline", "detect_extremal", None),
    ("hypermatch.pipeline", "extremal_matcher", None),
    ("hypermatch.pipeline", "build_initial_cover", None),
    ("hypermatch.pipeline", "extend_cover_two_classes", _gain),
    ("hypermatch.pipeline", "extend_cover_nine_sided", _gain),
    ("hypermatch.pipeline", "extend_cover_triples", _gain),
    ("hypermatch.construct", "random_link_graph", None),
    ("hypermatch.construct", "random_dense_hypergraph", None),
)

#: The input generator that set-up calls, traced once more over a set-up.
SETUP_TARGETS = (("hypermatch.construct", "random_dense_hypergraph", None),)


def layer_metrics(loop: Tracer, setup: Tracer, traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Layer spans count inside the timed loop only, so the ``self_s`` metrics
    plus ``bench.unattributed_s`` (the loop's traced wall time not covered by
    any layer span) add up to ``bench.traced_wall_s``.  The input generators
    also run in set-up; ``random_dense_hypergraph``'s time there (part of
    ``pipeline-threshold``'s set-up) is reported apart, as its ``setup_self_s``.
    """
    totals = loop.totals()
    gen = setup.totals()
    c = loop.counts

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("core.partite_density", "core.induce"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["core.edges_scanned"] = (c["core.edges_scanned"], "count")

    for op in ("solve_pipeline", "detect_extremal", "extremal_matcher",
               "build_initial_cover", "extend_cover_two_classes",
               "extend_cover_nine_sided", "extend_cover_triples"):
        m[f"pipeline.{op}.self_s"] = (self_s(f"pipeline.{op}"), "s")
    for op in ("extend_cover_two_classes", "extend_cover_nine_sided",
               "extend_cover_triples"):
        m[f"pipeline.{op}.gain"] = (c[f"pipeline.{op}.gain"], "count")
    runs = c["pipeline.runs"]
    m["pipeline.extend_rounds"] = (c["pipeline.extend_rounds"], "count")
    m["pipeline.fallback_share"] = (share(c["pipeline.fallback_used"], runs), "ratio")
    m["pipeline.fallback_skipped"] = (c["pipeline.fallback_skipped"], "count")
    m["pipeline.track_extremal_share"] = (share(c["pipeline.track_extremal"], runs),
                                          "ratio")

    m["absorb.build_absorbing_matching.self_s"] = (
        self_s("absorb.build_absorbing_matching"), "s")
    m["absorb.absorb.self_s"] = (self_s("absorb.absorb"), "s")
    m["absorb.attempts"] = (c["absorb.attempts"], "count")
    m["absorb.registration_share"] = (
        share(c["absorb.successes"], c["absorb.attempts"]), "ratio")

    for op in ("find_complete_r_partite", "extract_one_three", "extract_two_two",
               "extract_partite_volume"):
        name = f"extract.{op}"
        n = calls(name)
        m[f"{name}.calls"] = (n, "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.hit_share"] = (share(c[f"{name}.hits"], n), "ratio")
        m[f"{name}.bucket_share"] = (share(c[f"{name}.bucket"], c[f"{name}.hits"]),
                                     "ratio")
    m["extract.insufficient_density"] = (c["extract.insufficient_density"], "count")

    n = calls("solve.has_perfect_matching")
    m["solve.has_perfect_matching.calls"] = (n, "count")
    m["solve.has_perfect_matching.self_s"] = (self_s("solve.has_perfect_matching"), "s")
    m["solve.has_perfect_matching.found_share"] = (
        share(c["solve.has_perfect_matching.found"], n), "ratio")
    m["solve.max_matching_exact.calls"] = (calls("solve.max_matching_exact"), "count")
    m["solve.max_matching_exact.self_s"] = (self_s("solve.max_matching_exact"), "s")
    m["solve.nodes_explored"] = (c["solve.nodes_explored"], "count")
    m["solve.timed_out"] = (c["solve.timed_out"], "count")
    m["solve.hall_matching.self_s"] = (self_s("solve.hall_matching"), "s")

    m["link.classify.calls"] = (calls("link.classify"), "count")
    m["link.classify.self_s"] = (self_s("link.classify"), "s")
    for verdict in ("PerfectMatching", "H432", "H4221", "H3321", "Ext"):
        m[f"link.verdict.{verdict}"] = (c[f"link.verdict.{verdict}"], "count")
    m["link.verify_witness.self_s"] = (self_s("link.verify_witness"), "s")
    m["link.canonical_form.calls"] = (calls("link.canonical_form"), "count")
    m["link.canonical_form.self_s"] = (self_s("link.canonical_form"), "s")
    m["link.build_link_graph.self_s"] = (self_s("link.build_link_graph"), "s")

    m["construct.random_link_graph.self_s"] = (self_s("construct.random_link_graph"), "s")
    m["construct.random_dense_hypergraph.self_s"] = (
        self_s("construct.random_dense_hypergraph"), "s")
    m["construct.random_dense_hypergraph.setup_self_s"] = (
        gen.get("construct.random_dense_hypergraph", (0, 0.0))[1], "s")

    attributed = sum(s for _calls, s in totals.values())
    m["bench.traced_wall_s"] = (traced_wall, "s")
    m["bench.untraced_wall_s"] = (untraced_wall, "s")
    m["bench.unattributed_s"] = (traced_wall - attributed, "s")
    m["bench.trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    return m
