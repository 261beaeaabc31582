"""Acceptance suite: the nine headline guarantees, one test (and one printed
PASS/FAIL line) per criterion.

Each test prints its verdict to the real stdout so the line survives pytest's
capture, then asserts.  Scales are the stated ones; the determinism criterion
reruns every verification campaign at reduced-but-real scale, compares
bytes, and checks the output's digest against ``output_digests.txt``.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

from hypermatch import cli
from hypermatch.absorb import absorb, build_absorbing_matching
from hypermatch.construct import (
    extremal_construction,
    extremal_link_graph,
    random_dense_hypergraph,
    threshold,
)
from hypermatch.core import Hypergraph, validate_matching
from hypermatch.errors import AbsorptionFailed
from hypermatch.extract import (
    extract_one_three,
    extract_partite_volume,
    extract_two_two,
    find_complete_r_partite,
)
from hypermatch.link import Verdict, classify, is_ext, tripartite_perfect_matching
from hypermatch.pipeline import PipelineConfig, solve_pipeline
from hypermatch.solve import has_perfect_matching, max_matching_exact

import pytest


@pytest.fixture
def verdict(capsys):
    """One PASS/FAIL line per criterion, written past pytest's capture."""

    def _verdict(name: str, ok: bool, detail: str = "") -> None:
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def test_c1_threshold_arithmetic(verdict):
    bad = [
        n
        for n in (8, 12, 16, 20, 40)
        if threshold(n) != comb(n - 1, 3) - comb(3 * n // 4, 3) + 1
    ]
    verdict("C1 threshold arithmetic", not bad, "n in {8,12,16,20,40}")


def test_c2_construction_tightness(verdict):
    failures = []
    for n in (8, 12, 16, 20):
        h = extremal_construction(n)
        result = max_matching_exact(h)
        if not result.optimal or len(result.matching) != n // 4 - 1:
            failures.append((n, "matching"))
        if h.min_degree(1) != threshold(n) - 1:
            failures.append((n, "degree"))
    verdict("C2 construction tightness", not failures, str(failures or "exact"))


def test_c3_classification_campaign(verdict):
    summary = cli._run_jobs(
        [("acc-c3", i * 125_000, 125_000, 12_500) for i in range(8)],
        cli._lemma37_chunk,
        n_jobs=1,
    )
    ok = (
        summary["violations"] == []
        and summary["counts"]["uniform"] >= 1_000_000
        and summary["counts"]["adversarial"] >= 100_000
    )
    verdict(
        "C3 classification lemma",
        ok,
        f"{summary['counts']['uniform']} uniform + "
        f"{summary['counts']['adversarial']} adversarial, "
        f"{len(summary['violations'])} violations",
    )


def test_c4_extremal_link_graph(verdict):
    mask = extremal_link_graph()
    problems = []
    if mask.bit_count() != 37:
        problems.append("popcount")
    if tripartite_perfect_matching(mask) is not None:
        problems.append("has-pm")
    if is_ext(mask) is None:
        problems.append("not-ext")
    free_bits = [b for b in range(64) if not mask >> b & 1]
    if len(free_bits) != 27:
        problems.append("free-bit-count")
    for b in free_bits:
        result = classify(mask | 1 << b)
        if result.verdict is Verdict.EXT:
            problems.append(f"superset-ext-{b}")
    verdict("C4 terminal link graph", not problems, str(problems or "all 27 supersets"))


def test_c5_oracle_agreement(verdict):
    summary = cli._run_jobs(
        [("acc-c5", i * 2500, 2500, 12) for i in range(4)],
        cli._solver_chunk,
        n_jobs=1,
    )
    ok = summary["counts"]["trials"] >= 10_000 and summary["violations"] == []
    verdict(
        "C5 oracle agreement",
        ok,
        f"{summary['counts']['trials']} trials, "
        f"{len(summary['violations'])} mismatches",
    )


def _planted_extraction_instance(rng, kind: str, size: int):
    """A 16-vertex instance with one planted complete balanced block of the
    requested role pattern, plus role-respecting noise."""
    n = 16
    a, b, c = list(range(3)), list(range(3, 6)), list(range(6, 9))
    z = list(range(9, n))
    if kind == "one-three":
        pool_a, pools = a, [z, z, z]
    elif kind == "two-two":
        pool_a, pools = a, [b, z, z]
    elif kind == "partite-volume":
        pool_a, pools = a, [b, c, z]
    else:  # complete 4-partite block anywhere
        pool_a, pools = list(range(n)), None
    if pools is None:
        verts = rng.sample(pool_a, 4 * size)
        classes = [sorted(verts[i * size : (i + 1) * size]) for i in range(4)]
    else:
        xs = sorted(rng.sample(pool_a, size))
        used: set = set(xs)
        classes = [xs]
        for pool in pools:
            picked = sorted(rng.sample(sorted(set(pool) - used), size))
            used.update(picked)
            classes.append(picked)
    edges = {tuple(sorted(t)) for t in product(*classes)}
    for e in combinations(range(n), 4):
        if rng.random() < 0.05:
            edges.add(e)
    return Hypergraph(n, 4, sorted(edges)), (a, b, c, z), classes


def _check_witness(h, w) -> bool:
    """Complete (exhaustive transversals), balanced, and class-disjoint."""
    if w is None or not w.verify_complete(h):
        return False
    sizes = {len(c) for c in w.classes}
    flat = [v for c in w.classes for v in c]
    return len(sizes) == 1 and len(flat) == len(set(flat))


def test_c6_extraction_postconditions(verdict):
    # small enough that the planted block alone clears every density gate
    eta = Fraction(1, 2048)
    kinds = ("one-three", "two-two", "partite-volume", "block")
    misses = {k: 0 for k in kinds}
    per_kind = 1000
    for kind in kinds:
        for i in range(per_kind):
            rng = random.Random(f"acc-c6/{kind}/{i}")
            size = 1 + i % 2
            h, (a, b, c, z), _ = _planted_extraction_instance(rng, kind, size)
            if kind == "one-three":
                w = extract_one_three(h, a, sorted(b + c + z), eta, size)
            elif kind == "two-two":
                w = extract_two_two(h, a, b, sorted(c + z), eta, size)
            elif kind == "partite-volume":
                w = extract_partite_volume(h, a, b, c, z, eta, size)
            else:
                w = find_complete_r_partite(h, size)
            if not _check_witness(h, w):
                misses[kind] += 1
    total_misses = sum(misses.values())
    verdict(
        "C6 extraction postconditions",
        total_misses == 0,
        f"{per_kind} planted instances per lemma, misses {misses}",
    )


def test_c7_absorbing_behavior(verdict):
    n = 40
    target = int(0.6 * comb(n - 1, 3))
    h = random_dense_hypergraph(n, target, seed="acc-c7")
    assert h.min_degree(1) >= target
    am = build_absorbing_matching(h, max_size=15, trials=64, seed="acc-c7",
                                  samples=200)
    rate = am.success_rate
    # fresh seeded 4-sets outside the base, not the ones the build sampled
    rng = random.Random("acc-c7/fresh")
    free = sorted(set(range(n)) - am.vertices())
    fresh = 200
    cover_failures = 0
    for _ in range(fresh):
        w = rng.sample(free, 4)
        try:
            out = absorb(h, am, [], w)
        except AbsorptionFailed:
            cover_failures += 1
            continue
        covered = {v for e in out for v in e}
        if covered != set(am.vertices()) | set(w) or not validate_matching(
            h, out
        ).valid:
            cover_failures += 1
    ok = am.attempts == 200 and rate >= 0.99 and cover_failures == 0
    verdict(
        "C7 absorbing behavior",
        ok,
        f"build {am.successes}/{am.attempts}, "
        f"{cover_failures} bad covers among {fresh} fresh absorbs",
    )


def test_c8_end_to_end(verdict):
    n = 32
    fallbacks = 0
    failures = []
    for i in range(100):
        h = random_dense_hypergraph(n, threshold(n), seed=f"acc-c8/{i}")
        m, report = solve_pipeline(h, PipelineConfig(seed=f"acc-c8/{i}"))
        if report.fallback_used:
            fallbacks += 1
        check = None if m is None else validate_matching(h, m)
        if m is None or not (check.valid and check.perfect):
            failures.append(i)
    below_bad = []
    for n_small in (8, 12, 16, 20):
        h = extremal_construction(n_small)
        m, _ = solve_pipeline(h)
        if m is not None or has_perfect_matching(h) is not None:
            below_bad.append(n_small)
    ok = not failures and fallbacks < 50 and not below_bad
    verdict(
        "C8 end-to-end",
        ok,
        f"{100 - len(failures)}/100 matched, {fallbacks} fallbacks, "
        f"below-threshold misses {below_bad}",
    )


def test_c9_campaign_determinism(verdict, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # counterexample artifacts, if any, land here
    campaigns = [
        ["verify", "lemma37", "--samples", "2000", "--adversarial", "400"],
        ["verify", "tightness", "--n", "8,12,16,20"],
        ["verify", "solver", "--trials", "300", "--n-max", "12"],
        ["verify", "absorb", "--samples", "30"],
        ["verify", "pipeline", "--instances", "4"],
    ]
    digests = Path(__file__).parent / "output_digests.txt"
    pinned = {
        line.split()[1]: line.split()[2]
        for line in digests.read_text().splitlines()
        if line.startswith("c9 ")
    }
    unstable, changed = [], []
    for argv in campaigns:
        runs = []
        for _ in range(2):
            code = cli.main(argv + ["--seed", "acc-c9", "--no-timings"])
            out = capsys.readouterr().out
            json.loads(out)  # structured output, not incidental prints
            runs.append((code, out))
        if runs[0] != runs[1]:
            unstable.append(argv[1])
        if hashlib.sha256(runs[0][1].encode()).hexdigest() != pinned[argv[1]]:
            changed.append(argv[1])
    verdict(
        "C9 campaign determinism",
        not unstable and not changed,
        f"unstable {unstable}, changed from {digests.name} {changed}"
        if unstable or changed
        else "5 campaigns, pinned digests",
    )
