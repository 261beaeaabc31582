"""Command-line surface: gen / solve / classify / verify / stats.

All structured output is JSON on stdout.  Exit codes: 0 = success (perfect
matching found, classification done, campaign clean), 1 = negative result
(no matching, not applicable, violations found), 2 = usage or input error,
3 = gave up (``solve`` used its node budget, or skipped the exact fallback
above its size cap, without an answer).
Campaigns fan out over seed ranges with --jobs; reductions are
order-independent (summed counts, minimum-canonical counterexamples).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import comb
from typing import Optional

from . import construct, link
from .construct import InstanceRecipe
from .core import Hypergraph, format_hg, load_hg, validate_matching
from .errors import AbsorptionFailed, HypermatchError, LemmaViolation
from .link import Verdict, classify, format_mask, parse_mask, verify_witness
from .pipeline import PipelineConfig, solve_pipeline
from .solve import has_perfect_matching, max_matching_bruteforce, max_matching_exact


def _default_seed() -> str:
    return os.environ.get("HYPERMATCH_SEED", "0")


def _emit(report: dict, no_timings: bool, started: float) -> None:
    if not no_timings:
        report["elapsed_seconds"] = round(time.perf_counter() - started, 3)
    json.dump(report, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _write_artifact(prefix: str, payload: dict) -> str:
    path = f"{prefix}-counterexample.json"
    with open(path, "w", encoding="ascii") as f:
        json.dump(payload, f, sort_keys=True)
    return path


# -- gen -----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    seed = args.seed
    params: dict = {}
    if args.kind == "extremal":
        h = construct.extremal_construction(args.n)
        content = format_hg(h)
    elif args.kind == "complete":
        from itertools import combinations

        h = Hypergraph(args.n, 4, combinations(range(args.n), 4))
        content = format_hg(h)
    elif args.kind == "random":
        if args.min_deg is None:
            raise ValueError("gen random requires --min-deg")
        params["min_deg"] = args.min_deg
        h = construct.random_dense_hypergraph(args.n, args.min_deg, seed)
        content = format_hg(h)
    elif args.kind == "planted":
        params["noise"] = args.noise
        h, _ = construct.planted_pm_instance(args.n, args.noise, seed)
        content = format_hg(h)
    elif args.kind == "hext":
        content = format_mask(construct.extremal_link_graph()) + "\n"
    elif args.kind == "linkgraph":
        params["min_edges"] = args.min_edges
        content = format_mask(construct.random_link_graph(args.min_edges, seed)) + "\n"
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    recipe = InstanceRecipe(args.kind, args.n, seed, params)
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(content)
        with open(args.out + ".manifest.json", "w", encoding="ascii") as f:
            f.write(recipe.to_json() + "\n")
        _emit({"out": args.out, "manifest": json.loads(recipe.to_json())},
              args.no_timings, args._started)
    else:
        sys.stdout.write(content)
    return 0


# -- solve ---------------------------------------------------------------------


def _cmd_solve(args) -> int:
    h = load_hg(args.input)
    report: dict = {"n": h.n, "r": h.r, "edges": len(h.edges), "mode": args.mode}
    mode = args.mode
    if mode == "auto":
        # the pipeline solves 4-graphs whose n is a multiple of 4
        mode = "pipeline" if h.r == 4 and h.n % 4 == 0 else "exact"
    found: Optional[tuple] = None
    if mode == "exact":
        result = max_matching_exact(h, node_budget=args.budget)
        report["max_matching"] = len(result.matching)
        report["optimal"] = result.optimal
        report["path"] = "exact"
        if h.n % h.r == 0 and len(result.matching) == h.n // h.r:
            found = result.matching
        # with n not a multiple of r there is no perfect matching to miss
        gave_up = found is None and result.timed_out and h.n % h.r == 0
    else:
        cfg = PipelineConfig(seed=args.seed)
        found, prep = solve_pipeline(h, cfg)
        # the exact fallback is the pipeline's last word; past its size cap
        # a missing matching is unproven
        gave_up = any(s["name"] == "fallback-skipped" for s in prep.stages)
        report["path"] = prep.path
        report["pipeline_report"] = json.loads(prep.to_json())
    if found is not None:
        check = validate_matching(h, found)
        if not (check.valid and check.perfect):
            raise HypermatchError("solver returned an invalid matching")
        report["matching"] = [list(e) for e in found]
    status = "gave-up" if gave_up else "none" if found is None else "found"
    report["status"] = status
    report["perfect_matching"] = None if gave_up else found is not None
    _emit(report, args.no_timings, args._started)
    return {"found": 0, "none": 1, "gave-up": 3}[status]


# -- classify --------------------------------------------------------------------


def _witness_json(result) -> object:
    if result.verdict is Verdict.PERFECT_MATCHING:
        return [list(t) for t in result.witness]
    if result.verdict is Verdict.EXT:
        return list(result.witness)
    ps = result.witness
    return {"side": list(ps.side), "pairs": [list(p) for p in ps.pairs],
            "degrees": list(ps.degrees)}


def _cmd_classify(args) -> int:
    text = args.mask
    if os.path.exists(text):
        with open(text, "r", encoding="ascii") as f:
            text = f.read().strip()
    mask = parse_mask(text)
    report: dict = {"mask": format_mask(mask), "popcount": mask.bit_count()}
    if mask.bit_count() < 37:
        report["verdict"] = "NotApplicable"
        _emit(report, args.no_timings, args._started)
        return 1
    result = classify(mask)
    report["verdict"] = result.verdict.value
    report["witness"] = _witness_json(result)
    report["witness_ok"] = verify_witness(mask, result)
    report["canonical"] = format_mask(link.canonical_form(mask))
    _emit(report, args.no_timings, args._started)
    return 0


# -- verify campaigns ------------------------------------------------------------
#
# Worker functions are module-level so ProcessPoolExecutor can pickle them.


def _classify_one(mask: int) -> Optional[dict]:
    """None when the mask classifies cleanly, else a violation record."""
    try:
        result = classify(mask)
    except LemmaViolation:
        return {"mask": format_mask(mask), "kind": "lemma-violation"}
    if not verify_witness(mask, result):
        return {"mask": format_mask(mask), "kind": "bad-witness",
                "verdict": result.verdict.value}
    return None


def _lemma37_chunk(job: tuple) -> dict:
    seed, start, uniform, adversarial = job
    violations: list[dict] = []
    counts = {"uniform": 0, "adversarial": 0}
    for i in range(start, start + uniform):
        mask = construct.random_link_graph(37, f"{seed}/u{i}")
        counts["uniform"] += 1
        v = _classify_one(mask)
        if v is not None:
            violations.append(v)
    rng = random.Random(f"{seed}/adv/{start}")
    bases = [construct.extremal_link_graph()]
    for kind in link.Pattern:
        bases.append(construct.pattern_witness(kind, f"{seed}/{start}", 0.6))
    for i in range(adversarial):
        mask = bases[i % len(bases)]
        # mutate a few bits, keeping at least 37 set
        for _ in range(rng.randrange(1, 6)):
            b = rng.randrange(64)
            flipped = mask ^ (1 << b)
            if flipped.bit_count() >= 37:
                mask = flipped
        while mask.bit_count() < 37:
            mask |= 1 << rng.randrange(64)
        counts["adversarial"] += 1
        v = _classify_one(mask)
        if v is not None:
            violations.append(v)
    return {"counts": counts, "violations": violations}


def _solver_chunk(job: tuple) -> dict:
    seed, start, trials, n_max = job
    mismatches = []
    done = 0
    for i in range(start, start + trials):
        rng = random.Random(f"{seed}/solver/{i}")
        n = rng.choice([v for v in range(8, n_max + 1)])
        p = rng.uniform(0.02, 0.3)
        from itertools import combinations

        edges = [e for e in combinations(range(n), 4) if rng.random() < p]
        if len(edges) > 200:
            edges = edges[:200]
        h = Hypergraph(n, 4, edges)
        exact = len(max_matching_exact(h).matching)
        brute = max_matching_bruteforce(h)
        done += 1
        if exact != brute:
            mismatches.append({"seed": f"{seed}/solver/{i}", "exact": exact,
                               "brute": brute})
    return {"counts": {"trials": done}, "violations": mismatches}


def _pipeline_chunk(job: tuple) -> dict:
    seed, start, instances, n = job
    failures = []
    fallbacks = 0
    done = 0
    for i in range(start, start + instances):
        h = construct.random_dense_hypergraph(
            n, construct.threshold(n), f"{seed}/pipe/{i}"
        )
        m, rep = solve_pipeline(h, PipelineConfig(seed=f"{seed}/pipe/{i}"))
        done += 1
        if rep.fallback_used:
            fallbacks += 1
        if m is None:
            failures.append({"seed": f"{seed}/pipe/{i}"})
    return {"counts": {"instances": done, "fallbacks": fallbacks},
            "violations": failures}


def _run_jobs(jobs: list, worker, n_jobs: int) -> dict:
    results = []
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(worker, jobs))
    else:
        results = [worker(j) for j in jobs]
    counts: dict = {}
    violations: list = []
    for r in results:
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v
        violations.extend(r["violations"])
    violations.sort(key=lambda d: json.dumps(d, sort_keys=True))
    return {"counts": counts, "violations": violations}


def _campaign_lemma37(args) -> dict:
    chunks = max(args.jobs, 1) * 4
    per_u = -(-args.samples // chunks)
    per_a = -(-args.adversarial // chunks)
    jobs = [(args.seed, i * per_u, per_u, per_a) for i in range(chunks)]
    return _run_jobs(jobs, _lemma37_chunk, args.jobs)


def _one_n(args, default: int) -> int:
    """The size of a one-size campaign; a list of sizes is a usage error."""
    if args.n is None:
        return default
    if "," in args.n:
        raise ValueError(f"verify {args.campaign} takes one --n, got {args.n!r}")
    return int(args.n)


def _campaign_tightness(args) -> dict:
    ns = [int(x) for x in (args.n or "8,12,16,20").split(",")]
    violations = []
    for n in ns:
        h = construct.extremal_construction(n)
        mm = len(max_matching_exact(h).matching)
        d1 = h.min_degree(1)
        want = construct.threshold(n)
        if mm != n // 4 - 1 or d1 != want - 1:
            violations.append({"n": n, "max_matching": mm, "min_degree": d1})
    return {"counts": {"sizes": len(ns)}, "violations": violations}


def _campaign_solver(args) -> dict:
    chunks = max(args.jobs, 1) * 4
    per = -(-args.trials // chunks)
    jobs = [(args.seed, i * per, per, args.n_max) for i in range(chunks)]
    return _run_jobs(jobs, _solver_chunk, args.jobs)


def _campaign_absorb(args) -> dict:
    from .absorb import absorb, build_absorbing_matching

    n = _one_n(args, 40)
    target = int(Fraction(6, 10) * comb(n - 1, 3))
    h = construct.random_dense_hypergraph(n, target, args.seed)
    am = build_absorbing_matching(
        h, max_size=15, trials=64, seed=args.seed, samples=args.samples
    )
    violations = []
    checked = 0
    # fresh seeded 4-sets outside the base, not the ones the build sampled
    rng = random.Random(f"{args.seed}/absorb-check")
    free = sorted(set(range(n)) - am.vertices())
    for _ in range(20):
        w = sorted(rng.sample(free, 4))
        try:
            out = absorb(h, am, [], w)
        except AbsorptionFailed:
            out = ()
        covered = {v for e in out for v in e}
        if covered != set(am.vertices()) | set(w):
            violations.append({"w": w})
        checked += 1
    rate = am.success_rate
    counts = {"attempts": am.attempts, "successes": am.successes,
              "absorb_checked": checked}
    if rate < 0.99:
        violations.append({"kind": "low-success-rate", "rate": rate})
    return {"counts": counts, "violations": violations, "success_rate": rate}


def _campaign_pipeline(args) -> dict:
    chunks = max(args.jobs, 1) * 4
    per = -(-args.instances // chunks)
    n = _one_n(args, 32)
    jobs = [(args.seed, i * per, per, n) for i in range(chunks)]
    summary = _run_jobs(jobs, _pipeline_chunk, args.jobs)
    # below-threshold instances must come back empty, confirmed by the oracle
    below = []
    for n in (8, 12, 16, 20):
        h = construct.extremal_construction(n)
        m, _ = solve_pipeline(h, PipelineConfig(seed=args.seed))
        oracle = has_perfect_matching(h)
        if m is not None or oracle is not None:
            summary["violations"].append({"kind": "below-threshold", "n": n})
        below.append(n)
    summary["counts"]["below_threshold_sizes"] = len(below)
    return summary


def _cmd_verify(args) -> int:
    runners = {
        "lemma37": _campaign_lemma37,
        "tightness": _campaign_tightness,
        "solver": _campaign_solver,
        "absorb": _campaign_absorb,
        "pipeline": _campaign_pipeline,
    }
    summary = runners[args.campaign](args)
    report = {"campaign": args.campaign, "seed": args.seed, **summary}
    if summary["violations"]:
        report["artifact"] = _write_artifact(
            args.campaign, {"violations": summary["violations"]}
        )
    _emit(report, args.no_timings, args._started)
    return 0 if not summary["violations"] else 1


# -- stats -----------------------------------------------------------------------


def _cmd_stats(args) -> int:
    h = load_hg(args.input)
    report: dict = {"n": h.n, "r": h.r, "edges": len(h.edges)}
    for d in range(1, h.r):
        report[f"min_degree_{d}"] = h.min_degree(d)
    report["density"] = str(Fraction(len(h.edges), comb(h.n, h.r)))
    if h.r == 4 and h.n % 4 == 0 and h.n >= 8:
        t = construct.threshold(h.n)
        report["threshold"] = t
        d1 = report["min_degree_1"]
        report["threshold_flag"] = (
            "below threshold" if d1 < t else ("at threshold" if d1 == t else "above")
        )
    _emit(report, args.no_timings, args._started)
    return 0


# -- parser -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hypermatch",
        description="Perfect matchings in 4-uniform hypergraphs (batch use only).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", default=_default_seed())
    common.add_argument("--no-timings", action="store_true")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", parents=[common],
                       help="generate instances and link graphs")
    g.add_argument("kind", choices=["extremal", "complete", "random", "planted",
                                    "hext", "linkgraph"])
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--min-deg", type=int, default=None)
    g.add_argument("--min-edges", type=int, default=37)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", parents=[common], help="solve one .hg instance")
    s.add_argument("input")
    s.add_argument("--mode", choices=["exact", "pipeline", "auto"], default="auto")
    s.add_argument("--budget", type=int, default=2_000_000)
    s.set_defaults(func=_cmd_solve)

    c = sub.add_parser("classify", parents=[common],
                       help="classify a 16-hex link-graph mask")
    c.add_argument("mask", help="16 hex digits or a file containing them")
    c.set_defaults(func=_cmd_classify)

    v = sub.add_parser("verify", parents=[common], help="run a verification campaign")
    v.add_argument("campaign", choices=["lemma37", "tightness", "solver",
                                        "absorb", "pipeline"])
    v.add_argument("--samples", type=int, default=10_000)
    v.add_argument("--adversarial", type=int, default=1_000)
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--instances", type=int, default=10)
    v.add_argument("--n", default=None,
                   help="sizes: a comma list for tightness (default 8,12,16,20), "
                        "one size for absorb (default 40) and pipeline (default 32)")
    v.add_argument("--n-max", type=int, dest="n_max", default=12)
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(func=_cmd_verify)

    st = sub.add_parser("stats", parents=[common], help="summarize a .hg instance")
    st.add_argument("input")
    st.set_defaults(func=_cmd_stats)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors (2) and --help (0)
        return exc.code
    args._started = time.perf_counter()
    try:
        return args.func(args)
    except (HypermatchError, ValueError, OSError) as exc:
        json.dump({"error": f"{type(exc).__name__}: {exc}"}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
