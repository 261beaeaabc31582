"""Two-track perfect-matching pipeline.

Track one (near-extremal inputs): detect a large sparse vertex set B and run
the König–Hall style matcher that pairs every vertex outside B with a triple
inside B, after clearing exceptional vertices.  Track two (everything else):
reserve a small absorbing matching, grow a cover of disjoint complete
balanced 4-partite blocks, extend it with the three cover-extension moves
until the leftover is tiny, decompose blocks into matching edges, and absorb
the leftover.  Any failure falls back to the exact solver on small inputs.

Cover blocks all share the configured class size, so every extension move is
transactional: a move either consumes whole blocks and commits a strictly
larger cover, or reverts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import ceil, comb
from typing import Optional, Sequence

from .core import (
    DensityKind,
    Edge,
    Hypergraph,
    PartiteSpec,
    validate_matching,
)
from .errors import AbsorptionFailed, Indivisible, InsufficientDensity, NotApplicable
from .absorb import AbsorbingMatching, absorb, build_absorbing_matching
from .extract import (
    MultipartiteWitness,
    extract_one_three,
    extract_two_two,
    extract_partite_volume,
    find_complete_r_partite,
)
from .link import Verdict, build_link_graph, classify
from .solve import (
    hall_matching,
    has_perfect_matching,
    min_degree_peel_vertices,
)


def _rng(seed, stream: str) -> random.Random:
    return random.Random(f"{seed}/{stream}")


@dataclass(frozen=True)
class PipelineConfig:
    """Exact-arithmetic knobs of the pipeline.

    gamma bounds the leftover fraction and gates cover connectedness (2*gamma
    densities); alpha is the extremal-detection parameter; eta gates
    link-graph edges.  l is the uniform cover class size.
    """

    gamma: Fraction = Fraction(1, 16)
    alpha: Fraction = Fraction(1, 10)
    eta: Optional[Fraction] = None
    l: int = 1
    seed: object = 0
    extract_budget: int = 200_000
    absorber_max_size: int = 9
    absorber_trials: int = 64
    absorber_samples: int = 16
    triples_cap: int = 30
    max_iterations: int = 12
    fallback_n_max: int = 64

    def __post_init__(self):
        if not 0 < self.gamma <= self.alpha <= 1:
            raise ValueError("need 0 < gamma <= alpha <= 1")
        if self.l < 1:
            raise ValueError("class size l must be >= 1")
        if self.eta is not None and self.eta <= 0:
            raise ValueError("eta must be positive")

    @property
    def link_eta(self) -> Fraction:
        return self.eta if self.eta is not None else self.gamma


@dataclass(frozen=True)
class Cover:
    """Vertex-disjoint complete balanced 4-partite blocks inside a universe."""

    universe: tuple[int, ...]
    class_size: int
    blocks: tuple[MultipartiteWitness, ...]

    def covered(self) -> frozenset[int]:
        return frozenset(v for w in self.blocks for v in w.vertices())

    @property
    def leftover(self) -> tuple[int, ...]:
        cov = self.covered()
        return tuple(v for v in self.universe if v not in cov)

    def verify(self, h: Hypergraph) -> bool:
        """Disjointness, balance at the class size, and completeness."""
        seen: set[int] = set()
        uni = set(self.universe)
        for w in self.blocks:
            vs = w.vertices()
            if vs & seen or not vs <= uni:
                return False
            seen |= vs
            if any(len(c) != self.class_size for c in w.classes):
                return False
            if not w.verify_complete(h):
                return False
        return True


@dataclass
class PipelineReport:
    """Diagnostics of one pipeline run; JSON-stable field names."""

    path: str = "non-extremal"
    stages: list = field(default_factory=list)
    cover_trace: list = field(default_factory=list)
    absorber_stats: dict = field(default_factory=dict)
    fallback_used: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "path": self.path,
                "stages": self.stages,
                "cover_trace": self.cover_trace,
                "absorber_stats": self.absorber_stats,
                "fallback_used": self.fallback_used,
            },
            sort_keys=True,
        )


# -- extremal detection ------------------------------------------------------


def detect_extremal(h: Hypergraph, alpha: Fraction) -> Optional[tuple[int, ...]]:
    """A vertex set B with |B| >= (3/4 - alpha)n and density(B) < alpha.

    Seeds B with the smallest-degree vertices and runs bounded
    single-swap local improvement; None means not found, not nonexistence.
    """
    alpha = Fraction(alpha)
    need = (Fraction(3, 4) - alpha) * h.n
    b_size = int(need) + (0 if need == int(need) else 1)
    if b_size < h.r or b_size > h.n:
        return None
    by_degree = sorted(range(h.n), key=lambda v: (h.degree((v,)), v))
    b = set(by_degree[:b_size])
    bits = h._vertex_bits
    inside = h._exactly(b, h.r)
    for _ in range(2 * h.n):
        if Fraction(inside.bit_count(), comb(b_size, h.r)) < alpha:
            break
        # swap the B vertex of most inside edges for the outside vertex
        # of fewest inflow edges (edges with all but that vertex in B)
        inflow = h._exactly(b, h.r - 1)
        u = max(b, key=lambda v: ((bits[v] & inside).bit_count(), -v))
        w = min(
            (v for v in range(h.n) if v not in b),
            key=lambda v: ((bits[v] & inflow).bit_count(), v),
        )
        cand = (b - {u}) | {w}
        nxt = h._exactly(cand, h.r)
        if nxt.bit_count() >= inside.bit_count():
            break
        b, inside = cand, nxt
    if Fraction(inside.bit_count(), comb(b_size, h.r)) < alpha:
        return tuple(sorted(b))
    return None


# -- cover construction and extension ----------------------------------------


def build_initial_cover(
    h: Hypergraph, cfg: PipelineConfig, universe: Optional[Sequence[int]] = None
) -> Cover:
    """Repeatedly pull disjoint complete balanced blocks out of the leftover
    until the leftover drops below gamma*n or no block is found."""
    uni = tuple(sorted(universe)) if universe is not None else tuple(range(h.n))
    blocks: list[MultipartiteWitness] = []
    left = list(uni)
    while Fraction(len(left)) >= cfg.gamma * h.n and len(left) >= 4 * cfg.l:
        w = find_complete_r_partite(h, cfg.l, cfg.extract_budget, allowed=left)
        if w is None:
            break
        blocks.append(w)
        taken = w.vertices()
        left = [v for v in left if v not in taken]
    return Cover(uni, cfg.l, tuple(blocks))


def extend_cover_two_classes(
    h: Hypergraph, cover: Cover, cfg: PipelineConfig
) -> tuple[Cover, int]:
    """Replace each block with two classes connected to the leftover by two
    larger one-class-plus-leftover blocks; discards rejoin the leftover.

    Net vertex gain is 4*l per converted block.
    """
    l = cover.class_size
    out: list[MultipartiteWitness] = []
    leftover = set(cover.leftover)
    gain = 0
    for w in cover.blocks:
        pulls: list[MultipartiteWitness] = []
        pool = set(leftover)
        for cls in w.classes:
            if len(pulls) == 2:
                break
            if len(pool) < 3 * l:
                continue
            try:
                pulled = extract_one_three(
                    h, cls, sorted(pool), cfg.gamma, l, cfg.extract_budget
                )
            except InsufficientDensity:
                continue
            if pulled is None:
                continue
            pulls.append(pulled)
            pool -= pulled.vertices()
        if len(pulls) == 2:
            out.extend(pulls)
            used_i = frozenset(
                v for p in pulls for v in p.vertices()
            ) - w.vertices()
            leftover -= used_i
            leftover |= w.vertices() - frozenset(
                v for p in pulls for v in p.vertices()
            )
            gain += 4 * l
        else:
            out.append(w)
    return Cover(cover.universe, l, tuple(out)), gain


def _pair_connectivity(
    h: Hypergraph,
    wi: MultipartiteWitness,
    wj: MultipartiteWitness,
    leftover: Sequence[int],
    gamma: Fraction,
) -> list[list[bool]]:
    conn = [[False] * 4 for _ in range(4)]
    if len(leftover) < 2:
        return conn
    for p in range(4):
        for q in range(4):
            parts = PartiteSpec.of(wi.classes[p], wj.classes[q], leftover)
            conn[p][q] = (
                h.partite_density(DensityKind.SPLIT_1_1_2, parts) >= 2 * gamma
            )
    return conn


def _three_disjoint_class_pairs(
    conn: Sequence[Sequence[bool]],
) -> Optional[list[tuple[int, int]]]:
    for perm in permutations(range(4)):
        chosen = [(p, perm[p]) for p in range(4) if conn[p][perm[p]]]
        if len(chosen) >= 3:
            return chosen[:3]
    return None


def extend_cover_nine_sided(
    h: Hypergraph, cover: Cover, cfg: PipelineConfig
) -> tuple[Cover, int]:
    """Convert disjoint block pairs with >= 9 connected class-pairs into
    three two-plus-two blocks each; net gain 4*l per converted pair."""
    l = cover.class_size
    blocks = list(cover.blocks)
    if len(blocks) < 2:
        return cover, 0
    leftover = set(cover.leftover)
    conn_cache: dict[tuple[int, int], list[list[bool]]] = {}
    pair_edges: list[tuple[int, int]] = []
    left_sorted = sorted(leftover)
    for i, j in combinations(range(len(blocks)), 2):
        conn = _pair_connectivity(h, blocks[i], blocks[j], left_sorted, cfg.gamma)
        if sum(sum(row) for row in conn) >= 9:
            conn_cache[(i, j)] = conn
            pair_edges.append((i, j))
    if not pair_edges:
        return cover, 0
    aux = Hypergraph(len(blocks), 2, pair_edges)
    survivors = set(min_degree_peel_vertices(aux))
    chosen_pairs: list[tuple[int, int]] = []
    used_idx: set[int] = set()
    for i, j in pair_edges:
        if i in survivors and j in survivors and not {i, j} & used_idx:
            chosen_pairs.append((i, j))
            used_idx |= {i, j}
    consumed: set[int] = set()
    new_blocks: list[MultipartiteWitness] = []
    gain = 0
    for i, j in chosen_pairs:
        class_pairs = _three_disjoint_class_pairs(conn_cache[(i, j)])
        if class_pairs is None:
            continue
        pool = set(leftover)
        pulls: list[MultipartiteWitness] = []
        for p, q in class_pairs:
            if len(pool) < 2 * l:
                break
            try:
                pulled = extract_two_two(
                    h,
                    blocks[i].classes[p],
                    blocks[j].classes[q],
                    sorted(pool),
                    cfg.gamma,
                    l,
                    cfg.extract_budget,
                )
            except InsufficientDensity:
                break
            if pulled is None:
                break
            pulls.append(pulled)
            pool -= pulled.vertices()
        if len(pulls) != 3:
            continue
        consumed |= {i, j}
        new_blocks.extend(pulls)
        pulled_v = frozenset(v for p in pulls for v in p.vertices())
        old_v = blocks[i].vertices() | blocks[j].vertices()
        leftover -= pulled_v - old_v
        leftover |= old_v - pulled_v
        gain += 4 * l
    if not consumed:
        return cover, 0
    kept = [w for idx, w in enumerate(blocks) if idx not in consumed]
    return Cover(cover.universe, l, tuple(kept + new_blocks)), gain


def extend_cover_triples(
    h: Hypergraph, cover: Cover, cfg: PipelineConfig
) -> tuple[Cover, int, int]:
    """Classify block-triple link graphs and harvest the perfect-matching
    case with four diagonal pulls; covered-terminal (Ext) triples are counted.
    Degree-pattern verdicts change nothing: at uniform class size their
    pulls re-cover no more vertices than the three blocks they consume.
    """
    l = cover.class_size
    blocks = list(cover.blocks)
    leftover = set(cover.leftover)
    ext_triples = 0
    consumed: set[int] = set()
    new_blocks: list[MultipartiteWitness] = []
    gain = 0
    scanned = 0
    for a, b, c in combinations(range(len(blocks)), 3):
        if scanned >= cfg.triples_cap:
            break
        if {a, b, c} & consumed or len(leftover) < 1:
            continue
        scanned += 1
        specs = tuple(
            PartiteSpec.of(*blocks[x].classes) for x in (a, b, c)
        )
        mask = build_link_graph(h, specs, sorted(leftover), cfg.link_eta)
        if mask.bit_count() < 37:
            continue
        result = classify(mask)
        if result.verdict is Verdict.EXT:
            ext_triples += 1
            continue
        if result.verdict is Verdict.PERFECT_MATCHING:
            pool = set(leftover)
            pulls: list[MultipartiteWitness] = []
            for i, j, k in result.witness:
                if len(pool) < l:
                    break
                try:
                    pulled = extract_partite_volume(
                        h,
                        blocks[a].classes[i],
                        blocks[b].classes[j],
                        blocks[c].classes[k],
                        sorted(pool),
                        cfg.link_eta,
                        l,
                        cfg.extract_budget,
                    )
                except InsufficientDensity:
                    break
                if pulled is None:
                    break
                pulls.append(pulled)
                pool -= pulled.vertices()
            if len(pulls) != 4:
                continue
            consumed |= {a, b, c}
            new_blocks.extend(pulls)
            pulled_v = frozenset(v for p in pulls for v in p.vertices())
            old_v = (
                blocks[a].vertices() | blocks[b].vertices() | blocks[c].vertices()
            )
            leftover -= pulled_v - old_v
            leftover |= old_v - pulled_v
            gain += 4 * l
    if not consumed:
        return cover, 0, ext_triples
    kept = [w for idx, w in enumerate(blocks) if idx not in consumed]
    return Cover(cover.universe, l, tuple(kept + new_blocks)), gain, ext_triples


# -- extremal matcher ----------------------------------------------------------


def extremal_matcher(
    h: Hypergraph, b_set: Sequence[int], alpha: Fraction, seed=0
) -> Optional[tuple[Edge, ...]]:
    """Perfect matching for near-extremal inputs: pair each vertex outside B
    with a triple inside B after clearing exceptional vertices.

    Stages: rebalance to |A| = n/4; compute (strongly) exceptional sets by
    exact cube/square comparisons against alpha; exchange until one strongly
    exceptional side empties; greedily cover strongly exceptional then
    exceptional vertices; split the remaining B into triples (random layer
    plus an exact matching of high-common-degree triples) and finish with a
    bipartite matching.  If the greedy clearing runs dry the exact endgame is
    retried without it (sound either way); a dry endgame returns None.
    """
    alpha = Fraction(alpha)
    if h.n % 4 != 0:
        raise Indivisible(f"n = {h.n} is not a multiple of 4")
    n = h.n
    bits = h._vertex_bits
    b = set(b_set)
    a = set(range(n)) - b

    def deg_into_b() -> list[int]:
        """Per vertex v, the edges through v whose other vertices lie in B."""
        inside, to_b = h._exactly(b, h.r), h._exactly(b, h.r - 1)
        return [(bits[v] & (inside if v in b else to_b)).bit_count() for v in range(n)]

    while len(a) > n // 4:
        deg = deg_into_b()
        v = min(a, key=lambda u: (deg[u], u))
        a.discard(v)
        b.add(v)
    while len(a) < n // 4:
        deg = deg_into_b()
        v = max(b, key=lambda u: (deg[u], -u))
        b.discard(v)
        a.add(v)

    def exceptional_sets():
        cb3 = comb(len(b), 3)
        deg = deg_into_b()
        xa, sxa, xb, sxb = set(), set(), set(), set()
        for v in a:
            d = deg[v]
            if (cb3 - d) ** 2 > alpha * cb3 ** 2:
                xa.add(v)
            if d ** 3 < alpha * cb3 ** 3:
                sxa.add(v)
        for v in b:
            d = deg[v]
            if d ** 2 > alpha * cb3 ** 2:
                xb.add(v)
            if (cb3 - d) ** 3 < alpha * cb3 ** 3:
                sxb.add(v)
        return xa, sxa, xb, sxb

    xa, sxa, xb, sxb = exceptional_sets()
    for _ in range(n):
        if not (sxa and sxb):
            break
        u, v = min(sxa), min(sxb)
        a.discard(u)
        b.add(u)
        b.discard(v)
        a.add(v)
        xa, sxa, xb, sxb = exceptional_sets()

    def clearing(a: set[int], b: set[int]):
        """Greedy pre-matching that covers the exceptional vertices, or None
        when some stage exhausts candidates."""
        if sxa and sxb:
            return None
        matching: list[Edge] = []
        used: set[int] = set()
        blocked = 0  # the edges meeting a used vertex

        def take(candidates: int) -> bool:
            """Add the first candidate edge disjoint from the matching."""
            nonlocal blocked
            free = candidates & ~blocked
            if not free:
                return False
            e = h.edges[(free & -free).bit_length() - 1]
            matching.append(e)
            used.update(e)
            for u in e:
                blocked |= bits[u]
            return True

        if sxb:
            inside_b = h._exactly(b, h.r)
            for v in sorted(sxb):
                if not take(bits[v] & inside_b):
                    return None
            two_two = h._exactly(b - xb, 2) & h._exactly(a, 2)
            for _ in range(len(sxb)):
                if not take(two_two):
                    return None
        elif sxa:
            inside_pool = h._exactly(sxa | b, h.r)
            for v in sorted(sxa):
                if not (take(bits[v] & inside_pool) or take(inside_pool)):
                    return None
            a -= sxa
            b |= sxa  # uncovered strongly exceptional vertices join B

        to_b = h._exactly(b, h.r - 1)
        for v in sorted(xa & a - used):
            if not take(bits[v] & to_b):
                return None
        one_three = h._exactly(a, 1) & h._exactly(b, 3)
        for v in sorted(xb & b - used):
            if not take(bits[v] & one_three):
                return None
        return matching, used, a, b

    cleared = clearing(set(a), set(b))
    if cleared is None:
        # Clearing ran dry (typical when the input is so dense that every
        # vertex counts as exceptional); the exact Hall endgame below is
        # still sound, so retry it with no clearing at all.
        cleared = ([], set(), set(a), set(b))
    matching, used, a, b = cleared

    a2 = sorted(a - used)
    b2 = sorted(b - used)
    if len(b2) != 3 * len(a2):
        return None
    if not a2:
        check = validate_matching(h, matching)
        return tuple(sorted(matching)) if check.valid and check.perfect else None

    rng = _rng(seed, "extremal/t1")
    t1_target = min(len(b2) // 3, ceil(100 * float(alpha) ** 0.25 * len(b2)))
    shuffled = list(b2)
    rng.shuffle(shuffled)
    t1 = [tuple(sorted(shuffled[i : i + 3])) for i in range(0, 3 * t1_target, 3)]
    rest = sorted(set(b2) - {v for t in t1 for v in t})
    triples: list[tuple[int, int, int]] = list(t1)
    if rest:
        # exact matching on the high-common-degree triple 3-graph
        bound = (40 ** 4) * alpha * len(a2) ** 4
        good = []
        for t in combinations(rest, 3):
            common = sum(1 for u in a2 if h.has_edge(t + (u,)))
            if (len(a2) - common) ** 4 <= bound:
                good.append(t)
        pos = {v: i for i, v in enumerate(rest)}
        aux = Hypergraph(len(rest), 3, [tuple(pos[v] for v in t) for t in good])
        pm = has_perfect_matching(aux)
        if pm is None:
            return None
        triples.extend(tuple(rest[i] for i in t) for t in pm)

    adjacency = [
        [i for i, u in enumerate(a2) if h.has_edge(t + (u,))] for t in triples
    ]
    outcome = hall_matching(adjacency, len(a2))
    if outcome.matching is None:
        return None
    for r, li in outcome.matching.items():
        matching.append(tuple(sorted(triples[r] + (a2[li],))))
    result = tuple(sorted(matching))
    check = validate_matching(h, result)
    return result if check.valid and check.perfect else None


# -- orchestration -------------------------------------------------------------


def _blocks_to_matching(cover: Cover) -> list[Edge]:
    """A complete balanced block with classes of size l is l disjoint edges
    (index transversals)."""
    out: list[Edge] = []
    for w in cover.blocks:
        for t in range(cover.class_size):
            out.append(tuple(sorted(c[t] for c in w.classes)))
    return out


def solve_pipeline(
    h: Hypergraph, cfg: Optional[PipelineConfig] = None
) -> tuple[Optional[tuple[Edge, ...]], PipelineReport]:
    """Top-level solver: extremal track, cover-and-absorb track, exact
    fallback.  The returned matching, when present, is always validated."""
    if cfg is None:
        cfg = PipelineConfig()
    if h.r != 4:
        raise NotApplicable(f"the pipeline needs a 4-uniform graph, got r = {h.r}")
    if h.n % 4 != 0:
        raise Indivisible(f"n = {h.n} is not a multiple of 4")
    report = PipelineReport()

    def finish(matching):
        check = validate_matching(h, matching)
        if check.valid and check.perfect:
            return tuple(sorted(matching)), report
        return None, report

    def fallback():
        report.fallback_used = True
        report.path = "exact-fallback"
        if h.n > cfg.fallback_n_max:
            report.stages.append({"name": "fallback-skipped", "n": h.n})
            return None, report
        pm = has_perfect_matching(h)
        report.stages.append({"name": "exact", "found": pm is not None})
        if pm is None:
            return None, report
        return finish(list(pm))

    b = detect_extremal(h, cfg.alpha)
    if b is not None:
        report.path = "extremal"
        report.stages.append({"name": "detect-extremal", "b_size": len(b)})
        m = extremal_matcher(h, b, cfg.alpha, seed=cfg.seed)
        report.stages.append({"name": "extremal-matcher", "found": m is not None})
        if m is not None:
            return finish(list(m))
        return fallback()

    report.path = "non-extremal"
    am: Optional[AbsorbingMatching] = None
    if h.n >= 16:
        max_size = min(cfg.absorber_max_size, max(3, 3 * (h.n // 24)))
        am = build_absorbing_matching(
            h,
            max_size,
            cfg.absorber_trials,
            cfg.seed,
            samples=cfg.absorber_samples,
        )
        report.absorber_stats = am.stats()
    base_v = am.vertices() if am is not None else frozenset()
    universe = [v for v in range(h.n) if v not in base_v]
    cover = build_initial_cover(h, cfg, universe)
    report.cover_trace.append(
        {"stage": "initial", "blocks": len(cover.blocks), "leftover": len(cover.leftover)}
    )
    for it in range(cfg.max_iterations):
        if Fraction(len(cover.leftover)) <= cfg.gamma * h.n:
            break
        cover, g1 = extend_cover_two_classes(h, cover, cfg)
        cover, g2 = extend_cover_nine_sided(h, cover, cfg)
        cover, g3, ext_triples = extend_cover_triples(h, cover, cfg)
        total = g1 + g2 + g3
        report.cover_trace.append(
            {
                "stage": f"extend-{it}",
                "blocks": len(cover.blocks),
                "leftover": len(cover.leftover),
                "gain": total,
                "ext_triples": ext_triples,
            }
        )
        if total == 0:
            break
    m_partial = _blocks_to_matching(cover)
    leftover = cover.leftover
    report.stages.append(
        {"name": "cover", "blocks": len(cover.blocks), "leftover": len(leftover)}
    )
    if am is not None and len(leftover) <= 4 * len(am.blocks):
        try:
            full = absorb(h, am, m_partial, leftover)
            report.stages.append({"name": "absorb", "leftover": len(leftover)})
            return finish(list(full))
        except AbsorptionFailed:
            report.stages.append({"name": "absorb-failed", "leftover": len(leftover)})
    elif am is None and not leftover:
        return finish(m_partial)
    return fallback()
