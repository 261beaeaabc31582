"""The branch-and-bound searches ``solve`` used before its bitset search.

Kept verbatim as the reference that ``test_search_reference.py`` compares
the bitset search against: same matchings, same node counts, same budget
behaviour.  Not part of the package.
"""

from __future__ import annotations

from typing import Optional, Sequence

from hypermatch.core import Edge, Hypergraph
from hypermatch.errors import Indivisible
from hypermatch.solve import MatchingResult


def _edge_masks(h: Hypergraph) -> list[int]:
    return [sum(1 << v for v in e) for e in h.edges]


def _cover_bound(edge_masks: Sequence[int], avail: list[int]) -> int:
    """Size of a greedy vertex cover of the available edges.

    Any matching uses at most one edge per cover vertex, so this bounds the
    number of disjoint edges still addable.
    """
    remaining = list(avail)
    bound = 0
    while remaining:
        counts: dict[int, int] = {}
        for idx in remaining:
            m = edge_masks[idx]
            while m:
                v = (m & -m).bit_length() - 1
                counts[v] = counts.get(v, 0) + 1
                m &= m - 1
        best_v = min(counts, key=lambda v: (-counts[v], v))
        bound += 1
        bit = 1 << best_v
        remaining = [idx for idx in remaining if not edge_masks[idx] & bit]
    return bound


def _pick_branch_vertex(
    h: Hypergraph, covered: int, avail: list[int], edge_masks: Sequence[int]
) -> tuple[int, list[int]]:
    """Uncovered vertex with fewest available incident edges (ties: lowest id)."""
    counts = [0] * h.n
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for idx in avail:
        for v in h.edges[idx]:
            counts[v] += 1
            incident[v].append(idx)
    best = -1
    for v in range(h.n):
        if covered >> v & 1:
            continue
        if best == -1 or counts[v] < counts[best]:
            best = v
    return best, incident[best] if best >= 0 else []


def max_matching_exact(h: Hypergraph, node_budget: int = 2_000_000) -> MatchingResult:
    """Maximum matching by pruned branch and bound.

    Branch choices at the selected vertex are its available edges plus
    "leave uncovered".  Deterministic; exceeds of the node budget return the
    best matching found with ``timed_out=True``.
    """
    edge_masks = _edge_masks(h)
    best: list[Edge] = []
    nodes = 0
    timed_out = False

    def search(covered: int, matching: list[Edge], avail: list[int]) -> None:
        nonlocal best, nodes, timed_out
        if timed_out:
            return
        nodes += 1
        if nodes > node_budget:
            timed_out = True
            return
        if len(matching) > len(best):
            best = list(matching)
        if not avail:
            return
        free = h.n - covered.bit_count()
        ub = len(matching) + min(free // h.r, _cover_bound(edge_masks, avail))
        if ub <= len(best):
            return
        v, v_edges = _pick_branch_vertex(h, covered, avail, edge_masks)
        for idx in v_edges:
            em = edge_masks[idx]
            nxt = [j for j in avail if not edge_masks[j] & em]
            matching.append(h.edges[idx])
            search(covered | em, matching, nxt)
            matching.pop()
            if timed_out or len(best) >= ub:
                return
        # leave v uncovered
        bit = 1 << v
        nxt = [j for j in avail if not edge_masks[j] & bit]
        search(covered | bit, matching, nxt)

    search(0, [], list(range(len(h.edges))))
    return MatchingResult(tuple(best), not timed_out, nodes, timed_out)


def has_perfect_matching(h: Hypergraph) -> Optional[tuple[Edge, ...]]:
    """A perfect matching, or None proven by exhausted search (no budget)."""
    if h.n % h.r != 0:
        raise Indivisible(f"n = {h.n} is not a multiple of r = {h.r}")
    edge_masks = _edge_masks(h)
    need = h.n // h.r

    def search(covered: int, matching: list[Edge], avail: list[int]) -> Optional[list[Edge]]:
        if len(matching) == need:
            return list(matching)
        remaining = need - len(matching)
        if len(avail) < remaining:
            return None
        if _cover_bound(edge_masks, avail) < remaining:
            return None
        v, v_edges = _pick_branch_vertex(h, covered, avail, edge_masks)
        if not v_edges:
            return None
        for idx in v_edges:
            em = edge_masks[idx]
            nxt = [j for j in avail if not edge_masks[j] & em]
            matching.append(h.edges[idx])
            found = search(covered | em, matching, nxt)
            if found is not None:
                return found
            matching.pop()
        return None

    found = search(0, [], list(range(len(h.edges))))
    return tuple(found) if found is not None else None
