"""Exact matching oracles and the small matchers the pipeline leans on.

``max_matching_exact`` and ``has_perfect_matching`` share one branch and
bound over the per-vertex edge bitsets of :class:`Hypergraph` (as in
Knuth's Algorithm X): the available edges are one int, a vertex's available
degree is ``(avail & bits[v]).bit_count()``, and taking an edge clears its
vertices' bitsets.  It branches on the uncovered vertex with the fewest
available edges (ties by lowest id) and prunes with two upper bounds:
remaining capacity ``|M| + free // r`` and a greedy vertex-cover bound (any
set of vertices hitting every available edge caps the number of further
matching edges), which makes "no perfect matching" proofs on near-extremal
instances instant.  It returns the same matchings and node counts as the
list-based searches it replaced (kept in ``tests/reference_search.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import Edge, Hypergraph
from .errors import EmptyInput, Indivisible, InvalidVertex


@dataclass(frozen=True)
class MatchingResult:
    matching: tuple[Edge, ...]
    nodes_explored: int
    timed_out: bool

    @property
    def optimal(self) -> bool:
        """Whether the search finished, so the matching is a maximum one."""
        return not self.timed_out


@dataclass(frozen=True)
class HallOutcome:
    """Either a saturating assignment of the right side, or a violating
    right-subset whose neighborhood is smaller than itself."""

    matching: Optional[dict[int, int]]
    violator: Optional[frozenset[int]]


def _cover_bound(bits: Sequence[int], verts: Sequence[int], avail: int, cap: int) -> int:
    """Size of a greedy vertex cover of the edges in ``avail``, counted up to ``cap``.

    Each round takes the vertex on the most remaining edges (ties: lowest
    id) and drops its edges.  Any matching uses at most one edge per cover
    vertex, so this bounds the number of disjoint edges still addable.
    """
    bound = 0
    while avail and bound < cap:
        most = 0
        for v in verts:
            c = (avail & bits[v]).bit_count()
            if c > most:
                most, pick = c, v
        avail &= ~bits[pick]
        bound += 1
    return bound


def _branch_and_bound(
    h: Hypergraph, verts: list[int], avail: int, floor: int, skip: bool, node_budget
) -> tuple[Optional[list[Edge]], int]:
    """Depth-first search for a matching of more than ``floor`` edges.

    ``verts`` are the uncovered vertices in increasing order and ``avail``
    the bitset of edge indices inside them.  Each node branches on the
    uncovered vertex with the fewest available edges (ties: lowest id),
    tries its edges in index order and, when ``skip``, leaves it uncovered
    last.  Returns the largest matching found above ``floor`` (or None) and
    the nodes explored, which exceed ``node_budget`` iff the search gave up.
    """
    bits = h._vertex_bits
    edges = h.edges
    r = h.r
    best: Optional[list[Edge]] = None
    best_len = floor
    nodes = 0

    def search(verts: list[int], avail: int, matching: list[Edge]) -> None:
        nonlocal best, best_len, nodes
        nodes += 1
        if nodes > node_budget:
            return
        if len(matching) > best_len:
            best = list(matching)
            best_len = len(matching)
        if not avail:
            return
        # the smaller of the capacity bound free // r and the cover bound
        ub = len(matching) + _cover_bound(bits, verts, avail, len(verts) // r)
        if ub <= best_len:
            return
        degrees = [(avail & bits[v]).bit_count() for v in verts]
        i = degrees.index(min(degrees))
        v = verts[i]
        own = avail & bits[v]
        while own:
            low = own & -own
            own ^= low
            e = edges[low.bit_length() - 1]
            kill = 0
            for u in e:
                kill |= bits[u]
            matching.append(e)
            search([u for u in verts if u not in e], avail & ~kill, matching)
            matching.pop()
            if nodes > node_budget or best_len >= ub:
                return
        if skip:
            search(verts[:i] + verts[i + 1 :], avail & ~bits[v], matching)

    search(verts, avail, [])
    return best, nodes


def max_matching_exact(h: Hypergraph, node_budget: int = 2_000_000) -> MatchingResult:
    """Maximum matching by pruned branch and bound.

    Branch choices at the selected vertex are its available edges plus
    "leave uncovered".  Deterministic; exceeds of the node budget return the
    best matching found with ``timed_out=True``.
    """
    all_edges = (1 << len(h.edges)) - 1
    best, nodes = _branch_and_bound(h, list(range(h.n)), all_edges, 0, True, node_budget)
    return MatchingResult(tuple(best or ()), nodes, nodes > node_budget)


def has_perfect_matching(
    h: Hypergraph, vertices: Optional[Iterable[int]] = None
) -> Optional[tuple[Edge, ...]]:
    """A perfect matching, or None proven by exhausted search (no budget).

    With ``vertices``, of the subgraph they induce, in H's own vertex ids and
    in the order ``has_perfect_matching(h.induce(vertices))`` finds the
    edges: the search starts from the edges inside the set and with the
    vertices outside it covered, and builds no induced copy.
    """
    if vertices is None:
        verts = list(range(h.n))
    else:
        verts = sorted(set(vertices))
        for v in verts:
            if not 0 <= v < h.n:
                raise InvalidVertex(f"vertex {v} outside [0, {h.n})")
    if len(verts) % h.r != 0:
        raise Indivisible(f"{len(verts)} vertices is not a multiple of r = {h.r}")
    need = len(verts) // h.r
    found, _ = _branch_and_bound(
        h, verts, h._exactly(verts, h.r), need - 1, False, float("inf")
    )
    return tuple(found) if found is not None else None


def max_matching_bruteforce(h: Hypergraph) -> int:
    """Independent oracle: exhaustive depth-first over all matchings, no
    pruning beyond disjointness."""
    edge_masks = [sum(1 << v for v in e) for e in h.edges]
    m = len(edge_masks)
    best = 0

    def extend(start: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        for idx in range(start, m):
            if not edge_masks[idx] & used:
                extend(idx + 1, used | edge_masks[idx], size + 1)

    extend(0, 0, 0)
    return best


def min_degree_peel_vertices(h: Hypergraph) -> list[int]:
    """Surviving vertices after peeling all vertices of degree < |E|/|V|.

    The ratio is fixed on the input; peeling removes the lowest-id vertex
    whose current degree falls below it, until none remains.  A current
    degree counts the vertex's edges in the bitset of edges still live.
    """
    if not h.edges:
        raise EmptyInput("min_degree_peel_vertices needs at least one edge")
    theta = Fraction(len(h.edges), h.n)
    bits = h._vertex_bits
    alive = list(range(h.n))
    live = (1 << len(h.edges)) - 1
    while True:
        victim = next((v for v in alive if (bits[v] & live).bit_count() < theta), -1)
        if victim < 0:
            return alive
        alive.remove(victim)
        live &= ~bits[victim]


def hall_matching(adjacency: Sequence[Sequence[int]], n_left: int) -> HallOutcome:
    """Match every right item to a distinct left item, or certify failure.

    ``adjacency[r]`` lists the left ids adjacent to right item ``r``.
    On failure the violator is the set of right items reachable by
    alternating paths from an unsaturated right item; its neighborhood is
    strictly smaller than itself.
    """
    match_left: dict[int, int] = {}  # left -> right
    match_right: dict[int, int] = {}  # right -> left

    def augment(r: int, seen_left: set[int], seen_right: set[int]) -> bool:
        seen_right.add(r)
        for l in adjacency[r]:
            if l in seen_left:
                continue
            seen_left.add(l)
            if l not in match_left or augment(match_left[l], seen_left, seen_right):
                match_left[l] = r
                match_right[r] = l
                return True
        return False

    for r in range(len(adjacency)):
        seen_left: set[int] = set()
        seen_right: set[int] = set()
        if not augment(r, seen_left, seen_right):
            return HallOutcome(None, frozenset(seen_right))
    return HallOutcome(dict(match_right), None)
