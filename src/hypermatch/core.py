"""Uniform hypergraphs, degrees, exact densities, matchings, and the `.hg` format.

Edges are stored as strictly increasing tuples of 0-based vertex ids, in
sorted order.  Every edge count and edge pick runs on one representation:
the per-vertex edge bitsets, where bit ``i`` of vertex ``v``'s int is set iff
``v`` lies in ``edges[i]``.  ``Hypergraph._exactly`` turns them into the
bitset of edges with exactly k vertices in a set; ANDing one such bitset per
class selects the edges of a partite shape, ``bit_count`` counts them and
``Hypergraph._edges_of`` lists them in edge order.  The bitsets are built
once per graph, in time near-linear in the edge count m: fixed windows of
edges are filled separately and merged pairwise (``_vertex_bitsets``).  All
density values are exact :class:`fractions.Fraction` so that threshold
comparisons (``>= 2 * eta`` and friends) never suffer float rounding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import (
    EmptyInput,
    InvalidDegreeOrder,
    InvalidPartition,
    InvalidVertex,
    TooSmall,
)

Edge = tuple[int, ...]

# Edges per window of the bitset build: every ``|=`` inside a window touches
# at most this many bits.  The window's bits are precomputed so that a small
# graph pays no shift per edge.
_WINDOW = 512
_WINDOW_BITS = tuple(1 << i for i in range(_WINDOW))


def _vertex_bitsets(n: int, edges: Sequence[Edge]) -> list[int]:
    """Per-vertex ints with bit ``i`` of ``v``'s set iff ``v`` lies in ``edges[i]``.

    Setting one bit at a time in the full-width ints would copy an int as
    long as the edge index on every ``|=``, about r·m²/64 word operations.
    Instead each window of ``_WINDOW`` edges is filled on its own, and the
    windows are merged pairwise as a binary counter (``low | high << width``),
    so each edge's bits are copied once per merge level: about
    n·m/64 · log2(m/_WINDOW) word operations.  At most one partial result per
    level is alive at a time.
    """
    stack: list[tuple[int, list[int]]] = []  # (width in edges, bitsets), widths decreasing
    for start in range(0, len(edges), _WINDOW):
        window = edges[start : start + _WINDOW]
        part = [0] * n
        for bit, e in zip(_WINDOW_BITS, window):
            for v in e:
                part[v] |= bit
        width = len(window)
        while stack and stack[-1][0] == width:
            low_width, low = stack.pop()
            part = _merge_bits(low, low_width, part)
            width += low_width
        stack.append((width, part))
    bits = stack.pop()[1] if stack else [0] * n
    while stack:
        low_width, low = stack.pop()
        bits = _merge_bits(low, low_width, bits)
    return bits


def _merge_bits(low: list[int], width: int, high: list[int]) -> list[int]:
    """``low[v] | high[v] << width`` for every v, written into ``low``.

    Each vertex's inputs are released as its result is stored, so the merge
    holds little more than one copy of the bits.
    """
    for v, hi in enumerate(high):
        high[v] = 0
        low[v] |= hi << width
    return low


class Hypergraph:
    """An r-uniform hypergraph on vertex set [0, n).

    Immutable after construction; all operations are pure.  Every degree,
    density and edge selection reads the per-vertex bitsets over edge
    indices, ``_vertex_bits``.
    """

    __slots__ = ("n", "r", "edges", "edge_set", "_vertex_bits")

    def __init__(self, n: int, r: int, edges: Iterable[Iterable[int]]):
        if r < 2:
            raise ValueError("uniformity r must be at least 2")
        if n < r:
            raise ValueError("need n >= r")
        norm: list[Edge] = []
        for raw in edges:
            e = tuple(sorted(raw))
            if len(e) != r or len(set(e)) != r:
                raise ValueError(f"edge {raw!r} is not a set of {r} distinct vertices")
            if e[0] < 0 or e[-1] >= n:
                raise InvalidVertex(f"edge {e!r} uses a vertex outside [0, {n})")
            norm.append(e)
        # via a set: a frozenset copied from a set is sized for its length,
        # while one grown edge by edge from a list can take twice the memory
        edge_set = frozenset(set(norm))
        if len(edge_set) != len(norm):
            seen: set[Edge] = set()
            dup = next(e for e in norm if e in seen or seen.add(e))
            raise ValueError(f"duplicate edge {dup!r}")
        norm.sort()
        self.n = n
        self.r = r
        self.edges: tuple[Edge, ...] = tuple(norm)
        self.edge_set: frozenset[Edge] = edge_set
        self._vertex_bits = _vertex_bitsets(n, norm)

    # -- basic queries ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.r, self.edges) == (other.n, other.r, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, m={len(self.edges)})"

    def has_edge(self, e: Iterable[int]) -> bool:
        return tuple(sorted(e)) in self.edge_set

    def degree(self, vertices: Iterable[int]) -> int:
        """Number of edges containing every vertex of the given set."""
        d = tuple(vertices)
        if not 1 <= len(d) <= self.r - 1:
            raise InvalidDegreeOrder(f"set size {len(d)} outside [1, {self.r - 1}]")
        if len(set(d)) != len(d):
            raise InvalidVertex("degree set has repeated vertices")
        acc = -1
        for v in d:
            if not 0 <= v < self.n:
                raise InvalidVertex(f"vertex {v} outside [0, {self.n})")
            acc &= self._vertex_bits[v]
        return acc.bit_count()

    def min_degree(self, d: int) -> int:
        """Minimum degree over all d-sets of vertices."""
        if not 1 <= d <= self.r - 1:
            raise InvalidDegreeOrder(f"order {d} outside [1, {self.r - 1}]")
        best = None
        for ds in combinations(range(self.n), d):
            acc = -1
            for v in ds:
                acc &= self._vertex_bits[v]
            cnt = acc.bit_count()
            if best is None or cnt < best:
                best = cnt
                if best == 0:
                    break
        return 0 if best is None else best

    def density(self, vertices: Iterable[int]) -> Fraction:
        """Edge density of the restriction to the given vertex set, exact."""
        u = set(vertices)
        if len(u) < self.r:
            raise TooSmall(f"need at least {self.r} vertices, got {len(u)}")
        return Fraction(self._exactly(u, self.r).bit_count(), comb(len(u), self.r))

    def partite_density(self, kind: "DensityKind", parts: "PartiteSpec") -> Fraction:
        """Exact density of the cross edges prescribed by ``kind``.

        The denominator is the number of vertex tuples of the kind's shape,
        e.g. ``|A| * C(|B|, r-1)`` for the 1+(r-1) split.
        """
        shape = kind.shape(self.r)
        if len(parts.classes) != len(shape):
            raise InvalidPartition(
                f"kind {kind.value} needs {len(shape)} classes, got {len(parts.classes)}"
            )
        for c in parts.classes:
            for v in c:
                if not 0 <= v < self.n:
                    raise InvalidVertex(f"vertex {v} outside [0, {self.n})")
        denom = 1
        for c, k in zip(parts.classes, shape):
            denom *= comb(len(c), k)
        if denom == 0:
            return Fraction(0)
        selected = -1
        for c, k in zip(parts.classes, shape):
            selected &= self._exactly(c, k)
        return Fraction(selected.bit_count(), denom)

    def induce(self, vertices: Iterable[int]) -> "Hypergraph":
        """Restriction to a vertex subset, relabeled to [0, |U|) in order."""
        u = sorted(set(vertices))
        for v in u:
            if not 0 <= v < self.n:
                raise InvalidVertex(f"vertex {v} outside [0, {self.n})")
        if len(u) < self.r:
            raise TooSmall(f"need at least {self.r} vertices, got {len(u)}")
        relabel = {v: i for i, v in enumerate(u)}
        edges = [
            tuple(relabel[v] for v in e)
            for e in self._edges_of(self._exactly(u, self.r))
        ]
        return Hypergraph(len(u), self.r, edges)

    # -- the edge-count kernel ----------------------------------------------

    def _exactly(self, vertices: Iterable[int], k: int) -> int:
        """Bitset of the edges with exactly ``k`` of their vertices in the set.

        A saturating counter over the vertices' edge bitsets: after each
        vertex, ``more[j]`` holds the edges with more than j of the vertices
        seen so far.  An edge has k vertices in the set iff it has r - k
        outside, so the counter runs over whichever side costs fewer int
        operations.  Vertices outside [0, n) lie in no edge.
        """
        n, r = self.n, self.r
        if not 0 <= k <= r:
            return 0
        inside = {v for v in vertices if 0 <= v < n}
        if (k + 1) * len(inside) > (r - k + 1) * (n - len(inside)):
            inside = [v for v in range(n) if v not in inside]
            k = r - k
        bits = self._vertex_bits
        more = [0] * (k + 1)
        for v in inside:
            b = bits[v]
            for j in range(k, 0, -1):
                more[j] |= more[j - 1] & b
            more[0] |= b
        # more[k] is a subset of more[k - 1] (and of all edges), so XOR removes it
        at_least = more[k - 1] if k else (1 << len(self.edges)) - 1
        return at_least ^ more[k]

    def _edges_of(self, selected: int) -> list[Edge]:
        """The edges whose bits are set in ``selected``, in edge order."""
        edges = self.edges
        digits = bin(selected)[:1:-1]  # digits[i] is bit i
        out = []
        i = digits.find("1")
        while i >= 0:
            out.append(edges[i])
            i = digits.find("1", i + 1)
        return out


class DensityKind(enum.Enum):
    """The partite density shapes used throughout: how many vertices of an
    edge fall in each class."""

    SPLIT_1_3 = "1+3"  # d(A, (B choose r-1))
    SPLIT_1_1_2 = "1+1+2"  # d(A, B, (C choose r-2))
    SPLIT_1_1_1_1 = "1+1+1+1"  # d(A1, (A2 x ... x Ar))

    def shape(self, r: int) -> tuple[int, ...]:
        if self is DensityKind.SPLIT_1_3:
            return (1, r - 1)
        if self is DensityKind.SPLIT_1_1_2:
            return (1, 1, r - 2)
        return tuple([1] * r)


@dataclass(frozen=True)
class PartiteSpec:
    """An ordered list of pairwise disjoint, nonempty vertex classes."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for c in self.classes:
            if not c:
                raise InvalidPartition("empty class")
            cs = set(c)
            if len(cs) != len(c):
                raise InvalidPartition("repeated vertex within a class")
            if seen & cs:
                raise InvalidPartition("classes overlap")
            seen |= cs

    @staticmethod
    def of(*classes: Iterable[int]) -> "PartiteSpec":
        return PartiteSpec(tuple(tuple(sorted(c)) for c in classes))


@dataclass(frozen=True)
class MatchingCheck:
    valid: bool
    perfect: bool


def validate_matching(h: Hypergraph, matching: Sequence[Iterable[int]]) -> MatchingCheck:
    """Check disjointness and edge membership; perfect iff r*|M| = n."""
    seen: set[int] = set()
    for raw in matching:
        e = tuple(sorted(raw))
        if e not in h.edge_set:
            return MatchingCheck(False, False)
        es = set(e)
        if seen & es:
            return MatchingCheck(False, False)
        seen |= es
    return MatchingCheck(True, len(seen) == h.n)


# -- `.hg` interchange format ---------------------------------------------
#
# line 1: "r n m"; then m lines of r strictly increasing vertex ids;
# '#' starts a comment line; trailing newline required.

# Largest header n that parse_hg accepts: the vertex count, not the file
# length, sizes the per-vertex bitset list.
MAX_HG_VERTICES = 1 << 16


def format_hg(h: Hypergraph) -> str:
    lines = [f"{h.r} {h.n} {len(h.edges)}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def parse_hg(text: str) -> Hypergraph:
    if not text.endswith("\n"):
        raise ValueError("missing trailing newline")
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise EmptyInput("no header line")
    head = rows[0].split()
    if len(head) != 3:
        raise ValueError(f"bad header {rows[0]!r}")
    r, n, m = (int(x) for x in head)
    if n > MAX_HG_VERTICES:
        raise ValueError(f"header n = {n} exceeds the cap of {MAX_HG_VERTICES}")
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        vs = tuple(int(x) for x in ln.split())
        if len(vs) != r:
            raise ValueError(f"edge line {ln!r} has {len(vs)} ids, expected {r}")
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError(f"edge line {ln!r} is not strictly increasing")
        edges.append(vs)
    return Hypergraph(n, r, edges)


def save_hg(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(format_hg(h))


def load_hg(path) -> Hypergraph:
    with open(path, "r", encoding="ascii") as f:
        return parse_hg(f.read())
