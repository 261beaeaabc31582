"""Dense-substructure extraction: complete multipartite blocks pulled out of
dense incidences.

The 1+3, 1+1+2 and 1+1+1+1 extractions are one routine on three shapes: the
transversals of one, two or three left classes against the 3-, 2- or 1-sets
of a pool.  It mirrors the counting argument: keep the right items with
large degree, bucket them by exact neighborhood, then complete each side of
the largest bucket to a balanced block.  At small scale buckets can be too
thin, so the routine falls back to a bounded backtracking search for the
block; the witness records which route produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from .core import Hypergraph, PartiteSpec
from .errors import EmptyInput, InsufficientDensity, InvalidPartition, InvalidVertex


@dataclass(frozen=True)
class Incidence:
    """Bipartite incidence between abstract item sets.

    ``rows[r]`` is a bitmask over left indices: bit ``i`` set iff left item
    ``i`` is adjacent to right item ``r``.
    """

    left: tuple
    right: tuple
    rows: tuple[int, ...]

    def density(self) -> Fraction:
        if not self.left or not self.right:
            return Fraction(0)
        total = sum(r.bit_count() for r in self.rows)
        return Fraction(total, len(self.left) * len(self.right))


@dataclass(frozen=True)
class MultipartiteWitness:
    """A complete multipartite block, with the host role of each class."""

    classes: tuple[tuple[int, ...], ...]
    roles: tuple[str, ...]
    method: str = "direct"

    def verify_complete(self, h: Hypergraph) -> bool:
        """Exhaustive transversal check plus disjointness/balance."""
        seen: set[int] = set()
        size = len(self.classes[0])
        for c in self.classes:
            if len(c) != size or len(set(c)) != len(c):
                return False
            if seen & set(c):
                return False
            seen |= set(c)
        return all(h.has_edge(t) for t in product(*self.classes))

    def vertices(self) -> frozenset[int]:
        return frozenset(v for c in self.classes for v in c)


def dense_side(inc: Incidence, eta: Fraction) -> list:
    """Right items of degree >= eta*|left|; at least an eta-fraction exist
    whenever the incidence is 2*eta-dense."""
    if inc.density() < 2 * eta:
        raise InsufficientDensity(
            f"incidence density {inc.density()} below 2*eta = {2 * eta}"
        )
    cutoff = eta * len(inc.left)
    return [item for item, row in zip(inc.right, inc.rows) if row.bit_count() >= cutoff]


def common_neighborhood_bucket(inc: Incidence) -> tuple[list, list]:
    """Most populous exact-neighborhood bucket of the right items.

    Returns (shared left items, bucketed right items); ties break toward the
    smallest shared-neighborhood bitmask.
    """
    if not inc.right:
        raise EmptyInput("no right items to bucket")
    buckets: dict[int, list] = {}
    for item, row in zip(inc.right, inc.rows):
        buckets.setdefault(row, []).append(item)
    best_row = min(buckets, key=lambda row: (-len(buckets[row]), row))
    shared = [inc.left[i] for i in range(len(inc.left)) if best_row >> i & 1]
    return shared, buckets[best_row]


def _complete_block_search(
    edge_set: frozenset[tuple[int, ...]],
    domains: Sequence[Sequence[int]],
    size: int,
    budget: int,
) -> Optional[tuple[tuple[int, ...], ...]]:
    """Bounded backtracking for a complete block with class i inside
    ``domains[i]``, every class of the given size.

    Grows the smallest class first; a candidate must complete every
    transversal with the members already placed (checked only once all
    classes are seeded).  Deterministic lexicographic order.
    """
    r = len(domains)
    domains = [sorted(set(d)) for d in domains]
    if any(len(d) < size for d in domains):
        return None
    checks = [0]

    def compatible(v: int, cls: int, classes: list[list[int]]) -> bool:
        others = [classes[c] for c in range(r) if c != cls]
        if any(not o for o in others):
            return True
        for rest in product(*others):
            if tuple(sorted((v,) + rest)) not in edge_set:
                return False
        return True

    def extend(classes: list[list[int]], used: set[int]) -> Optional[list[list[int]]]:
        sizes = [len(c) for c in classes]
        if all(s == size for s in sizes):
            return classes
        cls = sizes.index(min(sizes))
        floor = classes[cls][-1] if classes[cls] else -1
        for v in domains[cls]:
            if v <= floor or v in used:
                continue
            checks[0] += 1
            if checks[0] > budget:
                return None
            if not compatible(v, cls, classes):
                continue
            classes[cls].append(v)
            used.add(v)
            found = extend(classes, used)
            if found is not None:
                return found
            classes[cls].pop()
            used.remove(v)
            if checks[0] > budget:
                return None
        return None

    found = extend([[] for _ in range(r)], set())
    if found is None:
        return None
    return tuple(tuple(c) for c in found)


def find_complete_r_partite(
    h: Hypergraph,
    size: int,
    budget: int = 200_000,
    allowed: Optional[Sequence[int]] = None,
) -> Optional[MultipartiteWitness]:
    """A complete balanced r-partite block with classes of the given size,
    or None when the budget runs out (not a nonexistence proof)."""
    if size < 1:
        raise ValueError("class size must be >= 1")
    domain = sorted(allowed) if allowed is not None else list(range(h.n))
    found = _complete_block_search(h.edge_set, [domain] * h.r, size, budget)
    if found is None:
        return None
    w = MultipartiteWitness(found, tuple("V" for _ in range(h.r)), "backtrack")
    assert w.verify_complete(h)
    return w


def _aux_find_partite(
    items: Sequence,
    domains: Sequence[Sequence[int]],
    size: int,
    budget: int,
) -> Optional[tuple[tuple[int, ...], ...]]:
    """Complete block search in the auxiliary graph whose edges are the
    items.  Items of one vertex are plain ints, and any ``size`` of them
    form a block: the first ``size`` are taken."""
    if len(domains) == 1:
        return (tuple(items[:size]),) if len(items) >= size else None
    edge_set = frozenset(tuple(sorted(e)) for e in items)
    return _complete_block_search(edge_set, domains, size, budget)


def _finish(
    h: Hypergraph, classes, roles, method: str
) -> MultipartiteWitness:
    w = MultipartiteWitness(tuple(tuple(c) for c in classes), tuple(roles), method)
    if not w.verify_complete(h):
        raise AssertionError("extraction produced an incomplete block")
    return w


def _item(vertices: Sequence[int]):
    """An incidence item: a plain vertex when it has one, else a tuple."""
    return vertices[0] if len(vertices) == 1 else tuple(vertices)


def _incidence(
    h: Hypergraph, left_classes: Sequence[Sequence[int]], pool: Sequence[int], k: int
) -> Incidence:
    """The transversals of the left classes against the k-sets of the pool.

    Takes sorted, pairwise disjoint classes and reads only the edges with
    one vertex in each left class and k in the pool: bit i of a k-set's row
    is set iff the k-set and the i-th transversal form an edge.
    """
    width = len(left_classes)
    left = [_item(t) for t in product(*left_classes)]
    position = {item: i for i, item in enumerate(left)}
    rows = dict.fromkeys((_item(t) for t in combinations(pool, k)), 0)
    rank = dict.fromkeys(pool, width)
    rank.update((v, i) for i, c in enumerate(left_classes) for v in c)
    selected = h._exactly(pool, k)
    for c in left_classes:
        selected &= h._exactly(c, 1)
    for e in h._edges_of(selected):
        t = sorted(e, key=rank.__getitem__)  # the transversal, then the k-set
        rows[_item(t[width:])] |= 1 << position[_item(t[:width])]
    return Incidence(tuple(left), tuple(rows), tuple(rows.values()))


def _extract(
    h: Hypergraph,
    left_classes: Sequence[Sequence[int]],
    pool: Sequence[int],
    k: int,
    roles: str,
    eta: Fraction,
    size: int,
    budget: int,
) -> Optional[MultipartiteWitness]:
    """Complete block with one class in each left class and k disjoint
    classes in the pool, from the dense (left transversals, k-sets of the
    pool) incidence of a 4-graph; ``roles`` names the classes in order.
    Another uniformity raises InvalidPartition, as the volume shape's
    density always did."""
    *left, pool = PartiteSpec.of(*map(set, left_classes), set(pool)).classes
    if h.r != 4:
        raise InvalidPartition(f"the extraction shapes need a 4-graph, not r = {h.r}")
    for c in left + [pool]:
        for v in c:
            if not 0 <= v < h.n:
                raise InvalidVertex(f"vertex {v} outside [0, {h.n})")
    inc = _incidence(h, left, pool, k)
    good = dense_side(inc, eta)  # raises InsufficientDensity below 2*eta
    if good:
        row_of = dict(zip(inc.right, inc.rows))
        shared, bucket = common_neighborhood_bucket(
            Incidence(inc.left, tuple(good), tuple(row_of[item] for item in good))
        )
        left_block = _aux_find_partite(shared, left, size, budget)
        if left_block is not None:
            right_block = _aux_find_partite(bucket, [pool] * k, size, budget)
            if right_block is not None:
                return _finish(h, left_block + right_block, roles, "bucket")
    direct = _complete_block_search(h.edge_set, left + [pool] * k, size, budget)
    if direct is None:
        return None
    return _finish(h, direct, roles, "backtrack")


def extract_one_three(
    h: Hypergraph,
    a_set: Sequence[int],
    b_set: Sequence[int],
    eta: Fraction,
    size: int,
    budget: int = 200_000,
) -> Optional[MultipartiteWitness]:
    """Complete block with one class in A and three disjoint classes in B,
    from a dense (A, 3-sets of B) incidence."""
    return _extract(h, [a_set], b_set, 3, "ABBB", eta, size, budget)


def extract_two_two(
    h: Hypergraph,
    a_set: Sequence[int],
    b_set: Sequence[int],
    z_set: Sequence[int],
    eta: Fraction,
    size: int,
    budget: int = 200_000,
) -> Optional[MultipartiteWitness]:
    """Complete block with classes in A, B and two disjoint classes in Z,
    from a dense (A x B, pairs of Z) incidence."""
    return _extract(h, [a_set, b_set], z_set, 2, "ABZZ", eta, size, budget)


def extract_partite_volume(
    h: Hypergraph,
    a_set: Sequence[int],
    b_set: Sequence[int],
    c_set: Sequence[int],
    z_set: Sequence[int],
    eta: Fraction,
    size: int,
    budget: int = 200_000,
) -> Optional[MultipartiteWitness]:
    """Complete block with one class each in A, B, C, Z, from a dense
    (A x B x C, Z) incidence."""
    return _extract(h, [a_set, b_set, c_set], z_set, 1, "ABCZ", eta, size, budget)
