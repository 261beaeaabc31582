"""Dense-substructure extraction: complete multipartite blocks pulled out of
dense incidences.

The primary route mirrors the counting argument: keep the right items with
large degree, bucket them by exact neighborhood, then search the bucket for
a complete balanced block.  At small scale buckets can be too thin, so every
extraction op falls back to a bounded backtracking search for the block; the
witness records which route produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from .core import DensityKind, Hypergraph, PartiteSpec
from .errors import EmptyInput, InsufficientDensity


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
    edge_tuples: Sequence[tuple[int, ...]],
    domains: Sequence[Sequence[int]],
    size: int,
    budget: int,
) -> Optional[tuple[tuple[int, ...], ...]]:
    """Complete block search in an auxiliary graph given by raw edge tuples."""
    edge_set = frozenset(tuple(sorted(e)) for e in edge_tuples)
    return _complete_block_search(edge_set, domains, size, budget)


def _finish(
    h: Hypergraph, classes, roles, method: str
) -> MultipartiteWitness:
    w = MultipartiteWitness(tuple(tuple(c) for c in classes), tuple(roles), method)
    if not w.verify_complete(h):
        raise AssertionError("extraction produced an incomplete block")
    return w


# The incidence builders take sorted, pairwise disjoint vertex lists and
# read only the edges of their shape.


def _one_three_incidence(h: Hypergraph, a: list[int], b: list[int]) -> Incidence:
    """A against the 3-sets of B: bit i of a triple's row is set iff the
    triple and ``a[i]`` form an edge."""
    a_pos = {v: i for i, v in enumerate(a)}
    rows: dict[tuple[int, ...], int] = {}
    for e in h._edges_of(h._exactly(a, 1) & h._exactly(b, 3)):
        x = next(v for v in e if v in a_pos)
        rest = tuple(v for v in e if v != x)
        rows[rest] = rows.get(rest, 0) | (1 << a_pos[x])
    triples = sorted(combinations(b, 3))
    return Incidence(tuple(a), tuple(triples), tuple(rows.get(t, 0) for t in triples))


def _two_two_incidence(
    h: Hypergraph, a: list[int], b: list[int], z: list[int]
) -> Incidence:
    """The pairs of A x B against the 2-sets of Z."""
    ab_pairs = [(x, y) for x in a for y in b]
    pair_pos = {p: i for i, p in enumerate(ab_pairs)}
    aset, bset = set(a), set(b)
    rows: dict[tuple[int, ...], int] = {}
    for e in h._edges_of(h._exactly(a, 1) & h._exactly(b, 1) & h._exactly(z, 2)):
        x = next(v for v in e if v in aset)
        y = next(v for v in e if v in bset)
        key = tuple(v for v in e if v != x and v != y)
        rows[key] = rows.get(key, 0) | (1 << pair_pos[(x, y)])
    zpairs = sorted(combinations(z, 2))
    return Incidence(
        tuple(ab_pairs), tuple(zpairs), tuple(rows.get(p, 0) for p in zpairs)
    )


def _volume_incidence(
    h: Hypergraph, a: list[int], b: list[int], c: list[int], z: list[int]
) -> Incidence:
    """The triples of A x B x C against the vertices of Z."""
    triples = [(x, y, w) for x in a for y in b for w in c]
    tpos = {t: i for i, t in enumerate(triples)}
    sets = (set(a), set(b), set(c), set(z))
    rows = {v: 0 for v in z}
    selected = h._exactly(a, 1) & h._exactly(b, 1) & h._exactly(c, 1) & h._exactly(z, 1)
    for e in h._edges_of(selected):
        x, y, w, t = (next(v for v in e if v in s) for s in sets)
        rows[t] |= 1 << tpos[(x, y, w)]
    return Incidence(tuple(triples), tuple(z), tuple(rows[v] for v in z))


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
    a = sorted(set(a_set))
    b = sorted(set(b_set))
    parts = PartiteSpec.of(a, b)
    if h.partite_density(DensityKind.SPLIT_1_3, parts) < 2 * eta:
        raise InsufficientDensity("d(A, (B choose 3)) below 2*eta")
    inc = _one_three_incidence(h, a, b)
    try:
        good = dense_side(inc, eta)
        gi = [inc.right.index(t) for t in good]
        sub = Incidence(inc.left, tuple(good), tuple(inc.rows[i] for i in gi))
        shared_a, bucket = common_neighborhood_bucket(sub)
        if len(shared_a) >= size:
            aux = _aux_find_partite(bucket, [b, b, b], size, budget)
            if aux is not None:
                return _finish(
                    h, (tuple(shared_a[:size]),) + aux, ("A", "B", "B", "B"), "bucket"
                )
    except (InsufficientDensity, EmptyInput):
        pass
    direct = _complete_block_search(h.edge_set, [a, b, b, b], size, budget)
    if direct is None:
        return None
    return _finish(h, direct, ("A", "B", "B", "B"), "backtrack")


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
    a = sorted(set(a_set))
    b = sorted(set(b_set))
    z = sorted(set(z_set))
    parts = PartiteSpec.of(a, b, z)
    if h.partite_density(DensityKind.SPLIT_1_1_2, parts) < 2 * eta:
        raise InsufficientDensity("d(A, B, (Z choose 2)) below 2*eta")
    inc = _two_two_incidence(h, a, b, z)
    try:
        good = dense_side(inc, eta)
        gi = [inc.right.index(p) for p in good]
        sub = Incidence(inc.left, tuple(good), tuple(inc.rows[i] for i in gi))
        shared_ab, bucket = common_neighborhood_bucket(sub)
        z_block = _aux_find_partite(bucket, [z, z], size, budget)
        if z_block is not None:
            ab_block = _aux_find_partite(shared_ab, [a, b], size, budget)
            if ab_block is not None:
                return _finish(
                    h, ab_block + z_block, ("A", "B", "Z", "Z"), "bucket"
                )
    except (InsufficientDensity, EmptyInput):
        pass
    direct = _complete_block_search(h.edge_set, [a, b, z, z], size, budget)
    if direct is None:
        return None
    return _finish(h, direct, ("A", "B", "Z", "Z"), "backtrack")


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
    a = sorted(set(a_set))
    b = sorted(set(b_set))
    c = sorted(set(c_set))
    z = sorted(set(z_set))
    parts = PartiteSpec.of(z, a, b, c)
    if h.partite_density(DensityKind.SPLIT_1_1_1_1, parts) < 2 * eta:
        raise InsufficientDensity("d(Z, (A x B x C)) below 2*eta")
    inc = _volume_incidence(h, a, b, c, z)
    try:
        good = dense_side(inc, eta)
        gi = [z.index(v) for v in good]
        sub = Incidence(inc.left, tuple(good), tuple(inc.rows[i] for i in gi))
        shared_triples, z_pool = common_neighborhood_bucket(sub)
        if len(z_pool) >= size:
            abc = _aux_find_partite(shared_triples, [a, b, c], size, budget)
            if abc is not None:
                return _finish(
                    h,
                    abc + (tuple(sorted(z_pool)[:size]),),
                    ("A", "B", "C", "Z"),
                    "bucket",
                )
    except (InsufficientDensity, EmptyInput):
        pass
    direct = _complete_block_search(h.edge_set, [a, b, c, z], size, budget)
    if direct is None:
        return None
    return _finish(h, direct, ("A", "B", "C", "Z"), "backtrack")
