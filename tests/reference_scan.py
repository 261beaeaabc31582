"""The edge scans that the bitset kernel ``Hypergraph._exactly`` replaced,
and other code that a shorter body replaced.

Kept verbatim as the reference that ``test_scan_reference.py`` compares the
package against: ``Hypergraph.density``, ``partite_density`` and ``induce``
(as functions of ``h``), the row builders of the three extraction ops,
``build_link_graph``, ``detect_extremal`` and ``extremal_matcher``, each of
which walks every edge of ``h`` per call; the one-edge-at-a-time loop that
built the per-vertex bitsets before the windowed build; the three
extraction ops as separate lemma bodies, before they became one routine;
``min_degree_peel_vertices`` with per-edge sets and degree counters,
before it ran on the edge bitsets; and ``canonical_form`` as the numpy
table of all 82944 relabelings and one matrix product, before the
branch-and-bound search (it imports numpy on call, so callers skip without
it).  Not part of the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import ceil, comb
from typing import Iterable, Optional, Sequence

from hypermatch.core import (
    DensityKind,
    Edge,
    Hypergraph,
    PartiteSpec,
    validate_matching,
)
from hypermatch.errors import (
    EmptyInput,
    Indivisible,
    InsufficientDensity,
    InvalidPartition,
    InvalidVertex,
    TooSmall,
)
from hypermatch.extract import (
    Incidence,
    MultipartiteWitness,
    _aux_find_partite,
    _complete_block_search,
    _finish,
    common_neighborhood_bucket,
    dense_side,
)
from hypermatch.link import _PERMS4, bit_index
from hypermatch.pipeline import _rng
from hypermatch.solve import hall_matching, has_perfect_matching


# -- core --------------------------------------------------------------------


def vertex_bits(n: int, norm: Sequence[Edge]) -> list[int]:
    """Per-vertex edge bitsets, set one incidence at a time in the
    full-width ints (about r·m²/64 word operations)."""
    bits = [0] * n
    for idx, e in enumerate(norm):
        bit = 1 << idx
        for v in e:
            bits[v] |= bit
    return bits


def density(h: Hypergraph, vertices: Iterable[int]) -> Fraction:
    """Edge density of the restriction to the given vertex set, exact."""
    u = set(vertices)
    if len(u) < h.r:
        raise TooSmall(f"need at least {h.r} vertices, got {len(u)}")
    count = sum(1 for e in h.edges if u.issuperset(e))
    return Fraction(count, comb(len(u), h.r))


def partite_density(h: Hypergraph, kind: DensityKind, parts: PartiteSpec) -> Fraction:
    """Exact density of the cross edges prescribed by ``kind``.

    The denominator is the number of vertex tuples of the kind's shape,
    e.g. ``|A| * C(|B|, r-1)`` for the 1+(r-1) split.
    """
    shape = kind.shape(h.r)
    if len(parts.classes) != len(shape):
        raise InvalidPartition(
            f"kind {kind.value} needs {len(shape)} classes, got {len(parts.classes)}"
        )
    sets = [set(c) for c in parts.classes]
    for c in sets:
        for v in c:
            if not 0 <= v < h.n:
                raise InvalidVertex(f"vertex {v} outside [0, {h.n})")
    denom = 1
    for c, k in zip(sets, shape):
        denom *= comb(len(c), k)
    if denom == 0:
        return Fraction(0)
    count = 0
    for e in h.edges:
        if all(sum(1 for v in e if v in c) == k for c, k in zip(sets, shape)):
            count += 1
    return Fraction(count, denom)


def induce(h: Hypergraph, vertices: Iterable[int]) -> Hypergraph:
    """Restriction to a vertex subset, relabeled to [0, |U|) in order."""
    u = sorted(set(vertices))
    for v in u:
        if not 0 <= v < h.n:
            raise InvalidVertex(f"vertex {v} outside [0, {h.n})")
    relabel = {v: i for i, v in enumerate(u)}
    uset = set(u)
    edges = [
        tuple(relabel[v] for v in e) for e in h.edges if uset.issuperset(e)
    ]
    if len(u) < h.r:
        # Degenerate restriction: no edges can fit; keep a legal n.
        return Hypergraph(max(len(u), h.r), h.r, [])
    return Hypergraph(len(u), h.r, edges)



# -- extraction incidences ---------------------------------------------------
#
# The loops that ``extract_one_three``, ``extract_two_two`` and
# ``extract_partite_volume`` ran before building their ``Incidence``; the
# arguments are the sorted class lists those functions pass.


def one_three_incidence(h: Hypergraph, a: list[int], b: list[int]) -> Incidence:
    a_pos = {v: i for i, v in enumerate(a)}
    bset = set(b)
    rows: dict[tuple[int, ...], int] = {}
    for e in h.edges:
        in_a = [v for v in e if v in a_pos]
        if len(in_a) == 1 and all(v in bset or v in a_pos for v in e):
            rest = tuple(v for v in e if v not in a_pos)
            if len(rest) == 3 and all(v in bset for v in rest):
                rows[rest] = rows.get(rest, 0) | (1 << a_pos[in_a[0]])
    triples = sorted(combinations(b, 3))
    return Incidence(tuple(a), tuple(triples), tuple(rows.get(t, 0) for t in triples))


def two_two_incidence(
    h: Hypergraph, a: list[int], b: list[int], z: list[int]
) -> Incidence:
    ab_pairs = [(x, y) for x in a for y in b]
    pair_pos = {p: i for i, p in enumerate(ab_pairs)}
    aset, bset, zset = set(a), set(b), set(z)
    rows: dict[tuple[int, int], int] = {}
    for e in h.edges:
        ia = [v for v in e if v in aset]
        ib = [v for v in e if v in bset]
        iz = [v for v in e if v in zset]
        if len(ia) == 1 and len(ib) == 1 and len(iz) == 2:
            key = (iz[0], iz[1]) if iz[0] < iz[1] else (iz[1], iz[0])
            rows[key] = rows.get(key, 0) | (1 << pair_pos[(ia[0], ib[0])])
    zpairs = sorted(combinations(z, 2))
    return Incidence(tuple(ab_pairs), tuple(zpairs), tuple(rows.get(p, 0) for p in zpairs))


def volume_incidence(
    h: Hypergraph, a: list[int], b: list[int], c: list[int], z: list[int]
) -> Incidence:
    triples = [(x, y, w) for x in a for y in b for w in c]
    tpos = {t: i for i, t in enumerate(triples)}
    aset, bset, cset, zset = set(a), set(b), set(c), set(z)
    rows = {v: 0 for v in z}
    for e in h.edges:
        ia = [v for v in e if v in aset]
        ib = [v for v in e if v in bset]
        ic = [v for v in e if v in cset]
        iz = [v for v in e if v in zset]
        if len(ia) == len(ib) == len(ic) == len(iz) == 1:
            rows[iz[0]] |= 1 << tpos[(ia[0], ib[0], ic[0])]
    return Incidence(tuple(triples), tuple(z), tuple(rows[v] for v in z))


# -- extraction ops -----------------------------------------------------------
#
# ``extract_one_three``, ``extract_two_two`` and ``extract_partite_volume``
# as three separate lemma bodies, each with its own incidence builder over
# the bitset kernel, before they became one routine.  They call the
# package's dense side, bucket and block searches, which are not under test
# here; ``_aux_find_partite`` is only ever given two or more classes.


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


# -- link --------------------------------------------------------------------


def build_link_graph(
    h: Hypergraph,
    blocks: tuple[PartiteSpec, PartiteSpec, PartiteSpec],
    leftover: Sequence[int],
    eta: Fraction,
) -> int:
    """Mask with bit (i, j, k) set iff the leftover set is dense (>= 2*eta)
    toward the class triple (block0[i], block1[j], block2[k]).

    Single pass over the edges; densities compared exactly.
    """
    z = set(leftover)
    label: dict[int, tuple[int, int]] = {}
    sizes = [[0] * 4 for _ in range(3)]
    for b_idx, spec in enumerate(blocks):
        if len(spec.classes) != 4:
            raise InvalidPartition("each block needs exactly 4 classes")
        for c_idx, cls in enumerate(spec.classes):
            sizes[b_idx][c_idx] = len(cls)
            for v in cls:
                if v in label or v in z:
                    raise InvalidPartition("blocks and leftover must be disjoint")
                label[v] = (b_idx, c_idx)
    counts = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for e in h.edges:
        z_cnt = 0
        cls_hits = []
        ok = True
        for v in e:
            if v in z:
                z_cnt += 1
            elif v in label:
                cls_hits.append(label[v])
            else:
                ok = False
                break
        if not ok or z_cnt != 1 or len(cls_hits) != 3:
            continue
        by_block = sorted(cls_hits)
        if [b for b, _ in by_block] != [0, 1, 2]:
            continue
        i, j, k = (c for _, c in by_block)
        counts[i][j][k] += 1
    nz = len(z)
    mask = 0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                denom = nz * sizes[0][i] * sizes[1][j] * sizes[2][k]
                if denom and Fraction(counts[i][j][k], denom) >= 2 * eta:
                    mask |= 1 << bit_index(i, j, k)
    return mask


_CANON_TABLE = None
_CANON_WEIGHTS = None


def _build_canon_table():
    """Bit permutation table for (S4 x S4 x S4) semidirect S3, 82944 rows."""
    global _CANON_TABLE, _CANON_WEIGHTS
    import numpy as np

    perms = np.array(_PERMS4, dtype=np.int64)  # (24, 4)
    i_idx, j_idx, k_idx = np.indices((4, 4, 4))
    rows = []
    for axes in permutations(range(3)):
        for p1 in perms:
            src1 = 16 * p1
            for p2 in perms:
                src12 = src1[:, None] + 4 * p2[None, :]
                for p3 in perms:
                    cube = src12[:, :, None] + p3[None, None, :]
                    rows.append(cube.transpose(axes).reshape(64))
    _CANON_TABLE = np.array(rows, dtype=np.uint8)
    _CANON_WEIGHTS = (np.uint64(1) << np.arange(64, dtype=np.uint64))


def canonical_form(mask: int) -> int:
    """Minimum mask over all within-class relabelings and class swaps."""
    import numpy as np

    if _CANON_TABLE is None:
        _build_canon_table()
    bits = np.zeros(64, dtype=np.uint64)
    for b in range(64):
        if mask >> b & 1:
            bits[b] = 1
    images = bits[_CANON_TABLE]  # (82944, 64) of 0/1
    values = images @ _CANON_WEIGHTS
    return int(values.min())


# -- pipeline ----------------------------------------------------------------


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
    ems = [sum(1 << v for v in e) for e in h.edges]

    def inside_count(bset: set[int]) -> int:
        mask = sum(1 << v for v in bset)
        return sum(1 for em in ems if em & ~mask == 0)

    cur = inside_count(b)
    for _ in range(2 * h.n):
        if Fraction(cur, comb(b_size, h.r)) < alpha:
            break
        # inside degree of b-vertices; inflow count of outside vertices
        bmask = sum(1 << v for v in b)
        in_deg = [0] * h.n
        inflow = [0] * h.n
        for em in ems:
            out = em & ~bmask
            if out == 0:
                m = em
                while m:
                    v = (m & -m).bit_length() - 1
                    in_deg[v] += 1
                    m &= m - 1
            elif out.bit_count() == 1:
                inflow[(out & -out).bit_length() - 1] += 1
        u = max(b, key=lambda v: (in_deg[v], -v))
        w = min(
            (v for v in range(h.n) if v not in b),
            key=lambda v: (inflow[v], v),
        )
        cand = (b - {u}) | {w}
        nxt = inside_count(cand)
        if nxt >= cur:
            break
        b, cur = cand, nxt
    if Fraction(cur, comb(b_size, h.r)) < alpha:
        return tuple(sorted(b))
    return None


def _deg_into(ems: Sequence[int], v: int, s_mask: int) -> int:
    """Edges containing v whose other vertices all lie in the mask."""
    allowed = s_mask | (1 << v)
    return sum(1 for em in ems if em >> v & 1 and em & ~allowed == 0)


def _mask_of(vs) -> int:
    return sum(1 << v for v in vs)


def _first_edge(
    h: Hypergraph, used: set[int], condition
) -> Optional[Edge]:
    for e in h.edges:
        if any(v in used for v in e):
            continue
        if condition(e):
            return e
    return None


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
    ems = [sum(1 << v for v in e) for e in h.edges]
    b = set(b_set)
    a = set(range(n)) - b

    def deg_a(v: int) -> int:  # deg into (B choose 3), v outside B
        return _deg_into(ems, v, _mask_of(b - {v}))

    def deg_b(v: int) -> int:  # deg into (B - v choose 3), v inside B
        return _deg_into(ems, v, _mask_of(b - {v}))

    while len(a) > n // 4:
        v = min(a, key=lambda u: (_deg_into(ems, u, _mask_of(b)), u))
        a.discard(v)
        b.add(v)
    while len(a) < n // 4:
        v = max(b, key=lambda u: (_deg_into(ems, u, _mask_of(b - {u})), -u))
        b.discard(v)
        a.add(v)

    def exceptional_sets():
        cb3 = comb(len(b), 3)
        xa, sxa, xb, sxb = set(), set(), set(), set()
        for v in a:
            d = deg_a(v)
            if (cb3 - d) ** 2 > alpha * cb3 ** 2:
                xa.add(v)
            if d ** 3 < alpha * cb3 ** 3:
                sxa.add(v)
        for v in b:
            d = deg_b(v)
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
        if sxb:
            for v in sorted(sxb):
                e = _first_edge(
                    h, used, lambda e, v=v: v in e and all(u in b for u in e)
                )
                if e is None:
                    return None
                matching.append(e)
                used.update(e)
            plain_b = b - xb
            for _ in range(len(sxb)):
                e = _first_edge(
                    h,
                    used,
                    lambda e: sum(1 for u in e if u in plain_b) == 2
                    and sum(1 for u in e if u in a) == 2,
                )
                if e is None:
                    return None
                matching.append(e)
                used.update(e)
        elif sxa:
            pool = sxa | b
            for v in sorted(sxa):
                e = _first_edge(
                    h, used, lambda e, v=v: v in e and all(u in pool for u in e)
                )
                if e is None:
                    e = _first_edge(h, used, lambda e: all(u in pool for u in e))
                if e is None:
                    return None
                matching.append(e)
                used.update(e)
            a -= sxa
            b |= sxa  # uncovered strongly exceptional vertices join B

        for v in sorted(xa & a - used):
            e = _first_edge(
                h, used, lambda e, v=v: v in e and all(u in b for u in e if u != v)
            )
            if e is None:
                return None
            matching.append(e)
            used.update(e)
        for v in sorted(xb & b - used):
            e = _first_edge(
                h,
                used,
                lambda e, v=v: v in e
                and sum(1 for u in e if u in a) == 1
                and sum(1 for u in e if u in b) == 3,
            )
            if e is None:
                return None
            matching.append(e)
            used.update(e)
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


# -- solve -------------------------------------------------------------------


def min_degree_peel_vertices(h: Hypergraph) -> list[int]:
    """Surviving vertices after peeling all vertices of degree < |E|/|V|.

    The ratio is fixed on the input; peeling removes the lowest-id vertex
    whose current degree falls below it, until none remains.
    """
    if not h.edges:
        raise EmptyInput("min_degree_peel_vertices needs at least one edge")
    theta = Fraction(len(h.edges), h.n)
    alive = set(range(h.n))
    edges = [set(e) for e in h.edges]
    live_edge = [True] * len(edges)
    deg = [0] * h.n
    for idx, e in enumerate(edges):
        for v in e:
            deg[v] += 1
    while True:
        victim = -1
        for v in sorted(alive):
            if deg[v] < theta:
                victim = v
                break
        if victim < 0:
            break
        alive.discard(victim)
        for idx, e in enumerate(edges):
            if live_edge[idx] and victim in e:
                live_edge[idx] = False
                for u in e:
                    deg[u] -= 1
    return sorted(alive)
