"""4x4x4 tripartite link graphs as 64-bit masks.

Bit ``16*i + 4*j + k`` encodes the triple ``(i, j, k)`` with ``i`` in the
first class, ``j`` in the second, ``k`` in the third.  Pair degrees, the
degree-profile pattern detectors, the 37-edge classification, and the
canonical form under the full relabeling group live here, in pure Python.

The canonical form is the least mask over the group's 82944 elements,
found by an exact search rather than by listing them.  Its small lookup
tables (``_CANON_TABLE``) are built on the first call and not at import,
so a process that never asks for a canonical form pays nothing for them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import Optional, Sequence

from .core import DensityKind, Hypergraph, PartiteSpec
from .errors import InvalidPartition, LemmaViolation, NotApplicable

FULL_MASK = (1 << 64) - 1

Side = tuple[int, int]
SIDES: tuple[Side, ...] = ((0, 1), (0, 2), (1, 2))

_PERMS4 = tuple(permutations(range(4)))
# per permutation p, the 16-bit set of its cells 4*x + p[x]
_PERM_CELLS = tuple(sum(1 << 4 * x + p[x] for x in range(4)) for p in _PERMS4)


def bit_index(i: int, j: int, k: int) -> int:
    return 16 * i + 4 * j + k


def triple_of_bit(b: int) -> tuple[int, int, int]:
    return b >> 4, (b >> 2) & 3, b & 3


def format_mask(mask: int) -> str:
    """16 hex digits, most-significant bit = index 63."""
    return f"{mask & FULL_MASK:016x}"


def parse_mask(text: str) -> int:
    s = text.strip()
    if len(s) != 16 or any(c not in "0123456789abcdefABCDEF" for c in s):
        raise ValueError(f"expected 16 hex digits, got {text!r}")
    return int(s, 16)


def _pair_mask(side: Side, x: int, y: int) -> int:
    """Mask of the 4 triples through the cross-class pair (x, y) of side."""
    m = 0
    for t in range(4):
        if side == (0, 1):
            m |= 1 << bit_index(x, y, t)
        elif side == (0, 2):
            m |= 1 << bit_index(x, t, y)
        else:
            m |= 1 << bit_index(t, x, y)
    return m


PAIR_MASKS: dict[Side, list[list[int]]] = {
    s: [[_pair_mask(s, x, y) for y in range(4)] for x in range(4)] for s in SIDES
}

# All 576 candidate tripartite perfect matchings: pairs of permutations
# (sigma, tau) with triples (i, sigma[i], tau[i]).
_PM_CANDIDATES: list[tuple[int, tuple[tuple[int, int, int], ...]]] = []
for _sigma in _PERMS4:
    for _tau in _PERMS4:
        _triples = tuple((i, _sigma[i], _tau[i]) for i in range(4))
        _m = 0
        for _t in _triples:
            _m |= 1 << bit_index(*_t)
        _PM_CANDIDATES.append((_m, _triples))

# The 64 masks whose edges are exactly the triples meeting a fixed
# transversal (a, b, c); each has 64 - 27 = 37 bits.
COVER_MASKS: list[tuple[tuple[int, int, int], int]] = []
for _a in range(4):
    for _b in range(4):
        for _c in range(4):
            _m = 0
            for _bit in range(64):
                _i, _j, _k = triple_of_bit(_bit)
                if _i == _a or _j == _b or _k == _c:
                    _m |= 1 << _bit
            COVER_MASKS.append(((_a, _b, _c), _m))
_COVER_MASK_OF = dict(COVER_MASKS)


class Pattern(enum.Enum):
    """Degree-profile patterns of disjoint cross-class pairs."""

    H432 = "H432"
    H4221 = "H4221"
    H3321 = "H3321"

    @property
    def required_degrees(self) -> tuple[int, ...]:
        return {"H432": (4, 3, 2), "H4221": (4, 2, 2, 1), "H3321": (3, 3, 2, 1)}[
            self.value
        ]


class Verdict(enum.Enum):
    PERFECT_MATCHING = "PerfectMatching"
    H432 = "H432"
    H4221 = "H4221"
    H3321 = "H3321"
    EXT = "Ext"


@dataclass(frozen=True)
class PairSystem:
    """Vertex-disjoint cross-class pairs with their third-class degrees."""

    side: Side
    pairs: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    witness: object  # matching triples, PairSystem, or cover triple


def pair_degree(mask: int, side: Side, x: int, y: int) -> int:
    """Size of the third-class neighborhood of the pair (x, y)."""
    return (mask & PAIR_MASKS[side][x][y]).bit_count()


def tripartite_perfect_matching(mask: int) -> Optional[tuple[tuple[int, int, int], ...]]:
    """Four disjoint triples, one vertex per class each, or None.

    Scans all 576 permutation pairs.
    """
    for pm_mask, triples in _PM_CANDIDATES:
        if mask & pm_mask == pm_mask:
            return triples
    return None


def _degree_levels(mask: int, side: Side) -> list[int]:
    """``levels[t]`` is the 16-bit set of cells ``4*x + y`` whose pair
    (x, y) of ``side`` has degree >= t, for t = 1..4."""
    levels = [0] * 5
    cell = 1
    for row in PAIR_MASKS[side]:
        for pair in row:
            levels[(mask & pair).bit_count()] |= cell
            cell <<= 1
    levels[3] |= levels[4]
    levels[2] |= levels[3]
    levels[1] |= levels[2]
    return levels


@cache
def _level_counts(kind: Pattern) -> tuple[tuple[int, int], ...]:
    """Per distinct required degree t: how many required degrees are >= t."""
    req = kind.required_degrees
    return tuple((t, sum(r >= t for r in req)) for t in sorted(set(req), reverse=True))


# A permutation's pairs dominate ``req`` (non-increasing) entry by entry in
# their top ``len(req)`` degrees exactly when, for every t in ``req``, at
# least #{r in req : r >= t} of its 4 cells reach degree t.  So the count
# test below passes on the same permutations as ranking each one's pairs
# would, and the scan returns the same first permutation; only that one is
# ranked, with the same tie-break, to build its PairSystem.
def _detect_from_levels(levels: list[int], side: Side, kind: Pattern) -> Optional[PairSystem]:
    counts = _level_counts(kind)
    for perm, cells in zip(_PERMS4, _PERM_CELLS):
        for t, count in counts:
            if (levels[t] & cells).bit_count() < count:
                break
        else:
            degree = {
                (x, perm[x]): sum(level >> 4 * x + perm[x] & 1 for level in levels[1:])
                for x in range(4)
            }
            chosen = sorted(degree, key=lambda p: (-degree[p], p))[: len(kind.required_degrees)]
            return PairSystem(side, tuple(chosen), tuple(degree[p] for p in chosen))
    return None


def detect_pattern(mask: int, kind: Pattern) -> Optional[PairSystem]:
    """First pair system (deterministic scan order) matching the profile."""
    for side in SIDES:
        found = _detect_from_levels(_degree_levels(mask, side), side, kind)
        if found is not None:
            return found
    return None


def is_ext(mask: int) -> Optional[tuple[int, int, int]]:
    """Cover triple (a, b, c) if the graph has 37 edges all meeting it."""
    if mask.bit_count() != 37:
        return None
    for cover, cm in COVER_MASKS:
        if mask & ~cm == 0:
            return cover
    return None


def classify(mask: int) -> Classification:
    """Classify a link graph with >= 37 edges into the five cases.

    Precedence: perfect matching, then the 432 / 4221 / 3321 degree
    profiles, then the covered-37-edge terminal case.
    """
    if mask.bit_count() < 37:
        raise NotApplicable(f"classification needs >= 37 edges, got {mask.bit_count()}")
    pm = tripartite_perfect_matching(mask)
    if pm is not None:
        return Classification(Verdict.PERFECT_MATCHING, pm)
    levels = [(side, _degree_levels(mask, side)) for side in SIDES]
    for kind, verdict in (
        (Pattern.H432, Verdict.H432),
        (Pattern.H4221, Verdict.H4221),
        (Pattern.H3321, Verdict.H3321),
    ):
        for side, side_levels in levels:
            found = _detect_from_levels(side_levels, side, kind)
            if found is not None:
                return Classification(verdict, found)
    cover = is_ext(mask)
    if cover is not None:
        return Classification(Verdict.EXT, cover)
    raise LemmaViolation(mask)


def verify_witness(mask: int, result: Classification) -> bool:
    """Independently recheck a classification witness."""
    if result.verdict is Verdict.PERFECT_MATCHING:
        triples = result.witness
        used = [set(), set(), set()]
        for i, j, k in triples:
            if mask >> bit_index(i, j, k) & 1 == 0:
                return False
            for axis, v in enumerate((i, j, k)):
                if v in used[axis]:
                    return False
                used[axis].add(v)
        return len(triples) == 4
    if result.verdict is Verdict.EXT:
        a, b, c = result.witness
        cm = _COVER_MASK_OF[(a, b, c)]
        return mask.bit_count() == 37 and mask & ~cm == 0
    ps: PairSystem = result.witness
    req = Pattern[result.verdict.value].required_degrees
    xs = [p[0] for p in ps.pairs]
    ys = [p[1] for p in ps.pairs]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        return False
    degs = [pair_degree(mask, ps.side, x, y) for x, y in ps.pairs]
    return all(d >= r for d, r in zip(degs, req))


# -- canonical form ---------------------------------------------------------
#
# A relabeling orders the three classes, then permutes each class: 82944 of
# them.  Read a relabeled mask as a 4x4 matrix of nibbles, entry (i, j) the
# fiber (i, j, *); the mask's value ranks entries row-major from (3, 3) down.
# A class order and a third-class permutation fix the matrix up to row and
# column permutations.  The least value for a column order sorts the rows,
# least at row 3, and the least a single row reaches sorts its entries, least
# at column 3.  So the answer's top row is the least sorted row over the (at
# most 144) distinct matrices, and only the column orders that put it on top
# need their rows sorted.

_CANON_TABLE = None


def _build_canon_table() -> None:
    """Per class order, each mask bit's place in the 16-byte matrix (byte
    ``4*i + j`` holds fiber (i, j, *)); per third-class permutation, a
    ``bytes.translate`` table over nibbles; per second-class permutation,
    each column's shift."""
    global _CANON_TABLE
    triples = [triple_of_bit(b) for b in range(64)]
    spread = [
        [1 << (32 * t[o[0]] + 8 * t[o[1]] + t[o[2]]) for t in triples]
        for o in permutations(range(3))
    ]
    relabel = [
        bytes(sum(1 << p[k] for k in range(4) if x >> k & 1) for x in range(16)) + bytes(240)
        for p in _PERMS4
    ]
    shifts = [tuple(4 * y for y in p) for p in _PERMS4]
    _CANON_TABLE = (spread, relabel, shifts)


def _place(row: bytes, shift: tuple[int, ...]) -> int:
    return row[0] << shift[0] | row[1] << shift[1] | row[2] << shift[2] | row[3] << shift[3]


def _sorted_row(row: bytes) -> int:
    a, b, c, d = sorted(row, reverse=True)
    return a | b << 4 | c << 8 | d << 12


def canonical_form(mask: int) -> int:
    """Minimum mask over all within-class relabelings and class swaps.

    An exact search (see the comment above) instead of a pass over all
    82944 images.  ``_CANON_TABLE`` holds its lookup tables, which take a
    few milliseconds to build: on the first call, not at import, and again
    whenever it is reset to None.
    """
    if _CANON_TABLE is None:
        _build_canon_table()
    spread, relabel, shifts = _CANON_TABLE
    bits = [b for b in range(64) if mask >> b & 1]
    best_top = mask >> 48  # the identity's top row bounds the least one
    tops: dict[bytes, tuple[int, list[int]]] = {}
    for places in spread:
        unrelabeled = sum(map(places.__getitem__, bits)).to_bytes(16, "little")
        for table in relabel:
            m = unrelabeled.translate(table)
            # a sorted row's top nibble is its least entry
            if m in tops or min(m) > best_top >> 12:
                continue
            row_tops = [_sorted_row(m[q : q + 4]) for q in (0, 4, 8, 12)]
            tops[m] = (min(row_tops), row_tops)
            best_top = min(best_top, tops[m][0])
    best = mask
    for m, (top, row_tops) in tops.items():
        if top != best_top:
            continue
        rows = (m[0:4], m[4:8], m[8:12], m[12:16])
        column_orders = {
            shift
            for row, row_top in zip(rows, row_tops)
            if row_top == top
            for shift in shifts
            if _place(row, shift) == top
        }
        for shift in column_orders:
            a, b, c, d = sorted(_place(row, shift) for row in rows)
            best = min(best, a << 48 | b << 32 | c << 16 | d)
    return best


def build_link_graph(
    h: Hypergraph,
    blocks: tuple[PartiteSpec, PartiteSpec, PartiteSpec],
    leftover: Sequence[int],
    eta: Fraction,
) -> int:
    """Mask with bit (i, j, k) set iff the leftover set is dense (>= 2*eta)
    toward the class triple (block0[i], block1[j], block2[k]).

    ``h`` is 4-uniform: the counted edges have one vertex in the leftover
    and one in each block, and each block's class of that vertex gives the
    triple.  Densities are compared exactly.
    """
    z = set(leftover)
    seen: set[int] = set()
    for spec in blocks:
        if len(spec.classes) != 4:
            raise InvalidPartition("each block needs exactly 4 classes")
        for cls in spec.classes:
            if seen.intersection(cls) or z.intersection(cls):
                raise InvalidPartition("blocks and leftover must be disjoint")
            seen.update(cls)
    cross = h._exactly(z, 1)
    for spec in blocks:
        cross &= h._exactly([v for cls in spec.classes for v in cls], 1)
    # per block and class: the cross edges through that class
    through = [[cross & h._exactly(cls, 1) for cls in spec.classes] for spec in blocks]
    nz = len(z)
    mask = 0
    for i, ci in enumerate(blocks[0].classes):
        for j, cj in enumerate(blocks[1].classes):
            ij = through[0][i] & through[1][j]
            for k, ck in enumerate(blocks[2].classes):
                denom = nz * len(ci) * len(cj) * len(ck)
                count = (ij & through[2][k]).bit_count()
                if denom and Fraction(count, denom) >= 2 * eta:
                    mask |= 1 << bit_index(i, j, k)
    return mask
