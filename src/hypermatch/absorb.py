"""Search-based absorbing matchings.

An absorbing set for a 4-set ``W`` is a 12-vertex set ``S`` (16 allowed by
config) that has a perfect matching both on its own and together with ``W``:
removing S's three base edges and re-matching ``S ∪ W`` swallows W into the
matching.  The builder samples candidate W's, searches for disjoint absorbing
sets, and registers the replacement matchings for later use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .core import Edge, Hypergraph, validate_matching
from .errors import AbsorptionFailed, NotDisjoint
from .solve import has_perfect_matching


def _rng(seed, stream: str) -> random.Random:
    return random.Random(f"{seed}/{stream}")


@dataclass(frozen=True)
class Absorber:
    """One registered absorber: which base edges to drop for a given W and
    the replacement matching on their vertices plus W."""

    block: tuple[Edge, ...]
    replacement: tuple[Edge, ...]


@dataclass
class AbsorbingMatching:
    """A base matching plus a registry of absorbers keyed by 4-set."""

    base: tuple[Edge, ...]
    absorbers: dict[frozenset[int], Absorber] = field(default_factory=dict)
    attempts: int = 0
    successes: int = 0

    @property
    def success_rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0

    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.base for v in e)

    def stats(self) -> dict:
        return {
            "base_edges": len(self.base),
            "registered": len(self.absorbers),
            "attempts": self.attempts,
            "successes": self.successes,
            "success_rate": self.success_rate,
        }


def is_absorbing_set(h: Hypergraph, s: Iterable[int], w: Iterable[int]) -> bool:
    """True iff the restriction to S and to S ∪ W both have perfect matchings."""
    ss = frozenset(s)
    ws = frozenset(w)
    if ss & ws:
        raise NotDisjoint("S and W overlap")
    if len(ss) % h.r != 0:
        raise ValueError(f"|S| = {len(ss)} is not a multiple of {h.r}")
    if has_perfect_matching(h, vertices=ss) is None:
        return False
    return has_perfect_matching(h, vertices=ss | ws) is not None


def _search_absorber(
    h: Hypergraph,
    w: frozenset[int],
    forbidden: frozenset[int],
    set_size: int,
    trials: int,
    rng: random.Random,
) -> Optional[tuple[tuple[Edge, ...], Absorber]]:
    """Random search for an absorbing set disjoint from W and forbidden
    vertices; returns (S's own matching, absorber) on success."""
    pool = [v for v in range(h.n) if v not in w and v not in forbidden]
    if len(pool) < set_size:
        return None
    for _ in range(trials):
        s = sorted(rng.sample(pool, set_size))
        own = has_perfect_matching(h, vertices=s)
        if own is None:
            continue
        joint = has_perfect_matching(h, vertices=w.union(s))
        if joint is None:
            continue
        block = tuple(sorted(own))
        return block, Absorber(block, tuple(sorted(joint)))
    return None


def build_absorbing_matching(
    h: Hypergraph,
    max_size: int,
    trials: int,
    seed,
    set_size: int = 12,
    samples: int = 64,
) -> AbsorbingMatching:
    """Grow a small base matching whose edges absorb randomly sampled 4-sets.

    For each of ``samples`` random W's, first try to absorb with an existing
    block of base edges, else search fresh absorbing sets disjoint from the
    base and add their 3 edges if within ``max_size``.  Deterministic in
    (H, seed, params).

    Parameters
    ----------
    max_size : int
        Cap on the number of base edges.
    trials : int
        Random 12-set draws per sampled W.
    set_size : int
        Absorbing-set size; 12 or 16.
    """
    if set_size not in (12, 16):
        raise ValueError(f"set_size must be 12 or 16, got {set_size}")
    if h.n < 16:
        raise ValueError(f"need n >= 16, got {h.n}")
    rng = _rng(seed, "absorb")
    am = AbsorbingMatching(base=())
    base: list[Edge] = []
    blocks: list[tuple[Edge, ...]] = []  # base edges grouped by absorbing set
    for _ in range(samples):
        covered = set(v for e in base for v in e)
        pool = [v for v in range(h.n) if v not in covered]
        if len(pool) < 4:
            break
        w = frozenset(rng.sample(pool, 4))
        am.attempts += 1
        hit = False
        for block in blocks:
            bset = frozenset(v for e in block for v in e)
            if bset & w:
                continue
            joint = has_perfect_matching(h, vertices=bset | w)
            if joint is not None:
                am.absorbers[w] = Absorber(block, tuple(sorted(joint)))
                hit = True
                break
        if not hit and len(base) + set_size // 4 <= max_size:
            found = _search_absorber(
                h, w, frozenset(covered), set_size, trials, rng
            )
            if found is not None:
                block, absorber = found
                base.extend(block)
                blocks.append(block)
                am.absorbers[w] = absorber
                hit = True
        if hit:
            am.successes += 1
    am.base = tuple(sorted(base))
    return am


def absorb(
    h: Hypergraph,
    am: AbsorbingMatching,
    m_partial: Sequence[Edge],
    leftover: Iterable[int],
    trials: int = 256,
    seed=0,
) -> tuple[Edge, ...]:
    """Matching covering exactly V(base) ∪ V(M_partial) ∪ leftover.

    The leftover is split lexicographically into 4-sets; each is absorbed by
    a registered absorber with a still-unused block, or by a fresh bounded
    search among base blocks and free vertices.

    Raises
    ------
    AbsorptionFailed
        If some 4-set admits no absorber.
    NotDisjoint
        If the inputs overlap.
    """
    w_all = sorted(set(leftover))
    base_v = am.vertices()
    partial_v = set(v for e in m_partial for v in e)
    if base_v & partial_v or base_v & set(w_all) or partial_v & set(w_all):
        raise NotDisjoint("base, partial matching, and leftover must be disjoint")
    if len(w_all) % 4 != 0:
        raise ValueError(f"leftover size {len(w_all)} is not a multiple of 4")
    active = {e: True for e in am.base}
    out: list[Edge] = list(m_partial)
    for i in range(0, len(w_all), 4):
        w = frozenset(w_all[i : i + 4])
        reg = am.absorbers.get(w)
        if reg is not None and all(active.get(e, False) for e in reg.block):
            for e in reg.block:
                active[e] = False
            out.extend(reg.replacement)
            continue
        # Registry miss (or block already spent): bounded fresh search using
        # the remaining active base blocks, then arbitrary active edges.
        placed = False
        blocks: list[tuple[Edge, ...]] = []
        live = [e for e, ok in active.items() if ok]
        for j in range(0, len(live) - 2):
            blocks.append(tuple(live[j : j + 3]))
        for block in blocks[: max(trials, 1)]:
            if len(block) < 3:
                continue
            bset = frozenset(v for e in block for v in e)
            if bset & w:
                continue
            joint = has_perfect_matching(h, vertices=bset | w)
            if joint is not None:
                for e in block:
                    active[e] = False
                out.extend(joint)
                placed = True
                break
        if not placed:
            raise AbsorptionFailed(f"no absorber for leftover 4-set {sorted(w)}")
    out.extend(e for e, ok in active.items() if ok)
    result = tuple(sorted(out))
    check = validate_matching(h, result)
    if not check.valid:
        raise AbsorptionFailed("absorption produced an invalid matching")
    return result
