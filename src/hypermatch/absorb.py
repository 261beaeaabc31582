"""Search-based absorbing matchings.

An absorbing set for a 4-set ``W`` is a 12-vertex set ``S`` (16 allowed by
config) that has a perfect matching both on its own and together with ``W``:
removing S's three base edges and re-matching ``S ∪ W`` swallows W into the
matching.  The builder samples candidate W's and keeps, as a block of the
base matching, the perfect matching of each disjoint absorbing set it finds;
``absorb`` re-matches unused blocks together with the leftover 4-sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import Edge, Hypergraph, validate_matching
from .errors import AbsorptionFailed, NotDisjoint
from .solve import has_perfect_matching


def _rng(seed, stream: str) -> random.Random:
    return random.Random(f"{seed}/{stream}")


@dataclass
class AbsorbingMatching:
    """A base matching grouped into certified absorbing blocks.

    Each block is the perfect matching found on one absorbing set S; S also
    has a perfect matching together with the sampled 4-set it was found for.
    """

    blocks: tuple[tuple[Edge, ...], ...] = ()
    attempts: int = 0
    successes: int = 0

    @property
    def base(self) -> tuple[Edge, ...]:
        return tuple(sorted(e for block in self.blocks for e in block))

    @property
    def success_rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0

    def vertices(self) -> frozenset[int]:
        return frozenset(v for block in self.blocks for e in block for v in e)

    def stats(self) -> dict:
        return {
            "base_edges": len(self.base),
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
) -> Optional[tuple[Edge, ...]]:
    """Random search for an absorbing set for W disjoint from W and forbidden
    vertices; returns S's own perfect matching, sorted, on success."""
    pool = [v for v in range(h.n) if v not in w and v not in forbidden]
    if len(pool) < set_size:
        return None
    for _ in range(trials):
        s = sorted(rng.sample(pool, set_size))
        own = has_perfect_matching(h, vertices=s)
        if own is None:
            continue
        if has_perfect_matching(h, vertices=w.union(s)) is None:
            continue
        return tuple(sorted(own))
    return None


def _absorb_one(
    h: Hypergraph, blocks: Sequence[tuple[Edge, ...]], w: frozenset[int]
) -> Optional[tuple[int, tuple[Edge, ...]]]:
    """(index, matching) of the first block whose vertices plus W have a
    perfect matching; W must be disjoint from every block."""
    for i, block in enumerate(blocks):
        joint = has_perfect_matching(h, vertices=w.union(v for e in block for v in e))
        if joint is not None:
            return i, joint
    return None


def build_absorbing_matching(
    h: Hypergraph,
    max_size: int,
    trials: int,
    seed,
    set_size: int = 12,
    samples: int = 64,
) -> AbsorbingMatching:
    """Grow a small base matching whose blocks absorb randomly sampled 4-sets.

    Each of ``samples`` random W's is drawn outside the base.  If no block
    absorbs it, a fresh absorbing set for W is searched outside the base and
    its matching becomes a new block while the base stays within
    ``max_size`` edges.  Deterministic in (H, seed, params).

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
    am = AbsorbingMatching()
    for _ in range(samples):
        covered = am.vertices()
        pool = [v for v in range(h.n) if v not in covered]
        if len(pool) < 4:
            break
        w = frozenset(rng.sample(pool, 4))
        am.attempts += 1
        if _absorb_one(h, am.blocks, w) is not None:
            am.successes += 1
            continue
        if (len(am.blocks) + 1) * (set_size // 4) > max_size:
            continue
        block = _search_absorber(h, w, covered, set_size, trials, rng)
        if block is not None:
            am.blocks += (block,)
            am.successes += 1
    return am


def absorb(
    h: Hypergraph,
    am: AbsorbingMatching,
    m_partial: Sequence[Edge],
    leftover: Iterable[int],
) -> tuple[Edge, ...]:
    """Matching covering exactly V(base) ∪ V(M_partial) ∪ leftover.

    The leftover is split lexicographically into 4-sets; each is absorbed by
    the first still-unused block whose vertices plus the 4-set have a
    perfect matching, which replaces that block's edges.

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
    unused = list(am.blocks)
    out: list[Edge] = list(m_partial)
    for i in range(0, len(w_all), 4):
        w = frozenset(w_all[i : i + 4])
        placed = _absorb_one(h, unused, w)
        if placed is None:
            raise AbsorptionFailed(f"no absorber for leftover 4-set {sorted(w)}")
        j, joint = placed
        del unused[j]
        out.extend(joint)
    out.extend(e for block in unused for e in block)
    result = tuple(sorted(out))
    check = validate_matching(h, result)
    if not check.valid:
        raise AbsorptionFailed("absorption produced an invalid matching")
    return result
