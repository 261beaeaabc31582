"""Instance generators: the degree threshold, the tight construction, the
canonical covered link graph, pattern witnesses, and seeded random supplies.

Every generator is a deterministic function of its parameters and seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, combinations
from math import comb

from .core import Edge, Hypergraph
from .errors import Indivisible, Infeasible
from .link import SIDES, Pattern, bit_index

_PAIR_COLUMN_AXIS = {(0, 1): 2, (0, 2): 1, (1, 2): 0}


def _rng(seed, stream: str) -> random.Random:
    """Named deterministic substream derived from a root seed."""
    return random.Random(f"{seed}/{stream}")


def threshold(n: int) -> int:
    """Smallest vertex degree that forces a perfect matching:
    C(n-1, 3) - C(3n/4, 3) + 1."""
    if n % 4 != 0 or n < 8:
        raise Indivisible(f"n must be a multiple of 4 and >= 8, got {n}")
    return comb(n - 1, 3) - comb(3 * n // 4, 3) + 1


def extremal_construction(n: int) -> Hypergraph:
    """Tightness construction: A = first n/4 - 1 vertices, edges = all
    4-sets meeting A.  Its minimum degree is threshold(n) - 1 and its
    maximum matching has size n/4 - 1."""
    if n % 4 != 0 or n < 8:
        raise Indivisible(f"n must be a multiple of 4 and >= 8, got {n}")
    a_size = n // 4 - 1
    edges = [e for e in combinations(range(n), 4) if e[0] < a_size]
    return Hypergraph(n, 4, edges)


def extremal_link_graph() -> int:
    """The canonical 37-edge link graph: all triples meeting (0, 0, 0)."""
    mask = 0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                if i == 0 or j == 0 or k == 0:
                    mask |= 1 << bit_index(i, j, k)
    return mask


def pattern_witness(kind: Pattern, seed, fill_rate: float = 0.0) -> int:
    """Link graph containing the requested degree profile by construction.

    Plants disjoint cross-class pairs with exactly the required degrees on a
    seed-chosen side, then sets each bit outside the planted pair columns
    with probability ``fill_rate``.
    """
    rng = _rng(seed, f"pattern/{kind.value}")
    side = SIDES[rng.randrange(3)]
    req = kind.required_degrees
    xs = rng.sample(range(4), len(req))
    ys = rng.sample(range(4), len(req))
    axis = _PAIR_COLUMN_AXIS[side]
    mask = 0
    planted = set(zip(xs, ys))
    for (x, y), deg in zip(zip(xs, ys), req):
        for t in rng.sample(range(4), deg):
            coords = [0, 0, 0]
            coords[side[0]] = x
            coords[side[1]] = y
            coords[axis] = t
            mask |= 1 << bit_index(*coords)
    if fill_rate > 0:
        for b in range(64):
            i, j, k = b >> 4, (b >> 2) & 3, b & 3
            coords = (i, j, k)
            if (coords[side[0]], coords[side[1]]) in planted:
                continue
            if rng.random() < fill_rate:
                mask |= 1 << b
    return mask


_BIT_VALUES = tuple(1 << b for b in range(64))


@cache
def _popcount_cum_weights(min_edges: int) -> tuple[int, ...]:
    """Running sums of C(64, k) for k = min_edges..64."""
    return tuple(accumulate(comb(64, k) for k in range(min_edges, 65)))


def random_link_graph(min_edges: int, seed) -> int:
    """Uniform mask among those with popcount >= min_edges.

    Samples the popcount with weights C(64, k) truncated at min_edges, then
    a uniform bit set of that size.  The draws are unchanged from passing
    the weights and sampling bit indices: ``choices`` builds exactly the
    cached running sums from weights, and ``sample`` picks by position.
    """
    if not 0 <= min_edges <= 64:
        raise ValueError(f"min_edges must be in [0, 64], got {min_edges}")
    rng = _rng(seed, "linkgraph")
    cum_weights = _popcount_cum_weights(min_edges)
    k = rng.choices(range(min_edges, 65), cum_weights=cum_weights)[0]
    return sum(rng.sample(_BIT_VALUES, k))


def random_dense_hypergraph(n: int, target_min_degree: int, seed) -> Hypergraph:
    """Random 4-graph with min vertex degree >= target.

    Includes each 4-set at the rate implied by the target, then repairs
    deficient vertices by adding random incident edges (biased toward
    deficient vertices; acceptable for test supply).
    """
    cap = comb(n - 1, 3)
    if target_min_degree > cap:
        raise Infeasible(f"target {target_min_degree} exceeds C({n - 1}, 3) = {cap}")
    rng = _rng(seed, "dense")
    p = min(1.0, target_min_degree / cap) if cap else 0.0
    edges: set[Edge] = set()
    degrees = [0] * n
    for e in combinations(range(n), 4):
        if rng.random() < p:
            edges.add(e)
            for v in e:
                degrees[v] += 1
    others = list(range(n))
    for v in range(n):
        guard = 0
        while degrees[v] < target_min_degree:
            guard += 1
            if guard > 20 * cap:
                raise Infeasible(f"repair loop stalled at vertex {v}")
            rest = rng.sample([u for u in others if u != v], 3)
            e = tuple(sorted([v] + rest))
            if e in edges:
                continue
            edges.add(e)
            for u in e:
                degrees[u] += 1
    return Hypergraph(n, 4, sorted(edges))


def planted_pm_instance(n: int, noise_rate, seed) -> tuple[Hypergraph, tuple[Edge, ...]]:
    """Hypergraph with a known perfect matching plus noise edges."""
    if n % 4 != 0:
        raise Indivisible(f"n must be a multiple of 4, got {n}")
    rng = _rng(seed, "planted")
    order = list(range(n))
    rng.shuffle(order)
    matching = tuple(
        sorted(tuple(sorted(order[i : i + 4])) for i in range(0, n, 4))
    )
    edges = set(matching)
    rate = float(noise_rate)
    if rate > 0:
        for e in combinations(range(n), 4):
            if e not in edges and rng.random() < rate:
                edges.add(e)
    return Hypergraph(n, 4, sorted(edges)), matching


@dataclass(frozen=True)
class InstanceRecipe:
    """Reproducible-generation manifest emitted next to generated files."""

    kind: str
    n: int | None = None
    seed: object = 0
    params: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "n": self.n, "seed": self.seed, "params": self.params},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "InstanceRecipe":
        d = json.loads(text)
        return InstanceRecipe(d["kind"], d.get("n"), d.get("seed", 0), d.get("params", {}))
