"""The bitset search against the list-based searches it replaced.

``reference_search`` holds the previous ``max_matching_exact`` and
``has_perfect_matching`` verbatim.  The bitset search keeps their branching
rule and the cover bound's tie-breaks, so it must return the same matchings
and explore the same number of nodes, not merely reach the same optimum.
"""

import random
from itertools import combinations

import pytest

import reference_search as ref
from hypermatch.construct import (
    extremal_construction,
    planted_pm_instance,
    random_dense_hypergraph,
    threshold,
)
from hypermatch.core import Hypergraph
from hypermatch.errors import Indivisible, InvalidVertex
from hypermatch.solve import has_perfect_matching, max_matching_exact


def c5_graph(seed: int) -> Hypergraph:
    """C5's stream: n in 8..12, edge rate 0.02-0.3, at most 200 edges."""
    rng = random.Random(seed)
    n = rng.randrange(8, 13)
    p = rng.uniform(0.02, 0.3)
    edges = [e for e in combinations(range(n), 4) if rng.random() < p]
    return Hypergraph(n, 4, edges[:200])


def random_3graph(seed: int) -> Hypergraph:
    rng = random.Random(f"3u/{seed}")
    n = rng.choice((9, 12, 15))
    p = rng.uniform(0.05, 0.25)
    return Hypergraph(n, 3, [e for e in combinations(range(n), 3) if rng.random() < p])


def lifted(h: Hypergraph, s) -> tuple:
    """The previous absorber path: search the induced copy, map back, sort."""
    universe = sorted(set(s))
    pm = ref.has_perfect_matching(h.induce(universe))
    if pm is None:
        return None
    return tuple(sorted(tuple(universe[v] for v in e) for e in pm))


def same_exact(h: Hypergraph, **kw) -> None:
    assert max_matching_exact(h, **kw) == ref.max_matching_exact(h, **kw)


class TestMaxMatchingExact:
    def test_c5_stream(self):
        for seed in range(150):
            same_exact(c5_graph(seed))

    def test_c2_constructions(self):
        for n in (8, 12, 16, 20):
            same_exact(extremal_construction(n))

    @pytest.mark.parametrize("budget", [3, 50])
    def test_budget_on_complete_16(self, budget):
        h = Hypergraph(16, 4, combinations(range(16), 4))
        same_exact(h, node_budget=budget)


class TestHasPerfectMatching:
    def test_planted(self):
        for seed in range(12):
            h, _ = planted_pm_instance(16, 0.1, seed=seed)
            pm = has_perfect_matching(h)
            assert pm is not None and pm == ref.has_perfect_matching(h)

    def test_extremal_has_none(self):
        for n in (8, 12, 16, 20):
            h = extremal_construction(n)
            assert has_perfect_matching(h) is None
            assert ref.has_perfect_matching(h) is None

    def test_three_uniform(self):
        found = 0
        for seed in range(40):
            h = random_3graph(seed)
            pm = has_perfect_matching(h)
            assert pm == ref.has_perfect_matching(h)
            found += pm is not None
        assert 0 < found < 40  # both answers occur


class TestSubset:
    def test_threshold_graphs(self):
        # at threshold density every sampled set is matched; the extremal
        # B side below supplies the sets that are not
        for g in range(2):
            h = random_dense_hypergraph(32, threshold(32), f"subset/{g}")
            rng = random.Random(f"subset/{g}")
            for size in (12, 16):
                for _ in range(25):
                    s = rng.sample(range(32), size)
                    pm = has_perfect_matching(h, vertices=s)
                    want = lifted(h, s)
                    assert pm is not None and tuple(sorted(pm)) == want
                    # same search order as on the induced copy
                    universe = sorted(s)
                    sub = ref.has_perfect_matching(h.induce(universe))
                    assert pm == tuple(tuple(universe[v] for v in e) for e in sub)

    def test_extremal_b_side(self):
        h = extremal_construction(16)
        b = list(range(3, 16))
        for s in (b[:4], b[:8], b[:12], b[1:13]):
            assert has_perfect_matching(h, vertices=s) is None
            assert lifted(h, s) is None
        # with one A vertex the set is matched again
        s = [0] + b[:3]
        assert has_perfect_matching(h, vertices=s) == lifted(h, s) == ((0, 3, 4, 5),)

    def test_whole_vertex_set(self):
        h, _ = planted_pm_instance(16, 0.1, seed=3)
        assert has_perfect_matching(h, vertices=range(16)) == has_perfect_matching(h)

    def test_bad_set_raises(self):
        h = extremal_construction(16)
        with pytest.raises(InvalidVertex):
            has_perfect_matching(h, vertices=[0, 1, 2, 16])
        with pytest.raises(InvalidVertex):
            has_perfect_matching(h, vertices=[-1, 1, 2, 3])
        with pytest.raises(Indivisible):
            has_perfect_matching(h, vertices=range(10))
