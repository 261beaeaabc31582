"""Exact matching oracles, peeling, and bipartite matching."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch.construct import extremal_construction, planted_pm_instance
from hypermatch.core import Hypergraph, validate_matching
from hypermatch.errors import EmptyInput, Indivisible
from hypermatch.solve import (
    hall_matching,
    has_perfect_matching,
    max_matching_bruteforce,
    max_matching_exact,
    min_degree_peel_vertices,
)


def random_graph(seed: int, n_max: int = 12) -> Hypergraph:
    rng = random.Random(seed)
    n = rng.randrange(8, n_max + 1)
    p = rng.uniform(0.02, 0.3)
    edges = [e for e in combinations(range(n), 4) if rng.random() < p]
    return Hypergraph(n, 4, edges[:200])


class TestExact:
    def test_complete_graph(self):
        h = Hypergraph(8, 4, combinations(range(8), 4))
        result = max_matching_exact(h)
        assert len(result.matching) == 2 and result.optimal
        assert validate_matching(h, result.matching).valid

    def test_extremal_sizes(self):
        for n in (8, 12, 16):
            h = extremal_construction(n)
            assert len(max_matching_exact(h).matching) == n // 4 - 1

    def test_matches_bruteforce_on_random(self):
        for seed in range(150):
            h = random_graph(seed)
            assert len(max_matching_exact(h).matching) == max_matching_bruteforce(h)

    def test_budget_exhaustion_flagged(self):
        h = Hypergraph(16, 4, combinations(range(16), 4))
        result = max_matching_exact(h, node_budget=3)
        assert result.timed_out and not result.optimal

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_oracle_agreement_property(self, seed):
        h = random_graph(seed)
        assert len(max_matching_exact(h).matching) == max_matching_bruteforce(h)


class TestPerfectMatching:
    def test_planted_found(self):
        h, _ = planted_pm_instance(16, 0.1, seed=5)
        pm = has_perfect_matching(h)
        assert pm is not None
        check = validate_matching(h, pm)
        assert check.valid and check.perfect

    def test_extremal_has_none(self):
        for n in (8, 12, 16, 20):
            assert has_perfect_matching(extremal_construction(n)) is None

    def test_indivisible(self):
        with pytest.raises(Indivisible):
            has_perfect_matching(Hypergraph(9, 4, [(0, 1, 2, 3)]))


class TestPeel:
    def test_min_degree_bound(self):
        # surviving subgraph has min vertex degree >= |E|/|V| of the input
        for seed in range(30):
            h = random_graph(seed)
            if not h.edges:
                continue
            theta = Fraction(len(h.edges), h.n)
            sub = h.induce(min_degree_peel_vertices(h))
            assert sub.edges
            assert all(sub.degree((v,)) >= theta for v in range(sub.n))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            min_degree_peel_vertices(Hypergraph(8, 4, []))

    def test_complete_graph_unpeeled(self):
        h = Hypergraph(8, 4, combinations(range(8), 4))
        assert min_degree_peel_vertices(h) == list(range(8))


class TestHall:
    def test_saturating(self):
        out = hall_matching([[0, 1], [1, 2], [0, 2]], 3)
        assert out.matching is not None and out.violator is None
        assert sorted(out.matching) == [0, 1, 2]
        assert len(set(out.matching.values())) == 3

    def test_violator_certificate(self):
        # rights 0,1,2 all see only lefts {0,1}
        out = hall_matching([[0, 1], [0, 1], [0, 1]], 2)
        assert out.matching is None
        q = out.violator
        neighborhood = {l for r in q for l in [[0, 1], [0, 1], [0, 1]][r]}
        assert len(neighborhood) < len(q)
