"""Instance generators and the degree threshold."""

from itertools import combinations
from math import comb

import pytest

from hypermatch.construct import (
    InstanceRecipe,
    extremal_construction,
    extremal_link_graph,
    pattern_witness,
    planted_pm_instance,
    random_dense_hypergraph,
    random_link_graph,
    threshold,
)
from hypermatch.core import Hypergraph, validate_matching
from hypermatch.errors import Indivisible, Infeasible
from hypermatch.link import Pattern, detect_pattern, is_ext
from hypermatch.solve import has_perfect_matching

# One 4-set from each of the 35 complementary pairs on 8 vertices (found by
# a seeded hill climb): no perfect matching, and minimum degree 17.
N8_PM_FREE = (
    (0, 1, 2, 5), (0, 1, 2, 7), (0, 1, 3, 4), (0, 1, 4, 5), (0, 1, 4, 6),
    (0, 1, 5, 6), (0, 1, 5, 7), (0, 2, 3, 4), (0, 2, 3, 6), (0, 2, 3, 7),
    (0, 2, 4, 6), (0, 2, 4, 7), (0, 3, 4, 5), (0, 3, 5, 7), (0, 3, 6, 7),
    (0, 4, 5, 6), (0, 4, 6, 7), (1, 2, 3, 4), (1, 2, 3, 6), (1, 2, 4, 7),
    (1, 2, 5, 6), (1, 2, 5, 7), (1, 3, 4, 5), (1, 3, 4, 6), (1, 3, 4, 7),
    (1, 3, 6, 7), (1, 4, 6, 7), (2, 3, 4, 5), (2, 3, 5, 6), (2, 4, 5, 6),
    (2, 4, 5, 7), (2, 4, 6, 7), (3, 4, 5, 7), (3, 5, 6, 7), (4, 5, 6, 7),
)


class TestThreshold:
    def test_known_values(self):
        # C(n-1,3) - C(3n/4,3) + 1, recomputed independently
        for n in (8, 12, 16, 20, 40):
            assert threshold(n) == comb(n - 1, 3) - comb(3 * n // 4, 3) + 1
        assert threshold(8) == 16
        assert threshold(12) == 82
        assert threshold(16) == 236

    def test_rejects_bad_n(self):
        for n in (7, 10, 4, 0):
            with pytest.raises(Indivisible):
                threshold(n)


class TestSmallN:
    """The threshold guarantee holds only for n large enough: at n = 8 a
    graph above the threshold has no perfect matching."""

    def test_averaging_bound_at_n8(self):
        # A perfect matching on 8 vertices is a complementary pair of 4-sets.
        # A PM-free graph takes at most one set of each pair, so at most 35
        # edges, and each vertex lies in exactly one set of each pair: the
        # degrees sum to at most 4 * 35 = 140, so the minimum degree is at
        # most 17.
        pairs = [
            (s, tuple(v for v in range(8) if v not in s))
            for s in combinations(range(8), 4)
            if 0 in s
        ]
        assert len(pairs) == comb(8, 4) // 2 == 35
        for v in range(8):
            assert all((v in s) + (v in c) == 1 for s, c in pairs)
        assert 4 * len(pairs) // 8 == 17

    def test_pm_free_graph_above_threshold_at_n8(self):
        h = Hypergraph(8, 4, N8_PM_FREE)
        assert len(h.edges) == 35
        complements = {tuple(v for v in range(8) if v not in e) for e in h.edges}
        assert not complements & h.edge_set
        assert h.min_degree(1) == 17 > threshold(8) == 16
        assert has_perfect_matching(h) is None


class TestExtremalConstruction:
    def test_edge_count_oracle(self):
        # edges = 4-sets meeting the first n/4 - 1 vertices
        for n in (8, 12, 16):
            h = extremal_construction(n)
            a = n // 4 - 1
            want = sum(
                1 for e in combinations(range(n), 4) if any(v < a for v in e)
            )
            assert len(h.edges) == want == comb(n, 4) - comb(n - a, 4)

    def test_min_degree_one_below_threshold(self):
        for n in (8, 12, 16):
            assert extremal_construction(n).min_degree(1) == threshold(n) - 1

    def test_no_edge_inside_b(self):
        h = extremal_construction(12)
        assert all(e[0] < 2 for e in h.edges)

    def test_rejects_bad_n(self):
        with pytest.raises(Indivisible):
            extremal_construction(10)


class TestLinkGraphGenerators:
    def test_extremal_link_graph_is_covered(self):
        mask = extremal_link_graph()
        assert mask.bit_count() == 37
        assert is_ext(mask) == (0, 0, 0)

    def test_pattern_witness_detected(self):
        for kind in Pattern:
            for seed in range(10):
                mask = pattern_witness(kind, seed)
                assert detect_pattern(mask, kind) is not None

    def test_pattern_witness_with_fill(self):
        for kind in Pattern:
            mask = pattern_witness(kind, 3, fill_rate=0.5)
            assert detect_pattern(mask, kind) is not None

    def test_random_link_graph_popcount(self):
        for seed in range(50):
            assert random_link_graph(37, seed).bit_count() >= 37
        assert random_link_graph(64, 0) == (1 << 64) - 1

    def test_random_link_graph_bounds(self):
        with pytest.raises(ValueError):
            random_link_graph(65, 0)


class TestRandomDense:
    def test_min_degree_met(self):
        h = random_dense_hypergraph(12, threshold(12), seed=7)
        assert h.min_degree(1) >= threshold(12)

    def test_deterministic(self):
        a = random_dense_hypergraph(10, 20, seed="s")
        b = random_dense_hypergraph(10, 20, seed="s")
        assert a == b

    def test_infeasible_target(self):
        with pytest.raises(Infeasible):
            random_dense_hypergraph(8, comb(7, 3) + 1, seed=0)


class TestPlanted:
    def test_matching_is_perfect(self):
        h, matching = planted_pm_instance(16, 0.05, seed=2)
        check = validate_matching(h, matching)
        assert check.valid and check.perfect

    def test_noise_zero_is_exactly_matching(self):
        h, matching = planted_pm_instance(12, 0.0, seed=2)
        assert h.edges == matching

    def test_rejects_bad_n(self):
        with pytest.raises(Indivisible):
            planted_pm_instance(10, 0.0, seed=0)


class TestRecipe:
    def test_json_round_trip(self):
        r = InstanceRecipe("random", 12, "seed", {"min_deg": 82})
        assert InstanceRecipe.from_json(r.to_json()) == r

    def test_json_stable(self):
        r = InstanceRecipe("extremal", 16, 0, {})
        assert r.to_json() == r.to_json()
