"""Two-track pipeline: extremal detection, cover extension, the extremal
matcher, and the orchestrating solver."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from hypermatch.construct import (
    extremal_construction,
    planted_pm_instance,
    random_dense_hypergraph,
    threshold,
)
from hypermatch.core import Hypergraph, validate_matching
from hypermatch.errors import Indivisible, NotApplicable
from hypermatch.pipeline import (
    Cover,
    PipelineConfig,
    build_initial_cover,
    detect_extremal,
    extend_cover_nine_sided,
    extend_cover_triples,
    extend_cover_two_classes,
    extremal_matcher,
    solve_pipeline,
)
from hypermatch.solve import has_perfect_matching


def complete(n: int) -> Hypergraph:
    return Hypergraph(n, 4, combinations(range(n), 4))


def random_uniform(n: int, r: int, seed) -> Hypergraph:
    """Each r-set kept with probability 0.7."""
    rng = random.Random(seed)
    return Hypergraph(n, r, [e for e in combinations(range(n), r) if rng.random() < 0.7])


def covered_instance(n: int) -> Hypergraph:
    """All 4-sets meeting the first n/4 vertices: above threshold, near-extremal,
    and perfectly matchable."""
    return Hypergraph(
        n, 4, (e for e in combinations(range(n), 4) if e[0] < n // 4)
    )


ALPHA = Fraction(1, 10)


class TestConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert 0 < cfg.gamma <= cfg.alpha <= 1

    def test_gamma_alpha_order_enforced(self):
        with pytest.raises(ValueError):
            PipelineConfig(gamma=Fraction(1, 2), alpha=Fraction(1, 4))

    def test_class_size_positive(self):
        with pytest.raises(ValueError):
            PipelineConfig(l=0)


class TestDetectExtremal:
    def test_construction_detected_with_zero_density(self):
        h = extremal_construction(16)
        b = detect_extremal(h, ALPHA)
        assert b is not None
        assert h.density(b) == 0

    def test_complete_graph_none(self):
        assert detect_extremal(complete(16), ALPHA) is None

    def test_detected_set_meets_definition(self):
        h = covered_instance(16)
        b = detect_extremal(h, ALPHA)
        assert b is not None
        assert Fraction(len(b)) >= (Fraction(3, 4) - ALPHA) * 16
        assert h.density(b) < ALPHA

    def test_perturbed_construction_detected(self):
        # a few edges inside B keep the density below alpha
        h0 = extremal_construction(16)
        extra = [(4, 5, 6, 7), (8, 9, 10, 11), (5, 9, 13, 15)]
        h = Hypergraph(16, 4, list(h0.edges) + extra)
        b = detect_extremal(h, ALPHA)
        assert b is not None and h.density(b) < ALPHA


class TestInitialCover:
    def test_complete_graph_fully_covered(self):
        cfg = PipelineConfig()
        cover = build_initial_cover(complete(16), cfg)
        assert cover.verify(complete(16))
        assert cover.leftover == ()
        assert len(cover.blocks) == 4

    def test_edgeless_empty_cover(self):
        h = Hypergraph(16, 4, [])
        cover = build_initial_cover(h, PipelineConfig())
        assert cover.blocks == () and len(cover.leftover) == 16

    def test_universe_respected(self):
        h = complete(16)
        cover = build_initial_cover(h, PipelineConfig(), universe=range(8))
        assert cover.covered() <= set(range(8))


class TestExtendOps:
    def test_two_classes_gain_and_invariants(self):
        # one block + dense leftover: both pulls available
        h = complete(20)
        cfg = PipelineConfig()
        base = build_initial_cover(h, cfg, universe=range(4))
        assert len(base.blocks) == 1
        cover = Cover(tuple(range(20)), cfg.l, base.blocks)
        out, gain = extend_cover_two_classes(h, cover, cfg)
        assert gain >= 0
        assert out.verify(h)
        if gain:
            assert len(out.covered()) == len(cover.covered()) + gain

    def test_two_classes_no_connection_no_gain(self):
        h = Hypergraph(16, 4, [(0, 1, 2, 3)])
        cfg = PipelineConfig()
        cover = build_initial_cover(h, cfg)
        out, gain = extend_cover_two_classes(h, cover, cfg)
        assert gain == 0 and out.blocks == cover.blocks

    def test_nine_sided_needs_two_blocks(self):
        h = complete(16)
        cfg = PipelineConfig()
        cover = Cover(tuple(range(16)), 1, build_initial_cover(h, cfg, range(4)).blocks)
        out, gain = extend_cover_nine_sided(h, cover, cfg)
        assert gain == 0 and out is cover

    def test_nine_sided_gain_and_invariants(self):
        h = complete(24)
        cfg = PipelineConfig()
        blocks = (
            build_initial_cover(h, cfg, range(4)).blocks
            + build_initial_cover(h, cfg, range(4, 8)).blocks
        )
        cover = Cover(tuple(range(24)), 1, blocks)
        out, gain = extend_cover_nine_sided(h, cover, cfg)
        assert gain >= 0 and out.verify(h)
        if gain:
            assert len(out.covered()) == len(cover.covered()) + gain

    def test_triples_pm_case_gains(self):
        h = complete(28)
        cfg = PipelineConfig()
        blocks = tuple(
            b
            for lo in (0, 4, 8)
            for b in build_initial_cover(h, cfg, range(lo, lo + 4)).blocks
        )
        cover = Cover(tuple(range(28)), 1, blocks)
        out, gain, ext = extend_cover_triples(h, cover, cfg)
        assert gain > 0 and ext == 0
        assert out.verify(h)
        assert len(out.covered()) == len(cover.covered()) + gain

    def test_triples_sparse_no_gain(self):
        h = Hypergraph(16, 4, [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)])
        cfg = PipelineConfig()
        cover = build_initial_cover(h, cfg)
        out, gain, ext = extend_cover_triples(h, cover, cfg)
        assert gain == 0 and ext == 0


class TestExtremalMatcher:
    def test_covered_instance_matched(self):
        for n in (16, 20):
            h = covered_instance(n)
            b = tuple(range(n // 4, n))
            m = extremal_matcher(h, b, ALPHA)
            assert m is not None
            check = validate_matching(h, m)
            assert check.valid and check.perfect

    def test_complete_graph_any_b(self):
        h = complete(16)
        m = extremal_matcher(h, tuple(range(4, 16)), ALPHA)
        assert m is not None and validate_matching(h, m).perfect

    def test_isolated_vertex_in_b_fails(self):
        # remove every edge touching one B vertex: no perfect matching
        base = covered_instance(16)
        edges = [e for e in base.edges if 15 not in e]
        h = Hypergraph(16, 4, edges)
        assert extremal_matcher(h, tuple(range(4, 16)), ALPHA) is None

    def test_raw_construction_fails(self):
        h = extremal_construction(16)
        b = detect_extremal(h, ALPHA)
        assert extremal_matcher(h, b, ALPHA) is None

    def test_indivisible(self):
        h = Hypergraph(9, 4, [(0, 1, 2, 3)])
        with pytest.raises(Indivisible):
            extremal_matcher(h, tuple(range(2, 9)), ALPHA)


class TestSolvePipeline:
    def test_complete_graph(self):
        m, report = solve_pipeline(complete(24))
        assert m is not None and report.path == "non-extremal"
        assert validate_matching(complete(24), m).perfect

    def test_covered_instance_extremal_path(self):
        h = covered_instance(16)
        m, report = solve_pipeline(h)
        assert m is not None and report.path == "extremal"
        assert validate_matching(h, m).perfect

    def test_below_threshold_none_with_oracle(self):
        for n in (8, 12, 16, 20):
            h = extremal_construction(n)
            m, _ = solve_pipeline(h)
            assert m is None
            assert has_perfect_matching(h) is None

    def test_planted_instances_solved(self):
        for seed in range(3):
            h, _ = planted_pm_instance(24, 0.35, seed=seed)
            m, _ = solve_pipeline(h)
            assert m is not None
            assert validate_matching(h, m).perfect

    def test_random_dense_solved(self):
        h = random_dense_hypergraph(32, threshold(32), seed=11)
        m, report = solve_pipeline(h)
        assert m is not None and validate_matching(h, m).perfect

    def test_extremal_agreement_with_oracle(self):
        for n in (16, 20):
            h = covered_instance(n)
            m, _ = solve_pipeline(h)
            assert (m is not None) == (has_perfect_matching(h) is not None)

    def test_indivisible(self):
        with pytest.raises(Indivisible):
            solve_pipeline(Hypergraph(9, 4, [(0, 1, 2, 3)]))

    @pytest.mark.parametrize("n, r", [(12, 3), (20, 5), (9, 3)])
    def test_rejects_other_uniformities(self, n, r):
        # checked before n % 4, so (9, 3) names r rather than the size
        h = random_uniform(n, r, seed=1)
        with pytest.raises(NotApplicable, match=f"r = {r}"):
            solve_pipeline(h)

    def test_report_json_deterministic(self):
        h = random_dense_hypergraph(32, threshold(32), seed=4)
        _, r1 = solve_pipeline(h, PipelineConfig(seed="x"))
        _, r2 = solve_pipeline(h, PipelineConfig(seed="x"))
        assert r1.to_json() == r2.to_json()

    def test_report_fields(self):
        _, report = solve_pipeline(complete(16))
        data = json.loads(report.to_json())
        assert set(data) == {
            "path",
            "stages",
            "cover_trace",
            "absorber_stats",
            "fallback_used",
        }
