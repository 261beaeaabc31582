"""Absorbing sets and absorbing matchings."""

import random
from itertools import combinations

import pytest

from hypermatch.absorb import (
    AbsorbingMatching,
    absorb,
    build_absorbing_matching,
    is_absorbing_set,
)
from hypermatch.construct import extremal_construction, planted_pm_instance
from hypermatch.core import Hypergraph, validate_matching
from hypermatch.errors import AbsorptionFailed, NotDisjoint


def complete(n: int) -> Hypergraph:
    return Hypergraph(n, 4, combinations(range(n), 4))


class TestIsAbsorbingSet:
    def test_complete_graph_always_absorbs(self):
        h = complete(24)
        assert is_absorbing_set(h, range(12), range(12, 16))

    def test_edgeless_never(self):
        h = Hypergraph(20, 4, [])
        assert not is_absorbing_set(h, range(12), range(12, 16))

    def test_extremal_b_side_never(self):
        # no edges live inside B, so neither S nor S union W can be matched
        h = extremal_construction(16)
        b = list(range(3, 16))  # B of the construction
        assert not is_absorbing_set(h, b[:8], b[8:12])

    def test_overlap_rejected(self):
        with pytest.raises(NotDisjoint):
            is_absorbing_set(complete(16), range(12), [11, 12, 13, 14])

    def test_size_validation(self):
        with pytest.raises(ValueError):
            is_absorbing_set(complete(16), range(10), [12, 13, 14, 15])


class TestBuild:
    def test_complete_graph_registers_everything(self):
        h = complete(24)
        am = build_absorbing_matching(h, max_size=3, trials=16, seed=0, samples=20)
        assert am.attempts == 20 and am.successes == 20
        assert validate_matching(h, am.base).valid

    def test_edgeless_rate_zero(self):
        h = Hypergraph(24, 4, [])
        am = build_absorbing_matching(h, max_size=3, trials=8, seed=0, samples=10)
        assert am.base == () and am.success_rate == 0.0

    def test_deterministic(self):
        h, _ = planted_pm_instance(24, 0.3, seed=1)
        a = build_absorbing_matching(h, max_size=6, trials=16, seed=5, samples=15)
        b = build_absorbing_matching(h, max_size=6, trials=16, seed=5, samples=15)
        assert a.blocks == b.blocks
        assert (a.attempts, a.successes) == (b.attempts, b.successes)

    def test_size_cap_respected(self):
        h = complete(32)
        am = build_absorbing_matching(h, max_size=6, trials=16, seed=0, samples=30)
        assert len(am.base) <= 6


class TestAbsorb:
    def test_empty_leftover_is_identity(self):
        h = complete(24)
        am = build_absorbing_matching(h, max_size=3, trials=16, seed=0, samples=5)
        free = sorted(set(range(24)) - set(am.vertices()))
        partial = [tuple(free[:4])]
        out = absorb(h, am, partial, [])
        assert set(out) == set(am.base) | set(partial)

    def test_single_block_covers_exact_set(self):
        h = complete(24)
        am = build_absorbing_matching(h, max_size=3, trials=16, seed=0, samples=20)
        base_v = set(am.vertices())
        w = sorted(set(range(24)) - base_v)[:4]
        out = absorb(h, am, [], w)
        covered = {v for e in out for v in e}
        assert covered == base_v | set(w)
        assert validate_matching(h, out).valid

    def test_fresh_four_sets_absorbed(self):
        h, _ = planted_pm_instance(24, 0.4, seed=9)
        am = build_absorbing_matching(h, max_size=9, trials=32, seed=9, samples=30)
        assert am.blocks
        rng = random.Random("fresh")
        free = sorted(set(range(24)) - am.vertices())
        for _ in range(5):
            w = rng.sample(free, 4)
            out = absorb(h, am, [], w)
            covered = {v for e in out for v in e}
            assert covered == set(am.vertices()) | set(w)

    def test_each_four_set_spends_one_whole_block(self):
        h = complete(32)
        first = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))
        second = ((12, 13, 14, 15), (16, 17, 18, 19), (20, 21, 22, 23))
        am = AbsorbingMatching(blocks=(first, second))
        out = absorb(h, am, [], range(24, 28))
        spent = set(range(12)) | set(range(24, 28))
        assert set(second) <= set(out)
        assert all(set(e) <= spent for e in set(out) - set(second))
        out = absorb(h, am, [], range(24, 32))
        assert {v for e in out for v in e} == set(range(32))
        with pytest.raises(AbsorptionFailed):
            absorb(h, AbsorbingMatching(blocks=(first,)), [], range(24, 32))

    def test_failure_raises(self):
        h = Hypergraph(24, 4, [(0, 1, 2, 3)])
        am = build_absorbing_matching(h, max_size=3, trials=8, seed=0, samples=5)
        with pytest.raises(AbsorptionFailed):
            absorb(h, am, [], [20, 21, 22, 23])

    def test_overlap_rejected(self):
        h = complete(24)
        am = build_absorbing_matching(h, max_size=3, trials=16, seed=0, samples=5)
        v = min(am.vertices())
        with pytest.raises(NotDisjoint):
            absorb(h, am, [], [v, 20, 21, 22])

    def test_leftover_size_validated(self):
        h = complete(24)
        am = build_absorbing_matching(h, max_size=3, trials=16, seed=0, samples=5)
        free = sorted(set(range(24)) - set(am.vertices()))
        with pytest.raises(ValueError):
            absorb(h, am, [], free[:3])
