"""4x4x4 link graphs: masks, patterns, the 37-edge classification, and the
canonical form."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch.construct import extremal_link_graph, pattern_witness, random_link_graph
from hypermatch.core import Hypergraph, PartiteSpec
from hypermatch.errors import NotApplicable
from hypermatch.link import (
    COVER_MASKS,
    SIDES,
    Classification,
    Pattern,
    Verdict,
    bit_index,
    build_link_graph,
    canonical_form,
    classify,
    detect_pattern,
    format_mask,
    is_ext,
    pair_degree,
    parse_mask,
    triple_of_bit,
    tripartite_perfect_matching,
    verify_witness,
)

FULL = (1 << 64) - 1
HEXT = extremal_link_graph()
GOLDEN = Path(__file__).with_name("canonical_golden.txt")


def apply_relabeling(mask, class_order, p1, p2, p3) -> int:
    """Relabel within classes then permute the classes: one element of the
    symmetry group that ``canonical_form`` quotients by."""
    out = 0
    ps = (p1, p2, p3)
    for b in range(64):
        if mask >> b & 1:
            t = triple_of_bit(b)
            relabeled = tuple(ps[axis][t[axis]] for axis in range(3))
            reordered = tuple(relabeled[class_order[axis]] for axis in range(3))
            out |= 1 << bit_index(*reordered)
    return out


class TestMask:
    def test_bit_round_trip(self):
        for i, j, k in product(range(4), repeat=3):
            assert triple_of_bit(bit_index(i, j, k)) == (i, j, k)

    def test_format_parse_round_trip(self):
        for seed in range(20):
            m = random_link_graph(0, seed)
            assert parse_mask(format_mask(m)) == m

    def test_parse_rejects_garbage(self):
        for bad in ("", "zz", "0" * 15, "0" * 17, "g" * 16):
            with pytest.raises(ValueError):
                parse_mask(bad)

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_parse_arbitrary_text(self, text):
        try:
            mask = parse_mask(text)
        except ValueError:
            return
        assert 0 <= mask < 1 << 64


class TestPairDegree:
    def test_against_bruteforce(self):
        rng = random.Random(0)
        for _ in range(20):
            m = rng.getrandbits(64)
            for side in SIDES:
                axis = ({0, 1, 2} - set(side)).pop()
                for x, y in product(range(4), repeat=2):
                    want = 0
                    for t in range(4):
                        coords = [0, 0, 0]
                        coords[side[0]], coords[side[1]], coords[axis] = x, y, t
                        want += m >> bit_index(*coords) & 1
                    assert pair_degree(m, side, x, y) == want


class TestTripartitePM:
    def test_full_mask(self):
        pm = tripartite_perfect_matching(FULL)
        assert pm is not None and len(pm) == 4

    def test_hext_has_none(self):
        assert tripartite_perfect_matching(HEXT) is None

    def test_diagonal(self):
        diag = sum(1 << bit_index(i, i, i) for i in range(4))
        pm = tripartite_perfect_matching(diag)
        assert pm == tuple((i, i, i) for i in range(4))


class TestPatterns:
    def test_planted_witness_detected_and_verified(self):
        for kind in Pattern:
            for seed in range(25):
                mask = pattern_witness(kind, seed, fill_rate=0.3)
                ps = detect_pattern(mask, kind)
                assert ps is not None
                assert all(
                    pair_degree(mask, ps.side, x, y) >= r
                    for (x, y), r in zip(ps.pairs, kind.required_degrees)
                )

    def test_empty_mask_has_no_pattern(self):
        for kind in Pattern:
            assert detect_pattern(0, kind) is None


class TestExt:
    def test_all_64_covers(self):
        for cover, cm in COVER_MASKS:
            assert cm.bit_count() == 37
            assert is_ext(cm) == cover

    def test_wrong_popcount(self):
        assert is_ext(FULL) is None
        assert is_ext(HEXT & ~1) is None

    def test_witness_checks_its_own_cover(self):
        ext = Verdict.EXT
        for cover, cm in COVER_MASKS:
            assert verify_witness(cm, Classification(ext, cover))
            other = tuple((x + 1) % 4 for x in cover)
            assert not verify_witness(cm, Classification(ext, other))


class TestClassify:
    def test_below_37_not_applicable(self):
        with pytest.raises(NotApplicable):
            classify(HEXT & ~(HEXT & -HEXT))

    def test_full_is_pm(self):
        assert classify(FULL).verdict is Verdict.PERFECT_MATCHING

    def test_hext_terminal(self):
        result = classify(HEXT)
        assert result.verdict is Verdict.EXT and result.witness == (0, 0, 0)

    def test_hext_plus_any_bit_leaves_ext(self):
        # exhaustive over the 27 absent bits
        for b in range(64):
            if HEXT >> b & 1:
                continue
            result = classify(HEXT | (1 << b))
            assert result.verdict is not Verdict.EXT
            assert verify_witness(HEXT | (1 << b), result)

    def test_random_samples_never_violate(self):
        for seed in range(3000):
            mask = random_link_graph(37, seed)
            result = classify(mask)
            assert verify_witness(mask, result)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_random_masks_with_padding(self, raw):
        mask = raw
        rng = random.Random(raw)
        while mask.bit_count() < 37:
            mask |= 1 << rng.randrange(64)
        result = classify(mask)
        assert verify_witness(mask, result)


class TestCanonical:
    def test_invariant_under_relabeling(self):
        rng = random.Random(9)
        for _ in range(15):
            mask = random_link_graph(10, rng.random())
            base = canonical_form(mask)
            for _ in range(5):
                order = tuple(rng.sample(range(3), 3))
                ps = [tuple(rng.sample(range(4), 4)) for _ in range(3)]
                image = apply_relabeling(mask, order, *ps)
                assert canonical_form(image) == base

    def test_canonical_is_in_orbit_and_minimal(self):
        mask = HEXT
        c = canonical_form(mask)
        assert c <= mask
        # the canonical image classifies identically
        assert classify(c).verdict is classify(mask).verdict

    def test_idempotent(self):
        for seed in range(5):
            m = random_link_graph(37, seed)
            assert canonical_form(canonical_form(m)) == canonical_form(m)

    def test_golden_pairs(self):
        pairs = [
            tuple(parse_mask(x) for x in line.split())
            for line in GOLDEN.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(pairs) >= 700
        assert [canonical_form(mask) for mask, _ in pairs] == [c for _, c in pairs]

    @pytest.mark.parametrize("mask", [HEXT, random_link_graph(0, "exhaustive")],
                             ids=["hext", "random"])
    def test_minimum_over_the_whole_group(self, mask):
        perms = list(permutations(range(4)))
        least = min(
            apply_relabeling(mask, order, p1, p2, p3)
            for order in permutations(range(3))
            for p1 in perms
            for p2 in perms
            for p3 in perms
        )
        assert canonical_form(mask) == least

    def test_tables_built_on_first_call_without_numpy(self):
        # a fresh interpreter: importing builds nothing, the first call builds
        # the tables, and numpy is never imported
        script = (
            "import sys\n"
            "from hypermatch import cli, link\n"
            "assert link._CANON_TABLE is None\n"
            "assert link.canonical_form(0x111f111f111fffff) == 0x111f111f111fffff\n"
            "assert link._CANON_TABLE is not None\n"
            "assert 'numpy' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=dict(os.environ, PYTHONPATH=src))


class TestBuildLinkGraph:
    def test_crafted_density(self):
        # blocks of singleton classes; edges wired so exactly triple (0,0,0)
        # and (1,1,1) are dense toward the two leftover vertices
        b0 = PartiteSpec.of([0], [1], [2], [3])
        b1 = PartiteSpec.of([4], [5], [6], [7])
        b2 = PartiteSpec.of([8], [9], [10], [11])
        leftover = [12, 13]
        edges = [(0, 4, 8, 12), (0, 4, 8, 13), (1, 5, 9, 12), (1, 5, 9, 13)]
        h = Hypergraph(14, 4, edges)
        mask = build_link_graph(h, (b0, b1, b2), leftover, Fraction(1, 2))
        assert mask == (1 << bit_index(0, 0, 0)) | (1 << bit_index(1, 1, 1))

    def test_threshold_is_exact(self):
        b0 = PartiteSpec.of([0], [1], [2], [3])
        b1 = PartiteSpec.of([4], [5], [6], [7])
        b2 = PartiteSpec.of([8], [9], [10], [11])
        h = Hypergraph(14, 4, [(0, 4, 8, 12)])  # density 1/2 toward (0,0,0)
        assert build_link_graph(h, (b0, b1, b2), [12, 13], Fraction(1, 4)) == 1
        assert (
            build_link_graph(h, (b0, b1, b2), [12, 13], Fraction(1, 4) + Fraction(1, 100))
            == 0
        )
