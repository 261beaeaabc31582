"""The bitset kernel against the edge scans it replaced.

``reference_scan`` holds the previous scans verbatim.  The kernel-backed
functions must give the same densities, the same induced graphs, the same
incidences and link graphs, the same extremal set and the same matchings,
on seeded hypergraphs with n from 8 to 32 and seeded disjoint classes.  The
windowed bitset build must give the same ints as the per-edge loop.  The one
extraction routine must give the same witnesses, None and error types as the
three lemma bodies it replaced, ``min_degree_peel_vertices`` the same
survivors as its per-edge loop, and ``canonical_form`` the same values as
the numpy relabeling table (skipped where numpy is not installed).
"""

import collections
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_scan as ref
from hypermatch import extract
from hypermatch.core import _WINDOW, DensityKind, Hypergraph, PartiteSpec
from hypermatch.errors import InsufficientDensity, InvalidPartition, InvalidVertex
from hypermatch.link import build_link_graph, canonical_form
from hypermatch.pipeline import detect_extremal, extremal_matcher
from hypermatch.solve import min_degree_peel_vertices

SIZES = (8, 11, 16, 20, 25, 32)


def random_graph(seed, n: int, r: int = 4, p=None) -> Hypergraph:
    rng = random.Random(f"scan/{seed}/{n}/{r}")
    if p is None:
        p = rng.uniform(0.05, 0.9) if n <= 16 else rng.uniform(0.01, 0.15)
    return Hypergraph(n, r, [e for e in combinations(range(n), r) if rng.random() < p])


def disjoint_classes(rng: random.Random, n: int, count: int, most: int) -> list:
    """``count`` pairwise disjoint nonempty sorted classes of at most ``most``."""
    order = rng.sample(range(n), n)
    out = []
    for _ in range(count):
        size = rng.randint(1, max(1, min(most, len(order) - (count - len(out) - 1))))
        out.append(sorted(order[:size]))
        order = order[size:]
    return out


def graphs():
    for seed in range(3):
        for n in SIZES:
            yield seed, random_graph(seed, n)


def near_extremal(n: int, seed) -> Hypergraph:
    """The extremal construction (every 4-set meeting A, the first n/4 - 1
    vertices) with seeded changes that turn vertices on either side
    exceptional: each A vertex loses its edges at its own rate, 4-sets
    inside B are added at one rate, and a few B vertices get every
    inside-B 4-set through them."""
    rng = random.Random(f"scan/near/{n}/{seed}")
    a_size = n // 4 - 1
    drop = [rng.choice((0, 0, 0.05, 0.6, 0.95)) for _ in range(a_size)]
    fill = rng.choice((0, 0.02, 0.3, 0.7))
    heavy = set(rng.sample(range(a_size, n), rng.choice((0, 0, 1, 3))))

    def keep(e) -> bool:
        if e[0] < a_size:
            return rng.random() >= drop[e[0]]
        return bool(heavy.intersection(e)) or rng.random() < fill

    return Hypergraph(n, 4, [e for e in combinations(range(n), 4) if keep(e)])


W = _WINDOW


def assert_same_bitsets(h: Hypergraph) -> None:
    assert h._vertex_bits == ref.vertex_bits(h.n, h.edges)
    assert h.edge_set == frozenset(h.edges)


class TestVertexBits:
    @pytest.mark.parametrize("r", (2, 3, 4))
    @pytest.mark.parametrize(
        # odd window counts leave an unpaired partial result for the fold
        "m", (0, 1, W - 1, W, W + 1, 2 * W, 2 * W + 1, 3 * W, 5 * W + 3)
    )
    def test_window_boundaries(self, r, m):
        n = next(n for n in range(r, 1000) if comb(n, r) >= 5 * W + 3)
        rng = random.Random(f"bits/{r}/{m}")
        edges = rng.sample(list(combinations(range(n), r)), m)
        h = Hypergraph(n, r, edges)
        assert len(h.edges) == m
        assert_same_bitsets(h)

    def test_near_extremal_n48(self):
        h = near_extremal(48, 0)
        assert len(h.edges) > 200 * W
        assert_same_bitsets(h)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(2, 20),
        st.floats(0, 1),
        st.integers(0, 2**32),
    )
    def test_random_edge_sets(self, r, n, p, seed):
        assume(n >= r)
        rng = random.Random(seed)
        edges = [e for e in combinations(range(n), r) if rng.random() < p]
        rng.shuffle(edges)
        assert_same_bitsets(Hypergraph(n, r, edges))


class TestKernel:
    @pytest.mark.parametrize("r", (3, 4))
    def test_exactly_selects_the_edges_of_each_count(self, r):
        for seed in range(4):
            for n in (r, 9, 14):
                h = random_graph(seed, n, r)
                rng = random.Random(f"kernel/{seed}/{n}/{r}")
                for size in range(n + 1):
                    s = set(rng.sample(range(n), size))
                    for k in range(-1, r + 2):
                        expect = [e for e in h.edges if sum(v in s for v in e) == k]
                        assert h._edges_of(h._exactly(s, k)) == expect

    def test_vertices_outside_the_graph_lie_in_no_edge(self):
        h = random_graph(0, 11)
        for k in range(5):
            assert h._exactly([-1, 0, 3, 11, 40], k) == h._exactly([0, 3], k)


class TestCore:
    @pytest.mark.parametrize("kind", list(DensityKind))
    def test_partite_density(self, kind):
        width = len(kind.shape(4))
        for seed, h in graphs():
            rng = random.Random(f"pd/{seed}/{h.n}/{kind.value}")
            for _ in range(12):
                parts = PartiteSpec.of(*disjoint_classes(rng, h.n, width, h.n // 2))
                got = h.partite_density(kind, parts)
                assert got == ref.partite_density(h, kind, parts)

    def test_density_and_induce(self):
        for seed, h in graphs():
            rng = random.Random(f"ind/{seed}/{h.n}")
            for size in (4, 5, h.n // 2, h.n - 1, h.n):
                u = rng.sample(range(h.n), size)
                assert h.density(u) == ref.density(h, u)
                assert h.induce(u) == ref.induce(h, u)


class TestExtractIncidences:
    def test_one_three(self):
        for seed, h in graphs():
            rng = random.Random(f"13/{seed}/{h.n}")
            for _ in range(6):
                a, b = disjoint_classes(rng, h.n, 2, h.n // 2)
                got = extract._incidence(h, [a], b, 3)
                assert got == ref.one_three_incidence(h, a, b)

    def test_two_two(self):
        for seed, h in graphs():
            rng = random.Random(f"22/{seed}/{h.n}")
            for _ in range(6):
                a, b, z = disjoint_classes(rng, h.n, 3, 6)
                got = extract._incidence(h, [a, b], z, 2)
                assert got == ref.two_two_incidence(h, a, b, z)

    def test_volume(self):
        for seed, h in graphs():
            rng = random.Random(f"vol/{seed}/{h.n}")
            for _ in range(6):
                a, b, c, z = disjoint_classes(rng, h.n, 4, 4)
                got = extract._incidence(h, [a, b, c], z, 1)
                assert got == ref.volume_incidence(h, a, b, c, z)


ETAS = (Fraction(1, 2048), Fraction(1, 16), Fraction(1, 4))


def extraction_outcome(op, *args):
    """The witness, or the type of the error the op raised."""
    try:
        return op(*args)
    except (InsufficientDensity, InvalidPartition, InvalidVertex) as exc:
        return type(exc)


def outcome_label(outcome) -> str:
    if outcome is None:
        return "none"
    if isinstance(outcome, type):
        return outcome.__name__
    return outcome.method


class TestExtractOps:
    """The one extraction routine against the three lemma bodies it
    replaced, on seeded graphs and classes: the same witness (classes,
    roles, route), the same None and the same error type."""

    OPS = (
        # (name, op, its reference, number of classes before the pool)
        ("one_three", extract.extract_one_three, ref.extract_one_three, 1),
        ("two_two", extract.extract_two_two, ref.extract_two_two, 2),
        ("volume", extract.extract_partite_volume, ref.extract_partite_volume, 3),
    )

    @pytest.mark.parametrize("name, op, reference, width", OPS)
    def test_same_outcome(self, name, op, reference, width):
        labels = collections.Counter()
        for seed in range(4):
            for n in (8, 12, 16):
                h = random_graph(seed, n)
                rng = random.Random(f"ops/{name}/{seed}/{n}")
                for trial in range(8):
                    classes = disjoint_classes(rng, n, width + 1, n // 2)
                    if trial == 0:
                        # overlapping classes
                        classes[0] = classes[0] + classes[-1][:1]
                    for size in (1, 2):
                        for budget in (50, 200_000):
                            for eta in ETAS:
                                args = (h, *classes, eta, size, budget)
                                got = extraction_outcome(op, *args)
                                assert got == extraction_outcome(reference, *args)
                                labels[outcome_label(got)] += 1
        assert set(labels) == {
            "bucket",
            "backtrack",
            "none",
            "InsufficientDensity",
            "InvalidPartition",
        }, labels

    def test_vertex_out_of_range(self):
        h = random_graph(0, 8)
        for name, op, reference, width in self.OPS:
            classes = [[v] for v in range(width)] + [[width, 8, 9]]
            args = (h, *classes, Fraction(1, 16), 1, 50)
            assert extraction_outcome(op, *args) is InvalidVertex
            assert extraction_outcome(reference, *args) is InvalidVertex

    @pytest.mark.parametrize("r", (3, 5))
    def test_other_uniformity_rejected(self, r):
        h = random_graph(0, 10, r)
        for name, op, reference, width in self.OPS:
            classes = [[v] for v in range(width)] + [list(range(width, 10))]
            args = (h, *classes, Fraction(1, 16), 1, 50)
            assert extraction_outcome(op, *args) is InvalidPartition
        # the reference's volume density already rejected it
        assert extraction_outcome(ref.extract_partite_volume, *args) is InvalidPartition


class TestPeel:
    @pytest.mark.parametrize("r", (2, 3, 4))
    def test_matches_reference(self, r):
        peeled = 0
        for seed in range(40):
            rng = random.Random(f"peel/{r}/{seed}")
            n = rng.randint(r, 11)
            # uneven vertex weights, so that low-degree vertices get peeled
            weight = [rng.random() for _ in range(n)]
            edges = [
                e
                for e in combinations(range(n), r)
                if rng.random() < min(weight[v] for v in e)
            ]
            if not edges:
                continue
            h = Hypergraph(n, r, edges)
            got = min_degree_peel_vertices(h)
            assert got == ref.min_degree_peel_vertices(h)
            peeled += len(got) < n
        assert peeled >= 5

    def test_block_pair_graphs(self):
        """2-graphs on block indices, as the nine-sided extension builds them
        from the block pairs with enough connected class pairs."""
        for seed in range(30):
            rng = random.Random(f"peel/pairs/{seed}")
            blocks = rng.randint(2, 12)
            pairs = [p for p in combinations(range(blocks), 2) if rng.random() < 0.3]
            if not pairs:
                continue
            h = Hypergraph(blocks, 2, pairs)
            assert min_degree_peel_vertices(h) == ref.min_degree_peel_vertices(h)


class TestLinkGraph:
    def test_build_link_graph(self):
        nonzero = 0
        for seed in range(40):
            rng = random.Random(f"link/{seed}")
            l = rng.choice((1, 1, 2))
            n = 12 * l + rng.randint(1, 6)
            h = random_graph(seed, n, p=rng.uniform(0.2, 0.8))
            order = rng.sample(range(n), n)
            blocks = tuple(
                PartiteSpec.of(*(order[4 * l * x + l * c :][:l] for c in range(4)))
                for x in range(3)
            )
            leftover = order[12 * l :][: rng.randint(1, 6)]
            eta = rng.choice((Fraction(1, 16), Fraction(1, 8), Fraction(1, 4)))
            mask = build_link_graph(h, blocks, leftover, eta)
            assert mask == ref.build_link_graph(h, blocks, leftover, eta)
            nonzero += mask != 0
        assert nonzero >= 10

    def test_canonical_form(self):
        pytest.importorskip("numpy")
        rng = random.Random("canonical")
        for _ in range(2000):
            mask = sum(1 << b for b in rng.sample(range(64), rng.randrange(65)))
            assert canonical_form(mask) == ref.canonical_form(mask)


class TestExtremal:
    def test_detect_extremal(self):
        instances = [h for _, h in graphs()] + [
            near_extremal(n, seed) for n in (12, 16, 20, 24) for seed in range(3)
        ]
        found = 0
        for h in instances:
            for alpha in (Fraction(1, 10), Fraction(1, 4)):
                b = detect_extremal(h, alpha)
                assert b == ref.detect_extremal(h, alpha)
                found += b is not None
        assert found >= 10

    def test_extremal_matcher(self):
        outcomes = set()
        for n in (12, 16, 20, 24):
            for seed in range(6 if n < 24 else 2):
                h = near_extremal(n, seed)
                rng = random.Random(f"em/{n}/{seed}")
                b = list(range(n // 4, n))
                # B of size 3n/4, and B too small or too large, so that both
                # rebalancing loops run
                for b_set in (b, b[2:], b + [0, 1]):
                    for alpha in (Fraction(1, 10), Fraction(1, 3)):
                        pipeline_seed = rng.randrange(1000)
                        args = (h, b_set, alpha, pipeline_seed)
                        got = extremal_matcher(*args)
                        assert got == ref.extremal_matcher(*args)
                        outcomes.add(got is not None)
        assert outcomes == {True, False}
