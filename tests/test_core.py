"""Hypergraph core: degrees, densities, matchings, and the .hg format."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch.core import (
    MAX_HG_VERTICES,
    DensityKind,
    Hypergraph,
    PartiteSpec,
    format_hg,
    parse_hg,
    validate_matching,
)
from hypermatch.errors import (
    EmptyInput,
    HypermatchError,
    InvalidDegreeOrder,
    InvalidPartition,
    InvalidVertex,
    TooSmall,
)


# .hg-like text: integer tokens near 0 and near the header cap, plus junk
_hg_token = st.one_of(
    st.integers(-2, 12),
    st.integers(MAX_HG_VERTICES - 2, MAX_HG_VERTICES + 2),
    st.sampled_from(["#", "x", "1.5", "0x4", "١"]),
).map(str)
_hg_text = st.one_of(
    st.text(),
    st.lists(st.lists(_hg_token, max_size=5).map(" ".join), max_size=6).map(
        lambda lines: "\n".join(lines) + "\n"
    ),
)


def k4_graph(n: int) -> Hypergraph:
    return Hypergraph(n, 4, combinations(range(n), 4))


class TestConstruction:
    def test_edges_normalized_and_sorted(self):
        h = Hypergraph(6, 4, [(3, 2, 1, 0), (5, 4, 1, 0)])
        assert h.edges == ((0, 1, 2, 3), (0, 1, 4, 5))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(5, 4, [(0, 1, 2, 3), (3, 2, 1, 0)])

    def test_duplicate_edge_named(self):
        edges = [(0, 1, 2, 4), (0, 1, 2, 3), (1, 2, 3, 4), (4, 2, 1, 0)]
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1, 2, 4\)"):
            Hypergraph(5, 4, edges)

    def test_vertex_out_of_range(self):
        with pytest.raises(InvalidVertex):
            Hypergraph(4, 4, [(0, 1, 2, 4)])

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(5, 4, [(0, 1, 2, 2)])

    def test_uniformity_bounds(self):
        with pytest.raises(ValueError):
            Hypergraph(4, 1, [])
        with pytest.raises(ValueError):
            Hypergraph(3, 4, [])


class TestDegrees:
    def test_degree_matches_bruteforce(self):
        h = Hypergraph(8, 4, [e for i, e in enumerate(combinations(range(8), 4)) if i % 3])
        for d in (1, 2, 3):
            for ds in combinations(range(8), d):
                want = sum(1 for e in h.edges if set(ds) <= set(e))
                assert h.degree(ds) == want

    def test_min_degree_complete(self):
        h = k4_graph(8)
        # every vertex of K8 lies in C(7,3) = 35 edges
        assert h.min_degree(1) == 35
        assert h.min_degree(2) == 15
        assert h.min_degree(3) == 5

    def test_degree_order_validation(self):
        h = k4_graph(6)
        with pytest.raises(InvalidDegreeOrder):
            h.degree(())
        with pytest.raises(InvalidDegreeOrder):
            h.degree((0, 1, 2, 3))
        with pytest.raises(InvalidVertex):
            h.degree((0, 0))
        with pytest.raises(InvalidVertex):
            h.degree((99,))


class TestDensity:
    def test_complete_density_is_one(self):
        assert k4_graph(8).density(range(8)) == 1

    def test_density_exact_fraction(self):
        h = Hypergraph(6, 4, [(0, 1, 2, 3)])
        assert h.density(range(5)) == Fraction(1, 5)

    def test_density_too_small(self):
        with pytest.raises(TooSmall):
            k4_graph(8).density([0, 1, 2])

    def test_partite_density_split_1_3(self):
        # all edges meeting A exactly once with the rest in B
        a, b = [0], [1, 2, 3, 4]
        edges = [tuple(sorted((0,) + t)) for t in combinations(b, 3)]
        h = Hypergraph(5, 4, edges)
        parts = PartiteSpec.of(a, b)
        assert h.partite_density(DensityKind.SPLIT_1_3, parts) == 1

    def test_partite_density_shape_mismatch(self):
        h = k4_graph(8)
        with pytest.raises(InvalidPartition):
            h.partite_density(DensityKind.SPLIT_1_1_2, PartiteSpec.of([0], [1]))

    def test_partite_density_split_1_1_1_1(self):
        h = Hypergraph(4, 4, [(0, 1, 2, 3)])
        parts = PartiteSpec.of([0], [1], [2], [3])
        assert h.partite_density(DensityKind.SPLIT_1_1_1_1, parts) == 1


class TestPartiteSpec:
    def test_overlap_rejected(self):
        with pytest.raises(InvalidPartition):
            PartiteSpec.of([0, 1], [1, 2])

    def test_empty_class_rejected(self):
        with pytest.raises(InvalidPartition):
            PartiteSpec.of([0], [])


class TestInduce:
    def test_relabels_in_order(self):
        h = Hypergraph(8, 4, [(1, 3, 5, 7), (0, 2, 4, 6)])
        sub = h.induce([1, 3, 5, 7])
        assert sub.n == 4 and sub.edges == ((0, 1, 2, 3),)

    def test_density_preserved_under_induce(self):
        h = k4_graph(8)
        u = [0, 2, 3, 7, 5]
        assert h.induce(u).density(range(5)) == h.density(u)

    def test_fewer_than_r_vertices_too_small(self):
        # no r-uniform graph lives on fewer than r vertices
        h = k4_graph(8)
        for u in ([], [5], [0, 2, 7]):
            with pytest.raises(TooSmall):
                h.induce(u)
        with pytest.raises(InvalidVertex):
            h.induce([1, 8])


class TestMatching:
    def test_perfect(self):
        h = k4_graph(8)
        check = validate_matching(h, [(0, 1, 2, 3), (4, 5, 6, 7)])
        assert check.valid and check.perfect

    def test_overlap_invalid(self):
        h = k4_graph(8)
        assert not validate_matching(h, [(0, 1, 2, 3), (3, 4, 5, 6)]).valid

    def test_non_edge_invalid(self):
        h = Hypergraph(8, 4, [(0, 1, 2, 3)])
        assert not validate_matching(h, [(4, 5, 6, 7)]).valid

    def test_valid_but_not_perfect(self):
        h = k4_graph(8)
        check = validate_matching(h, [(0, 1, 2, 3)])
        assert check.valid and not check.perfect


class TestHgFormat:
    def test_round_trip(self):
        h = Hypergraph(8, 4, [(0, 1, 2, 3), (2, 4, 6, 7)])
        assert parse_hg(format_hg(h)) == h

    def test_header_and_trailing_newline(self):
        text = format_hg(k4_graph(4))
        assert text.startswith("4 4 1\n") and text.endswith("\n")

    def test_missing_trailing_newline(self):
        with pytest.raises(ValueError):
            parse_hg("4 4 0")

    def test_comments_ignored(self):
        assert parse_hg("# hi\n4 4 1\n0 1 2 3\n") == k4_graph(4)

    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            parse_hg("4 4 2\n0 1 2 3\n")

    def test_unsorted_edge_line(self):
        with pytest.raises(ValueError):
            parse_hg("4 4 1\n3 2 1 0\n")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_hg("\n")

    def test_header_n_cap(self):
        assert parse_hg(f"4 {MAX_HG_VERTICES} 0\n").n == MAX_HG_VERTICES
        with pytest.raises(ValueError):
            parse_hg(f"4 {MAX_HG_VERTICES + 1} 0\n")

    @settings(max_examples=300, deadline=None)
    @given(_hg_text)
    def test_any_text_parses_or_raises(self, text):
        try:
            h = parse_hg(text)
        except (ValueError, HypermatchError):
            return
        assert isinstance(h, Hypergraph) and h.n <= MAX_HG_VERTICES

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(4, 10))
        all_edges = list(combinations(range(n), 4))
        edges = data.draw(st.sets(st.sampled_from(all_edges), max_size=20))
        h = Hypergraph(n, 4, edges)
        assert parse_hg(format_hg(h)) == h
