"""Tests for the pattern catalogue, isomorphism matcher and degrees."""

import math

import pytest

from repro.graph.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from repro.patterns.degree import (
    c4_degrees,
    fast_pattern_degrees,
    pattern_degrees,
    star_degrees,
)
from repro.patterns.isomorphism import (
    count_pattern_instances,
    enumerate_pattern_instances,
    pattern_density,
    symmetry_conditions,
)
from repro.patterns.pattern import (
    Pattern,
    clique_pattern,
    get_pattern,
    pattern_names,
    star_pattern,
)

from .conftest import random_graph


class TestCatalogue:
    def test_all_names_resolve(self):
        for name in pattern_names():
            pattern = get_pattern(name)
            assert pattern.size >= 2
            assert pattern.graph.is_connected()

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown pattern"):
            get_pattern("pentagon-house")

    @pytest.mark.parametrize(
        "name,size,edges",
        [
            ("edge", 2, 1),
            ("2-star", 3, 2),
            ("triangle", 3, 3),
            ("3-star", 4, 3),
            ("c3-star", 4, 4),
            ("diamond", 4, 4),
            ("2-triangle", 4, 5),
            ("4-clique", 4, 6),
            ("3-triangle", 5, 7),
            ("basket", 5, 6),
        ],
    )
    def test_shapes(self, name, size, edges):
        pattern = get_pattern(name)
        assert (pattern.size, pattern.num_edges) == (size, edges)

    def test_is_clique(self):
        assert get_pattern("4-clique").is_clique()
        assert not get_pattern("diamond").is_clique()

    def test_subpattern_relation_c3star_2triangle(self):
        # the paper: c3-star ⊆ 2-triangle with equal vertex count
        c3 = get_pattern("c3-star")
        tt = get_pattern("2-triangle")
        assert c3.size == tt.size
        assert c3.num_edges < tt.num_edges

    def test_automorphism_counts(self):
        assert get_pattern("edge").automorphism_count() == 2
        assert get_pattern("triangle").automorphism_count() == 6
        assert get_pattern("diamond").automorphism_count() == 8  # dihedral D4
        assert get_pattern("2-star").automorphism_count() == 2
        assert get_pattern("3-star").automorphism_count() == 6

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            Pattern("disconnected", Graph([(0, 1), (2, 3)]))
        with pytest.raises(ValueError):
            Pattern("single", Graph(vertices=[0]))

    def test_clique_pattern_names(self):
        assert clique_pattern(2).name == "edge"
        assert clique_pattern(3).name == "triangle"
        assert clique_pattern(5).name == "5-clique"

    def test_star_pattern(self):
        assert star_pattern(4).size == 5


class TestEnumeration:
    def test_diamond_in_k4(self):
        # K4 contains exactly three 4-cycles
        assert count_pattern_instances(complete_graph(4), get_pattern("diamond")) == 3

    def test_two_triangle_in_k4(self):
        # six ways to drop one edge of K4
        assert count_pattern_instances(complete_graph(4), get_pattern("2-triangle")) == 6

    def test_counts_match_automorphism_formula_on_cliques(self):
        # instances in K_n = #injections / |Aut| for any pattern
        g = complete_graph(5)
        for name in ("2-star", "c3-star", "diamond", "2-triangle", "basket"):
            pattern = get_pattern(name)
            h = pattern.size
            injections = math.perm(5, h)
            expected = injections // pattern.automorphism_count()
            assert count_pattern_instances(g, pattern) == expected, name

    def test_clique_patterns_match_clique_enumeration(self):
        from repro.cliques.enumeration import count_cliques

        g = random_graph(15, 45, seed=1)
        for h in (2, 3, 4):
            assert count_pattern_instances(g, clique_pattern(h)) == count_cliques(g, h)

    def test_non_induced_semantics(self):
        # a 2-star embeds into a triangle even though the tails are adjacent
        assert count_pattern_instances(complete_graph(3), get_pattern("2-star")) == 3

    @pytest.mark.parametrize("name", ["c3-star", "diamond", "basket"])
    def test_row_entries_map_pattern_edges_to_graph_edges(self, name):
        # row entry i is the image of pattern vertex i
        g = random_graph(12, 30, seed=2)
        labels = list(g)
        pattern = get_pattern(name)
        rows = enumerate_pattern_instances(g, pattern)
        assert rows
        for row in rows:
            assert len(set(row)) == pattern.size
            for a, b in pattern.graph.edges():
                assert g.has_edge(labels[row[a]], labels[row[b]])

    @pytest.mark.parametrize("name", ["2-star", "3-star", "c3-star", "diamond", "2-triangle"])
    def test_one_row_per_instance(self, name):
        # symmetry breaking admits one embedding per image edge set
        g = random_graph(12, 32, seed=3)
        pattern = get_pattern(name)
        rows = enumerate_pattern_instances(g, pattern)
        edge_sets = {
            frozenset(frozenset((row[a], row[b])) for a, b in pattern.graph.edges())
            for row in rows
        }
        assert len(edge_sets) == len(rows)

    def test_rows_are_graph_order_ids(self):
        # the ids index list(graph), whatever the labels are
        g = Graph([("d", "a"), ("a", "b"), ("b", "c"), ("c", "d")])
        (row,) = enumerate_pattern_instances(g, get_pattern("diamond"))
        assert sorted(row) == [0, 1, 2, 3]
        labels = list(g)
        assert [labels[i] for i in row] == ["d", "a", "b", "c"]

    def test_symmetry_conditions_break_every_automorphism(self):
        # exactly one automorphic image of the identity meets the conditions
        for name in pattern_names():
            pattern = get_pattern(name)
            conditions = symmetry_conditions(pattern, list(range(pattern.size)))
            admitted = [
                perm
                for perm in pattern.automorphisms
                if all(perm[a] < perm[b] for a, b in conditions)
            ]
            assert len(admitted) == 1, name

    def test_no_instances_in_too_small_graph(self):
        assert count_pattern_instances(path_graph(2), get_pattern("basket")) == 0

    def test_basket_in_house(self):
        house = get_pattern("basket").graph
        assert count_pattern_instances(house, get_pattern("basket")) == 1

    def test_three_triangle_in_book(self):
        book = get_pattern("3-triangle").graph
        assert count_pattern_instances(book, get_pattern("3-triangle")) == 1

    def test_pattern_density(self):
        assert pattern_density(complete_graph(4), get_pattern("diamond")) == pytest.approx(0.75)
        assert pattern_density(Graph(), get_pattern("edge")) == 0.0


class TestDegrees:
    def test_generic_degrees_sum(self):
        g = random_graph(14, 40, seed=4)
        for name in ("2-star", "diamond", "c3-star"):
            pattern = get_pattern(name)
            degrees = pattern_degrees(g, pattern)
            total = count_pattern_instances(g, pattern)
            assert sum(degrees.values()) == pattern.size * total

    def test_star_degrees_formula_on_star(self):
        g = star_graph(5)  # centre 0
        degrees = star_degrees(g, 3)
        assert degrees[0] == math.comb(5, 3)
        assert degrees[1] == math.comb(4, 2)  # tail of centre stars

    @pytest.mark.parametrize("tails", [2, 3])
    def test_star_degrees_match_generic(self, tails):
        g = random_graph(16, 45, seed=5)
        assert star_degrees(g, tails) == pattern_degrees(g, star_pattern(tails))

    def test_c4_degrees_on_cycle(self):
        degrees = c4_degrees(cycle_graph(4))
        assert all(d == 1 for d in degrees.values())

    def test_c4_degrees_match_generic(self):
        g = random_graph(16, 45, seed=6)
        assert c4_degrees(g) == pattern_degrees(g, get_pattern("diamond"))

    def test_fast_dispatch_falls_back(self):
        g = random_graph(12, 30, seed=7)
        pattern = get_pattern("c3-star")
        assert fast_pattern_degrees(g, pattern) == pattern_degrees(g, pattern)

    def test_star_degrees_validation(self):
        with pytest.raises(ValueError):
            star_degrees(Graph(), 1)


class TestInducedInstances:
    def test_no_induced_diamond_in_k4(self):
        # every C4 in K4 has both chords present
        assert count_pattern_instances(complete_graph(4), get_pattern("diamond"), induced=True) == 0

    def test_induced_diamond_in_plain_cycle(self):
        assert count_pattern_instances(cycle_graph(4), get_pattern("diamond"), induced=True) == 1

    def test_induced_2star_excludes_triangles(self):
        # in a triangle no 2-star is induced (the tails are adjacent)
        assert count_pattern_instances(complete_graph(3), get_pattern("2-star"), induced=True) == 0
        g = Graph([(0, 1), (1, 2)])
        assert count_pattern_instances(g, get_pattern("2-star"), induced=True) == 1

    def test_induced_subset_of_non_induced(self):
        g = random_graph(12, 34, seed=8)
        for name in ("2-star", "diamond", "c3-star"):
            pattern = get_pattern(name)
            induced = set(enumerate_pattern_instances(g, pattern, induced=True))
            plain = set(enumerate_pattern_instances(g, pattern))
            assert induced <= plain

    def test_cliques_unaffected_by_induced_flag(self):
        g = random_graph(12, 34, seed=9)
        pattern = get_pattern("triangle")
        assert count_pattern_instances(g, pattern, induced=True) == count_pattern_instances(
            g, pattern
        )
