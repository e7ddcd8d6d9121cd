"""Tests for h-clique enumeration and the instance index."""

import math

import networkx as nx
import pytest

from repro.cliques.enumeration import (
    CliqueIndex,
    clique_degrees,
    count_cliques,
    enumerate_cliques,
)
from repro.core.peel import min_degree_peel
from repro.graph.graph import Graph, complete_graph, cycle_graph, star_graph

from .conftest import random_graph, to_networkx


def nx_clique_count(graph, h):
    """Oracle: count h-cliques with networkx."""
    return sum(1 for c in nx.enumerate_all_cliques(to_networkx(graph)) if len(c) == h)


class TestEnumeration:
    @pytest.mark.parametrize("h,expected", [(1, 5), (2, 10), (3, 10), (4, 5), (5, 1), (6, 0)])
    def test_counts_in_k5(self, h, expected):
        assert count_cliques(complete_graph(5), h) == expected

    def test_counts_formula_on_complete_graphs(self):
        for n in range(2, 8):
            g = complete_graph(n)
            for h in range(2, n + 1):
                assert count_cliques(g, h) == math.comb(n, h)

    def test_no_duplicates(self):
        g = random_graph(20, 60, seed=1)
        triangles = list(enumerate_cliques(g, 3))
        assert len({frozenset(t) for t in triangles}) == len(triangles)

    def test_members_are_mutually_adjacent(self):
        g = random_graph(20, 70, seed=2)
        for clique in enumerate_cliques(g, 4):
            for i, u in enumerate(clique):
                for v in clique[i + 1 :]:
                    assert g.has_edge(u, v)

    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    def test_matches_networkx(self, h):
        g = random_graph(25, 90, seed=h)
        assert count_cliques(g, h) == nx_clique_count(g, h)

    def test_cycle_has_no_triangles(self):
        assert count_cliques(cycle_graph(6), 3) == 0

    def test_star_cliques_are_edges_only(self):
        g = star_graph(5)
        assert count_cliques(g, 2) == 5
        assert count_cliques(g, 3) == 0

    def test_h1_yields_vertices(self):
        g = Graph(vertices=[1, 2, 3])
        assert count_cliques(g, 1) == 3

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            count_cliques(Graph(), 0)

    def test_empty_graph(self):
        assert count_cliques(Graph(), 3) == 0


class TestCliqueDegrees:
    def test_triangle_degrees_figure1(self):
        # paper's S2 example: two triangles sharing an edge
        g = Graph([("A", "B"), ("B", "C"), ("C", "A"), ("A", "D"), ("C", "D")])
        degrees = clique_degrees(g, 3)
        assert degrees == {"A": 2, "B": 1, "C": 2, "D": 1}

    def test_sum_equals_h_times_count(self):
        g = random_graph(20, 60, seed=3)
        for h in (2, 3, 4):
            degrees = clique_degrees(g, h)
            assert sum(degrees.values()) == h * count_cliques(g, h)

    def test_every_vertex_present(self):
        g = Graph([(0, 1)], vertices=[9])
        degrees = clique_degrees(g, 3)
        assert degrees[9] == 0
        assert set(degrees) == {0, 1, 9}

    def test_edge_degrees_are_classical_degrees(self):
        g = random_graph(15, 40, seed=4)
        degrees = clique_degrees(g, 2)
        assert degrees == {v: g.degree(v) for v in g}


class TestCliqueIndex:
    def test_degrees_match_direct(self):
        g = random_graph(18, 50, seed=5)
        index = CliqueIndex(g, 3)
        assert index.degrees() == clique_degrees(g, 3)

    # the alive layer, as the min-degree peel drives it

    def test_peel_kills_instances(self):
        g = complete_graph(4)
        index = CliqueIndex(g, 3)
        assert index.num_alive == 4
        removed, _, num_alive = next(min_degree_peel(g, index))
        assert removed == 0  # every degree ties: the first vertex goes first
        assert num_alive == index.num_alive == sum(index.alive) == 1

    def test_peel_is_idempotent_per_instance(self):
        """Each instance dies once, with its first removed member: a
        removal kills exactly the live instances through it."""
        g = random_graph(14, 40, seed=6)
        index = CliqueIndex(g, 3)
        assert index.m
        gone: set = set()
        prev = index.num_alive
        for removed, _, num_alive in min_degree_peel(g, index):
            through = {
                i for i in range(index.m)
                if removed in index.instance(i) and not gone & set(index.instance(i))
            }
            assert prev - num_alive == len(through)
            assert not any(index.alive[i] for i in through)
            gone.add(removed)
            prev = num_alive
        assert sum(index.alive) == index.num_alive == prev

    def test_live_instances_shrink(self):
        g = complete_graph(5)
        index = CliqueIndex(g, 3)
        next(min_degree_peel(g, index))
        live = [index.instance(i) for i in range(index.m) if index.alive[i]]
        assert len(live) == index.num_alive == math.comb(4, 3)
        assert all(0 not in inst for inst in live)

    def test_prebuilt_instances(self):
        g = Graph([(0, 1), (1, 2)])
        index = CliqueIndex(g, 3, instances=[(0, 1, 2)])
        assert index.degrees() == {0: 1, 1: 1, 2: 1}
