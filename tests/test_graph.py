"""Unit tests for the Graph substrate."""

import pytest

from repro.graph.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from .conftest import random_graph, to_networkx


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.vertices()) == []

    def test_from_edges(self):
        g = Graph([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_isolated_vertices(self):
        g = Graph(vertices=[5, 7])
        assert g.num_vertices == 2
        assert g.degree(5) == 0

    def test_duplicate_edges_collapse(self):
        g = Graph([(0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph([(3, 3)])

    def test_add_vertex_idempotent(self):
        g = Graph([(0, 1)])
        g.add_vertex(0)
        assert g.num_vertices == 2

    def test_string_vertices(self):
        g = Graph([("a", "b"), ("b", "c")])
        assert g.has_edge("a", "b")
        assert not g.has_edge("a", "c")


class TestInspection:
    def test_edges_iterates_once_per_edge(self, paper_figure1_graph):
        edges = list(paper_figure1_graph.edges())
        assert len(edges) == paper_figure1_graph.num_edges
        seen = {frozenset(e) for e in edges}
        assert len(seen) == len(edges)

    def test_degree_and_max_degree(self, paper_figure1_graph):
        g = paper_figure1_graph
        assert g.degree(3) == 4
        assert g.max_degree() == 4

    def test_max_degree_empty(self):
        assert Graph().max_degree() == 0

    def test_contains_and_len(self):
        g = Graph([(0, 1)])
        assert 0 in g and 2 not in g
        assert len(g) == 2

    def test_edge_density(self):
        assert complete_graph(4).edge_density() == pytest.approx(1.5)
        assert Graph().edge_density() == 0.0

    def test_equality(self):
        assert Graph([(0, 1)]) == Graph([(1, 0)])
        assert Graph([(0, 1)]) != Graph([(0, 2)])


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = Graph([(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_subgraph_induced(self, paper_figure1_graph):
        sub = paper_figure1_graph.subgraph([0, 1, 2, 3])
        assert sub.num_vertices == 4
        assert sub.num_edges == 6  # the K4

    def test_subgraph_ignores_missing(self):
        sub = Graph([(0, 1)]).subgraph([0, 42])
        assert sub.num_vertices == 1

    def test_subgraph_no_external_edges(self, paper_figure1_graph):
        sub = paper_figure1_graph.subgraph([3, 4])
        assert sub.num_edges == 1

    def test_subgraph_does_not_alias_parent(self, paper_figure1_graph):
        sub = paper_figure1_graph.subgraph([0, 1, 2, 3])
        sub.add_edge(0, 99)
        assert 99 not in paper_figure1_graph
        assert 99 not in paper_figure1_graph.neighbors(0)


class TestComponents:
    def test_connected_components(self, disconnected_graph):
        comps = sorted(disconnected_graph.connected_components(), key=len)
        assert [len(c) for c in comps] == [1, 3, 3]

    def test_is_connected(self, triangle_graph, disconnected_graph):
        assert triangle_graph.is_connected()
        assert not disconnected_graph.is_connected()
        assert Graph().is_connected()

    def test_components_cover_all_vertices(self):
        g = random_graph(40, 50, seed=5)
        comps = g.connected_components()
        union = set().union(*comps)
        assert union == set(g.vertices())

    def test_components_match_networkx(self):
        import networkx as nx

        g = random_graph(60, 70, seed=9)
        ours = sorted(sorted(c) for c in g.connected_components())
        theirs = sorted(sorted(c) for c in nx.connected_components(to_networkx(g)))
        assert ours == theirs


class TestDegeneracy:
    def test_degeneracy_of_complete_graph(self):
        _, d = complete_graph(6).degeneracy_ordering()
        assert d == 5

    def test_degeneracy_of_tree(self):
        _, d = path_graph(10).degeneracy_ordering()
        assert d == 1

    def test_degeneracy_of_cycle(self):
        _, d = cycle_graph(7).degeneracy_ordering()
        assert d == 2

    def test_order_is_a_permutation(self, paper_figure3_graph):
        order, _ = paper_figure3_graph.degeneracy_ordering()
        assert sorted(order, key=str) == sorted(paper_figure3_graph.vertices(), key=str)

    def test_smallest_last_property(self):
        g = random_graph(30, 60, seed=2)
        order, degeneracy = g.degeneracy_ordering()
        remaining = set(g.vertices())
        max_min_deg = 0
        for v in order:
            deg = len(g.neighbors(v) & remaining)
            max_min_deg = max(max_min_deg, deg)
            remaining.discard(v)
        assert max_min_deg == degeneracy

    def test_degeneracy_matches_networkx_core(self):
        import networkx as nx

        g = random_graph(50, 120, seed=4)
        _, d = g.degeneracy_ordering()
        assert d == max(nx.core_number(to_networkx(g)).values())


class TestFactories:
    def test_complete_graph(self):
        g = complete_graph(5)
        assert g.num_edges == 10

    def test_star_graph(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert g.num_edges == 4

    def test_cycle_graph(self):
        g = cycle_graph(5)
        assert all(g.degree(v) == 2 for v in g)

    def test_path_graph_single(self):
        assert path_graph(1).num_vertices == 1

    @pytest.mark.parametrize(
        "factory,bad",
        [(complete_graph, 0), (cycle_graph, 2), (star_graph, 0), (path_graph, 0)],
    )
    def test_factory_validation(self, factory, bad):
        with pytest.raises(ValueError):
            factory(bad)
