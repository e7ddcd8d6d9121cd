"""Tests for CoreExact (Algorithm 4) and its prunings."""

import itertools

import pytest

from repro.cliques.index import CliqueIndex
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.graph.graph import Graph, complete_graph

from .conftest import random_graph


class TestAgreesWithExact:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("h", [2, 3])
    def test_random_graphs(self, seed, h):
        g = random_graph(24, 70, seed=seed)
        exact = exact_densest(g, h)
        core = core_exact_densest(g, h)
        assert core.density == pytest.approx(exact.density, abs=1e-9)

    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_on_figure3(self, paper_figure3_graph, h):
        exact = exact_densest(paper_figure3_graph, h)
        core = core_exact_densest(paper_figure3_graph, h)
        assert core.density == pytest.approx(exact.density, abs=1e-9)

    def test_h4_random(self):
        g = random_graph(18, 70, seed=3)
        assert core_exact_densest(g, 4).density == pytest.approx(
            exact_densest(g, 4).density, abs=1e-9
        )


class TestPruningVariants:
    @pytest.mark.parametrize(
        "flags",
        list(itertools.product([False, True], repeat=2)),
        ids=lambda f: "P" + "".join(str(int(x)) for x in f),
    )
    def test_all_pruning_combinations_agree(self, flags):
        p1, p2 = flags
        g = random_graph(20, 60, seed=8)
        reference = exact_densest(g, 3).density
        result = core_exact_densest(g, 3, pruning1=p1, pruning2=p2)
        assert result.density == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("h", [2, 4])
    @pytest.mark.parametrize(
        "flags",
        list(itertools.product([False, True], repeat=2)),
        ids=lambda f: "P" + "".join(str(int(x)) for x in f),
    )
    def test_pruning_combinations_for_edges_and_4_cliques(self, flags, h):
        """Every pruning combination returns a set whose recounted
        density is Exact's, bit for bit."""
        p1, p2 = flags
        g = random_graph(20, 60, seed=8) if h == 2 else random_graph(18, 70, seed=3)
        reference = exact_densest(g, h).density
        result = core_exact_densest(g, h, pruning1=p1, pruning2=p2)
        assert result.density == reference
        assert CliqueIndex(g, h).density_within(result.vertices) == reference

    def test_pruned_networks_not_larger_than_exact(self):
        g = random_graph(30, 90, seed=4)
        exact = exact_densest(g, 3)
        core = core_exact_densest(g, 3)
        if core.stats["network_sizes"] and exact.stats["network_sizes"]:
            assert max(core.stats["network_sizes"]) <= max(exact.stats["network_sizes"])


class TestMultiComponent:
    def test_optimum_in_second_component(self):
        # sparse big component + dense small component
        g = Graph()
        for i in range(20):
            g.add_edge(i, (i + 1) % 20)  # 20-cycle, density 1
        for i, j in itertools.combinations(range(100, 106), 2):
            g.add_edge(i, j)  # K6, density 2.5
        result = core_exact_densest(g, 2)
        assert result.vertices == set(range(100, 106))
        assert result.density == pytest.approx(2.5)

    def test_two_equal_components(self):
        g = Graph()
        for i, j in itertools.combinations(range(5), 2):
            g.add_edge(i, j)
        for i, j in itertools.combinations(range(10, 15), 2):
            g.add_edge(i, j)
        result = core_exact_densest(g, 2)
        assert result.density == pytest.approx(2.0)

    def test_triangle_components(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5), (7, 8)])
        result = core_exact_densest(g, 3)
        assert result.density == pytest.approx(1 / 3)


class TestInstrumentation:
    def test_stats_present(self):
        g = random_graph(25, 80, seed=5)
        result = core_exact_densest(g, 3)
        for key in ("network_sizes", "decomposition_seconds", "total_seconds", "kmax"):
            assert key in result.stats

    def test_decomposition_time_fraction(self):
        g = random_graph(25, 80, seed=6)
        result = core_exact_densest(g, 3)
        assert 0.0 <= result.stats["decomposition_seconds"] <= result.stats["total_seconds"]

    def test_located_core_not_larger_than_graph(self):
        g = random_graph(30, 95, seed=7)
        result = core_exact_densest(g, 3)
        assert result.stats["located_vertices"] <= g.num_vertices


class TestEdgeCases:
    def test_empty(self):
        assert core_exact_densest(Graph(), 2).density == 0.0

    def test_no_instances(self):
        g = Graph([(0, 1), (1, 2)])
        result = core_exact_densest(g, 3)
        assert result.density == 0.0

    def test_complete_graph(self):
        result = core_exact_densest(complete_graph(7), 2)
        assert result.density == pytest.approx(3.0)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            core_exact_densest(Graph([(0, 1)]), 0)

    def test_precomputed_decomposition_reused(self):
        from repro.core.clique_core import clique_core_decomposition

        g = random_graph(20, 60, seed=9)
        decomp = clique_core_decomposition(g, 3)
        result = core_exact_densest(g, 3, decomposition=decomp)
        assert result.density == pytest.approx(exact_densest(g, 3).density, abs=1e-9)
