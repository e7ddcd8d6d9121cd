"""Tests for classical k-core decomposition."""

import networkx as nx
import pytest

from repro.cliques.index import CliqueIndex
from repro.core import kcore
from repro.core.clique_core import clique_core_decomposition
from repro.core.kcore import core_decomposition, degeneracy, k_core, max_core
from repro.graph.graph import Graph, complete_graph, path_graph

from .conftest import random_graph, to_networkx


#: the dict-and-set loop: the reference the numpy path must equal
bin_sort = kcore._bin_sort_core_numbers


class TestLevelSynchronousPath:
    """The numpy path must give the bin-sort loop's mapping exactly."""

    @pytest.mark.parametrize("seed", range(50))
    def test_random_graphs(self, seed):
        g = random_graph(12 + seed, 3 * seed + 10, seed=seed)
        assert core_decomposition(g) == bin_sort(g)

    def test_string_labels(self):
        g = Graph([("a", "b"), ("b", "c")])
        assert core_decomposition(g) == bin_sort(g) == {"a": 1, "b": 1, "c": 1}

    def test_isolated_vertex(self):
        g = Graph([(0, 1)], vertices=[9])
        assert core_decomposition(g) == bin_sort(g) == {0: 1, 1: 1, 9: 0}

    def test_empty_graph(self):
        assert core_decomposition(Graph()) == bin_sort(Graph()) == {}

    def test_k6(self):
        g = complete_graph(6)
        assert core_decomposition(g) == bin_sort(g) == {v: 5 for v in range(6)}

    def test_long_path_peels_from_both_ends(self):
        # one vertex leaves from each end per round: the most rounds a
        # graph of this size can take
        g = path_graph(301)
        assert core_decomposition(g) == {v: 1 for v in range(301)}

    @pytest.mark.parametrize("h", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_clique_instances_match_algorithm3(self, h, seed):
        """Over instance incidences the same peel gives Algorithm 3's
        (k, Ψ)-core numbers; an instance two frontier vertices share is
        killed once."""
        np = kcore.np
        if np is None:
            pytest.skip("the level-synchronous peel needs numpy")
        g = random_graph(25, 90 + 5 * seed, seed=seed + 300)
        index = CliqueIndex(g, h)
        core = kcore.level_peel(
            np.asarray(index.inc_start, dtype=np.int64),
            np.asarray(index.inc_ids, dtype=np.int64),
            index.rows_array(),
        )
        expected = clique_core_decomposition(g, h).core
        assert dict(zip(index.vertices, core.tolist())) == expected

    def test_span_records_n_and_kmax(self):
        from repro import obs

        obs.enable()
        try:
            core_decomposition(complete_graph(5))
            (sp,) = obs.get_collector().spans("kcore.decomposition")
        finally:
            obs.disable()
        assert sp["attrs"] == {"n": 5, "kmax": 4}


class TestCoreDecomposition:
    def test_complete_graph(self):
        core = core_decomposition(complete_graph(5))
        assert all(c == 4 for c in core.values())

    def test_tree_cores_are_one(self):
        core = core_decomposition(path_graph(8))
        assert all(c == 1 for c in core.values())

    def test_figure3_example(self, paper_figure3_graph):
        core = core_decomposition(paper_figure3_graph)
        assert core["A"] == core["B"] == core["C"] == core["D"] == 3
        assert core["E"] == core["F"] == core["G"] == 2
        assert core["H"] == 1

    def test_empty(self):
        assert core_decomposition(Graph()) == {}

    def test_isolated_vertex(self):
        g = Graph([(0, 1)], vertices=[7])
        assert core_decomposition(g)[7] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx(self, seed):
        g = random_graph(50, 140, seed=seed)
        assert core_decomposition(g) == nx.core_number(to_networkx(g))

    def test_min_degree_property(self):
        g = random_graph(40, 120, seed=11)
        core = core_decomposition(g)
        for k in range(max(core.values()) + 1):
            sub = g.subgraph(v for v, c in core.items() if c >= k)
            if sub.num_vertices:
                assert min(sub.degree(v) for v in sub) >= k

    def test_nestedness(self):
        g = random_graph(40, 120, seed=12)
        core = core_decomposition(g)
        kmax = max(core.values())
        previous = None
        for k in range(kmax, -1, -1):
            members = {v for v, c in core.items() if c >= k}
            if previous is not None:
                assert previous <= members
            previous = members


class TestCoreSubgraphs:
    def test_k_core_subgraph(self, paper_figure3_graph):
        sub = k_core(paper_figure3_graph, 3)
        assert set(sub.vertices()) == {"A", "B", "C", "D"}

    def test_max_core(self, paper_figure3_graph):
        kmax, sub = max_core(paper_figure3_graph)
        assert kmax == 3
        assert sub.num_vertices == 4

    def test_max_core_empty(self):
        kmax, sub = max_core(Graph())
        assert kmax == 0
        assert sub.num_vertices == 0

    def test_degeneracy_equals_kmax(self):
        g = random_graph(45, 130, seed=13)
        core = core_decomposition(g)
        assert degeneracy(g) == max(core.values())

    def test_k_core_may_be_disconnected(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)])
        sub = k_core(g, 2)
        assert len(sub.connected_components()) == 2


class _BinSortLoop:
    """Rerun a test class on the bin-sort loop (numpy switched off)."""

    @pytest.fixture(autouse=True)
    def _without_numpy(self, monkeypatch):
        monkeypatch.setattr(kcore, "np", None)


class TestCoreDecompositionLoop(_BinSortLoop, TestCoreDecomposition):
    pass


class TestCoreSubgraphsLoop(_BinSortLoop, TestCoreSubgraphs):
    pass
