"""Tests for the DSD flow-network constructions.

The decision tests solve each parametric network cold, on a fresh
build, at the guess α.
"""

import random

import pytest

from repro.cliques.enumeration import count_cliques
from repro.cliques.index import CliqueIndex
from repro.flow import builders
from repro.flow.builders import build_cds_parametric, build_eds_parametric, build_pds_parametric
from repro.core.pattern_core import pattern_index
from repro.graph.graph import Graph, complete_graph
from repro.patterns.pattern import get_pattern

from .conftest import random_graph
from .test_clique_index import GRAPHS, H_VALUES


def decision_eds(graph, alpha) -> bool:
    """Decision oracle: does a subgraph with edge-density > alpha exist?"""
    return bool(build_eds_parametric(graph).solve(alpha))


class TestEdsNetwork:
    def test_feasible_below_optimum(self):
        g = complete_graph(4)  # optimum density 1.5
        assert decision_eds(g, 1.0)
        assert decision_eds(g, 1.49)

    def test_infeasible_above_optimum(self):
        g = complete_graph(4)
        assert not decision_eds(g, 1.51)
        assert not decision_eds(g, 10.0)

    def test_boundary_is_strict(self):
        # at alpha == rho_opt there is no subgraph with density > alpha
        g = complete_graph(4)
        assert not decision_eds(g, 1.5)

    def test_cut_vertices_form_dense_subgraph(self):
        g = random_graph(20, 60, seed=1)
        cut = build_eds_parametric(g).solve(1.2)
        if cut:
            sub = g.subgraph(cut)
            assert sub.edge_density() > 1.2

    def test_node_count(self):
        g = random_graph(10, 20, seed=2)
        net = build_eds_parametric(g)
        assert net.num_nodes == g.num_vertices + 2


class TestCdsNetwork:
    def test_triangle_decision(self):
        g = complete_graph(4)  # triangle density 4/4 = 1.0
        for alpha, feasible in [(0.5, True), (0.99, True), (1.01, False)]:
            assert bool(build_cds_parametric(g, 3).solve(alpha)) is feasible

    def test_h2_rejected(self):
        with pytest.raises(ValueError):
            build_cds_parametric(Graph([(0, 1)]), 2)

    def test_node_count_includes_sub_cliques(self):
        g = complete_graph(5)  # every edge lies in a triangle
        net = build_cds_parametric(g, 3)
        assert net.num_nodes == 5 + count_cliques(g, 2) + 2

    def test_cut_subgraph_is_denser_than_alpha(self):
        g = random_graph(15, 55, seed=3)
        alpha = 0.4
        cut = build_cds_parametric(g, 3).solve(alpha)
        if cut:
            sub = g.subgraph(cut)
            assert count_cliques(sub, 3) / sub.num_vertices > alpha


class TestPdsNetworks:
    @pytest.mark.parametrize("grouped", [False, True])
    def test_decision_for_diamond_rows(self, grouped):
        g = complete_graph(4)  # 3 C4s on 4 vertices: density 0.75
        index = pattern_index(g, get_pattern("diamond"))
        for alpha, feasible in [(0.5, True), (0.74, True), (0.76, False)]:
            cut = build_pds_parametric(index, grouped=grouped).solve(alpha)
            assert bool(cut) is feasible

    def test_grouped_and_plain_cut_values_agree_on_rows(self):
        # Lemma 11: identical min-cut capacity
        g = random_graph(12, 35, seed=4)
        index = pattern_index(g, get_pattern("2-star"))
        for alpha in (0.5, 2.0, 5.0):
            values = []
            for grouped in (False, True):
                net = build_pds_parametric(index, grouped=grouped)
                net.solve(alpha)
                a_term, b_term = net.cut_line()
                values.append(a_term + b_term * alpha)
            assert values[0] == pytest.approx(values[1], abs=1e-6)

    def test_grouped_network_has_one_node_per_vertex_set(self):
        g = complete_graph(4)
        index = pattern_index(g, get_pattern("diamond"))
        plain = build_pds_parametric(index)
        grouped = build_pds_parametric(index, grouped=True)
        # s, t, 4 vertices, then 3 instance nodes or 1 group of weight 3
        assert (plain.num_nodes, grouped.num_nodes) == (9, 7)


def _explicit_index(graph, h, seed) -> CliqueIndex:
    """The graph's h-cliques as explicit instances: members shuffled
    within each row, rows shuffled, a third of them duplicated."""
    rng = random.Random(seed)
    rows = [tuple(rng.sample(inst, h)) for inst in CliqueIndex(graph, h).instance_tuples()]
    rows += rows[: len(rows) // 3]
    rng.shuffle(rows)
    return CliqueIndex(graph, h, instances=rows)


@pytest.mark.skipif(builders.np is None, reason="the vectorised builder needs numpy")
@pytest.mark.parametrize("anchored", [False, True])
def test_vectorised_eds_arrays_match_the_loop(anchored):
    """The vectorised EDS arrays equal the arc-at-a-time loop's: node
    count, heads, base capacities, the α-arc tables and the labels,
    with and without anchors."""
    for g in GRAPHS:
        labels = list(g)
        anchors = labels[:: max(1, len(labels) // 3)] if anchored else []
        vec = builders.build_eds_parametric(g, anchors)
        loop = builders._eds_parametric_loop(g, anchors)
        assert (vec.num_nodes, vec.source, vec.sink) == (loop.num_nodes, loop.source, loop.sink)
        assert vec.head.tolist() == loop.head.tolist()
        assert vec.base_cap.tolist() == loop.base_cap.tolist()
        assert vec.alpha_arcs.tolist() == loop.alpha_arcs.tolist()
        assert vec.alpha_coeff.tolist() == loop.alpha_coeff.tolist()
        assert vec.alpha_src.tolist() == loop.alpha_src.tolist()
        assert vec.vertex_labels == loop.vertex_labels


@pytest.mark.skipif(builders.np is None, reason="the vectorised builder needs numpy")
@pytest.mark.parametrize("kind", ["graph-built", "explicit"])
@pytest.mark.parametrize("h", H_VALUES)
def test_vectorised_cds_arrays_match_the_loop(h, kind):
    """The vectorised Algorithm-1 arrays equal the pair-at-a-time loop's:
    node count, heads, base capacities and the α-arc tables."""
    checked = 0
    for seed, g in enumerate(GRAPHS):
        index = CliqueIndex(g, h) if kind == "graph-built" else _explicit_index(g, h, seed)
        if not index.m:
            continue
        num_nodes, head, cap, alpha_arcs, alpha_coeff, alpha_src = (
            builders._cds_arrays_from_index(index, h)
        )
        loop = builders._cds_parametric_loop(index, h)
        assert num_nodes == loop.num_nodes
        assert head.tolist() == loop.head.tolist()
        assert cap.tolist() == loop.base_cap.tolist()
        assert alpha_arcs.tolist() == loop.alpha_arcs.tolist()
        assert alpha_coeff.tolist() == loop.alpha_coeff.tolist()
        assert alpha_src.tolist() == loop.alpha_src.tolist()
        checked += 1
    assert checked >= 10


@pytest.mark.skipif(builders.np is None, reason="the vectorised builder needs numpy")
@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("name", ["2-star", "diamond", "c3-star", "basket"])
def test_vectorised_pds_arrays_match_the_loop(name, grouped):
    """The vectorised PDS arrays (Algorithm 8, or construct+ groups)
    equal the node-at-a-time loop's: node count, heads, base capacities
    and the α-arc tables."""
    pattern = get_pattern(name)
    checked = 0
    for g in GRAPHS:
        if g.num_vertices > 14:  # dense 5-vertex patterns explode beyond
            continue
        index = pattern_index(g, pattern)
        if not index.m:
            continue
        vec = builders.build_pds_parametric(index, grouped=grouped)
        loop = builders._pds_parametric_loop(index, grouped)
        assert vec.num_nodes == loop.num_nodes
        assert vec.head.tolist() == loop.head.tolist()
        assert vec.base_cap.tolist() == loop.base_cap.tolist()
        assert vec.alpha_arcs.tolist() == loop.alpha_arcs.tolist()
        assert vec.alpha_coeff.tolist() == loop.alpha_coeff.tolist()
        assert vec.alpha_src.tolist() == loop.alpha_src.tolist()
        checked += 1
    assert checked >= 5
