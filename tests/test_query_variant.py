"""Tests for the query-constrained densest subgraph (Section 6.3)."""

import itertools
import math

import pytest

from repro.core.kcore import core_decomposition
from repro.core.query_variant import anchored_core, query_densest
from repro.flow.builders import build_eds_parametric
from repro.graph.graph import Graph, complete_graph

from .conftest import random_graph


def brute_force_query(graph, anchors) -> float:
    vertices = [v for v in graph.vertices() if v not in anchors]
    best = 0.0
    for size in range(len(vertices) + 1):
        for extra in itertools.combinations(vertices, size):
            sub = graph.subgraph(set(anchors) | set(extra))
            best = max(best, sub.edge_density())
    return best


class TestAnchoredCore:
    def test_anchor_survives(self):
        g = Graph([(0, 1), (1, 2)])
        core = anchored_core(g, {0}, 5)
        assert 0 in core

    def test_reduces_to_kcore_without_anchors_kept(self):
        from repro.core.kcore import k_core

        g = random_graph(25, 70, seed=1)
        assert set(anchored_core(g, set(), 3).vertices()) == set(k_core(g, 3).vertices())

    def test_anchor_keeps_its_support(self):
        # a pendant anchor attached to a K4 keeps only itself + the K4
        g = complete_graph(4)
        g.add_edge(0, 9)
        g.add_edge(9, 10)
        core = anchored_core(g, {9}, 2)
        assert 9 in core and 10 not in core


class TestQueryDensest:
    def test_contains_query(self):
        g = random_graph(20, 55, seed=2)
        result = query_densest(g, [0, 1])
        assert {0, 1} <= result.vertices

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        g = random_graph(9, 18, seed=seed)
        anchors = [0]
        result = query_densest(g, anchors)
        assert result.density == pytest.approx(brute_force_query(g, anchors), abs=1e-9)

    def test_query_inside_dense_blob(self):
        g = complete_graph(5)
        for i in range(5, 12):
            g.add_edge(i, i - 5)
        result = query_densest(g, [0])
        assert set(range(5)) <= result.vertices

    def test_unconstrained_matches_global_when_query_in_optimum(self):
        from repro.core.core_exact import core_exact_densest

        g = random_graph(18, 50, seed=5)
        global_result = core_exact_densest(g, 2)
        anchor = next(iter(global_result.vertices))
        assert query_densest(g, [anchor]).density == pytest.approx(
            global_result.density, abs=1e-9
        )

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            query_densest(Graph([(0, 1)]), [])

    def test_missing_vertex_rejected(self):
        with pytest.raises(KeyError):
            query_densest(Graph([(0, 1)]), [42])


class TestExactBoundaryRegression:
    def test_optimum_equal_to_lower_bound_is_returned(self):
        # regression: when rho_opt(Q) == the x-core seed bound, the
        # witness (not the whole search domain) must be returned
        import itertools

        g = Graph()
        for i, j in itertools.combinations(range(10), 2):
            g.add_edge(i, j)  # K10, density 4.5
        # sparse 5-core-ish padding around it
        for i in range(10, 60):
            for j in range(5):
                g.add_edge(i, (i + j + 1) % 50 + 10)
        g.add_edge(0, 10)
        result = query_densest(g, [0])
        assert result.density >= 4.5 - 1e-9

    def test_outside_query_gets_diluted_densest(self):
        import itertools

        g = Graph()
        for i, j in itertools.combinations(range(8), 2):
            g.add_edge(i, j)  # K8, density 3.5
        g.add_edge(7, 100)
        g.add_edge(100, 101)
        result = query_densest(g, [101])
        # optimum = K8 + {101} (+ maybe 100): 28 edges + 2 over 10
        assert 101 in result.vertices
        assert result.density >= 28 / 9 - 1e-9


def _rescan_anchored_core(graph, anchors, k):
    """The anchored k-core by whole-graph rescans: each round drops every
    non-anchor vertex of degree < k; the survivors keep graph order."""
    kept = list(graph)
    while True:
        work = Graph(vertices=kept)
        for u in kept:
            for v in graph.neighbors(u):
                if v in work:
                    work.add_edge(u, v)
        doomed = {v for v in kept if v not in anchors and work.degree(v) < k}
        if not doomed:
            return work
        kept = [v for v in kept if v not in doomed]


def _reference_query(graph, query):
    """The query variant with its own walk loop over the rescanned core:
    keep the x-core witness unless a cut of the walk is strictly denser."""
    anchors = set(query)
    core = core_decomposition(graph)
    x = min(core[q] for q in anchors)
    best = {v for v, c in core.items() if c >= x} | anchors
    best_density = graph.subgraph(best).edge_density()
    alpha = max(x / 2.0, best_density)
    domain = _rescan_anchored_core(graph, anchors, math.ceil(alpha))
    net = build_eds_parametric(domain, anchors=anchors)
    iterations = 0
    while True:
        cut = net.solve(alpha)
        iterations += 1
        density = domain.subgraph(cut).edge_density()
        if density <= alpha:
            return best, best_density, iterations
        if density > best_density:
            best, best_density = cut, density
        alpha = density


@pytest.mark.parametrize("seed", range(50))
def test_matches_the_rescan_reference(seed):
    """Vertex set, density bits and solve count equal the reference's."""
    n = 20 + seed % 41
    g = random_graph(n, n * (2 + seed % 3), seed=seed + 100)
    query = [seed % n] if seed % 2 else [seed % n, (seed * 7 + 3) % n]
    result = query_densest(g, query)
    vertices, density, iterations = _reference_query(g, query)
    assert result.vertices == vertices
    assert repr(result.density) == repr(density)
    assert result.iterations == iterations
