"""Tests for k-pattern-core decomposition and the Appendix-D fast paths."""

import pytest

from repro.core.pattern_core import (
    c4_core_decomposition,
    fast_pattern_core_decomposition,
    pattern_core_decomposition,
    pattern_core_subgraph,
    star_core_decomposition,
)
from repro.graph.generators import holme_kim
from repro.graph.graph import Graph, complete_graph, cycle_graph, star_graph
from repro.patterns.isomorphism import count_pattern_instances
from repro.patterns.pattern import get_pattern, star_pattern

from .conftest import random_graph


class TestGenericPatternCores:
    def test_k4_diamond_cores(self):
        result = pattern_core_decomposition(complete_graph(4), get_pattern("diamond"))
        # each vertex sits in all 3 C4s of K4
        assert all(c == 3 for c in result.core.values())
        assert result.kmax == 3

    def test_cycle_c4_cores(self):
        result = pattern_core_decomposition(cycle_graph(4), get_pattern("diamond"))
        assert all(c == 1 for c in result.core.values())

    def test_min_pattern_degree_property(self):
        g = random_graph(15, 45, seed=1)
        pattern = get_pattern("2-star")
        result = pattern_core_decomposition(g, pattern)
        for k in {1, max(1, result.kmax // 2), result.kmax}:
            sub = result.core_subgraph(g, k)
            if sub.num_vertices == 0:
                continue
            from repro.patterns.degree import pattern_degrees

            degrees = pattern_degrees(sub, pattern)
            assert min(degrees[v] for v in sub) >= k

    def test_nestedness(self):
        g = random_graph(15, 45, seed=2)
        result = pattern_core_decomposition(g, get_pattern("c3-star"))
        previous = None
        for k in range(result.kmax, -1, -1):
            members = {v for v, c in result.core.items() if c >= k}
            if previous is not None:
                assert previous <= members
            previous = members

    def test_subpattern_core_containment(self):
        # Section 5.4: Ψ ⊆ Ψ' with equal size => (k, Ψ')-core ⊆ (k, Ψ)-core
        g = random_graph(16, 55, seed=3)
        sub = pattern_core_decomposition(g, get_pattern("c3-star")).core
        sup = pattern_core_decomposition(g, get_pattern("2-triangle")).core
        for k in range(1, max(sup.values(), default=0) + 1):
            sup_core = {v for v, c in sup.items() if c >= k}
            sub_core = {v for v, c in sub.items() if c >= k}
            assert sup_core <= sub_core

    def test_pattern_core_subgraph_helper(self):
        g = complete_graph(4)
        sub = pattern_core_subgraph(g, get_pattern("diamond"), 3)
        assert sub.num_vertices == 4


class TestFastPaths:
    @pytest.mark.parametrize("tails", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_star_fast_path_matches_generic(self, tails, seed):
        g = random_graph(14, 40, seed=seed)
        fast = star_core_decomposition(g, tails)
        generic = pattern_core_decomposition(g, star_pattern(tails)).core
        assert fast == generic

    @pytest.mark.parametrize("seed", range(4))
    def test_c4_fast_path_matches_generic(self, seed):
        g = random_graph(14, 40, seed=seed + 10)
        fast = c4_core_decomposition(g)
        generic = pattern_core_decomposition(g, get_pattern("diamond")).core
        assert fast == generic

    @pytest.mark.parametrize("name", ["2-star", "diamond"])
    def test_heap_peels_match_generic_on_holme_kim(self, name):
        # 2,000 vertices, hubs of degree ~190: the heap picks what the
        # old per-removal min-scan picked, in O(log n) instead of O(n)
        g = holme_kim(2000, 3, 0.5, seed=3)
        pattern = get_pattern(name)
        fast = fast_pattern_core_decomposition(g, pattern)
        assert fast == pattern_core_decomposition(g, pattern).core
        assert max(fast.values()) > 10

    def test_dispatch_star(self):
        g = star_graph(6)
        result = fast_pattern_core_decomposition(g, get_pattern("2-star"))
        generic = pattern_core_decomposition(g, get_pattern("2-star")).core
        assert result == generic

    def test_dispatch_fallback(self):
        g = random_graph(10, 25, seed=5)
        result = fast_pattern_core_decomposition(g, get_pattern("c3-star"))
        assert result == pattern_core_decomposition(g, get_pattern("c3-star")).core

    def test_star_validation(self):
        with pytest.raises(ValueError):
            star_core_decomposition(Graph(), 1)

    def test_empty_graphs(self):
        assert star_core_decomposition(Graph(), 2) == {}
        assert c4_core_decomposition(Graph()) == {}


def _reference_fast_peel(graph, degrees_of, size):
    """The fast peels' contract, naively: recount every pattern-degree
    after each removal, peel the minimum ``(degree, str(v))``, and copy
    the live set whenever the density improves."""
    if not graph.num_vertices:
        return set(), 0.0, 0
    work = graph.copy()
    degree = degrees_of(work)
    best_density = sum(degree.values()) // size / work.num_vertices
    best_vertices = set(work.vertices())
    iterations = 0
    while work.num_vertices > 1:
        iterations += 1
        work.remove_vertex(min(work.vertices(), key=lambda u: (degree[u], str(u))))
        degree = degrees_of(work)
        density = sum(degree.values()) // size / work.num_vertices
        if density > best_density:
            best_density = density
            best_vertices = set(work.vertices())
    return best_vertices, best_density, iterations


class TestFastPeelsMatchReference:
    """The star/C4 peels rebuild their best residual from the removal
    order; vertex set, density and iteration count must equal the
    copy-on-improvement reference."""

    @pytest.mark.parametrize("tails", [2, 3])
    @pytest.mark.parametrize("seed", range(20))
    def test_star(self, seed, tails):
        from repro.core.pattern_core import star_peel_densest
        from repro.patterns.degree import star_degrees

        g = random_graph(14 + seed % 10, 30 + 2 * seed, seed=seed)
        expected = _reference_fast_peel(g, lambda w: star_degrees(w, tails), tails + 1)
        assert star_peel_densest(g, tails) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_diamond(self, seed):
        from repro.core.pattern_core import c4_peel_densest
        from repro.patterns.degree import c4_degrees

        g = random_graph(14 + seed % 10, 30 + 2 * seed, seed=seed)
        assert c4_peel_densest(g) == _reference_fast_peel(g, c4_degrees, 4)


class TestFastPeels:
    @pytest.mark.parametrize("tails", [2, 3])
    def test_star_peel_within_guarantee(self, tails):
        from repro.core.pds import p_exact_densest
        from repro.core.pattern_core import star_peel_densest

        for seed in range(3):
            g = random_graph(14, 40, seed=seed)
            optimum = p_exact_densest(g, star_pattern(tails)).density
            _, density, _ = star_peel_densest(g, tails)
            assert density <= optimum + 1e-9
            if optimum > 0:
                assert density >= optimum / (tails + 1) - 1e-9

    def test_c4_peel_within_guarantee(self):
        from repro.core.pds import p_exact_densest
        from repro.core.pattern_core import c4_peel_densest

        for seed in range(3):
            g = random_graph(14, 40, seed=seed + 10)
            optimum = p_exact_densest(g, get_pattern("diamond")).density
            _, density, _ = c4_peel_densest(g)
            assert density <= optimum + 1e-9
            if optimum > 0:
                assert density >= optimum / 4 - 1e-9

    def test_star_peel_density_is_achieved(self):
        from repro.core.pattern_core import star_peel_densest
        from repro.patterns.isomorphism import count_pattern_instances

        g = random_graph(14, 40, seed=4)
        vertices, density, _ = star_peel_densest(g, 2)
        sub = g.subgraph(vertices)
        actual = count_pattern_instances(sub, star_pattern(2)) / sub.num_vertices
        assert actual == pytest.approx(density)

    def test_fast_mu_matches_enumeration(self):
        from repro.core.pattern_core import fast_pattern_mu
        from repro.patterns.isomorphism import count_pattern_instances

        g = random_graph(14, 40, seed=5)
        for name in ("2-star", "3-star", "diamond"):
            pattern = get_pattern(name)
            assert fast_pattern_mu(g, pattern) == count_pattern_instances(g, pattern)
        assert fast_pattern_mu(g, get_pattern("c3-star")) is None

    def test_hub_graph_fast(self):
        # a 300-leaf hub: ~4.5M 3-star embeddings if materialised; the
        # closed-form peel must handle it instantly
        from repro.core.pds import pattern_core_app_densest, pattern_peel_densest

        g = star_graph(300)
        peel = pattern_peel_densest(g, get_pattern("3-star"))
        app = pattern_core_app_densest(g, get_pattern("3-star"))
        assert peel.stats.get("fast_path")
        assert app.stats.get("fast_path")
        assert peel.density > 0
