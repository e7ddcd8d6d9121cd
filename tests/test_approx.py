"""Tests for the approximation algorithms: PeelApp, IncApp, CoreApp."""

import pytest

from repro import guard
from repro.cliques.enumeration import CliqueIndex, clique_degrees, count_cliques
from repro.core import core_app, kcore
from repro.core.core_app import core_app_densest
from repro.core.core_exact import core_exact_densest
from repro.core.inc_app import inc_app_densest
from repro.core.pattern_core import pattern_index
from repro.core.peel import min_degree_peel, peel_densest
from repro.graph.generators import holme_kim, planted_clique
from repro.graph.graph import Graph, complete_graph
from repro.patterns.pattern import get_pattern

from .conftest import random_graph


def _reference_peel(graph, index, max_steps=None):
    """PeelApp's loop as it was: copy the live set on every improvement.

    Returns ``(vertices, density, iterations, improving_steps)`` over
    at most ``max_steps`` removals.
    """
    n = graph.num_vertices
    if not index.m:
        return set(graph.vertices()), 0.0, 0, 0
    best_density = index.num_alive / n
    best_vertices = set(graph.vertices())
    iterations = improving = 0
    for _, alive, num_alive in min_degree_peel(graph, index):
        if iterations == max_steps:
            break
        iterations += 1
        density = num_alive / len(alive)
        if density > best_density:
            best_density = density
            best_vertices = set(alive)
            improving += 1
    return best_vertices, best_density, iterations, improving


def _assert_peel_matches_reference(graph, h, make_index=CliqueIndex):
    """``make_index(graph, h)`` builds each side's (consumed) index."""
    result = peel_densest(graph, h, index=make_index(graph, h))
    vertices, density, iterations, improving = _reference_peel(graph, make_index(graph, h))
    assert result.vertices == vertices
    assert result.density == density
    assert result.iterations == iterations
    return improving


class TestPeelAppBestStep:
    """PeelApp rebuilds its best residual from the removal order; it must
    return exactly what copying the live set on every improvement did."""

    @pytest.mark.parametrize("h", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(50))
    def test_random_graphs(self, seed, h):
        g = random_graph(20 + seed % 15, 50 + 3 * seed, seed=seed)
        _assert_peel_matches_reference(g, h)

    @pytest.mark.parametrize("name", ["diamond", "2-star", "triangle"])
    def test_explicit_instance_index(self, name):
        # the pattern path: instances passed in, not enumerated
        pattern = get_pattern(name)
        for seed in range(5):
            g = random_graph(16, 45, seed=seed + 60)
            _assert_peel_matches_reference(
                g, pattern.size, lambda graph, _: pattern_index(graph, pattern)
            )

    @pytest.mark.parametrize("h", [2, 3])
    def test_density_rising_at_almost_every_step(self, h):
        g, _ = planted_clique(holme_kim(2000, 3, 0.5, seed=3), 30, seed=4)
        improving = _assert_peel_matches_reference(g, h)
        assert improving >= 0.9 * (g.num_vertices - 1)

    @pytest.mark.parametrize("rounds", [0, 1, 7, 40])
    def test_budget_incumbent_is_the_best_step_so_far(self, monkeypatch, rounds):
        """Expire the budget at a fixed round: the attached incumbent is the
        reference's live set at its best step among the rounds that ran."""
        g = random_graph(60, 260, seed=9)
        raised = []

        def tick_round(budget, site="peel.round"):
            if budget.rounds == rounds:
                raised.append(guard.BudgetExceeded(site, "test expiry", budget))
                raise raised[-1]
            budget.rounds += 1

        monkeypatch.setattr(guard.Budget, "tick_round", tick_round)
        with guard.Budget(deadline_s=3600.0):
            result = peel_densest(g, 3)
        vertices, density, iterations, _ = _reference_peel(g, CliqueIndex(g, 3), rounds)
        (exc,) = raised
        assert exc.incumbent == vertices == result.vertices
        assert exc.incumbent_density == density == result.density
        assert result.iterations == iterations == rounds
        assert result.stats["degraded"] is True
        assert result.stats["degraded_incumbent"] == "partial-peel"


class TestPeelOrderMatchesMinScan:
    """PeelApp's lazy heap removes what a naive min-scan over
    ``(Ψ-degree, graph-order rank)`` removes, step for step, with every
    clique-degree recounted after each removal."""

    @pytest.mark.parametrize("h", [2, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_removal_order(self, seed, h):
        g = random_graph(18, 50, seed=seed)
        order = [v for v, _, _ in min_degree_peel(g, CliqueIndex(g, h))]
        rank = {v: i for i, v in enumerate(g)}
        work, expected = g, []
        while work.num_vertices > 1:
            degree = clique_degrees(work, h)
            gone = min(work.vertices(), key=lambda u: (degree[u], rank[u]))
            expected.append(gone)
            work = work.subgraph(u for u in work if u != gone)
        assert order == expected


class TestPeelApp:
    def test_exact_on_clique(self):
        result = peel_densest(complete_graph(6), 2)
        assert result.density == pytest.approx(2.5)

    @pytest.mark.parametrize("h", [2, 3])
    def test_approximation_guarantee(self, h):
        # Lemma: peel density >= rho_opt / h
        for seed in range(5):
            g = random_graph(22, 70, seed=seed)
            optimum = core_exact_densest(g, h).density
            approx = peel_densest(g, h).density
            assert approx <= optimum + 1e-9
            assert approx >= optimum / h - 1e-9

    def test_charikar_half_guarantee_often_tight(self):
        # for h=2 the classic bound is 1/2; actual ratios are much better
        g = random_graph(30, 120, seed=7)
        optimum = core_exact_densest(g, 2).density
        assert peel_densest(g, 2).density >= optimum / 2 - 1e-9

    def test_density_matches_returned_vertices(self):
        g = random_graph(20, 55, seed=2)
        result = peel_densest(g, 3)
        sub = g.subgraph(result.vertices)
        assert count_cliques(sub, 3) / sub.num_vertices == pytest.approx(result.density)

    def test_no_instances(self):
        result = peel_densest(Graph([(0, 1), (1, 2)]), 3)
        assert result.density == 0.0

    def test_empty(self):
        assert peel_densest(Graph(), 2).density == 0.0

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            peel_densest(Graph(), 1)

    def test_accepts_prebuilt_index(self):
        g = random_graph(15, 45, seed=3)
        direct = peel_densest(g, 3)
        via_index = peel_densest(g, 3, index=CliqueIndex(g, 3))
        assert direct.density == pytest.approx(via_index.density)


class TestIncApp:
    def test_returns_kmax_core(self, paper_figure3_graph):
        result = inc_app_densest(paper_figure3_graph, 3)
        assert result.vertices == {"A", "B", "C", "D"}
        assert result.stats["kmax"] == 3

    @pytest.mark.parametrize("h", [2, 3])
    def test_lemma8_guarantee(self, h):
        for seed in range(5):
            g = random_graph(22, 70, seed=seed + 10)
            optimum = core_exact_densest(g, h).density
            approx = inc_app_densest(g, h).density
            assert approx <= optimum + 1e-9
            if optimum > 0:
                assert approx >= optimum / h - 1e-9

    def test_density_lower_bound_from_theorem1(self):
        g = random_graph(25, 85, seed=4)
        result = inc_app_densest(g, 3)
        kmax = result.stats["kmax"]
        assert result.density >= kmax / 3 - 1e-9

    def test_no_instances(self):
        result = inc_app_densest(Graph([(0, 1)]), 3)
        assert result.density == 0.0


class TestCoreAppNumpyPaths:
    """The level-synchronous numpy peels (k-core and prefix cores) must give
    the loops' vertex sets, densities and stats."""

    @pytest.mark.parametrize("h", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(50))
    def test_numpy_on_and_off_agree(self, monkeypatch, seed, h):
        g = random_graph(30 + seed % 20, 90 + 4 * seed, seed=seed + 500)
        on = core_app_densest(g, h, initial_size=8)
        monkeypatch.setattr(kcore, "np", None)
        monkeypatch.setattr(core_app, "np", None)
        off = core_app_densest(g, h, initial_size=8)
        assert on.vertices == off.vertices
        assert on.density == off.density
        assert on.stats == off.stats


class TestCoreApp:
    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_same_subgraph_as_inc_app(self, h):
        for seed in range(5):
            g = random_graph(26, 85, seed=seed + 20)
            inc = inc_app_densest(g, h)
            app = core_app_densest(g, h)
            assert app.vertices == inc.vertices, f"h={h} seed={seed}"
            assert app.density == pytest.approx(inc.density)

    def test_small_initial_prefix_still_correct(self):
        g = random_graph(40, 150, seed=5)
        small = core_app_densest(g, 3, initial_size=2)
        full = inc_app_densest(g, 3)
        assert small.vertices == full.vertices

    def test_rounds_recorded(self):
        g = random_graph(40, 120, seed=6)
        result = core_app_densest(g, 3, initial_size=4)
        assert result.stats["rounds"] >= 1
        assert result.stats["vertices_touched"] <= g.num_vertices

    def test_on_figure3(self, paper_figure3_graph):
        result = core_app_densest(paper_figure3_graph, 3)
        assert result.vertices == {"A", "B", "C", "D"}

    def test_no_instances(self):
        result = core_app_densest(Graph([(0, 1)]), 4)
        assert result.density == 0.0

    def test_empty(self):
        assert core_app_densest(Graph(), 2).density == 0.0

    def test_planted_clique_found(self):
        from repro.graph.generators import erdos_renyi_gnm, planted_clique

        base = erdos_renyi_gnm(150, 300, seed=1)
        g, members = planted_clique(base, 12, seed=2)
        result = core_app_densest(g, 3)
        assert set(members) <= result.vertices
