"""Tests for the array-backed flow engine and α-parametric reuse.

Three layers of guarantees:

* the two max-flow solvers agree on the value *and* on the source-side
  cut (the residual-reachability cut after any max flow is the unique
  minimal min cut, so exact solvers must return the same set);
* a :class:`~repro.flow.parametric.ParametricNetwork` re-solved across a
  binary search (warm starts, checkpoints, cancellation) returns the
  same cuts as a freshly built legacy network at every α;
* the exact algorithms give bit-identical results under
  ``flow_engine="reuse"`` and ``flow_engine="rebuild"``.
"""

import pytest

from repro.api import densest_subgraph
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.pattern_core import pattern_index
from repro.core.pds import core_p_exact_densest, p_exact_densest
from repro.core.query_variant import query_densest
from repro.extensions.topk import top_k_densest
from repro.flow import dinic, push_relabel
from repro.flow.builders import (
    build_cds_network,
    build_cds_parametric,
    build_eds_network,
    build_eds_parametric,
    build_pds_network,
    build_pds_network_grouped,
    build_pds_parametric,
    vertices_of_cut,
)
from repro.patterns.pattern import get_pattern

from .conftest import random_graph
from .test_flow import random_network


class TestSolverEquivalence:
    """Dinic and push–relabel must agree everywhere (50 random networks).

    This matrix doubles as the parity test for the highest-label /
    gap-relabeling discharge loop: instrumentation shows the gap branch
    fires 62 times across these 50 networks, and the chain test below
    pins a family where it always fires.
    """

    @pytest.mark.parametrize("seed", range(50))
    def test_same_value_and_same_source_side_cut(self, seed):
        a = random_network(seed, n=12 + seed % 7, arcs=30 + seed)
        b = random_network(seed, n=12 + seed % 7, arcs=30 + seed)
        value_a = dinic.max_flow(a)
        value_b = push_relabel.max_flow(b)
        assert value_a == pytest.approx(value_b, abs=1e-6)
        assert a.min_cut_source_side() == b.min_cut_source_side()

    @pytest.mark.parametrize("k", [4, 6, 8, 12])
    def test_gap_relabel_chain_parity(self, k):
        """Chains with a mid-path bottleneck and a low-capacity side
        pocket: saturating the bottleneck strands excess behind an
        emptied height level, so the gap heuristic must lift the
        stranded band to ``n + 1`` and drain it back -- and the residual
        state must still be a max *flow* with Dinic's exact cut."""
        from repro.flow.network import FlowNetwork

        def build() -> FlowNetwork:
            net = FlowNetwork("s", "t")
            net.add_arc("s", "c0", 10.0)
            for i in range(k - 1):
                cap = 0.5 if i == k // 2 else 10.0
                net.add_arc(f"c{i}", f"c{i + 1}", cap)
            net.add_arc(f"c{k - 1}", "t", 10.0)
            net.add_arc("c0", "p0", 3.0)
            net.add_arc("p0", "p1", 3.0)
            net.add_arc("p1", "c1", 0.25)
            return net

        a, b = build(), build()
        value_d = dinic.max_flow(a)
        value_p = push_relabel.max_flow(b)
        assert value_p == pytest.approx(value_d, abs=1e-9)
        assert b.min_cut_source_side() == a.min_cut_source_side()
        # a genuine flow, not a preflow: conservation holds everywhere,
        # so re-running a solver on the residual network pushes nothing
        assert push_relabel.max_flow(b) == pytest.approx(0.0, abs=1e-9)


def _binary_search_cuts(graph, make_parametric, make_legacy, high):
    """Drive a binary search on both engines; assert cuts agree at every α."""
    net = make_parametric()
    low = 0.0
    cut = net.solve(low)
    legacy = make_legacy(low)
    dinic.max_flow(legacy)
    assert cut == vertices_of_cut(legacy.min_cut_source_side())
    if cut:
        net.checkpoint()
    for _ in range(25):
        alpha = (low + high) / 2.0
        cut = net.solve(alpha)
        legacy = make_legacy(alpha)
        dinic.max_flow(legacy)
        assert cut == vertices_of_cut(legacy.min_cut_source_side())
        if cut:
            low = alpha
            net.checkpoint()
        else:
            high = alpha


class TestParametricMatchesFreshBuild:
    @pytest.mark.parametrize("seed", range(6))
    def test_eds(self, seed):
        g = random_graph(24, 70, seed)
        _binary_search_cuts(
            g,
            lambda: build_eds_parametric(g),
            lambda a: build_eds_network(g, a),
            float(g.max_degree()),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_cds_h3(self, seed):
        g = random_graph(20, 60, seed + 100)
        _binary_search_cuts(
            g,
            lambda: build_cds_parametric(g, 3),
            lambda a: build_cds_network(g, 3, a),
            12.0,
        )

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("name", ["triangle", "2-star", "diamond"])
    @pytest.mark.parametrize("seed", range(4))
    def test_pds_rows(self, seed, name, grouped):
        g = random_graph(20, 60, seed + 200)
        index = pattern_index(g, get_pattern(name))
        if not index.m:
            pytest.skip(f"no {name} instances in this seed")
        per_alpha = build_pds_network_grouped if grouped else build_pds_network
        _binary_search_cuts(
            g,
            lambda: build_pds_parametric(index, grouped=grouped),
            lambda a: per_alpha(index, a),
            float(max(index.base_degree)),
        )

    def test_set_alpha_rewrites_only_alpha_arcs(self):
        g = random_graph(12, 30, 3)
        net = build_eds_parametric(g)
        m = float(g.num_edges)
        net.set_alpha(2.0)
        net._uncancel()  # back to plain capacities + pass-through flow
        for arc_id, coeff, label_id in zip(
            net.alpha_arcs, net.alpha_coeff, range(len(net.vertex_labels))
        ):
            v = net.vertex_labels[label_id]
            expected = m + coeff * 2.0 - g.degree(v)
            # residual + flow (reverse residual) reconstructs the capacity
            assert net.cap[arc_id] + net.cap[arc_id ^ 1] == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_push_relabel_solver_on_cancelled_anchored_network(self, seed):
        # regression: the big-M clamp must be computed from the whole
        # network's finite capacity, not the (possibly cancelled-to-zero)
        # residual source arcs, or infinite anchor arcs saturate
        g = random_graph(18, 50, seed + 500)
        anchor = next(iter(g.vertices()))
        for alpha in (0.5, 2.0, 5.0):
            net = build_eds_parametric(g, anchors=[anchor])
            cut = net.solve(alpha, solver=push_relabel)
            legacy = build_eds_network(g, alpha)
            from repro.flow.builders import SOURCE

            legacy.add_arc(SOURCE, ("v", anchor), float("inf"))
            dinic.max_flow(legacy)
            assert cut == vertices_of_cut(legacy.min_cut_source_side())
            assert anchor in cut

    def test_tiny_alpha_step_falls_back_to_cold_reset(self):
        g = random_graph(12, 30, 4)
        net = build_eds_parametric(g)
        net.solve(1.0)
        assert not net._warm_step_ok(1e-12)
        assert net._warm_step_ok(1e-3)

    @pytest.mark.parametrize("seed", range(8))
    def test_decreasing_alpha_retreat_matches_fresh_build(self, seed):
        """The GGT decreasing-α half: a random α walk (ups AND downs)
        must reproduce the cuts of cold builds at every step."""
        import random as _random

        g = random_graph(22, 65, seed + 700)
        net = build_eds_parametric(g)
        rng = _random.Random(seed)
        for _ in range(14):
            alpha = rng.uniform(0.0, g.max_degree())
            cut = net.solve(alpha)
            legacy = build_eds_network(g, alpha)
            dinic.max_flow(legacy)
            assert cut == vertices_of_cut(legacy.min_cut_source_side())

    @pytest.mark.parametrize("seed", range(4))
    def test_retreat_on_cds_network(self, seed):
        g = random_graph(18, 55, seed + 800)
        net = build_cds_parametric(g, 3)
        for alpha in (6.0, 1.5, 4.0, 0.25, 5.5, 0.75):
            cut = net.solve(alpha)
            legacy = build_cds_network(g, 3, alpha)
            dinic.max_flow(legacy)
            assert cut == vertices_of_cut(legacy.min_cut_source_side())


class TestBreakpointEngine:
    """GGT drivers: max_density and solve_breakpoints."""

    @pytest.mark.parametrize("seed", range(10))
    def test_max_density_matches_binary_search(self, seed):
        g = random_graph(20, 60, seed)
        net = build_eds_parametric(g)
        cut, alpha, solves = net.max_density(
            lambda s: g.subgraph(s).num_edges / len(s), low=0.0
        )
        ref = exact_densest(g, 2, flow_engine="rebuild")
        assert cut == ref.vertices
        assert alpha == ref.density
        # a parametric sweep, not a binary search: solves stays tiny
        assert solves < ref.iterations
        assert solves <= 8

    def test_max_density_infeasible_lower_bound(self):
        g = random_graph(14, 30, 2)
        opt = exact_densest(g, 2).density
        net = build_eds_parametric(g)
        cut, alpha, solves = net.max_density(
            lambda s: g.subgraph(s).num_edges / len(s), low=opt + 1.0
        )
        assert cut is None
        assert alpha == opt + 1.0
        assert solves == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_solve_breakpoints_covers_the_alpha_axis(self, seed):
        """The breakpoint list must reproduce every cold solve on a grid."""
        g = random_graph(16, 40, seed + 40)
        net = build_eds_parametric(g)
        high = float(g.max_degree())
        segments = net.solve_breakpoints(0.0, high)
        assert segments[0][0] == 0.0
        alphas = sorted(a for a, _ in segments)
        assert alphas == [a for a, _ in segments]  # sorted output
        probe = build_eds_parametric(g)
        for i in range(33):
            alpha = high * i / 32.0
            expected = segments[0][1]
            for bp_alpha, bp_cut in segments:
                if bp_alpha <= alpha + 1e-12:
                    expected = bp_cut
            assert probe.solve(alpha) == expected, (seed, alpha)

    def test_breakpoints_include_the_optimal_density(self):
        """ρ_opt is a breakpoint: the cut collapses when α crosses it."""
        g = random_graph(18, 50, 9)
        opt = exact_densest(g, 2).density
        net = build_eds_parametric(g)
        segments = net.solve_breakpoints(0.0, float(g.max_degree()))
        assert any(abs(alpha - opt) < 1e-9 for alpha, _ in segments)
        # above the last breakpoint the minimal cut is trivial
        assert segments[-1][1] == set()

    def test_cut_line_matches_cut_capacity(self):
        g = random_graph(14, 36, 5)
        net = build_eds_parametric(g)
        for alpha in (0.5, 1.5, 3.0):
            net.solve(alpha)
            a_term, b_term = net.cut_line()
            legacy = build_eds_network(g, alpha)
            value = dinic.max_flow(legacy)
            assert a_term + b_term * alpha == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_cut_line_sums_left_to_right(self, seed):
        """Fractional capacities make float sums order-dependent: the
        cut line adds the crossing arcs in arc order, bit for bit."""
        import random as _random

        from repro.flow.parametric import ParametricNetwork

        rng = _random.Random(seed)
        n = 12
        head, cap, alpha_arcs, alpha_coeff = [], [], [], []
        for _ in range(60):
            u, v = rng.sample(range(n), 2)
            if rng.random() < 0.3:
                alpha_arcs.append(len(head))
                alpha_coeff.append(rng.uniform(0.1, 3.0))
            head += [v, u]
            cap += [rng.uniform(0.1, 10.0), 0.0]
        net = ParametricNetwork(n, 0, 1, head, cap, alpha_arcs, alpha_coeff, range(n))
        coeff = dict(zip(alpha_arcs, alpha_coeff))
        side = set(rng.sample(range(n), 6)) | {0}
        a_term = b_term = 0.0
        for arc in range(0, len(head), 2):
            if head[arc ^ 1] in side and head[arc] not in side:
                a_term += cap[arc]
                b_term += coeff.get(arc, 0.0)
        assert net.cut_line(side) == (a_term, b_term)


class TestFlowEngineBitIdentical:
    """α-reuse must not change any flow-dependent result."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("h", [2, 3])
    def test_core_exact(self, seed, h):
        g = random_graph(26, 80, seed)
        rebuilt = core_exact_densest(g, h, flow_engine="rebuild")
        reused = core_exact_densest(g, h, flow_engine="reuse")
        assert reused.vertices == rebuilt.vertices
        assert reused.density == rebuilt.density
        assert reused.iterations == rebuilt.iterations
        ggt = core_exact_densest(g, h, flow_engine="ggt")
        assert ggt.vertices == rebuilt.vertices
        assert ggt.density == rebuilt.density

    @pytest.mark.parametrize("seed", range(4))
    def test_exact(self, seed):
        g = random_graph(20, 55, seed + 50)
        rebuilt = exact_densest(g, 2, flow_engine="rebuild")
        reused = exact_densest(g, 2, flow_engine="reuse")
        assert reused.vertices == rebuilt.vertices
        assert reused.density == rebuilt.density
        ggt = exact_densest(g, 2, flow_engine="ggt")
        assert ggt.vertices == rebuilt.vertices
        assert ggt.density == rebuilt.density
        assert ggt.iterations < rebuilt.iterations

    @pytest.mark.parametrize("seed", range(3))
    def test_pds_exact(self, seed):
        g = random_graph(16, 40, seed + 300)
        pattern = get_pattern("triangle")
        rebuilt = p_exact_densest(g, pattern, flow_engine="rebuild")
        for engine in ("reuse", "ggt"):
            result = p_exact_densest(g, pattern, flow_engine=engine)
            assert result.vertices == rebuilt.vertices
            assert result.density == rebuilt.density
        core_rebuilt = core_p_exact_densest(g, pattern, flow_engine="rebuild")
        for engine in ("reuse", "ggt"):
            result = core_p_exact_densest(g, pattern, flow_engine=engine)
            assert result.vertices == core_rebuilt.vertices
            assert result.density == core_rebuilt.density

    @pytest.mark.parametrize("seed", range(3))
    def test_query_variant(self, seed):
        g = random_graph(22, 60, seed + 400)
        anchors = [next(iter(g.vertices()))]
        rebuilt = query_densest(g, anchors, flow_engine="rebuild")
        for engine in ("reuse", "ggt"):
            result = query_densest(g, anchors, flow_engine=engine)
            assert result.vertices == rebuilt.vertices
            assert result.density == rebuilt.density


class TestEngineKnob:
    def test_api_accepts_flow_engine(self):
        g = random_graph(15, 35, 9)
        result = densest_subgraph(g, 2, method="core-exact", flow_engine="rebuild")
        assert result.stats["flow_engine"] == "rebuild"
        result = densest_subgraph(g, 2, method="core-exact")
        assert result.stats["flow_engine"] == "ggt"  # the soaked-in default
        result = densest_subgraph(g, 2, method="core-exact", flow_engine="reuse")
        assert result.stats["flow_engine"] == "reuse"

    def test_unknown_engine_rejected(self):
        g = random_graph(10, 20, 1)
        with pytest.raises(ValueError):
            core_exact_densest(g, 2, flow_engine="bogus")
        with pytest.raises(ValueError):
            exact_densest(g, 2, flow_engine="bogus")

    def test_topk_threads_flow_engine(self):
        g = random_graph(18, 45, 5)
        results = top_k_densest(g, 2, method=core_exact_densest, flow_engine="reuse")
        assert results
        assert all(r.stats["flow_engine"] == "reuse" for r in results)

    def test_topk_threads_ggt(self):
        g = random_graph(18, 45, 5)
        via_ggt = top_k_densest(g, 2, method=core_exact_densest, flow_engine="ggt")
        via_reuse = top_k_densest(g, 2, method=core_exact_densest, flow_engine="reuse")
        assert [r.vertices for r in via_ggt] == [r.vertices for r in via_reuse]
        assert [r.density for r in via_ggt] == [r.density for r in via_reuse]
        assert all(r.stats["flow_engine"] == "ggt" for r in via_ggt)
