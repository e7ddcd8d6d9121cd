"""Tests for the α-parametric networks and their breakpoint drivers.

Two layers of guarantees:

* a :class:`~repro.flow.parametric.ParametricNetwork` re-solved across
  a sequence of α values (noop, advance and retreat warm starts, the
  pass-through cancellation) returns the same cut at every α as a
  freshly built network solved cold -- the residual-reachability cut
  after any max flow is the unique minimal min cut;
* the breakpoint drivers: the Newton walk lands on the optimum the
  paper's binary search finds, in far fewer solves, and the GGT divide
  and conquer reproduces every cold solve on a grid.

``tests/test_tiny_oracle.py`` checks the cold and warm cuts against
every vertex subset of the small atlas graphs; here networkx's max flow
checks the flow values on larger random networks.
"""

import random

import pytest

from repro import accel, guard
from repro.accel import pure
from repro.cliques.index import CliqueIndex
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.pattern_core import pattern_index
from repro.core.pds import core_p_exact_densest, p_exact_densest
from repro.flow.builders import (
    build_cds_parametric,
    build_eds_parametric,
    build_pds_parametric,
)
from repro.flow.parametric import ParametricNetwork
from repro.patterns.pattern import get_pattern

from .conftest import random_graph
from .test_flow import nx_reference


def _bisection_cuts(make, high):
    """Drive the paper's binary search over α on one network; at every
    guess the warm cut must equal a fresh network's cold cut."""
    net = make()
    low = 0.0
    assert net.solve(low) == make().solve(low)
    for _ in range(25):
        alpha = (low + high) / 2.0
        cut = net.solve(alpha)
        assert cut == make().solve(alpha), alpha
        if cut:
            low = alpha
        else:
            high = alpha


def _bisect(make, n, high):
    """The paper's Algorithms 1 and 4: bisect α in ``[0, high]`` down to
    ``1/(n(n-1))`` on a fresh network per guess.  Returns the last
    feasible cut and the number of solves.  No other subset density
    fits between the last two guesses, so that cut is the maximal
    densest subgraph: the minimal maximiser of μ(S) − α|S| there."""
    low = 0.0
    best, solves = None, 0
    while high - low >= 1.0 / (n * (n - 1)):
        alpha = (low + high) / 2.0
        cut = make().solve(alpha)
        solves += 1
        if cut:
            low, best = alpha, cut
        else:
            high = alpha
    return best, solves


def _bisect_exact(g):
    """Algorithm 1 for Ψ = edge, on the Goldberg network."""
    return _bisect(lambda: build_eds_parametric(g), g.num_vertices, float(g.max_degree()))


def _network_of_kind(g, kind: int):
    """One of four parametric networks of ``g`` -- EDS, anchored EDS
    (Q = {0}), CDS h = 3, PDS for the 2-star (construct+ on odd
    ``kind // 4``) -- and a bound no subset density of ``g`` exceeds."""
    if kind % 4 < 2:
        anchors = [0] if kind % 4 else []
        return build_eds_parametric(g, anchors=anchors), g.max_degree() / 2.0
    if kind % 4 == 2:
        index = CliqueIndex(g, 3)
        return build_cds_parametric(g, 3, index=index), max(index.base_degree) / 3.0
    index = pattern_index(g, get_pattern("2-star"))
    grouped = bool(kind // 4 % 2)
    return build_pds_parametric(index, grouped=grouped), max(index.base_degree) / 3.0


def _plain_arcs(net, alpha) -> list:
    """The forward arcs of ``net`` as ``(tail, head, capacity)`` at
    ``alpha`` -- the plain network, no warm state -- with the source
    named ``"s"`` and the sink ``"t"``, as :func:`nx_reference` takes."""
    coeff = dict(zip(map(int, net.alpha_arcs), map(float, net.alpha_coeff)))
    name = {net.source: "s", net.sink: "t"}
    arcs = []
    for a in range(0, len(net.head), 2):
        u, v = int(net.head[a ^ 1]), int(net.head[a])
        capacity = float(net.base_cap[a]) + coeff.get(a, 0.0) * alpha
        arcs.append((name.get(u, u), name.get(v, v), capacity))
    return arcs


def _arc_flows(net) -> list:
    """The flow on each forward arc of ``net``'s residual state: its
    reverse arc's residual above that arc's base capacity."""
    return [float(net.cap[a ^ 1] - net.base_cap[a ^ 1]) for a in range(0, len(net.head), 2)]


def _net_outflow(net) -> list:
    """Flow out of minus flow into every node of ``net``."""
    out = [0.0] * net.num_nodes
    for a, flow in zip(range(0, len(net.head), 2), _arc_flows(net)):
        out[int(net.head[a ^ 1])] += flow
        out[int(net.head[a])] -= flow
    return out


def _node_ids(net, side) -> set:
    return {net.source if node == "s" else node for node in side}


class TestSolverEquivalence:
    """Dinic on the parametric networks against networkx (50 random
    networks, EDS, anchored EDS, CDS and PDS): after every solve of an
    α walk -- cold, advance, retreat or noop -- the residual state is a
    maximum flow of the plain network at that α.  Its value is
    networkx's max-flow value, and its source side is the minimal min
    cut networkx's residual network leaves reachable from the source."""

    @pytest.mark.parametrize("seed", range(50))
    def test_same_value_and_same_source_side_cut(self, seed):
        rng = random.Random(seed)
        g = random_graph(9 + seed % 5, 18 + seed // 4, seed + 1000)
        net, high = _network_of_kind(g, seed)
        alphas = [rng.uniform(0.0, high) for _ in range(3)]
        for alpha in alphas + alphas[-1:]:  # the repeat is a noop solve
            net.solve(alpha)
            value, side = nx_reference(_plain_arcs(net, alpha))
            assert _net_outflow(net)[net.source] == pytest.approx(value, rel=1e-9, abs=1e-6)
            assert net.min_cut_source_side() == _node_ids(net, side), alpha


class TestRetreatDrain:
    """The decreasing-α half of GGT on its own (50 random networks):
    from the max flow at a high α, the retreat to a lower α clamps the
    sink arcs that now carry too much and drains the excess back to the
    source.  What it leaves is a feasible flow at the lower α, and one
    Dinic run from there reaches the max flow."""

    @pytest.mark.parametrize("seed", range(50))
    def test_drained_state_is_a_feasible_flow(self, seed):
        rng = random.Random(seed)
        g = random_graph(10 + seed % 5, 22 + seed // 4, seed + 1100)
        net, high = _network_of_kind(g, seed)
        alpha_hi = rng.uniform(0.4, 0.8) * high
        alpha_lo = rng.uniform(0.05, 0.6) * alpha_hi
        net.solve(alpha_hi)
        flows = _arc_flows(net)
        clamped = [
            a for a, c in zip(map(int, net.alpha_arcs), map(float, net.alpha_coeff))
            if flows[a // 2] > float(net.base_cap[a]) + c * alpha_lo
        ]
        assert clamped  # the max-degree vertex's sink arc at least

        net._retreat_alpha(alpha_lo)
        arcs = _plain_arcs(net, alpha_lo)
        for a, flow, (_, _, capacity) in zip(range(0, len(net.head), 2), _arc_flows(net), arcs):
            assert -float(net.base_cap[a ^ 1]) - 1e-9 <= flow <= capacity + 1e-9, a
            if capacity != float("inf"):
                assert float(net.cap[a]) == pytest.approx(capacity - flow, abs=1e-9), a
        outflow = _net_outflow(net)
        for node, out in enumerate(outflow):
            if node not in (net.source, net.sink):
                assert out == pytest.approx(0.0, abs=1e-9), node
        value, side = nx_reference(arcs)
        assert outflow[net.source] <= value + 1e-9

        net.solve(alpha_lo)
        assert _net_outflow(net)[net.source] == pytest.approx(value, rel=1e-9, abs=1e-6)
        assert net.min_cut_source_side() == _node_ids(net, side)


def _record_dinic_calls(monkeypatch) -> list:
    """Record ``(source, sink)`` of every call of either tier's Dinic.

    The retreat's drain calls its tier's Dinic directly, from the
    network's sink to its source; solves go through the same functions.
    """
    calls = []

    def wrap(fn):
        def recorded(source, sink, *arrays):
            calls.append((source, sink))
            return fn(source, sink, *arrays)

        return recorded

    monkeypatch.setattr(pure, "dinic_max_flow", wrap(pure.dinic_max_flow))
    if accel.np is not None:
        monkeypatch.setattr(accel.vector, "dinic_max_flow", wrap(accel.vector.dinic_max_flow))
    return calls


def _unpaired_eds(g) -> ParametricNetwork:
    """``g``'s EDS network without its paired source arcs (``alpha_src``
    all -1): every excess of a retreat drains in the max flow."""
    net = build_eds_parametric(g)
    return ParametricNetwork(
        net.num_nodes, net.source, net.sink, net.head, net.base_cap,
        net.alpha_arcs, net.alpha_coeff, net.vertex_labels,
    )


def _cds_h3(g) -> ParametricNetwork:
    return build_cds_parametric(g, 3)


class TestRetreatMaxFlowDrain:
    """Retreats in which a clamped vertex's own source arc carries less
    than its excess, so the rest drains in the max flow from the sink:
    the EDS network built without ``alpha_src``, and the CDS h = 3
    network, whose vertices also take flow from the ψ nodes."""

    @staticmethod
    def _walk(g, seed) -> list:
        """Alternately high and low α: every other solve retreats."""
        rng = random.Random(seed)
        high = max(CliqueIndex(g, 3).base_degree) / 3.0
        alphas = []
        for _ in range(5):
            alphas += [rng.uniform(0.5, 1.0) * high, rng.uniform(0.0, 0.45) * high]
        return alphas

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("build", [_unpaired_eds, _cds_h3])
    def test_cuts_match_a_fresh_build(self, build, seed, monkeypatch):
        monkeypatch.setattr(guard, "CHECK", True)  # audit every solve
        calls = _record_dinic_calls(monkeypatch)
        g = random_graph(18, 55, seed + 1200)
        net = build(g)
        for alpha in self._walk(g, seed):
            assert net.solve(alpha) == build(g).solve(alpha), alpha
        assert (net.sink, net.source) in calls  # the max-flow drain ran

    @pytest.mark.skipif(accel.np is None, reason="the numpy tier needs numpy")
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("build", [_unpaired_eds, _cds_h3])
    def test_tiers_leave_equal_residuals(self, build, seed, monkeypatch):
        """With the numpy planner forced on and its rounds off, both
        tiers leave the same residual floats after every retreat and
        every solve."""
        monkeypatch.setattr(accel.vector, "PLAN_MIN_ARCS", 0)
        monkeypatch.setattr(accel.vector, "ROUNDS_MIN_ARCS", 1 << 62)
        calls = _record_dinic_calls(monkeypatch)
        g = random_graph(18, 55, seed + 1300)
        alphas = self._walk(g, seed)
        traces = {}
        try:
            for tier in ("python", "numpy"):
                accel.select_tier(tier)
                net = build(g)
                trace = traces[tier] = []
                for hi, lo in zip(alphas[::2], alphas[1::2]):
                    net.solve(hi)
                    net._retreat_alpha(lo)
                    trace.append(net.cap.tolist())
                    net.solve(lo)
                    trace.append(net.cap.tolist())
        finally:
            accel.select_tier(None)
        assert traces["numpy"] == traces["python"]
        assert (net.sink, net.source) in calls


class TestParametricMatchesFreshBuild:
    @pytest.mark.parametrize("seed", range(6))
    def test_eds(self, seed):
        g = random_graph(24, 70, seed)
        _bisection_cuts(lambda: build_eds_parametric(g), float(g.max_degree()))

    @pytest.mark.parametrize("seed", range(4))
    def test_cds_h3(self, seed):
        g = random_graph(20, 60, seed + 100)
        index = CliqueIndex(g, 3)
        _bisection_cuts(lambda: build_cds_parametric(g, 3, index=index), 12.0)

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("name", ["triangle", "2-star", "diamond"])
    @pytest.mark.parametrize("seed", range(4))
    def test_pds_rows(self, seed, name, grouped):
        g = random_graph(20, 60, seed + 200)
        index = pattern_index(g, get_pattern(name))
        if not index.m:
            pytest.skip(f"no {name} instances in this seed")
        _bisection_cuts(
            lambda: build_pds_parametric(index, grouped=grouped),
            float(max(index.base_degree)),
        )

    def test_cds_without_an_index_builds_the_same_network(self):
        g = random_graph(18, 55, 7)
        plain = build_cds_parametric(g, 3)
        indexed = build_cds_parametric(g, 3, index=CliqueIndex(g, 3))
        assert plain.num_nodes == indexed.num_nodes
        assert list(plain.head) == list(indexed.head)
        assert list(plain.base_cap) == list(indexed.base_cap)
        assert plain.vertex_labels == indexed.vertex_labels

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
            assert net.solve(alpha) == build_eds_parametric(g).solve(alpha)

    @pytest.mark.parametrize("seed", range(4))
    def test_retreat_on_cds_network(self, seed):
        g = random_graph(18, 55, seed + 800)
        net = build_cds_parametric(g, 3)
        for alpha in (6.0, 1.5, 4.0, 0.25, 5.5, 0.75):
            assert net.solve(alpha) == build_cds_parametric(g, 3).solve(alpha)


class TestBreakpointEngine:
    """GGT drivers: max_density and solve_breakpoints."""

    @pytest.mark.parametrize("seed", range(10))
    def test_max_density_matches_binary_search(self, seed):
        g = random_graph(20, 60, seed)
        net = build_eds_parametric(g)
        density_of = lambda s: g.subgraph(s).num_edges / len(s)
        cut, alpha, solves = net.max_density(density_of, low=0.0)
        ref, ref_solves = _bisect_exact(g)
        assert cut == ref
        assert alpha == density_of(ref)
        # a parametric sweep, not a binary search: solves stays tiny
        assert solves < ref_solves
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
        """Max-flow/min-cut duality: the minimal cut's line at α equals
        the flow the solve left on the source arcs."""
        g = random_graph(14, 36, 5)
        net = build_eds_parametric(g)
        source_arcs = [
            a for a in range(0, len(net.head), 2) if net.head[a ^ 1] == net.source
        ]
        for alpha in (0.5, 1.5, 3.0):
            net.solve(alpha)
            a_term, b_term = net.cut_line()
            value = sum(float(net.cap[a ^ 1]) for a in source_arcs)
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


class TestSolversMatchBisection:
    """The exact solvers against the paper's bisection on fresh
    networks, on random graphs larger than the atlas's: the same
    density, and the walks of Exact and PExact end on the maximal
    densest subgraph the bisection's last feasible cut is."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("h", [2, 3])
    def test_exact_and_core_exact(self, seed, h):
        g = random_graph(22, 64, seed)
        index = CliqueIndex(g, h)
        if h == 2:
            make = lambda: build_eds_parametric(g)
        else:
            make = lambda: build_cds_parametric(g, h, index=index)
        ref, _ = _bisect(make, g.num_vertices, float(max(index.base_degree)))
        exact = exact_densest(g, h)
        assert exact.vertices == ref
        assert exact.density == index.density_within(ref)
        core = core_exact_densest(g, h)
        assert core.vertices <= ref
        assert core.density == exact.density

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["2-star", "diamond"])
    def test_p_exact_and_core_p_exact(self, seed, name):
        g = random_graph(16, 38, seed + 300)
        pattern = get_pattern(name)
        index = pattern_index(g, pattern)
        make = lambda: build_pds_parametric(index)
        ref, _ = _bisect(make, g.num_vertices, float(max(index.base_degree)))
        exact = p_exact_densest(g, pattern)
        assert exact.vertices == ref
        assert exact.density == index.density_within(ref)
        core = core_p_exact_densest(g, pattern)
        assert core.vertices <= ref
        assert core.density == exact.density
