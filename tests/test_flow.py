"""Tests for Dinic on paired arc arrays, against networkx's max flow."""

import random

import networkx as nx
import pytest

from repro.flow import dinic
from repro.flow.network import build_csr, np, source_reachable


class ArcNetwork:
    """Paired arc arrays over named nodes: the layout Dinic runs on.

    ``arcs`` are ``(u, v, capacity)`` triples; arc ``2i`` is the i-th
    triple and arc ``2i + 1`` its reverse.  The source takes id 0, the
    sink id 1 and every other node the next id on first appearance.
    With numpy importable the arrays are numpy, as a parametric
    network's are; otherwise lists.
    """

    def __init__(self, arcs, source="s", sink="t"):
        self.arcs = [(u, v, float(c)) for u, v, c in arcs]
        self.names = list(dict.fromkeys([source, sink]))
        ids = {name: i for i, name in enumerate(self.names)}
        head, cap = [], []
        for u, v, c in self.arcs:
            for name in (u, v):
                if name not in ids:
                    ids[name] = len(self.names)
                    self.names.append(name)
            head += [ids[v], ids[u]]
            cap += [c, 0.0]
        if np is not None:
            head = np.asarray(head, dtype=np.int32)
            cap = np.asarray(cap, dtype=np.float64)
        self.source, self.sink = ids[source], ids[sink]
        self.head, self.cap = head, cap
        self.adj_start, self.adj_arcs = build_csr(head, len(self.names))

    def flow_arrays(self):
        return self.source, self.sink, self.head, self.cap, self.adj_start, self.adj_arcs

    def max_flow(self) -> float:
        return dinic.max_flow(self)

    def source_side(self) -> set:
        """Node names reachable from the source in the residual network."""
        seen = source_reachable(self.head, self.cap, self.adj_start, self.adj_arcs, self.source)
        return {name for name, flag in zip(self.names, seen) if flag}

    def cut_capacity(self, side) -> float:
        """Original capacity of the arcs leaving the node set ``side``."""
        return sum(c for u, v, c in self.arcs if u in side and v not in side)


CLASSIC = [  # the CLRS example network, max flow 23
    ("s", "v1", 16), ("s", "v2", 13),
    ("v1", "v3", 12), ("v2", "v1", 4), ("v2", "v4", 14),
    ("v3", "v2", 9), ("v3", "t", 20),
    ("v4", "v3", 7), ("v4", "t", 4),
]


def random_arcs(seed: int, n: int = 14, arcs: int = 45) -> list:
    rng = random.Random(seed)
    nodes = ["s", "t"] + [f"n{i}" for i in range(n)]
    out = []
    for _ in range(arcs):
        u, v = rng.sample(nodes, 2)
        if v == "s" or u == "t":
            continue
        out.append((u, v, rng.uniform(0.5, 10.0)))
    return out


def random_network(seed: int, n: int = 14, arcs: int = 45) -> ArcNetwork:
    return ArcNetwork(random_arcs(seed, n, arcs))


def nx_reference(arcs) -> tuple[float, set]:
    """networkx's max-flow value and the source side of its minimal min
    cut: the nodes reachable from ``s`` in its residual network."""
    g = nx.DiGraph()
    g.add_nodes_from(["s", "t"])
    for u, v, c in arcs:
        if g.has_edge(u, v):
            g[u][v]["capacity"] += c
        else:
            g.add_edge(u, v, capacity=c)
    residual = nx.algorithms.flow.edmonds_karp(g, "s", "t")
    side = {"s"}
    stack = ["s"]
    while stack:
        u = stack.pop()
        for v, attrs in residual[u].items():
            if v not in side and attrs["capacity"] - attrs["flow"] > 1e-9:
                side.add(v)
                stack.append(v)
    return residual.graph["flow_value"], side


class TestDinic:
    def test_classic_example(self):
        assert ArcNetwork(CLASSIC).max_flow() == pytest.approx(23.0)

    def test_disconnected_sink(self):
        assert ArcNetwork([("s", "a", 5.0)]).max_flow() == 0.0

    def test_parallel_arcs_add(self):
        net = ArcNetwork([("s", "t", 2.0), ("s", "t", 3.0)])
        assert net.max_flow() == pytest.approx(5.0)

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValueError):
            ArcNetwork([("s", "a", 1.0)], source="s", sink="s").max_flow()

    def test_long_chain_no_recursion_error(self):
        chain = ["s"] + [f"c{i}" for i in range(5000)] + ["t"]
        net = ArcNetwork([(u, v, 1.0) for u, v in zip(chain, chain[1:])])
        assert net.max_flow() == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_networkx(self, seed):
        """Value and minimal min cut equal networkx's on 50 random
        networks (the minimal min cut is unique, whichever max flow)."""
        arcs = random_arcs(seed, n=12 + seed % 7, arcs=30 + seed)
        net = ArcNetwork(arcs)
        value, side = nx_reference(arcs)
        assert net.max_flow() == pytest.approx(value, abs=1e-6)
        assert net.source_side() == side

    def test_rerun_on_a_max_flow_pushes_nothing(self):
        net = random_network(3)
        net.max_flow()
        assert net.max_flow() == 0.0


class TestMinCut:
    def test_cut_value_equals_flow(self):
        # max-flow = min-cut: capacity of the (S, T) arcs equals the flow
        for seed in range(5):
            net = random_network(seed)
            value = net.max_flow()
            assert net.cut_capacity(net.source_side()) == pytest.approx(value, abs=1e-6)

    def test_source_side_contains_source(self):
        net = ArcNetwork(CLASSIC)
        net.max_flow()
        side = net.source_side()
        assert "s" in side and "t" not in side

    def test_infinite_arcs_never_cut(self):
        net = ArcNetwork([("s", "a", 10.0), ("a", "b", float("inf")), ("b", "t", 1.0)])
        net.max_flow()
        # the cut must cross b->t (cap 1), not the infinite arc
        side = net.source_side()
        assert "a" in side and "b" in side
        assert net.source_side() == nx_reference(net.arcs)[1]
