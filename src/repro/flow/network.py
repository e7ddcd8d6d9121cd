"""Flow-network representation used by the exact DSD algorithms.

A :class:`FlowNetwork` is a directed graph with float capacities, a
distinguished source ``s`` and sink ``t``, stored as flat arc arrays
with the usual paired reverse-arc layout so residual updates are O(1).
Adjacency is a CSR index over the arc arrays (``adj_start`` offsets into
``adj_arcs``), built lazily once arcs stop being added; the solvers in
:mod:`repro.flow.dinic` and :mod:`repro.flow.push_relabel` run directly
on these arrays via :meth:`FlowNetwork.flow_arrays`.  The α-parametric
networks of :mod:`repro.flow.parametric` share the layout, held in
numpy arrays whenever numpy is importable; :func:`build_csr` and
:func:`source_reachable` serve both representations.

Capacities may be ``float('inf')`` (the Ψ→v arcs of Algorithm 1).  The
binary-search guesses ``α`` are reals, so all solvers work on floats
with an explicit epsilon discipline; at the scale of this reproduction
the accumulated error stays far below the ``1/(n(n-1))`` density
resolution that terminates the search (Lemma 12).
"""

from __future__ import annotations

import math
from typing import Hashable

from .. import env, obs

if env.flag("REPRO_NO_NUMPY"):  # explicit opt-out for CI / ablations
    np = None
else:
    try:  # numpy backs the parametric networks; the flow layer works without it
        import numpy as np
    except ImportError:  # pragma: no cover - environment-specific
        np = None

Node = Hashable

#: Capacity below which an arc is treated as saturated / absent.
EPS = 1e-9

#: Below this arc count the pure-Python CSR build beats the numpy one.
_NUMPY_CSR_MIN_ARCS = 1024


def build_csr(head, num_nodes: int):
    """CSR adjacency over paired arc arrays.

    ``head[i]`` is the head node of arc ``i`` and arc ``i ^ 1`` is its
    reverse, so the tail of arc ``i`` is ``head[i ^ 1]``.  Returns
    ``(adj_start, adj_arcs)`` with the arcs leaving node ``u`` at
    ``adj_arcs[adj_start[u]:adj_start[u + 1]]`` in insertion order
    (both builds are stable, so solver traversal order is deterministic).
    A numpy ``head`` gets numpy arrays of its dtype back, a list gets
    lists.
    """
    num_arcs = len(head)
    if np is not None and (isinstance(head, np.ndarray) or num_arcs >= _NUMPY_CSR_MIN_ARCS):
        head_np = np.asarray(head)
        tails = head_np.reshape(-1, 2)[:, ::-1].reshape(-1)
        counts = np.bincount(tails, minlength=num_nodes)
        adj_start = np.zeros(num_nodes + 1, dtype=head_np.dtype)
        adj_start[1:] = np.cumsum(counts)
        adj_arcs = np.argsort(tails, kind="stable").astype(head_np.dtype)
        if isinstance(head, np.ndarray):
            return adj_start, adj_arcs
        return adj_start.tolist(), adj_arcs.tolist()
    adj_start = [0] * (num_nodes + 1)
    for a in range(num_arcs):
        adj_start[head[a ^ 1] + 1] += 1
    for i in range(num_nodes):
        adj_start[i + 1] += adj_start[i]
    fill = list(adj_start)
    adj_arcs = [0] * num_arcs
    for a in range(num_arcs):
        t = head[a ^ 1]
        adj_arcs[fill[t]] = a
        fill[t] += 1
    return adj_start, adj_arcs


def arcs_out(adj_start, adj_arcs, nodes):
    """The arcs leaving the numpy array ``nodes``, node after node, each
    node's in adjacency order -- a frontier's CSR ranges, gathered."""
    start = adj_start[nodes]
    count = adj_start[nodes + 1] - start
    shift = np.repeat(start - np.cumsum(count) + count, count)
    return adj_arcs[shift + np.arange(shift.size)]


def source_reachable(head, cap, adj_start, adj_arcs, source: int):
    """Nodes reachable from ``source`` through residual arcs (> EPS).

    Run after a max-flow solver: the reachable set is the unique
    minimal source side of a minimum s-t cut.  Shared by
    :class:`FlowNetwork` and ``ParametricNetwork``.  Numpy arrays take
    a frontier-at-a-time pass and get a bool array back; lists take the
    scalar DFS and get a bytearray.
    """
    if np is not None and isinstance(cap, np.ndarray):
        level = np.full(len(adj_start) - 1, -1)
        level[source] = 0
        depth = 0
        frontier = np.array([source])
        while frontier.size:
            depth += 1
            arcs = arcs_out(adj_start, adj_arcs, frontier)
            heads = head[arcs]
            level[heads[(cap[arcs] > EPS) & (level[heads] < 0)]] = depth
            frontier = np.flatnonzero(level == depth)
        return level >= 0
    seen = bytearray(len(adj_start) - 1)
    seen[source] = 1
    stack = [source]
    while stack:
        u = stack.pop()
        for idx in range(adj_start[u], adj_start[u + 1]):
            arc = adj_arcs[idx]
            v = head[arc]
            if not seen[v] and cap[arc] > EPS:
                seen[v] = 1
                stack.append(v)
    return seen


class FlowNetwork:
    """Directed flow network with paired residual arcs.

    Nodes are arbitrary hashables registered on first use.  ``add_arc``
    creates a forward arc with the given capacity and a reverse arc with
    capacity 0; parallel arcs are allowed (capacities effectively add).
    """

    def __init__(self, source: Node, sink: Node):
        self.source = source
        self.sink = sink
        self._ids: dict[Node, int] = {}
        self._nodes: list[Node] = []
        # arc arrays: to[i], cap[i]; arc i^1 is the reverse of arc i
        self.head: list[int] = []
        self.cap: list[float] = []
        self._adj_start: list[int] | None = None
        self._adj_arcs: list[int] | None = None
        self.node_id(source)
        self.node_id(sink)

    def node_id(self, node: Node) -> int:
        """Integer id of ``node``, registering it if new."""
        nid = self._ids.get(node)
        if nid is None:
            nid = len(self._nodes)
            self._ids[node] = nid
            self._nodes.append(node)
            self._adj_start = None
        return nid

    @property
    def num_nodes(self) -> int:
        """Number of registered nodes (including source and sink)."""
        return len(self._nodes)

    @property
    def num_arcs(self) -> int:
        """Number of forward arcs (reverse arcs not counted)."""
        return len(self.head) // 2

    def node(self, nid: int) -> Node:
        """The node object with integer id ``nid``."""
        return self._nodes[nid]

    def add_arc(self, u: Node, v: Node, capacity: float) -> None:
        """Add a directed arc ``u -> v`` with the given capacity (>= 0)."""
        if capacity < 0:
            raise ValueError("arc capacity must be non-negative")
        ui, vi = self.node_id(u), self.node_id(v)
        self.head.append(vi)
        self.cap.append(capacity)
        self.head.append(ui)
        self.cap.append(0.0)
        self._adj_start = None

    def csr(self) -> tuple[list[int], list[int]]:
        """``(adj_start, adj_arcs)``: lazy CSR index over the arc arrays."""
        if self._adj_start is None:
            self._adj_start, self._adj_arcs = build_csr(self.head, len(self._nodes))
        return self._adj_start, self._adj_arcs

    @property
    def adj(self) -> list[list[int]]:
        """Per-node arc lists (materialised from the CSR index on demand)."""
        adj_start, adj_arcs = self.csr()
        return [
            adj_arcs[adj_start[u] : adj_start[u + 1]] for u in range(len(self._nodes))
        ]

    def flow_arrays(self) -> tuple[int, int, list[int], list[float], list[int], list[int]]:
        """``(source, sink, head, cap, adj_start, adj_arcs)`` for the solvers.

        The returned ``cap`` list is the live residual array: solvers
        mutate it in place.
        """
        adj_start, adj_arcs = self.csr()
        return (self._ids[self.source], self._ids[self.sink], self.head, self.cap,
                adj_start, adj_arcs)

    def reset(self, capacities: list[float]) -> None:
        """Restore all arc capacities (e.g. to re-run a solver)."""
        if len(capacities) != len(self.cap):
            raise ValueError("capacity snapshot has wrong length")
        self.cap = list(capacities)

    def snapshot(self) -> list[float]:
        """Copy of the current capacities (pairs with :meth:`reset`)."""
        return list(self.cap)

    def min_cut_source_side(self) -> set[Node]:
        """Source side ``S`` of the min cut in the *current residual* graph.

        Call only after a max-flow solver has run; returns every node
        reachable from the source through arcs with residual capacity
        above :data:`EPS`.
        """
        with obs.span("flow.cut", nodes=self.num_nodes):
            adj_start, adj_arcs = self.csr()
            seen = source_reachable(
                self.head, self.cap, adj_start, adj_arcs, self._ids[self.source]
            )
            return {self._nodes[i] for i, flag in enumerate(seen) if flag}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlowNetwork(nodes={self.num_nodes}, arcs={self.num_arcs})"


def is_finite(x: float) -> bool:
    """Whether a capacity is finite (infinite arcs never saturate)."""
    return not math.isinf(x)
