"""Arc-array primitives shared by the flow layer.

The α-parametric networks of :mod:`repro.flow.parametric` are directed
graphs with float capacities stored as flat arc arrays in the usual
paired reverse-arc layout (arc ``i ^ 1`` is the reverse of arc ``i``),
so residual updates are O(1).  Adjacency is a CSR index over the arc
arrays (``adj_start`` offsets into ``adj_arcs``).  The arrays are numpy
whenever numpy is importable and lists otherwise; :func:`build_csr` and
:func:`source_reachable` serve both representations, and Dinic
(:mod:`repro.flow.dinic`) runs on them directly.

Capacities may be ``float('inf')`` (the Ψ→v arcs of Algorithm 1).  The
density guesses ``α`` are reals, so the solvers work on floats with an
explicit epsilon discipline: a residual at or below :data:`EPS` counts
as saturated.
"""

from __future__ import annotations

from .. import env

if env.flag("REPRO_NO_NUMPY"):  # explicit opt-out for CI / ablations
    np = None
else:
    try:  # numpy backs the parametric networks; the flow layer works without it
        import numpy as np
    except ImportError:  # pragma: no cover - environment-specific
        np = None

#: Capacity below which an arc is treated as saturated / absent.
EPS = 1e-9


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
    if np is not None and isinstance(head, np.ndarray):
        tails = head.reshape(-1, 2)[:, ::-1].reshape(-1)
        counts = np.bincount(tails, minlength=num_nodes)
        adj_start = np.zeros(num_nodes + 1, dtype=head.dtype)
        adj_start[1:] = np.cumsum(counts)
        adj_arcs = np.argsort(tails, kind="stable").astype(head.dtype)
        return adj_start, adj_arcs
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
    minimal source side of a minimum s-t cut.  Numpy arrays take a
    frontier-at-a-time pass and get a bool array back; lists take the
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
