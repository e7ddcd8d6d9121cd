"""Classical k-core decomposition, and the level-synchronous peel.

Definition 5 of the paper: the k-core ``H_k`` is the largest subgraph in
which every vertex has degree at least ``k``; the core number of a
vertex is the largest ``k`` of a k-core containing it.  Used directly
for the EDS case (Ψ = edge) and to derive the clique-degree upper bound
``γ(v, Ψ) = C(core(v), h-1)`` inside CoreApp (Algorithm 6).

The k-core is unique, so core numbers do not depend on the order in
which vertices leave.  With numpy the decomposition therefore peels
level by level (:func:`level_peel`): at level ``k`` every live vertex
of degree at most ``k`` leaves at once, with core number ``k``.  The
same peel gives CoreApp its (k, Ψ)-core numbers over a clique index.
Without numpy (``REPRO_NO_NUMPY``) the Batagelj–Zaveršnik bin-sort loop
runs instead; both give equal mappings.
"""

from __future__ import annotations

from itertools import chain

from .. import obs
from ..cliques.kernels import np
from ..graph.graph import Graph, Vertex


def level_peel(start, incidence, rows=None):
    """Core numbers by level-synchronous peeling over a vertex→incidence CSR.

    ``incidence[start[v]:start[v + 1]]`` lists what vertex ``v`` lies
    in: its neighbour ids for the classical k-core (``rows`` omitted),
    or the ids of its instances for a (k, Ψ)-core, whose members are
    the rows of the ``(m × h)`` array ``rows``.  A vertex's degree is
    its number of live incidences.

    Each round removes the whole frontier -- every live vertex of
    degree at most ``k`` -- with core number ``k``: one gather of the
    frontier's incidences, then one decrement of the surviving
    vertices they reach.  An instance hit by two frontier vertices is
    killed once.  The decrement is ``np.subtract.at`` over the gathered
    ids and the next frontier is scanned among them, so a round costs
    what its frontier touches, not O(n) as a length-n ``bincount``
    would: chain-like graphs take about one round per vertex pair.
    When the frontier comes back empty, ``k`` jumps to the live
    minimum degree.

    Returns the core numbers as an int64 array by vertex id.
    """
    n = len(start) - 1
    deg = np.diff(start)
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    live_instance = None if rows is None else np.ones(len(rows), dtype=bool)
    live = np.arange(n, dtype=np.int64)
    frontier = live[:0]
    k = 0
    left = n
    while left:
        if not len(frontier):
            live = live[alive[live]]
            k = int(deg[live].min())
            frontier = live[deg[live] <= k]
        core[frontier] = k
        alive[frontier] = False
        left -= len(frontier)
        ids = _gather(start, incidence, frontier)
        if rows is not None:
            ids = _distinct(ids[live_instance[ids]])
            live_instance[ids] = False
            ids = rows[ids].ravel()
        ids = ids[alive[ids]]
        np.subtract.at(deg, ids, 1)
        frontier = _distinct(ids[deg[ids] <= k])
    return core


def _distinct(ids):
    """The distinct values of an int array, ascending."""
    ids = np.sort(ids)
    keep = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _gather(start, incidence, vertices):
    """The concatenated incidence ranges of ``vertices``."""
    lo = start[vertices]
    counts = start[vertices + 1] - lo
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    return incidence[np.arange(total, dtype=np.int64) + np.repeat(lo - offsets, counts)]


def _adjacency_csr(graph: Graph):
    """``(labels, start, neighbours)``: the adjacency sets as id CSR arrays."""
    labels = list(graph)
    n = len(labels)
    id_of = {v: i for i, v in enumerate(labels)}
    neighbour_sets = [graph.neighbors(v) for v in labels]
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, neighbour_sets), dtype=np.int64, count=n), out=start[1:])
    neighbours = np.fromiter(
        map(id_of.__getitem__, chain.from_iterable(neighbour_sets)),
        dtype=np.int64,
        count=int(start[-1]),
    )
    return labels, start, neighbours


def core_decomposition(graph: Graph) -> dict[Vertex, int]:
    """Core number of every vertex.

    Level-synchronous over the adjacency CSR with numpy
    (:func:`level_peel`), the bin-sort loop without it.

    Returns
    -------
    dict mapping each vertex to its core number; empty graph -> empty dict.

    >>> from repro.graph.graph import complete_graph
    >>> core_decomposition(complete_graph(4)) == {0: 3, 1: 3, 2: 3, 3: 3}
    True
    """
    with obs.span("kcore.decomposition", n=graph.num_vertices) as sp:
        if np is None:
            core = _bin_sort_core_numbers(graph)
        else:
            labels, start, neighbours = _adjacency_csr(graph)
            core = dict(zip(labels, level_peel(start, neighbours).tolist()))
        sp.attrs["kmax"] = max(core.values(), default=0)
    return core


def _bin_sort_core_numbers(graph: Graph) -> dict[Vertex, int]:
    """Batagelj–Zaveršnik bin-sort peeling over the adjacency sets, O(m)."""
    degree = {v: graph.degree(v) for v in graph}
    if not degree:
        return {}
    max_deg = max(degree.values())
    buckets: list[set[Vertex]] = [set() for _ in range(max_deg + 1)]
    for v, d in degree.items():
        buckets[d].add(v)
    core: dict[Vertex, int] = {}
    removed: set[Vertex] = set()
    current = 0
    for _ in range(len(degree)):
        while current <= max_deg and not buckets[current]:
            current += 1
        v = buckets[current].pop()
        core[v] = current
        removed.add(v)
        for u in graph.neighbors(v):
            if u not in removed and degree[u] > current:
                buckets[degree[u]].discard(u)
                degree[u] -= 1
                buckets[degree[u]].add(u)
        current = max(current - 1, 0)
    return core


def k_core(graph: Graph, k: int) -> Graph:
    """The k-core subgraph ``H_k`` (possibly empty, possibly disconnected)."""
    core = core_decomposition(graph)
    return graph.subgraph(v for v, c in core.items() if c >= k)


def max_core(graph: Graph) -> tuple[int, Graph]:
    """``(kmax, H_kmax)``: the maximum core number and its core subgraph."""
    core = core_decomposition(graph)
    if not core:
        return 0, Graph()
    kmax = max(core.values())
    return kmax, graph.subgraph(v for v, c in core.items() if c >= kmax)


def degeneracy(graph: Graph) -> int:
    """The degeneracy of the graph = classical ``kmax``."""
    core = core_decomposition(graph)
    return max(core.values(), default=0)
