"""Flow-network constructions for the exact DSD algorithms.

Three builders, one per construction in the paper, each emitting a
:class:`~repro.flow.parametric.ParametricNetwork` whose α-independent
arc arrays are assembled once; the α-dependent sink capacities are
rewritten in place by every solve:

* :func:`build_eds_parametric` -- Goldberg's simplified network for the
  edge-density case (Section 4.1, remark after Algorithm 1), optionally
  with query vertices pinned to the source side.
* :func:`build_cds_parametric` -- Algorithm 1 lines 5-15: vertex nodes
  plus one node per (h-1)-clique instance.
* :func:`build_pds_parametric` -- PExact (Algorithm 8): one node per
  pattern instance, arcs ``v -> ψ`` capacity 1, ``ψ -> v`` capacity
  ``|V_Ψ| - 1``; or, grouped, ``construct+`` (Algorithm 7): instances
  sharing a vertex set collapse into a group node ``g`` with arcs
  ``v -> g`` capacity ``|g|`` and ``g -> v`` capacity ``|g|(|V_Ψ| - 1)``.

The CDS and PDS constructions read the id rows of a
:class:`~repro.cliques.index.CliqueIndex`: a group of ``construct+``
is a distinct sorted row, weighted by how many rows sort to it.

Every network answers the decision question "is there a subgraph with
Ψ-density > α?": after a max-flow run, the source side of the min cut
minus ``s`` induces such a subgraph iff it is non-empty (Lemma 14).
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Iterable, Optional, Sequence

from .. import obs
from ..cliques.index import CliqueIndex
from ..cliques.kernels import _id_edges
from ..graph.graph import Graph, Vertex
from .network import np
from .parametric import ParametricNetwork

INF = float("inf")


def _pds_nodes(index: CliqueIndex, grouped: bool) -> tuple[list, list[int]]:
    """The instance nodes of a PDS network: member id rows and weights.

    Algorithm 8 takes every row with weight 1.  ``construct+`` takes
    each distinct sorted row once, ascending, weighted by how many rows
    sort to it -- the instances on one vertex set (Lemma 11).
    """
    flat, k = index.inst, index.h
    rows = [flat[i : i + k] for i in range(0, len(flat), k)]
    if not grouped:
        return rows, [1] * len(rows)
    weight = Counter(tuple(sorted(row)) for row in rows)
    keys = sorted(weight)
    return keys, [weight[key] for key in keys]


class _ParametricAssembler:
    """Accumulates paired arcs over dense integer node ids.

    Graph vertices take ids ``0..nv-1``, then source and sink; instance
    or group nodes are allocated on demand after those.
    """

    def __init__(self, vertices: Sequence[Vertex]):
        self.vertices = list(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.source = len(self.vertices)
        self.sink = self.source + 1
        self.num_nodes = self.sink + 1
        self.head: list[int] = []
        self.cap: list[float] = []
        self.alpha_arcs: list[int] = []
        self.alpha_coeff: list[float] = []
        self.alpha_src: list[int] = []

    def arc(self, u: int, v: int, capacity: float) -> int:
        arc_id = len(self.head)
        self.head.append(v)
        self.cap.append(capacity)
        self.head.append(u)
        self.cap.append(0.0)
        return arc_id

    def alpha_arc(self, u: int, v: int, base: float, coeff: float, source_arc: int = -1) -> None:
        """An arc with capacity ``base + coeff * α`` (capacity at α=0: base).

        ``source_arc`` names the vertex's paired ``s -> u`` arc, enabling
        the pass-through cancellation on cold solves.
        """
        self.alpha_arcs.append(len(self.head))
        self.alpha_coeff.append(coeff)
        self.alpha_src.append(source_arc)
        self.arc(u, v, base)

    def aux_node(self) -> int:
        nid = self.num_nodes
        self.num_nodes += 1
        return nid

    def build(self) -> ParametricNetwork:
        return ParametricNetwork(
            self.num_nodes,
            self.source,
            self.sink,
            self.head,
            self.cap,
            self.alpha_arcs,
            self.alpha_coeff,
            self.vertices,
            alpha_src=self.alpha_src,
        )


def _flow_build_span(builder):
    """Time a parametric builder as a ``flow.build`` span tagged with the
    size of the network it built."""

    @functools.wraps(builder)
    def build(*args, **kwargs) -> ParametricNetwork:
        with obs.span("flow.build") as sp:
            net = builder(*args, **kwargs)
            sp.attrs.update(nodes=net.num_nodes, arcs=net.num_arcs)
        return net

    return build


@_flow_build_span
def build_eds_parametric(graph: Graph, anchors: Iterable[Vertex] = ()) -> ParametricNetwork:
    """Parametric Goldberg EDS network: sink caps ``(m - deg(v)) + 2α``.

    ``anchors`` get an extra infinite ``s -> v`` arc pinning them to the
    source side of every cut (the query-variant construction).  With
    numpy the arc arrays are emitted vectorised from the edges as id
    pairs, in :meth:`Graph.edges` order; they equal the loop's
    (:func:`_eds_parametric_loop`).
    """
    if np is None:
        return _eds_parametric_loop(graph, anchors)
    vertices = list(graph)
    index = {v: i for i, v in enumerate(vertices)}
    nv = len(vertices)
    source, sink = nv, nv + 1
    srcs, dsts = _id_edges(graph, index)
    tail = np.asarray(srcs, dtype=np.int64)
    other = np.asarray(dsts, dtype=np.int64)
    pinned = np.asarray([index[q] for q in anchors], dtype=np.int64)
    m = float(graph.num_edges)
    edge0 = 4 * nv
    anchor0 = edge0 + 4 * tail.size
    head = np.empty(anchor0 + 2 * pinned.size, dtype=np.int32)
    cap = np.zeros(head.size)
    vid = np.arange(nv)
    head[0:edge0:4] = vid  # s -> v, capacity m
    head[1:edge0:4] = source
    cap[0:edge0:4] = m
    head[2:edge0:4] = sink  # v -> t, capacity m - deg(v) + 2α
    head[3:edge0:4] = vid
    cap[2:edge0:4] = m - np.bincount(np.concatenate((tail, other)), minlength=nv)
    head[edge0:anchor0:4] = other  # u -> v and v -> u, capacity 1
    head[edge0 + 1 : anchor0 : 4] = tail
    head[edge0 + 2 : anchor0 : 4] = tail
    head[edge0 + 3 : anchor0 : 4] = other
    cap[edge0:anchor0:2] = 1.0
    head[anchor0::2] = pinned  # s -> q, capacity INF
    head[anchor0 + 1 :: 2] = source
    cap[anchor0::2] = INF
    return ParametricNetwork(
        sink + 1, source, sink, head, cap, 4 * vid + 2, np.full(nv, 2.0), vertices,
        alpha_src=4 * vid,
    )


def _eds_parametric_loop(graph: Graph, anchors: Iterable[Vertex]) -> ParametricNetwork:
    """The arc arrays of :func:`build_eds_parametric`, one arc at a time."""
    m = float(graph.num_edges)
    asm = _ParametricAssembler(list(graph))
    for i, v in enumerate(asm.vertices):
        src = asm.arc(asm.source, i, m)
        asm.alpha_arc(i, asm.sink, m - graph.degree(v), 2.0, source_arc=src)
    index = asm.index
    ha, ca = asm.head.append, asm.cap.append  # inlined asm.arc: hot loop
    for u, v in graph.edges():
        ui, vi = index[u], index[v]
        ha(vi), ca(1.0), ha(ui), ca(0.0)
        ha(ui), ca(1.0), ha(vi), ca(0.0)
    for q in anchors:
        asm.arc(asm.source, index[q], INF)
    return asm.build()


@_flow_build_span
def build_cds_parametric(
    graph: Graph, h: int, index: Optional[CliqueIndex] = None
) -> ParametricNetwork:
    """Parametric Algorithm-1 network (h >= 3): sink caps ``α·h``.

    The arc arrays are emitted from the flat instance rows of ``index``
    (a :class:`CliqueIndex` of ``graph`` for this ``h``, built here when
    omitted): vertex ids are the index's internal ids, source
    capacities are the precomputed clique-degrees, and the (h-1)-clique
    nodes are allocated on first encounter while walking the rows -- no
    tuple or frozenset materialisation, and no (h-1) enumeration
    (uncovered (h-1)-cliques cannot carry flow, so omitting their nodes
    leaves every min cut unchanged).  With numpy those arrays are
    emitted vectorised (:func:`_cds_arrays_from_index`).
    """
    if h < 3:
        raise ValueError("use build_eds_parametric for h == 2")
    if index is None:
        index = CliqueIndex(graph, h)
    arrays = _cds_arrays_from_index(index, h) if np is not None and index.m else None
    if arrays is None:
        return _cds_parametric_loop(index, h)
    num_nodes, head, cap, alpha_arcs, alpha_coeff, alpha_src = arrays
    nv = len(index.vertices)
    return ParametricNetwork(
        num_nodes, nv, nv + 1, head, cap, alpha_arcs, alpha_coeff, index.vertices,
        alpha_src=alpha_src,
    )


def _cds_arrays_from_index(index: CliqueIndex, h: int):
    """The Algorithm-1 arc arrays of :func:`_cds_parametric_loop`, vectorised.

    Returns ``(num_nodes, head, base_cap, alpha_arcs, alpha_coeff,
    alpha_src)`` as numpy arrays equal to the loop's lists, or ``None``
    when the ψ keys would overflow int64 (the loop then runs).  Each
    (instance, member) pair, in row-major order, names its ψ -- the row
    minus that member, ascending -- packed into one int64 key; ψ nodes
    are numbered by first encounter, and a cumulative sum over "ψ seen
    first here" lays the arcs out in the loop's interleaved order: a
    new ψ's ``h - 1`` INF arcs, then the pair's unit arc.
    """
    nv, m, k = len(index.vertices), index.m, index.h
    if nv ** (k - 1) >= 1 << 63:
        return None
    rows = index.rows_array()
    source, sink = nv, nv + 1
    member = rows.reshape(-1)  # pair p = r * k + i: member rows[r, i]
    drop = ~np.eye(k, dtype=bool)
    psi = np.broadcast_to(rows[:, None, :], (m, k, k))[:, drop].reshape(m * k, k - 1)
    if not index.canonical:
        psi = np.sort(psi, axis=1)
    key = np.zeros(m * k, dtype=np.int64)
    for j in range(k - 1):
        key = key * nv + psi[:, j]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    psi_node = sink + 1 + rank[inverse]
    is_new = first[inverse] == np.arange(m * k)

    # arc-entry offset of each pair's block: 4 per vertex up front, then
    # 2 per arc: (k - 1) INF arcs for a new ψ, plus the unit arc
    arcs_per_pair = 1 + (k - 1) * is_new
    block = 4 * nv + 2 * (np.cumsum(arcs_per_pair) - arcs_per_pair)
    size = 4 * nv + 2 * int(arcs_per_pair.sum())
    head = np.empty(size, dtype=np.int32)
    cap = np.zeros(size)
    vid = np.arange(nv)
    head[0 : 4 * nv : 4] = vid  # s -> v, capacity deg(v)
    head[1 : 4 * nv : 4] = source
    cap[0 : 4 * nv : 4] = index.base_degree
    head[2 : 4 * nv : 4] = sink  # v -> t, capacity h·α
    head[3 : 4 * nv : 4] = vid
    new_block = block[is_new]
    for j in range(k - 1):  # ψ -> u, capacity INF, for u in ψ
        at = new_block + 2 * j
        head[at] = psi[is_new, j]
        head[at + 1] = psi_node[is_new]
        cap[at] = INF
    unit = block + 2 * (k - 1) * is_new  # v -> ψ, capacity 1
    head[unit] = psi_node
    head[unit + 1] = member
    cap[unit] = 1.0
    return (
        sink + 1 + first.size, head, cap,
        4 * vid + 2, np.full(nv, float(h)), 4 * vid,
    )


def _cds_parametric_loop(index: CliqueIndex, h: int) -> ParametricNetwork:
    """Parametric Algorithm-1 arc arrays from the rows, one pair at a time."""
    asm = _ParametricAssembler(index.vertices)
    degree = index.base_degree
    for i in range(len(asm.vertices)):
        src = asm.arc(asm.source, i, float(degree[i]))
        asm.alpha_arc(i, asm.sink, 0.0, float(h), source_arc=src)

    ha, ca = asm.head.append, asm.cap.append  # inlined asm.arc: hot loops
    psi_node: dict[tuple[int, ...], int] = {}
    get_psi = psi_node.get
    for vid, psi in index.member_subsets():
        node = get_psi(psi)
        if node is None:
            node = psi_node[psi] = asm.aux_node()
            for uid in psi:
                ha(uid), ca(INF), ha(node), ca(0.0)
        ha(node), ca(1.0), ha(vid), ca(0.0)
    return asm.build()


@_flow_build_span
def build_pds_parametric(index: CliqueIndex, grouped: bool = False) -> ParametricNetwork:
    """Parametric PDS network: Algorithm 8, or ``construct+`` if grouped.

    Sink caps are ``α·|V_Ψ|``.  One node per row (Algorithm 8: the flow
    construction only needs the vertex membership of each instance), or
    with ``grouped`` one node per distinct sorted row (``construct+``,
    whose min cut Lemma 11 proves equal), emitted vectorised from the
    index rows when numpy is available.
    """
    if np is None or not index.m:
        return _pds_parametric_loop(index, grouped)
    k = index.h
    nv = len(index.vertices)
    source, sink = nv, nv + 1
    rows = index.rows_array()
    if grouped:
        rows, weight = np.unique(np.sort(rows, axis=1), axis=0, return_counts=True)
    else:
        weight = np.ones(len(rows), dtype=np.int64)
    node = np.repeat(np.arange(sink + 1, sink + 1 + len(rows)), k)
    member = rows.reshape(-1)
    fwd = np.repeat(weight.astype(np.float64), k)
    head = np.empty(4 * (nv + member.size), dtype=np.int32)
    cap = np.zeros(head.size)
    vid = np.arange(nv)
    head[0 : 4 * nv : 4] = vid  # s -> v, capacity deg(v)
    head[1 : 4 * nv : 4] = source
    cap[0 : 4 * nv : 4] = index.base_degree
    head[2 : 4 * nv : 4] = sink  # v -> t, capacity |V_Ψ|·α
    head[3 : 4 * nv : 4] = vid
    head[4 * nv :: 4] = node  # v -> node, capacity |g|
    head[4 * nv + 1 :: 4] = member
    cap[4 * nv :: 4] = fwd
    head[4 * nv + 2 :: 4] = member  # node -> v, capacity |g|(|V_Ψ| - 1)
    head[4 * nv + 3 :: 4] = node
    cap[4 * nv + 2 :: 4] = fwd * (k - 1)
    return ParametricNetwork(
        sink + 1 + len(rows), source, sink, head, cap, 4 * vid + 2,
        np.full(nv, float(k)), index.vertices, alpha_src=4 * vid,
    )


def _pds_parametric_loop(index: CliqueIndex, grouped: bool) -> ParametricNetwork:
    """The arc arrays of :func:`build_pds_parametric`, one node at a time."""
    k = index.h
    asm = _ParametricAssembler(index.vertices)
    degree = index.base_degree
    for i in range(len(asm.vertices)):
        src = asm.arc(asm.source, i, float(degree[i]))
        asm.alpha_arc(i, asm.sink, 0.0, float(k), source_arc=src)
    ha, ca = asm.head.append, asm.cap.append  # inlined asm.arc: hot loop
    for members, weight in zip(*_pds_nodes(index, grouped)):
        node = asm.aux_node()
        fwd, back = float(weight), float(weight * (k - 1))
        for vid in members:
            ha(node), ca(fwd), ha(vid), ca(0.0)
            ha(vid), ca(back), ha(node), ca(0.0)
    return asm.build()
