"""(k, Ψ)-core decomposition for h-cliques (Algorithm 3 of the paper).

Definition 6: the (k, Ψ)-core ``R_k`` is the largest subgraph in which
every vertex participates in at least ``k`` instances of the h-clique
``Ψ``.  Peeling vertices of minimum clique-degree with a bucket queue
yields the clique-core number of every vertex, exactly as the classical
Batagelj–Zaveršnik algorithm does for edges.

The decomposition additionally tracks the h-clique-density of every
residual graph encountered during the peel.  The best residual density
``ρ'`` is the lower bound that powers Pruning1 of CoreExact
(Section 6.1), so we return it alongside the core numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import accel
from ..cliques.index import CliqueIndex
from ..graph.graph import Graph, Vertex
from .peel import residual_vertices

__all__ = [
    "CliqueCoreResult",
    "clique_core_decomposition",
    "peel_index_decomposition",
    "clique_core_subgraph",
    "kmax_clique_core",
]


@dataclass
class CliqueCoreResult:
    """Output of the (k, Ψ)-core decomposition.

    Attributes
    ----------
    core:
        Clique-core number of every vertex.
    kmax:
        Maximum clique-core number (0 for a graph with no instances).
    best_residual_density:
        ``ρ'``: the highest h-clique-density among all residual graphs
        seen while peeling (Pruning1 lower bound on ``ρ_opt``).
    best_residual_vertices:
        The vertex set achieving ``ρ'``.
    peel_order:
        Vertices in removal order (useful for tests and baselines).
    """

    core: dict[Vertex, int]
    kmax: int
    best_residual_density: float
    best_residual_vertices: set[Vertex]
    peel_order: list[Vertex] = field(default_factory=list)

    def core_subgraph(self, graph: Graph, k: int) -> Graph:
        """The (k, Ψ)-core subgraph of ``graph``."""
        return graph.subgraph(v for v, c in self.core.items() if c >= k)

    def kmax_core(self, graph: Graph) -> Graph:
        """The (kmax, Ψ)-core subgraph of ``graph``."""
        return self.core_subgraph(graph, self.kmax)


def clique_core_decomposition(
    graph: Graph,
    h: int,
    index: CliqueIndex | None = None,
) -> CliqueCoreResult:
    """Algorithm 3: clique-core numbers of all vertices.

    Parameters
    ----------
    graph:
        The input graph.
    h:
        Clique size of Ψ (h >= 2; ``h == 2`` reduces to the classical
        k-core, which :mod:`repro.core.kcore` computes faster).
    index:
        Optionally a pre-built :class:`CliqueIndex`.  The decomposition
        peels a private alive-layer copy, so the index comes back
        untouched and can keep serving the flow builders of the same
        call.  Built from scratch when omitted.

    Notes
    -----
    Vertices that participate in no instance get core number 0.  Cores
    are nested (property 1 of Section 5.1); tests verify this.
    """
    if h < 2:
        raise ValueError("h-clique requires h >= 2")
    if index is None:
        index = CliqueIndex(graph, h)
    return peel_index_decomposition(graph, index)


def peel_index_decomposition(graph: Graph, index: CliqueIndex) -> CliqueCoreResult:
    """Algorithm-3 peeling over any materialised instance index.

    Shared engine for clique cores and pattern cores: the index only
    needs to know which vertices each live instance spans, so the same
    bucket-queue peel decomposes (k, Ψ)-cores for h-cliques and for
    arbitrary patterns alike.  The peel runs entirely on the index's
    flat arrays -- instance kills walk the per-vertex CSR incidence
    ranges -- against a *private copy* of the alive layer, so the index
    itself is left untouched for later consumers (CoreExact's flow
    phase reuses it).  The bucket-queue loop itself is
    :func:`repro.accel.bucket_peel`, the same pure loop on both tiers.
    """
    labels = index.vertices
    n = len(labels)
    n_graph = graph.num_vertices
    in_graph = bytearray(v in graph for v in labels)

    alive = bytearray(index.alive)
    num_alive = index.num_alive
    if num_alive == index.m:
        deg = list(index.base_degree)
    else:  # respect a partially peeled index
        degree = index.degrees()
        deg = [degree[v] for v in labels]

    core_by_id, order, best_removed, best_density = accel.bucket_peel(
        index.inst, index.inc_start, index.inc_ids, deg, alive, in_graph,
        index.h, n_graph, num_alive,
    )

    core: dict[Vertex, int] = {}
    peel_order: list[Vertex] = []
    for i in range(n):
        vi = order[i]
        core[labels[vi]] = core_by_id[vi]
        peel_order.append(labels[vi])
    kmax = max(core.values(), default=0)
    return CliqueCoreResult(
        core=core,
        kmax=kmax,
        best_residual_density=best_density,
        best_residual_vertices=residual_vertices(graph, peel_order, best_removed),
        peel_order=peel_order,
    )


def clique_core_subgraph(graph: Graph, h: int, k: int) -> Graph:
    """Convenience: the (k, Ψ)-core of ``graph`` for the h-clique Ψ."""
    return clique_core_decomposition(graph, h).core_subgraph(graph, k)


def kmax_clique_core(graph: Graph, h: int) -> tuple[int, Graph]:
    """``(kmax, (kmax, Ψ)-core)`` via full decomposition (IncApp's engine)."""
    result = clique_core_decomposition(graph, h)
    return result.kmax, result.kmax_core(graph)
