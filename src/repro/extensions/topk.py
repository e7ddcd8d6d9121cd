"""Top-k densest subgraph extraction (extension).

The paper's related work covers top-k locally densest subgraphs (Qin et
al., KDD'15) and top-k local triangle-densest subgraphs (Samusevich et
al.).  This extension provides the standard practical variant used by
applications such as the social-piggybacking example: extract k
pairwise-disjoint dense subgraphs by repeatedly running a DSD algorithm
and removing the result.

Disjointness is the usual application constraint (each vertex is served
by one cluster); the i-th result is the densest subgraph of the residual
graph, so densities are non-increasing in i.
"""

from __future__ import annotations

from typing import Callable

from ..core.core_app import core_app_densest
from ..core.exact import DensestSubgraphResult
from ..graph.graph import Graph


def top_k_densest(
    graph: Graph,
    k: int,
    h: int = 2,
    method: Callable[[Graph, int], DensestSubgraphResult] = core_app_densest,
) -> list[DensestSubgraphResult]:
    """Extract up to ``k`` disjoint dense subgraphs (peel-and-repeat).

    Parameters
    ----------
    graph, h:
        Input graph and clique size of Ψ.
    k:
        Number of subgraphs to extract; fewer are returned when the
        graph runs out of Ψ instances.
    method:
        The single-shot DSD algorithm to repeat, ``(graph, h) ->
        DensestSubgraphResult``; defaults to CoreApp.  Pass
        ``core_exact_densest`` for exact per-round optima.

    Returns
    -------
    Results in extraction order; densities are non-increasing.
    """
    if k < 1:
        raise ValueError("k must be positive")
    work = graph.copy()
    results: list[DensestSubgraphResult] = []
    for _ in range(k):
        if work.num_vertices == 0:
            break
        result = method(work, h)
        if result.density <= 0.0 or not result.vertices:
            break
        results.append(result)
        for v in result.vertices:
            if v in work:
                work.remove_vertex(v)
    return results
