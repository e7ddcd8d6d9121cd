"""Size-constrained densest subgraph heuristics (future-work extension).

The paper's conclusion names "densest subgraphs with size constraints"
as future work.  Both constrained variants are NP-hard [5, 4], so this
module provides the standard greedy heuristics, clearly labelled as
extensions beyond the paper's algorithmic contributions:

* :func:`densest_at_least` -- among subgraphs with >= ``k`` vertices,
  Charikar-style peeling restricted to never report smaller subgraphs
  (a 1/3-approximation for edge density, Andersen & Chellapilla).
* :func:`densest_at_most` -- a peel-down heuristic for the <= ``k``
  variant (no approximation guarantee exists for polynomial greedy).
"""

from __future__ import annotations

from ..cliques.enumeration import CliqueIndex
from ..core.exact import DensestSubgraphResult
from ..core.peel import min_degree_peel, residual_vertices
from ..graph.graph import Graph


def densest_at_least(graph: Graph, k: int, h: int = 2) -> DensestSubgraphResult:
    """Greedy densest subgraph with at least ``k`` vertices.

    Peels minimum-Ψ-degree vertices (via the shared heap-based peel of
    :func:`repro.core.peel.min_degree_peel`, O(log n) per operation
    instead of an O(n) min-scan per step) and returns the densest
    residual graph that still has >= ``k`` vertices.

    Raises
    ------
    ValueError
        If ``k`` exceeds the number of vertices.
    """
    n = graph.num_vertices
    if k > n:
        raise ValueError(f"k={k} exceeds |V|={n}")
    if k < 1:
        raise ValueError("k must be positive")
    index = CliqueIndex(graph, h)
    best_density = index.num_alive / n if n else 0.0
    best_step = 0
    removed: list = []
    for v, alive, num_alive in min_degree_peel(graph, index):
        if len(alive) < k:
            break
        removed.append(v)
        density = num_alive / len(alive)
        if density > best_density:
            best_density = density
            best_step = len(removed)
    return DensestSubgraphResult(
        vertices=residual_vertices(graph, removed, best_step),
        density=best_density,
        method=f"DensestAtLeast({k})",
    )


def densest_at_most(graph: Graph, k: int, h: int = 2) -> DensestSubgraphResult:
    """Greedy densest subgraph with at most ``k`` vertices (heuristic).

    Peels minimum-Ψ-degree vertices (same shared peel as
    :func:`densest_at_least`) until at most ``k`` remain, then returns
    the densest residual graph seen at size <= ``k``.
    """
    n = graph.num_vertices
    if k < 1:
        raise ValueError("k must be positive")
    index = CliqueIndex(graph, h)
    # the whole graph (step 0) competes only when it fits; once n > k a
    # residual of at most k vertices always beats -1
    best_density = index.num_alive / n if 0 < n <= k else -1.0
    best_step = 0
    removed: list = []
    for v, alive, num_alive in min_degree_peel(graph, index):
        removed.append(v)
        if len(alive) <= k:
            density = num_alive / len(alive)
            if density > best_density:
                best_density = density
                best_step = len(removed)
    return DensestSubgraphResult(
        vertices=residual_vertices(graph, removed, best_step),
        density=max(best_density, 0.0),
        method=f"DensestAtMost({k})",
    )
