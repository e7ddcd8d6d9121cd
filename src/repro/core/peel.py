"""``PeelApp`` (Algorithm 2): greedy peeling approximation.

Charikar's peeling generalised to h-cliques (and, via
:mod:`repro.core.pds`, to patterns): repeatedly remove the vertex with
the minimum Ψ-degree, track the density of every residual graph, and
return the densest one.  Deterministic ``1/|V_Ψ|``-approximation
(Lemma 8 / Lemma 10) in ``O(n * C(d-1, h-1))`` time.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .. import accel, guard, obs
from ..cliques.index import CliqueIndex
from ..graph.graph import Graph, Vertex
from ..guard import sanitize
from .exact import DensestSubgraphResult


def residual_vertices(graph: Graph, removal_order: Sequence[Vertex], steps: int) -> set[Vertex]:
    """The vertices of ``graph`` still live after a peel's first ``steps`` removals.

    The peels record their removal order and the step of their best
    residual graph, then rebuild that vertex set once, here, in O(n):
    copying the live set on every improvement costs O(n²) on graphs
    whose residual density rises at almost every step.
    """
    gone = set(removal_order[:steps])
    return {v for v in graph if v not in gone}


def min_degree_peel(
    graph: Graph, index: CliqueIndex
) -> Iterator[tuple[Vertex, set[Vertex], int]]:
    """Min-Ψ-degree peel as a generator: the loop behind :func:`peel_densest`.

    Repeatedly removes the vertex of minimum ``(Ψ-degree, graph-order
    rank)``, updating degrees through the instance index, on the
    lazy-deletion heap of :func:`repro.accel.heap_peel`.  The rank
    tie-break makes the peel order a pure function of the graph --
    reproducible under string-hash randomisation, and exactly
    replicable by a naive min-scan with the same key (which is how the
    tests pin it).  The heap works directly over the index's internal
    vertex ids (which follow graph-iteration order, so id == rank).
    Yields ``(removed, alive, num_alive_instances)`` after each removal,
    down to a single remaining vertex; ``alive`` is the live set mutated
    in place -- copy it to keep a snapshot.  ``index`` is consumed: its
    alive layer and ``num_alive`` follow the peel step by step.
    """
    labels = index.vertices
    n = graph.num_vertices  # labels[:n] are the graph's vertices in rank order
    degrees = index.degrees()
    deg = [degrees[v] for v in labels]
    alive = set(labels[:n])
    for vid, num_alive in accel.heap_peel(
        index.inst, index.inc_start, index.inc_ids, deg, index.alive,
        index.num_alive, n, index.h,
    ):
        index.num_alive = num_alive
        alive.discard(labels[vid])
        yield labels[vid], alive, num_alive


def peel_densest(
    graph: Graph,
    h: int = 2,
    index: CliqueIndex | None = None,
) -> DensestSubgraphResult:
    """Algorithm 2 for the h-clique Ψ.

    Parameters
    ----------
    graph, h:
        Input graph and clique size (h = 2 recovers Charikar's
        0.5-approximation for edge density).
    index:
        Optional pre-built instance index (consumed); a
        pattern-instance index peels by pattern-degree.

    Returns
    -------
    The densest residual subgraph encountered while peeling; for a
    graph with no instance, the full vertex set at density 0.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    n = graph.num_vertices
    if n == 0:
        return DensestSubgraphResult(set(), 0.0, "PeelApp")
    if index is None:
        index = CliqueIndex(graph, h)

    max_degree = (
        max(index.base_degree, default=0)
        if index.num_alive == index.m
        else max(index.degrees().values(), default=0)
    )
    if max_degree == 0:
        return DensestSubgraphResult(set(graph.vertices()), 0.0, "PeelApp")

    best_density = index.num_alive / n
    best_step = 0  # removals before the densest residual graph
    removed: list[Vertex] = []
    degraded: guard.BudgetExceeded | None = None
    budget = guard.ACTIVE

    with obs.span("peel.run", h=h, n=n, m=index.num_alive):
        prev_num_alive = index.num_alive
        try:
            for v, alive, num_alive in min_degree_peel(graph, index):
                if budget is not None:
                    budget.tick_round()
                removed.append(v)
                if guard.CHECK:
                    sanitize.check_peel_round(prev_num_alive, num_alive)
                    prev_num_alive = num_alive
                density = num_alive / len(alive)
                if density > best_density:
                    best_density = density
                    best_step = len(removed)
        except guard.BudgetExceeded as exc:
            # degrade: the best residual graph seen so far is a valid
            # subgraph (the whole graph before the first round), just
            # without the 1/h-approximation guarantee
            degraded = exc
        best_vertices = residual_vertices(graph, removed, best_step)
        if degraded is not None:
            degraded.attach_incumbent(best_vertices, best_density)

    result = DensestSubgraphResult(
        vertices=best_vertices,
        density=best_density,
        method="PeelApp",
        iterations=len(removed),
    )
    if degraded is not None:
        # h·μ(S) <= |S|·dmax bounds the optimum by dmax/h, so the
        # partial peel's incumbent carries a verifiable gap
        result.stats.update(
            guard.degraded_stats(
                degraded,
                incumbent_source="partial-peel",
                lower=best_density,
                upper=max_degree / float(h),
            )
        )
    if guard.CHECK:
        sanitize.check_result_density(
            graph, result.vertices, index.motif, result.density, "peel_densest"
        )
    return result
