"""``IncApp`` (Algorithm 5): approximation via full core decomposition.

Runs the (k, Ψ)-core decomposition bottom-up (Algorithm 3) and returns
the (kmax, Ψ)-core, which Lemma 8 shows is a ``1/|V_Ψ|``-approximation
to the CDS.  Same asymptotic cost as the decomposition itself; the
point of comparison for CoreApp, which gets the same subgraph top-down
without touching low cores.
"""

from __future__ import annotations

from .. import guard, obs
from ..cliques.index import CliqueIndex
from ..graph.graph import Graph
from .clique_core import clique_core_decomposition
from .exact import DensestSubgraphResult


def inc_app_densest(
    graph: Graph, h: int = 2, index: CliqueIndex | None = None
) -> DensestSubgraphResult:
    """Algorithm 5: return the (kmax, Ψ)-core of ``graph``.

    For a graph with no Ψ instance, the full vertex set at density 0.
    The instance index is built once (or passed in by the caller) and
    serves both the decomposition and the final core's density -- a
    row-subset count instead of a re-enumeration of the core subgraph.
    Opens an ``inc_app.run`` span and is a budget checkpoint before any
    work.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    n = graph.num_vertices
    if n == 0:
        return DensestSubgraphResult(set(), 0.0, "IncApp")
    with obs.span("inc_app.run", h=h, n=n) as sp:
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("inc_app.run")
        if index is None:
            index = CliqueIndex(graph, h)
        result = clique_core_decomposition(graph, h, index=index)
        sp.attrs.update(kmax=result.kmax)
        core = result.kmax_core(graph)
        if core.num_vertices == 0:
            return DensestSubgraphResult(set(graph.vertices()), 0.0, "IncApp")
        density = index.count_within(set(core.vertices())) / core.num_vertices
    return DensestSubgraphResult(
        vertices=set(core.vertices()),
        density=density,
        method="IncApp",
        stats={"kmax": result.kmax},
    )
