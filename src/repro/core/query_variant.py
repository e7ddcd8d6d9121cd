"""Query-constrained densest subgraph (Section 6.3 variant).

Tsourakakis et al. [65] study the variant that returns the densest
subgraph containing a given query vertex set Q.  The paper sketches how
cores localise it for edge-density: with ``x`` the minimum classical
core number over Q, the x-core contains Q and has density >= x/2
(Theorem 1), so ``ρ_opt(Q) >= x/2`` and the flow search can run on a
small anchored core instead of the whole graph.

The anchored k-core used here is the peel that never removes a query
vertex; the standard exchange argument shows the optimal S is contained
in the anchored ⌈ρ⌉-core for any valid lower bound ρ (every non-query
vertex of S has degree >= ρ_opt inside S).
"""

from __future__ import annotations

import math
from typing import Iterable

from .. import guard, obs
from ..flow.builders import build_eds_parametric
from ..graph.graph import Graph, Vertex
from .exact import DensestSubgraphResult
from .kcore import core_decomposition


def anchored_core(graph: Graph, anchors: set[Vertex], k: int) -> Graph:
    """The anchored k-core: peel non-anchor vertices of degree < k.

    Anchors always survive; the result contains every subgraph S ⊇
    anchors whose non-anchor vertices all have degree >= k inside S.
    One worklist peel in O(n + m): a stack holds the non-anchor
    vertices whose degree is below ``k``, and each one taken off it
    lowers its live neighbours' degrees.
    """
    degree = {v: graph.degree(v) for v in graph}
    stack = [v for v, d in degree.items() if d < k and v not in anchors]
    gone = set(stack)
    while stack:
        for u in graph.neighbors(stack.pop()):
            if u not in gone:
                degree[u] -= 1
                if degree[u] < k and u not in anchors:
                    gone.add(u)
                    stack.append(u)
    return graph.subgraph(v for v in graph if v not in gone)


def query_densest(graph: Graph, query: Iterable[Vertex]) -> DensestSubgraphResult:
    """Densest (edge-density) subgraph containing every query vertex.

    The discrete-Newton breakpoint walk
    (:meth:`~repro.flow.parametric.ParametricNetwork.max_density`) on
    one α-parametric Goldberg network restricted to the anchored core,
    with infinite source arcs pinning the query vertices to the source
    side of every cut: each α is the exact density of the previous cut,
    and the walk stops at the first cut that cannot beat its own α.
    ``iterations`` counts its max-flow solves.  Opens a
    ``query_variant.run`` span and is a budget checkpoint before any
    work; a spent budget raises :class:`repro.guard.BudgetExceeded`.

    Raises
    ------
    KeyError
        If a query vertex is missing from the graph.
    ValueError
        If the query set is empty.
    """
    anchors = set(query)
    if not anchors:
        raise ValueError("query set must be non-empty")
    for q in anchors:
        if q not in graph:
            raise KeyError(f"query vertex {q!r} not in graph")

    with obs.span("query_variant.run", h=2, n=graph.num_vertices) as sp:
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("query_variant.run")
        core = core_decomposition(graph)
        x = min(core[q] for q in anchors)
        # The x-core contains every anchor and has density >= x/2
        # (Theorem 1); it is the witness that seeds both the lower bound
        # and the best-so-far answer, so an optimum that exactly equals
        # the bound is still returned.
        best = {v for v, c in core.items() if c >= x} | anchors
        best_density = graph.subgraph(best).edge_density()
        low = max(x / 2.0, best_density)
        # the anchored ⌈low⌉-core contains the optimum (exchange argument:
        # every non-anchor vertex of the optimum has degree >= ρ_opt >= low
        # inside it)
        domain = anchored_core(graph, anchors, math.ceil(low))
        # the anchored min cut is never empty (anchors are pinned), so
        # the walk always returns a cut
        net = build_eds_parametric(domain, anchors=anchors)
        cut, density, solves = net.max_density(
            lambda s: domain.subgraph(s).edge_density(), low
        )
        if density > best_density:  # a tie keeps the x-core witness
            best, best_density = cut, density
        sp.attrs.update(solves=solves)
    return DensestSubgraphResult(
        vertices=set(best),
        density=best_density,
        method="QueryDensest",
        iterations=solves,
    )
