"""PDS algorithms: ``PExact``, ``CorePExact`` and pattern approximations.

Section 7 of the paper solves pattern-densest subgraphs with the clique
recipe unchanged, and so does this module.  Each generic method indexes
the pattern's instances once, as id rows
(:func:`~repro.core.pattern_core.pattern_index`), and runs its clique
twin's solver over that index:

* :func:`p_exact_densest` -- Algorithm 8 through Exact's solver: one flow
  node per instance row.
* :func:`core_p_exact_densest` -- CorePExact through CoreExact's solver:
  pattern-cores locate the answer, and the ``construct+`` network
  (Algorithm 7, one node per distinct vertex set), whose min cut
  Lemma 11 proves equal to PExact's, finds it.
* :func:`pattern_peel_densest` / :func:`pattern_inc_app_densest` /
  :func:`pattern_core_app_densest` -- PeelApp, IncApp and CoreApp over
  the index (Lemma 10 keeps the ``1/|V_Ψ|`` guarantee); CoreApp's γ is
  the exact pattern-degree.  Starred patterns (stars, the C4
  "diamond") take the Appendix-D closed forms instead and never
  materialise instances.

Every entry point opens a ``pds.*`` span and is a budget checkpoint, so
a spent budget stops it before any enumeration.
"""

from __future__ import annotations

from typing import Optional

from .. import guard, obs
from ..graph.graph import Graph, Vertex
from ..patterns.degree import fast_pattern_degrees
from ..patterns.pattern import Pattern
from .clique_core import CliqueCoreResult
from .core_app import core_app_densest
from .core_exact import core_exact_densest
from .exact import DensestSubgraphResult, exact_densest
from .inc_app import inc_app_densest
from .pattern_core import (
    c4_peel_densest,
    fast_pattern_core_decomposition,
    fast_pattern_mu,
    pattern_index,
    star_peel_densest,
)
from .peel import peel_densest


def p_exact_densest(graph: Graph, pattern: Pattern) -> DensestSubgraphResult:
    """Algorithm 8 (PExact): exact PDS on the full graph.

    One flow node per pattern instance; arcs ``v -> ψ`` capacity 1 and
    ``ψ -> v`` capacity ``|V_Ψ| - 1``.
    :func:`~repro.core.exact.exact_densest` runs here.
    """
    with obs.span("pds.p_exact", pattern=pattern.name, n=graph.num_vertices):
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("pds.p_exact")
        index = pattern_index(graph, pattern)
        result = exact_densest(graph, pattern.size, index=index)
    result.method = "PExact"
    result.stats["instances"] = index.m
    return result


def core_p_exact_densest(
    graph: Graph,
    pattern: Pattern,
    *,
    decomposition: Optional[CliqueCoreResult] = None,
) -> DensestSubgraphResult:
    """CorePExact: exact PDS with pattern-core location and ``construct+``.

    CoreExact (Algorithm 4) over the pattern-instance index: pattern
    cores in place of clique-cores, the grouped flow network of
    Algorithm 7 in place of Algorithm 1's, and the same Pruning1/2.
    ``decomposition`` is passed through to
    :func:`~repro.core.core_exact.core_exact_densest`.
    """
    with obs.span("pds.core_p_exact", pattern=pattern.name, n=graph.num_vertices):
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("pds.core_p_exact")
        index = pattern_index(graph, pattern)
        result = core_exact_densest(
            graph, pattern.size, decomposition=decomposition, index=index
        )
    result.method = "CorePExact"
    result.stats["instances"] = index.m
    return result


# ----------------------------------------------------------------------
# Pattern approximations (Section 7.2, first paragraph)
# ----------------------------------------------------------------------


def _has_fast_core_path(pattern: Pattern) -> bool:
    """Whether an Appendix-D closed-form peel exists for this pattern."""
    return bool(pattern.star_tails()) or pattern.is_c4()


def pattern_peel_densest(graph: Graph, pattern: Pattern) -> DensestSubgraphResult:
    """PeelApp with pattern-degrees (1/|V_Ψ|-approximation, Lemma 10).

    Starred patterns (stars, the C4 "diamond") peel with the Appendix-D
    closed-form degree updates and never materialise instances -- the
    difference between seconds and hours around power-law hubs, whose
    star counts grow as C(deg, x).  Every removal is a budget
    checkpoint, as in :func:`~repro.core.peel.peel_densest`.
    """
    with obs.span("pds.peel", pattern=pattern.name, n=graph.num_vertices):
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("pds.peel")
        if not _has_fast_core_path(pattern):
            result = peel_densest(graph, pattern.size, index=pattern_index(graph, pattern))
            result.method = "PeelApp(pattern)"
            return result
        if pattern.star_tails():
            vertices, density, iterations = star_peel_densest(graph, pattern.star_tails())
        else:
            vertices, density, iterations = c4_peel_densest(graph)
    if density <= 0.0 and graph.num_vertices:
        vertices = set(graph.vertices())
    return DensestSubgraphResult(
        vertices=vertices,
        density=density,
        method="PeelApp(pattern)",
        iterations=iterations,
        stats={"fast_path": True},
    )


def pattern_inc_app_densest(graph: Graph, pattern: Pattern) -> DensestSubgraphResult:
    """IncApp with pattern-cores: return the (kmax, Ψ)-core.

    Starred patterns (stars, the C4 "diamond") take the Appendix-D fast
    peel, which never materialises instances; only the final core's
    density needs a closed-form count, on the (small) core itself.
    """
    with obs.span("pds.inc_app", pattern=pattern.name, n=graph.num_vertices):
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("pds.inc_app")
        if not _has_fast_core_path(pattern):
            result = inc_app_densest(graph, pattern.size, index=pattern_index(graph, pattern))
            result.method = "IncApp(pattern)"
            return result
        core_numbers = fast_pattern_core_decomposition(graph, pattern)
        kmax = max(core_numbers.values(), default=0)
        if kmax == 0:
            return DensestSubgraphResult(set(graph.vertices()), 0.0, "IncApp(pattern)")
        core = {v for v, c in core_numbers.items() if c >= kmax}
        mu = fast_pattern_mu(graph.subgraph(core), pattern)
    return DensestSubgraphResult(
        vertices=core,
        density=mu / len(core),
        method="IncApp(pattern)",
        stats={"kmax": kmax, "fast_path": True},
    )


def pattern_core_app_densest(graph: Graph, pattern: Pattern) -> DensestSubgraphResult:
    """CoreApp for patterns: top-down (kmax, Ψ)-core discovery.

    The clique-degree bound γ = C(core(v), h-1) is clique-specific, so
    the pattern variant orders vertices by their *exact* pattern-degree
    in G (a sound upper bound on the pattern-core number, property 3 of
    Section 5.1), then doubles prefixes exactly like Algorithm 6, each
    prefix round a budget checkpoint.
    """
    with obs.span("pds.core_app", pattern=pattern.name, n=graph.num_vertices):
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("pds.core_app")
        if _has_fast_core_path(pattern):
            result = _fast_pattern_core_app(graph, pattern)
        else:
            result = core_app_densest(graph, pattern.size, index=pattern_index(graph, pattern))
    result.method = "CoreApp(pattern)"
    return result


def _fast_pattern_core_app(graph: Graph, pattern: Pattern) -> DensestSubgraphResult:
    """CoreApp for starred patterns via the Appendix-D fast peels.

    γ(v) is the exact pattern-degree from the closed-form counters (a
    sound upper bound on the pattern-core number); prefixes double as
    in Algorithm 6, each decomposed with the instance-free peel.
    """
    n = graph.num_vertices
    gamma = fast_pattern_degrees(graph, pattern)
    if max(gamma.values(), default=0) == 0:
        return DensestSubgraphResult(set(graph.vertices()), 0.0, "CoreApp(pattern)")
    ordered = sorted(graph.vertices(), key=lambda v: -gamma[v])

    kmax = 0
    best_core: set[Vertex] = set()
    size = min(64, n)
    rounds = 0
    budget = guard.ACTIVE
    while True:
        if budget is not None:
            budget.tick_round("core_app.round")
        rounds += 1
        sub = graph.subgraph(ordered[:size])
        core_numbers = fast_pattern_core_decomposition(sub, pattern)
        local_kmax = max(core_numbers.values(), default=0)
        if local_kmax > kmax:
            kmax = local_kmax
            best_core = {v for v, c in core_numbers.items() if c >= local_kmax}
        if size >= n or gamma[ordered[size]] < kmax:
            break
        size = min(size * 2, n)

    if not best_core:
        return DensestSubgraphResult(set(graph.vertices()), 0.0, "CoreApp(pattern)")
    eligible = {v for v in graph if gamma[v] >= kmax}
    if len(eligible) > len(best_core):
        core_numbers = fast_pattern_core_decomposition(graph.subgraph(eligible), pattern)
        polished = {v for v, c in core_numbers.items() if c >= kmax}
        if polished:
            best_core = polished
    mu = fast_pattern_mu(graph.subgraph(best_core), pattern)
    return DensestSubgraphResult(
        vertices=set(best_core),
        density=mu / len(best_core),
        method="CoreApp(pattern)",
        stats={"kmax": kmax, "rounds": rounds, "vertices_touched": size, "fast_path": True},
    )
