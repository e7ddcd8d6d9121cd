"""Top-level convenience API.

One entry point, :func:`densest_subgraph`, dispatches across the
paper's algorithm matrix:

=============  ===========================  ================================
``method``     Ψ an h-clique                Ψ a general pattern
=============  ===========================  ================================
``"exact"``    Algorithm 1 (Exact)          Algorithm 8 (PExact)
``"core-exact"``  Algorithm 4 (CoreExact)   CorePExact (construct+)
``"peel"``     Algorithm 2 (PeelApp)        pattern PeelApp
``"inc-app"``  Algorithm 5 (IncApp)         pattern IncApp
``"core-app"`` Algorithm 6 (CoreApp)        pattern CoreApp
``"auto"``     CoreExact if small, else CoreApp
=============  ===========================  ================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from . import guard, obs
from .cliques.index import CliqueIndex
from .core.core_app import core_app_densest
from .core.core_exact import core_exact_densest
from .core.exact import DensestSubgraphResult, exact_densest
from .core.inc_app import inc_app_densest
from .core.pds import (
    core_p_exact_densest,
    p_exact_densest,
    pattern_core_app_densest,
    pattern_inc_app_densest,
    pattern_peel_densest,
)
from .core.peel import peel_densest
from .graph.graph import Graph
from .graph.validate import validate_graph
from .guard import sanitize
from .patterns.pattern import Pattern, get_pattern

if TYPE_CHECKING:  # import-light: the serve package imports api lazily
    from .serve.snapshot import Snapshot

PatternLike = Union[int, str, Pattern]

#: Above this vertex count, ``method="auto"`` switches from the exact
#: CoreExact to the CoreApp approximation (the paper's Section-8 advice:
#: exact for small-to-moderate graphs, CoreApp beyond).
AUTO_EXACT_LIMIT = 5_000


def resolve_pattern(psi: PatternLike) -> Pattern:
    """Normalise an ``int`` (h-clique), catalogue name, or Pattern."""
    if isinstance(psi, Pattern):
        return psi
    if isinstance(psi, int):
        from .patterns.pattern import clique_pattern

        return clique_pattern(psi)
    return get_pattern(psi)


def _peel_fallback(
    graph: Graph,
    pattern: Pattern,
    degraded_info: dict,
    incumbent: Optional[set],
    incumbent_density: float,
) -> DensestSubgraphResult:
    """Budget-expired last resort: the peel 1/|V_Ψ|-approximation.

    Runs with the (expired) budget masked -- peeling is the cheap,
    bounded-quality escape hatch, so it must not immediately re-raise.
    Returns the denser of the peel result and the incumbent the
    interrupted solver attached, annotated with the verifiable bound
    ``ρ_opt <= |V_Ψ| * ρ_peel`` (Lemma 8 / Lemma 10).
    """
    size = pattern.size
    with guard.suspended():
        if pattern.is_clique():
            result = peel_densest(graph, size)
        else:
            result = pattern_peel_densest(graph, pattern)
    peel_density = result.density
    if incumbent and incumbent_density > result.density:
        result = DensestSubgraphResult(
            vertices=set(incumbent),
            density=incumbent_density,
            method=result.method,
            iterations=result.iterations,
            stats=dict(result.stats),
        )
    result.stats.update(degraded_info)
    result.stats.update(
        {
            "degraded": True,
            "degraded_incumbent": "peel-fallback",
            "fallback": "peel",
            "approx_ratio": 1.0 / size,
            "density_lower_bound": result.density,
            "density_upper_bound": size * peel_density,
        }
    )
    return result


def densest_subgraph(
    graph: Graph,
    psi: PatternLike = 2,
    method: str = "auto",
    *,
    strict: bool = True,
    snapshot: Optional["Snapshot"] = None,
) -> DensestSubgraphResult:
    """Find the Ψ-densest subgraph of ``graph``.

    Parameters
    ----------
    graph:
        The input graph.
    psi:
        The motif: an int ``h`` for the h-clique, a Figure-7 pattern
        name (e.g. ``"diamond"``), or a :class:`Pattern`.
    method:
        One of ``auto``, ``exact``, ``core-exact``, ``peel``,
        ``inc-app``, ``core-app``.  The exact methods walk the min-cut
        breakpoints of one α-parametric network with warm-started Dinic
        solves (no binary search over α).
    strict:
        Validate the input up front (the default): a non-``Graph``
        raises ``TypeError``; an empty graph or a ``NaN`` vertex id
        raises ``ValueError`` with a pointer at the fix.
        ``strict=False`` skips the gate and keeps the historical
        behaviour (an empty graph returns an empty result).
    snapshot:
        A precomputed :class:`repro.serve.Snapshot` of ``(graph, h)``:
        the call becomes a pure lookup over the stored breakpoint
        family -- zero enumeration, zero flow solves -- returning the
        bit-identical exact answer.  Valid only for h-clique motifs
        with the exact methods (``auto`` / ``exact`` / ``core-exact``);
        ``strict`` additionally verifies the snapshot's content-hash
        key against ``graph`` (an O(n + m) hash, still no solver work).

    Notes
    -----
    Under an active :class:`repro.guard.Budget`, a solver that cannot
    finish degrades instead of failing: the result carries
    ``stats["degraded"]`` with a verifiable density bound, and when the
    interrupted solver had no incumbent at all the call falls back to
    the peel ``1/|V_Ψ|``-approximation (``stats["fallback"] ==
    "peel"``).

    For h-clique motifs with h >= 3 the clique instances are indexed
    exactly once per call (:class:`~repro.cliques.index.CliqueIndex`)
    and threaded through the solver, so e.g. CoreExact's locate-core
    and flow phases never re-enumerate.

    Examples
    --------
    >>> from repro.graph.graph import complete_graph
    >>> densest_subgraph(complete_graph(5), 3, method="core-exact").density
    2.0
    """
    if strict:
        validate_graph(graph)
    pattern = resolve_pattern(psi)
    if snapshot is not None:
        if not pattern.is_clique():
            raise ValueError(
                "snapshot= serves h-clique motifs only; pattern queries "
                "take the regular solver path"
            )
        if snapshot.h != pattern.size:
            raise ValueError(
                f"snapshot was precomputed for h={snapshot.h}, "
                f"query asks for h={pattern.size}"
            )
        if method not in ("auto", "exact", "core-exact"):
            raise ValueError(
                f"snapshot= answers the exact methods (auto/exact/core-exact); "
                f"got method={method!r}"
            )
        if strict and not snapshot.matches(graph):
            raise ValueError(
                "snapshot key does not match this graph (content hash "
                "differs -- different vertices, edges, or flow-layer EPS); "
                "rebuild the snapshot or pass strict=False"
            )
        with obs.span(
            "api.densest_subgraph",
            method="snapshot",
            psi=pattern.size,
            n=graph.num_vertices,
        ):
            result = snapshot.densest_subgraph()
        if guard.CHECK:
            sanitize.check_result_density(
                graph, result.vertices, pattern, result.density, "densest_subgraph"
            )
        return result
    if method == "auto":
        method = "core-exact" if graph.num_vertices <= AUTO_EXACT_LIMIT else "core-app"

    if pattern.is_clique():
        h = pattern.size

        def clique_index() -> CliqueIndex | None:
            # built once per call, after method validation; every
            # index-aware solver below receives the same artifact
            return CliqueIndex(graph, h) if h >= 3 else None

        dispatch = {
            "exact": lambda: exact_densest(graph, h, index=clique_index()),
            "core-exact": lambda: core_exact_densest(graph, h, index=clique_index()),
            "peel": lambda: peel_densest(graph, h, index=clique_index()),
            "inc-app": lambda: inc_app_densest(graph, h, index=clique_index()),
            "core-app": lambda: core_app_densest(graph, h),
        }
    else:
        dispatch = {
            "exact": lambda: p_exact_densest(graph, pattern),
            "core-exact": lambda: core_p_exact_densest(graph, pattern),
            "peel": lambda: pattern_peel_densest(graph, pattern),
            "inc-app": lambda: pattern_inc_app_densest(graph, pattern),
            "core-app": lambda: pattern_core_app_densest(graph, pattern),
        }
    try:
        run = dispatch[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted(dispatch) + ['auto']}"
        ) from None
    with obs.span(
        "api.densest_subgraph",
        method=method,
        psi=pattern.name if not pattern.is_clique() else pattern.size,
        n=graph.num_vertices,
    ):
        try:
            result = run()
        except guard.BudgetExceeded as exc:
            # a solver without its own degradation path (the pattern
            # algorithms, or a raw parametric walk) let the budget
            # propagate: answer with the peel approximation instead
            result = _peel_fallback(
                graph,
                pattern,
                guard.degraded_stats(
                    exc, incumbent_source="none", lower=0.0, upper=float("inf")
                ),
                exc.incumbent,
                exc.incumbent_density,
            )
        else:
            if (
                result.stats.get("degraded")
                and result.stats.get("degraded_incumbent") == "none"
            ):
                # the solver degraded but never saw a feasible cut: its
                # whole-graph placeholder has no quality story, the peel
                # approximation does
                degraded_info = {
                    k: result.stats[k]
                    for k in ("degraded_at", "degraded_reason", "budget")
                    if k in result.stats
                }
                result = _peel_fallback(graph, pattern, degraded_info, None, 0.0)
    if guard.CHECK:
        sanitize.check_result_density(
            graph, result.vertices, pattern, result.density, "densest_subgraph"
        )
    return result
