"""The baseline exact algorithm ``Exact`` (Algorithm 1).

Binary search over the density guess ``α`` combined with a min-cut
computation on a flow network built over the *entire* graph in every
iteration.  This is the state-of-the-art the paper compares against
(Goldberg's construction for Ψ = edge, the Mitzenmacher et al. /
Tsourakakis construction for h-cliques) and the reference
implementation that CoreExact must beat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import guard, obs
from ..cliques.index import CliqueIndex
from ..guard import sanitize
from ..flow import dinic
from ..flow.builders import (
    build_cds_network,
    build_cds_parametric,
    build_eds_network,
    build_eds_parametric,
    vertices_of_cut,
)
from ..graph.graph import Graph, Vertex

#: Valid values for the ``flow_engine`` knob of the exact algorithms:
#: ``"ggt"`` (the default) walks the min-cut breakpoints of one
#: α-parametric network (discrete Newton; no binary search, a handful
#: of warm solves); ``"reuse"`` runs the classical binary search but
#: re-solves one α-parametric network, rewriting only the sink
#: capacities; ``"rebuild"`` reconstructs a fresh network every
#: iteration (the pre-parametric behaviour; both non-GGT engines are
#: kept for the three-way ablation bench).
FLOW_ENGINES = ("ggt", "reuse", "rebuild")


def check_flow_engine(flow_engine: str) -> None:
    """Raise ValueError on an unknown ``flow_engine`` value."""
    if flow_engine not in FLOW_ENGINES:
        raise ValueError(
            f"unknown flow_engine {flow_engine!r}; choose from {list(FLOW_ENGINES)}"
        )


@dataclass
class DensestSubgraphResult:
    """Result of a densest-subgraph computation.

    Attributes
    ----------
    vertices:
        Vertex set of the returned subgraph.
    density:
        Its Ψ-density ``μ / |V|``.
    method:
        Name of the algorithm that produced it.
    iterations:
        Number of binary-search (or peeling) iterations executed.
    stats:
        Free-form instrumentation (flow-network sizes, timings, ...).
    """

    vertices: set[Vertex]
    density: float
    method: str
    iterations: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of vertices in the subgraph."""
        return len(self.vertices)


def _best_subgraph_density(graph: Graph, vertices: set[Vertex], h: int, index=None) -> float:
    if not vertices:
        return 0.0
    if index is not None:
        return index.density_within(vertices)
    if h == 2:
        sub = graph.subgraph(vertices)
        return sub.num_edges / sub.num_vertices if sub.num_vertices else 0.0
    return CliqueIndex(graph.subgraph(vertices), h).m / len(vertices)


def exact_densest(
    graph: Graph,
    h: int = 2,
    *,
    flow_engine: str = "ggt",
    index: Optional[CliqueIndex] = None,
) -> DensestSubgraphResult:
    """Algorithm 1: exact CDS via parametric min cuts on the full graph.

    Parameters
    ----------
    graph:
        Input graph.
    h:
        Clique size of Ψ (h = 2 gives the classical EDS).
    flow_engine:
        ``"ggt"`` (default) replaces the binary search with a
        breakpoint walk on one α-parametric network (a handful of warm
        max-flow solves); ``"reuse"`` solves every binary-search
        iteration on one α-parametric network; ``"rebuild"``
        reconstructs the network per iteration (pre-parametric
        behaviour, for the ablation).  All three return bit-identical
        vertex sets and densities.
    index:
        Optional pre-built, unpeeled :class:`CliqueIndex` of
        ``graph`` for this ``h`` (the API layer builds one per call and
        threads it through).  Built here when omitted (h >= 3).

    Returns
    -------
    DensestSubgraphResult with the optimum h-clique-density subgraph.
    For a graph with no Ψ instance, the whole vertex set at density 0.
    ``stats`` records the enumeration/flow wall-clock split.

    Notes
    -----
    The binary search stops when ``u - l < 1/(n(n-1))``: two distinct
    subgraph densities differ by at least that much (Lemma 12), so the
    last feasible cut is the optimum.
    """
    check_flow_engine(flow_engine)
    n = graph.num_vertices
    if n == 0:
        return DensestSubgraphResult(set(), 0.0, "Exact")
    if h < 2:
        raise ValueError("h must be >= 2")

    with obs.span("exact.enumeration", h=h) as enum_sp:
        if h >= 3 and index is None:
            index = CliqueIndex(graph, h)
        if h == 2:
            degrees = {v: graph.degree(v) for v in graph}
        else:
            degrees = index.initial_degrees()
    enum_seconds = enum_sp.seconds

    upper = max(degrees.values(), default=0)
    if upper == 0:
        return DensestSubgraphResult(
            set(graph.vertices()), 0.0, "Exact", stats={"enumeration_seconds": enum_seconds}
        )

    # The span's duration *is* the legacy ``flow_seconds`` stat (network
    # construction included), so trace and stats reconcile exactly.
    degraded: Optional[guard.BudgetExceeded] = None
    incumbent_source = "none"
    with obs.span("exact.flow", engine=flow_engine, h=h) as flow_sp:
        net = None
        if flow_engine != "rebuild":
            if h == 2:
                net = build_eds_parametric(graph)
            else:
                net = build_cds_parametric(graph, h, index=index)

        if flow_engine == "ggt":
            if h == 2:
                density_of = lambda s: graph.subgraph(s).num_edges / len(s)
            else:
                density_of = index.density_within
            try:
                cut, rho, iterations = net.max_density(density_of, low=0.0)
            except guard.BudgetExceeded as exc:
                # degrade: the walk's best breakpoint incumbent is an
                # exact density of a real subgraph, just maybe not
                # the optimum
                degraded = exc
                cut, rho = exc.incumbent, exc.incumbent_density
                iterations = exc.budget.solves
            network_sizes = [net.num_nodes] * iterations
            if cut:
                best, density = cut, rho  # ρ is the exact count/size ratio
                incumbent_source = "walk"
            else:
                best = set(graph.vertices())
                density = _best_subgraph_density(graph, best, h, index)
        else:
            low, high = 0.0, float(upper)
            best: Optional[set[Vertex]] = None
            iterations = 0
            resolution = 1.0 / (n * (n - 1)) if n > 1 else 0.5
            network_sizes: list[int] = []

            try:
                while high - low >= resolution:
                    iterations += 1
                    alpha = (low + high) / 2.0
                    if net is not None:
                        cut_vertices = net.solve(alpha)
                        network_sizes.append(net.num_nodes)
                    else:
                        if h == 2:
                            network = build_eds_network(graph, alpha)
                        else:
                            network = build_cds_network(graph, h, alpha, index=index)
                        budget = guard.ACTIVE
                        if budget is not None:
                            budget.tick_solve(network.num_arcs)
                        network_sizes.append(network.num_nodes)
                        dinic.max_flow(network)
                        if guard.CHECK:
                            sanitize.check_flow_network(network)
                        cut_vertices = vertices_of_cut(network.min_cut_source_side())
                    if not cut_vertices:
                        high = alpha
                    else:
                        low = alpha
                        best = cut_vertices
                        if net is not None:
                            net.checkpoint()
            except guard.BudgetExceeded as exc:
                # degrade: the last feasible cut is a real subgraph whose
                # density the search had already certified to be >= low
                degraded = exc

            if best is not None:
                incumbent_source = "search"
            else:
                # ρ_opt below the first guess resolution (or the budget
                # died before any feasible cut): densest is the
                # max-degree vertex's best trivial subgraph; fall back to
                # the whole graph.
                best = set(graph.vertices())
            density = _best_subgraph_density(graph, best, h, index)

    result = DensestSubgraphResult(
        vertices=best,
        density=density,
        method="Exact",
        iterations=iterations,
        stats={
            "network_sizes": network_sizes,
            "enumeration_seconds": enum_seconds,
            "flow_seconds": flow_sp.seconds,
        },
    )
    if degraded is not None:
        # sound bound: h·μ(S) = Σ_{v∈S} deg_Ψ,S(v) <= |S|·dmax, so the
        # optimum density is at most dmax/h
        result.stats.update(
            guard.degraded_stats(
                degraded,
                incumbent_source=incumbent_source,
                lower=density,
                upper=upper / float(h),
            )
        )
    if guard.CHECK:
        sanitize.check_result_density(graph, result.vertices, h, result.density, "exact_densest")
    return result
