"""The baseline exact algorithm ``Exact`` (Algorithm 1).

Min cuts of one flow network built over the *entire* graph (Goldberg's
construction for Ψ = edge, the Mitzenmacher et al. / Tsourakakis
construction for h-cliques).  This is the state of the art the paper
compares against and the reference implementation that CoreExact must
beat.  Where the paper bisects the density guess ``α`` with one min cut
per guess, the network here is α-parametric and the search is a
breakpoint walk (:meth:`~repro.flow.parametric.ParametricNetwork.max_density`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import guard, obs
from ..cliques.index import CliqueIndex
from ..guard import sanitize
from ..flow.builders import build_cds_parametric, build_eds_parametric, build_pds_parametric
from ..graph.graph import Graph, Vertex


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
        Number of max-flow solves (exact methods) or peeling iterations
        executed.
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
    index: Optional[CliqueIndex] = None,
) -> DensestSubgraphResult:
    """Algorithm 1: exact CDS via parametric min cuts on the full graph.

    Parameters
    ----------
    graph:
        Input graph.
    h:
        Clique size of Ψ (h = 2 gives the classical EDS).
    index:
        Optional pre-built, unpeeled :class:`CliqueIndex` of
        ``graph`` for this ``h`` (the API layer builds one per call and
        threads it through).  Built here when omitted (h >= 3).  A
        pattern-instance index makes this PExact (Algorithm 8): the
        flow networks get one node per instance row.

    Returns
    -------
    DensestSubgraphResult with the optimum h-clique-density subgraph.
    For a graph with no Ψ instance, the whole vertex set at density 0.
    ``stats`` records the enumeration/flow wall-clock split.

    Notes
    -----
    The paper's Algorithm 1 bisects ``α`` until ``u - l < 1/(n(n-1))``,
    the least gap between two distinct subgraph densities (Lemma 12).
    The walk needs no resolution: it starts at α = 0, and each solve
    either returns the empty cut, which certifies α optimal, or a cut
    whose exact density is the next α.  Its last non-empty cut is the
    maximal densest subgraph (the union of all densest subsets).
    ``iterations`` counts its max-flow solves.
    """
    n = graph.num_vertices
    if n == 0:
        return DensestSubgraphResult(set(), 0.0, "Exact")
    if h < 2:
        raise ValueError("h must be >= 2")

    if h >= 3 and index is None:
        index = CliqueIndex(graph, h)
    # a passed-in index counts too: its build is this call's enumeration
    enum_seconds = index.build_seconds if index is not None else 0.0
    if h == 2:
        degrees = {v: graph.degree(v) for v in graph}
    else:
        degrees = index.initial_degrees()

    upper = max(degrees.values(), default=0)
    if upper == 0:
        return DensestSubgraphResult(
            set(graph.vertices()), 0.0, "Exact", stats={"enumeration_seconds": enum_seconds}
        )

    # The span's duration *is* the legacy ``flow_seconds`` stat (network
    # construction included), so trace and stats reconcile exactly.
    degraded: Optional[guard.BudgetExceeded] = None
    incumbent_source = "none"
    with obs.span("exact.flow", h=h) as flow_sp:
        if h == 2:
            net = build_eds_parametric(graph)
            density_of = lambda s: graph.subgraph(s).num_edges / len(s)
        else:
            if index.pattern is not None:
                net = build_pds_parametric(index)
            else:
                net = build_cds_parametric(graph, h, index=index)
            density_of = index.density_within
        try:
            cut, rho, iterations = net.max_density(density_of, low=0.0)
        except guard.BudgetExceeded as exc:
            # degrade: the walk's best breakpoint incumbent is an exact
            # density of a real subgraph, just maybe not the optimum
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
        motif = h if index is None else index.motif
        sanitize.check_result_density(
            graph, result.vertices, motif, result.density, "exact_densest"
        )
    return result
