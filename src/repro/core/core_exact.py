"""``CoreExact`` (Algorithm 4): core-located exact densest subgraph.

The paper's headline exact algorithm.  It improves Algorithm 1 with
three core-based optimisations (Section 6.1):

1. **Tighter bounds on α** -- Theorem 1 gives ``kmax/|V_Ψ| ≤ ρ_opt ≤
   kmax``, so the search starts at a lower bound of ``kmax/|V_Ψ|``.
2. **Locating the CDS in a core** -- Lemma 7 places the CDS inside the
   (⌈ρ⌉, Ψ)-core for any valid lower bound ρ, so flow networks are
   built on small cores (and on single connected components) instead of
   the whole graph.  Pruning1 uses the best residual density ρ' seen
   during core decomposition; Pruning2 sharpens it with per-component
   densities ρ''.
3. **Shrinking flow networks** -- every time the search raises the
   lower bound past the next integer, the component is intersected
   with a higher core and the network rebuilt smaller.

The paper searches each component by bisecting α; here the search is
a breakpoint walk on the component's α-parametric network
(:func:`_ggt_newton_walk`), which needs no stopping resolution.  That
is why the paper's Pruning3, which only relaxes the bisection's
stopping resolution to the component size, has no counterpart.
Pruning1 and Pruning2 are independently switchable so the Figure-10
ablation can measure their contribution.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from .. import guard, obs
from ..cliques.index import CliqueIndex
from ..guard import sanitize
from ..flow.builders import build_cds_parametric, build_eds_parametric, build_pds_parametric
from ..graph.graph import Graph, Vertex
from .clique_core import CliqueCoreResult, clique_core_decomposition
from .exact import DensestSubgraphResult, _best_subgraph_density


class _ComponentState:
    """A component subgraph plus the slice of the clique index it owns.

    The clique material is a :meth:`~repro.cliques.index.CliqueIndex.subindex`
    of the call-level index -- row selection, never re-enumeration --
    rebuilt whenever CoreExact shrinks the component to a higher core.
    The α-parametric flow network is likewise built once per shrink
    (straight from the instance rows) and re-solved.  A pattern-instance
    index gets the ``construct+`` network (Algorithm 7) instead of
    Algorithm 1's.
    """

    def __init__(self, graph: Graph, h: int, index: CliqueIndex | None = None):
        self.graph = graph
        self.h = h
        self._net = None
        self.network_nodes = 0  # node count of the last-solved network
        if h >= 3:
            self.index = index if index is not None else CliqueIndex(graph, h)
        else:
            self.index = None

    def shrink(self, keep: set[Vertex]) -> "_ComponentState":
        """A new state on the induced subgraph ``G[keep]`` (index sliced)."""
        sub = self.graph.subgraph(keep)
        sub_index = self.index.subindex(sub) if self.index is not None else None
        return _ComponentState(sub, self.h, index=sub_index)

    def solve(self, alpha: float) -> set[Vertex]:
        """Source-side cut vertex set of the min cut at guess ``alpha``."""
        net = self._parametric()
        self.network_nodes = net.num_nodes
        return net.solve(alpha)

    def _parametric(self):
        if self._net is None:
            if self.h == 2:
                self._net = build_eds_parametric(self.graph)
            elif self.index.pattern is not None:
                self._net = build_pds_parametric(self.index, grouped=True)
            else:
                self._net = build_cds_parametric(self.graph, self.h, index=self.index)
        return self._net

    def density_of(self, vertices: set[Vertex]) -> float:
        """Exact Ψ-density of a subset of this component's vertices."""
        if self.h == 2:
            return self.graph.subgraph(vertices).num_edges / len(vertices)
        return self.index.density_within(vertices)

    def density(self) -> float:
        if self.graph.num_vertices == 0:
            return 0.0
        if self.h == 2:
            return self.graph.num_edges / self.graph.num_vertices
        return self.index.m / self.graph.num_vertices

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices


def _core_shrink(state: _ComponentState, level: float, core_of: dict) -> _ComponentState:
    """Intersect the component with the (⌈level⌉, Ψ)-core (Lemma 7)."""
    need = math.ceil(level)
    keep = {v for v in state.graph if core_of.get(v, 0) >= need}
    if len(keep) < state.num_vertices:
        state = state.shrink(keep)
    return state


def _ggt_newton_walk(state: _ComponentState, low: float, core_of: dict):
    """Discrete-Newton breakpoint walk with mid-search core shrinks.

    The per-component half of :meth:`ParametricNetwork.max_density`,
    lifted here so that every time the walk raises α past the next
    integer, the component is re-intersected with the (⌈α⌉, Ψ)-core
    (the shrink of Algorithm 4, line 16) and the remaining hops run on
    a smaller network.  Sound for the same reason
    (Lemma 7): each iterate α is the exact density of a real subgraph,
    hence a valid lower bound, and any denser subgraph has all its
    clique-core numbers >= ⌈α⌉.  Returns ``(cut, ρ, solves, sizes)``.
    """
    best: Optional[set[Vertex]] = None
    best_rho = low
    alpha = low
    solves = 0
    sizes: list[int] = []
    while True:
        try:
            cut = state.solve(alpha)
        except guard.BudgetExceeded as exc:
            # the walk's incumbent is this component's best cut so far
            # -- the densest pruned-core answer available
            exc.attach_incumbent(best, best_rho)
            raise
        solves += 1
        sizes.append(state.network_nodes)
        if not cut:
            break
        rho = state.density_of(cut)
        if best is None or rho > best_rho:
            best, best_rho = cut, rho
        if rho <= alpha:
            break  # float-exact optimum: the cut re-certifies itself
        if math.ceil(rho) > math.ceil(alpha):
            state = _core_shrink(state, rho, core_of)
            if state.num_vertices == 0:
                break
        alpha = rho
    return best, best_rho, solves, sizes


def solve_component_state(
    state: _ComponentState, *, low: float, k_locate: int, core_of: dict
) -> dict:
    """One component of the CoreExact search, started at lower bound ``low``.

    The body of the component loop in :func:`core_exact_densest`.
    ``core_of`` maps vertex label to clique-core number (the mid-search
    shrinks read it).  The Newton walk starts at ``low`` -- solving
    there is the feasibility probe of Algorithm 4, lines 7-9 -- and
    ends at the component's exact optimal density, which raises the
    lower bound for later components.

    Returns ``{"cut", "rho", "solves", "network_sizes", "final_low"}``:
    ``cut`` is None when the search at ``low`` is infeasible, ``rho``
    the cut's exact density, and ``final_low`` the lower bound the
    loop carries to the next component.  On budget expiry a
    :class:`~repro.guard.BudgetExceeded` escapes with the component
    incumbent attached.
    """
    # line 6: if the global lower bound outgrew this core level,
    # intersect the component with the (⌈l⌉, Ψ)-core.
    if low > k_locate:
        state = _core_shrink(state, low, core_of)
    if state.num_vertices == 0:
        return {"cut": None, "rho": 0.0, "solves": 0, "network_sizes": [],
                "final_low": low}
    cut, rho, solves, sizes = _ggt_newton_walk(state, low, core_of)
    if cut is None:
        return {"cut": None, "rho": 0.0, "solves": solves,
                "network_sizes": sizes, "final_low": low}
    return {"cut": cut, "rho": rho, "solves": solves,
            "network_sizes": sizes, "final_low": rho if rho > low else low}


def core_exact_densest(
    graph: Graph,
    h: int = 2,
    *,
    pruning1: bool = True,
    pruning2: bool = True,
    decomposition: Optional[CliqueCoreResult] = None,
    index: Optional[CliqueIndex] = None,
) -> DensestSubgraphResult:
    """CoreExact: exact CDS with core-based pruning.

    Parameters
    ----------
    graph, h:
        Input graph and clique size of Ψ (h = 2 for classical EDS).
    pruning1 / pruning2:
        Toggles for the Section-6.1 pruning criteria (both on by
        default; the Figure-10 ablation turns them off selectively).
    decomposition:
        Optionally a precomputed Algorithm-3 result, to amortise the
        decomposition across calls.
    index:
        Optional pre-built, unpeeled :class:`CliqueIndex` of ``graph``
        (the API layer builds one per call).  Built here when omitted
        (h >= 3); it feeds the decomposition, every component state
        (via row-selecting subindexes) and the flow builders, so the
        clique instances of a call are enumerated exactly once.  A
        pattern-instance index makes this CorePExact: pattern-cores
        locate the answer and ``construct+`` networks find it.

    Returns
    -------
    DensestSubgraphResult whose ``stats`` carry the instrumentation the
    evaluation figures need: per-iteration flow-network sizes
    (Figure 9), decomposition vs total time (Table 3), and the
    enumeration/flow wall-clock split.  Each component is searched by
    a breakpoint walk on one α-parametric network (a handful of warm
    solves, re-intersecting the component with the ⌈α⌉-core between
    Newton hops so networks shrink mid-search); ``iterations`` counts
    the max-flow solves of all components.
    """
    n = graph.num_vertices
    start = time.perf_counter()
    if n == 0:
        return DensestSubgraphResult(set(), 0.0, "CoreExact")
    if h < 2:
        raise ValueError("h must be >= 2")

    # a passed-in index was built before ``start``: its build time is
    # charged here all the same, so the stats read alike on every path
    prebuilt = index.build_seconds if index is not None else 0.0
    if h >= 3 and index is None:
        index = CliqueIndex(graph, h)
    enum_seconds = index.build_seconds if index is not None else 0.0

    with obs.span("core_exact.decomposition", h=h) as decomp_sp:
        if decomposition is None:
            decomposition = clique_core_decomposition(graph, h, index=index)
    # Algorithm-3 cost as the paper accounts it (Table 3): instance
    # enumeration + peel.  ``enumeration_seconds`` is the subset spent
    # building the index, so ``decomposition_seconds -
    # enumeration_seconds`` is the pure peel share.
    decomp_seconds = enum_seconds + decomp_sp.seconds

    kmax = decomposition.kmax
    if kmax == 0:
        return DensestSubgraphResult(
            set(graph.vertices()),
            0.0,
            "CoreExact",
            stats={
                "decomposition_seconds": decomp_seconds,
                "enumeration_seconds": enum_seconds,
            },
        )

    # --- bounds and location core (optimisations 1 + Pruning1/2) ------
    low = kmax / float(h)
    k_locate = math.ceil(low)
    best_vertices = decomposition.best_residual_vertices
    if pruning1:
        if decomposition.best_residual_density > low:
            low = decomposition.best_residual_density
        k_locate = max(k_locate, math.ceil(low))

    def component_states(located_graph: Graph) -> list[_ComponentState]:
        """One state per connected component, clique rows sliced from
        the call-level index (no per-component re-enumeration)."""
        states = []
        for cc in located_graph.connected_components():
            sub = located_graph.subgraph(cc)
            sub_index = index.subindex(sub) if index is not None else None
            states.append(_ComponentState(sub, h, index=sub_index))
        return states

    core_vertices = {v for v, c in decomposition.core.items() if c >= k_locate}
    located = graph.subgraph(core_vertices)
    # Component states slice the clique index *and* cache the
    # α-parametric network; building them up front lets Pruning2 read
    # per-component densities straight off the row counts.
    comp_states = component_states(located)

    if pruning2:
        rho2 = 0.0
        for comp_state in comp_states:
            density = comp_state.density()
            if density > rho2:
                rho2 = density
                if density > low:
                    best_vertices = set(comp_state.graph.vertices())
        if rho2 > low:
            low = rho2
        if math.ceil(rho2) > k_locate:
            k_locate = math.ceil(rho2)
            core_vertices = {v for v, c in decomposition.core.items() if c >= k_locate}
            located = graph.subgraph(core_vertices)
            comp_states = component_states(located)

    iterations = 0
    network_sizes: list[int] = []
    candidate: Optional[set[Vertex]] = None
    degraded: Optional[guard.BudgetExceeded] = None
    # The span's duration *is* the legacy ``flow_seconds`` stat, so
    # trace and stats reconcile exactly.
    with obs.span("core_exact.flow", h=h) as flow_sp:
        # Densities already known from the decomposition and the component
        # states seed the cache, so the finalists below rarely trigger a
        # fresh row count.
        density_cache: dict[frozenset, float] = {
            frozenset(decomposition.best_residual_vertices): decomposition.best_residual_density
        }
        for comp_state in comp_states:
            density_cache[frozenset(comp_state.graph.vertices())] = comp_state.density()

        def cached_density(vertices: set[Vertex]) -> float:
            key = frozenset(vertices)
            found = density_cache.get(key)
            if found is None:
                found = density_cache[key] = _best_subgraph_density(graph, vertices, h, index)
            return found

        def merge_component(cut: Optional[set[Vertex]], rho: float) -> None:
            """Fold one component's answer into the running candidate."""
            nonlocal candidate
            if not cut:
                return
            density_cache.setdefault(frozenset(cut), rho)
            if candidate is None or cached_density(cut) > cached_density(candidate):
                candidate = cut

        ordered = sorted(comp_states, key=lambda s: -s.num_vertices)
        try:
            for comp_state in ordered:
                out = solve_component_state(
                    comp_state, low=low, k_locate=k_locate, core_of=decomposition.core
                )
                iterations += out["solves"]
                network_sizes.extend(out["network_sizes"])
                if out["final_low"] > low:
                    low = out["final_low"]
                merge_component(out["cut"], out["rho"])
        except guard.BudgetExceeded as exc:
            # degrade: keep the densest incumbent seen anywhere -- the
            # pruned-core seeds (best_vertices) are always available, and
            # the raise site may have attached a better mid-search cut
            degraded = exc
            if exc.incumbent is not None:
                density_cache.setdefault(frozenset(exc.incumbent), exc.incumbent_density)
                candidate_from_exc = set(exc.incumbent)
                if (candidate is None
                        or cached_density(candidate_from_exc) > cached_density(candidate)):
                    candidate = candidate_from_exc

        # --- pick the best of: the walks' result, Pruning1/2 seeds -------
        finalists = [best_vertices]
        if candidate:
            finalists.append(candidate)
        best = max(finalists, key=cached_density)
        density = cached_density(best)
    total_seconds = time.perf_counter() - start + prebuilt
    result = DensestSubgraphResult(
        vertices=set(best),
        density=density,
        method="CoreExact",
        iterations=iterations,
        stats={
            "network_sizes": network_sizes,
            "decomposition_seconds": decomp_seconds,
            "enumeration_seconds": enum_seconds,
            "flow_seconds": flow_sp.seconds,
            "total_seconds": total_seconds,
            "kmax": kmax,
            "k_locate": k_locate,
            "located_vertices": located.num_vertices,
        },
    )
    if degraded is not None:
        # Theorem 1: ρ_opt <= kmax, so kmax bounds how far the pruned-core
        # incumbent can be from the optimum
        result.stats.update(
            guard.degraded_stats(
                degraded,
                incumbent_source="core",
                lower=density,
                upper=float(kmax),
            )
        )
    if guard.CHECK:
        motif = h if index is None else index.motif
        sanitize.check_result_density(
            graph, result.vertices, motif, result.density, "core_exact_densest"
        )
    return result
