"""``CoreExact`` (Algorithm 4): core-located exact densest subgraph.

The paper's headline exact algorithm.  It improves Algorithm 1 with
three core-based optimisations (Section 6.1):

1. **Tighter bounds on α** -- Theorem 1 gives ``kmax/|V_Ψ| ≤ ρ_opt ≤
   kmax``, collapsing the binary-search window.
2. **Locating the CDS in a core** -- Lemma 7 places the CDS inside the
   (⌈ρ⌉, Ψ)-core for any valid lower bound ρ, so flow networks are
   built on small cores (and on single connected components) instead of
   the whole graph.  Pruning1 uses the best residual density ρ' seen
   during core decomposition; Pruning2 sharpens it with per-component
   densities ρ''; Pruning3 relaxes the stopping criterion to the
   component size.
3. **Shrinking flow networks** -- every time the binary search raises
   the lower bound past the next integer, the component is intersected
   with a higher core and the network rebuilt smaller.

Each pruning is independently switchable so the Figure-10 ablation can
measure its contribution.
"""

from __future__ import annotations

import math
import time
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
    build_pds_network_grouped,
    build_pds_parametric,
    vertices_of_cut,
)
from ..graph.graph import Graph, Vertex
from .clique_core import CliqueCoreResult, clique_core_decomposition
from .exact import DensestSubgraphResult, check_flow_engine


class _ComponentState:
    """A component subgraph plus the slice of the clique index it owns.

    The clique material is a :meth:`~repro.cliques.index.CliqueIndex.subindex`
    of the call-level index -- row selection, never re-enumeration --
    rebuilt whenever CoreExact shrinks the component to a higher core.
    With the parametric engines the α-parametric flow network is
    likewise built once per shrink (straight from the instance rows)
    and re-solved; ``"rebuild"`` reconstructs it per iteration.  A
    pattern-instance index gets the ``construct+`` network (Algorithm
    7) instead of Algorithm 1's.
    """

    def __init__(
        self,
        graph: Graph,
        h: int,
        flow_engine: str = "ggt",
        index: CliqueIndex | None = None,
    ):
        self.graph = graph
        self.h = h
        self.flow_engine = flow_engine
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
        return _ComponentState(sub, self.h, self.flow_engine, index=sub_index)

    def build_network(self, alpha: float):
        if self.h == 2:
            return build_eds_network(self.graph, alpha)
        if self.index.pattern is not None:
            return build_pds_network_grouped(self.index, alpha)
        return build_cds_network(self.graph, self.h, alpha, index=self.index)

    def solve(self, alpha: float) -> set[Vertex]:
        """Source-side cut vertex set of the min cut at guess ``alpha``."""
        if self.flow_engine == "rebuild":
            network = self.build_network(alpha)
            budget = guard.ACTIVE
            if budget is not None:
                budget.tick_solve(network.num_arcs)
            self.network_nodes = network.num_nodes
            dinic.max_flow(network)
            if guard.CHECK:
                sanitize.check_flow_network(network)
            return vertices_of_cut(network.min_cut_source_side())
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

    def checkpoint(self) -> None:
        """Record the current flow as the warm-start base (new lower bound)."""
        if self._net is not None:
            self._net.checkpoint()

    def density(self) -> float:
        if self.graph.num_vertices == 0:
            return 0.0
        if self.h == 2:
            return self.graph.num_edges / self.graph.num_vertices
        return self.index.m / self.graph.num_vertices

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices


def _subgraph_density(graph: Graph, vertices: set[Vertex], h: int, index=None) -> float:
    if not vertices:
        return 0.0
    if index is not None:
        return index.density_within(vertices)
    sub = graph.subgraph(vertices)
    if sub.num_vertices == 0:
        return 0.0
    if h == 2:
        return sub.num_edges / sub.num_vertices
    return CliqueIndex(sub, h).m / sub.num_vertices


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
    (exactly the shrink the binary search performs on line 16) and the
    remaining hops run on a smaller network.  Sound for the same reason
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
    state: _ComponentState,
    *,
    low: float,
    kmax: int,
    k_locate: int,
    core_of: dict,
    pruning3: bool,
    n: int,
) -> dict:
    """One component of the CoreExact search, started at lower bound ``low``.

    The body of the component loop in :func:`core_exact_densest`.
    ``core_of`` maps vertex label to clique-core number (the mid-search
    shrinks read it); ``n`` is the whole graph's vertex count (the
    pruning3-off binary resolution).

    Returns ``{"cut", "rho", "solves", "network_sizes", "final_low"}``:
    ``cut`` is None when the search at ``low`` is infeasible, ``rho``
    the cut's exact density, and ``final_low`` the lower bound the
    loop carries to the next component.  On budget expiry a
    :class:`~repro.guard.BudgetExceeded` escapes with the component
    incumbent attached.
    """
    # cuts found after shrinks are still subsets of this state's graph,
    # so it can price any of them (bit-identical to the call-level index:
    # both count exactly the instances inside the cut)
    origin = state
    sizes: list[int] = []
    # The upper bound must be per-component: infeasibility inside one
    # component says nothing about another, while kmax bounds every
    # subgraph's density (Lemma 5).  (The paper's pseudocode shares u
    # across components; resetting it is the sound reading.)
    high = float(kmax)
    # line 6: if the global lower bound outgrew this core level,
    # intersect the component with the (⌈l⌉, Ψ)-core.
    if low > k_locate:
        state = _core_shrink(state, low, core_of)
    if state.num_vertices == 0:
        return {"cut": None, "rho": 0.0, "solves": 0, "network_sizes": sizes,
                "final_low": low}

    if state.flow_engine == "ggt":
        # One parametric sweep replaces probe + binary search: the
        # Newton walk starts at the lower bound l (solving at l IS the
        # feasibility probe) and ends at the component's exact optimal
        # density, raising l for later components.
        cut, rho, solves, sizes = _ggt_newton_walk(state, low, core_of)
        if cut is None:
            return {"cut": None, "rho": 0.0, "solves": solves,
                    "network_sizes": sizes, "final_low": low}
        return {"cut": cut, "rho": rho, "solves": solves,
                "network_sizes": sizes, "final_low": rho if rho > low else low}

    # lines 7-9: feasibility probe at α = l.
    probe = state.solve(low)
    sizes.append(state.network_nodes)
    solves = 1
    if not probe:
        return {"cut": None, "rho": 0.0, "solves": solves,
                "network_sizes": sizes, "final_low": low}
    candidate_local = probe
    state.checkpoint()  # all later guesses exceed l: warm-start base

    # lines 10-19: binary search within the component.
    try:
        while True:
            nc = state.num_vertices
            resolution = (
                1.0 / (nc * (nc - 1))
                if pruning3 and nc > 1
                else (1.0 / (n * (n - 1)) if n > 1 else 0.5)
            )
            if high - low < resolution:
                break
            alpha = (low + high) / 2.0
            cut_vertices = state.solve(alpha)
            sizes.append(state.network_nodes)
            solves += 1
            if not cut_vertices:
                high = alpha
            else:
                if alpha > math.ceil(low):
                    state = _core_shrink(state, alpha, core_of)
                low = alpha
                candidate_local = cut_vertices
                state.checkpoint()
    except guard.BudgetExceeded as exc:
        # the search's last feasible cut is this component's incumbent
        exc.attach_incumbent(candidate_local, origin.density_of(candidate_local))
        raise

    return {"cut": candidate_local, "rho": origin.density_of(candidate_local),
            "solves": solves, "network_sizes": sizes, "final_low": low}


def core_exact_densest(
    graph: Graph,
    h: int = 2,
    *,
    pruning1: bool = True,
    pruning2: bool = True,
    pruning3: bool = True,
    decomposition: Optional[CliqueCoreResult] = None,
    flow_engine: str = "ggt",
    index: Optional[CliqueIndex] = None,
) -> DensestSubgraphResult:
    """CoreExact: exact CDS with core-based pruning.

    Parameters
    ----------
    graph, h:
        Input graph and clique size of Ψ (h = 2 for classical EDS).
    pruning1 / pruning2 / pruning3:
        Toggles for the Section-6.1 pruning criteria (all on by default;
        the Figure-10 ablation turns them off selectively).
    decomposition:
        Optionally a precomputed Algorithm-3 result, to amortise the
        decomposition across calls.
    flow_engine:
        ``"ggt"`` (default) walks the min-cut breakpoints of one
        α-parametric network per component (no binary search; a handful
        of warm solves, re-intersecting the component with the
        ⌈α⌉-core between Newton hops so networks shrink mid-search);
        ``"reuse"`` builds one α-parametric network per component
        (rebuilt on core shrinks) and re-solves it across the binary
        search with warm-started flows; ``"rebuild"`` reconstructs the
        network every iteration (the pre-parametric behaviour; both
        kept for the flow-engine ablation bench).  All three return
        bit-identical vertex sets and densities.
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
    enumeration/flow wall-clock split.
    """
    check_flow_engine(flow_engine)
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
    high = float(kmax)
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
            states.append(_ComponentState(sub, h, flow_engine, index=sub_index))
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
    with obs.span("core_exact.flow", engine=flow_engine, h=h) as flow_sp:
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
                found = density_cache[key] = _subgraph_density(graph, vertices, h, index)
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
                    comp_state, low=low, kmax=kmax, k_locate=k_locate,
                    core_of=decomposition.core, pruning3=pruning3, n=n,
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

        # --- pick the best of: binary-search result, Pruning1/2 seeds -----
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
            "flow_engine": flow_engine,
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
