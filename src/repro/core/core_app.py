"""``CoreApp`` (Algorithm 6): top-down (kmax, Ψ)-core discovery.

The paper's fastest approximation.  Instead of decomposing every core
bottom-up (IncApp), CoreApp exploits the observation that the
(kmax, Ψ)-core hides among the vertices with the highest clique-degrees:

1. Compute a cheap upper bound ``γ(v, Ψ) = C(core(v), h-1)`` on every
   clique-degree from the *classical* k-core decomposition (a vertex of
   an x-core has at most ``C(x, h-1)`` h-cliques through it inside that
   core).
2. Take the top-|W| vertices by γ, run the (k, Ψ)-core peeling on the
   induced subgraph G[W], and record the best core found.
3. Double |W| until every remaining vertex has γ below the best kmax so
   far -- at that point no outside vertex can join a deeper core, so
   the (kmax, Ψ)-core of G has been found (correctness argument of
   Section 6.2).

The returned subgraph is identical to IncApp's; only the work to find
it differs -- which is precisely what the Figure-8 benchmarks measure.
"""

from __future__ import annotations

import math

from .. import accel, guard, obs
from ..cliques.index import CliqueIndex
from ..cliques.kernels import np
from ..graph.graph import Graph, Vertex
from .exact import DensestSubgraphResult
from .kcore import core_decomposition, level_peel


def _gamma_bounds(graph: Graph, h: int) -> dict[Vertex, int]:
    """Clique-degree upper bounds ``γ(v, Ψ) = C(core(v), h-1)``."""
    core = core_decomposition(graph)
    return {v: math.comb(c, h - 1) for v, c in core.items()}


def core_app_densest(
    graph: Graph,
    h: int = 2,
    *,
    initial_size: int = 64,
) -> DensestSubgraphResult:
    """Algorithm 6: compute the (kmax, Ψ)-core top-down.

    Parameters
    ----------
    graph, h:
        Input graph and clique size of Ψ.
    initial_size:
        Size of the first vertex prefix W (doubled each round).  The
        paper leaves this unspecified; 64 keeps early rounds cheap while
        converging in O(log n) rounds.

    Returns
    -------
    DensestSubgraphResult for the (kmax, Ψ)-core; ``stats['rounds']``
    records how many prefixes were examined and
    ``stats['vertices_touched']`` the size of the last prefix, the
    quantities behind CoreApp's speedup over IncApp.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    n = graph.num_vertices
    if n == 0:
        return DensestSubgraphResult(set(), 0.0, "CoreApp")

    budget = guard.ACTIVE
    with obs.span("core_app.run", h=h, n=n) as sp:
        gamma = _gamma_bounds(graph, h)
        ordered = sorted(graph.vertices(), key=lambda v: -gamma[v])

        kmax = 0
        best_core: set[Vertex] = set()
        size = min(max(initial_size, 1), n)
        rounds = 0

        while True:
            if budget is not None:
                budget.tick_round("core_app.round")
            rounds += 1
            prefix = ordered[:size]
            subgraph = graph.subgraph(prefix)
            sub_kmax, sub_core = _kmax_core_at_least(subgraph, h, kmax + 1)
            if sub_kmax > kmax:
                kmax = sub_kmax
                best_core = sub_core
            # Stopping criterion (line 4): every vertex outside W has a
            # clique-degree upper bound below the best kmax found, so its
            # clique-core number cannot reach kmax.
            if size >= n:
                break
            max_outside = gamma[ordered[size]]
            if max_outside < kmax:
                break
            size = min(size * 2, n)
        sp.attrs.update(kmax=kmax, rounds=rounds)

        if not best_core:
            return DensestSubgraphResult(set(graph.vertices()), 0.0, "CoreApp")

        # Polish: the best core found inside a prefix G[W] can miss vertices
        # of G whose clique-core number also reaches kmax.  Only vertices
        # with γ >= kmax are eligible, so one more peel over that (small)
        # candidate set yields exactly the (kmax, Ψ)-core of G -- making
        # CoreApp return the same subgraph as IncApp, as the paper states.
        eligible = [v for v in graph if gamma[v] >= kmax]
        if len(eligible) > len(best_core):
            _, polished = _kmax_core_at_least(graph.subgraph(eligible), h, kmax)
            if polished:
                best_core = polished

        core_graph = graph.subgraph(best_core)
        density = CliqueIndex(core_graph, h).m / core_graph.num_vertices
    return DensestSubgraphResult(
        vertices=set(best_core),
        density=density,
        method="CoreApp",
        stats={"kmax": kmax, "rounds": rounds, "vertices_touched": size},
    )


def _kmax_core_at_least(graph: Graph, h: int, floor: int) -> tuple[int, set[Vertex]]:
    """(kmax, kmax-core vertices) of ``graph``, reported only if >= floor.

    Implements lines 5-14 of Algorithm 6: the (k, Ψ)-core numbers of
    G[W] from its instance index -- level by level with numpy
    (:func:`repro.core.kcore.level_peel`), through the Algorithm-3
    bucket peel without it.  kmax is the largest core number and its
    core is every vertex that reaches it.  Only cores with number >=
    ``floor`` matter, so the peel returns (0, empty) when the deepest
    core falls short.
    """
    index = CliqueIndex(graph, h)
    if np is not None:
        core = level_peel(
            np.asarray(index.inc_start, dtype=np.int64),
            np.asarray(index.inc_ids, dtype=np.int64),
            index.rows_array(),
        ).tolist()
    else:
        n = len(index.vertices)
        core, _, _, _ = accel.bucket_peel(
            index.inst, index.inc_start, index.inc_ids, list(index.base_degree),
            index.alive, bytearray(b"\x01") * n, h, n, index.m,
        )
    kmax = max(core, default=0)
    if kmax < floor:
        return 0, set()
    return kmax, {v for v, c in zip(index.vertices, core) if c >= kmax}
