"""k-pattern-core decomposition (Section 5.4 + Appendix D).

The (k, Ψ)-core for a general pattern Ψ: the largest subgraph in which
every vertex participates in at least ``k`` pattern instances.  The
generic route indexes the instance rows (:func:`pattern_index`) and
reuses the Algorithm-3 peel; the starred patterns of Figure 7 get the
Appendix-D fast paths that peel with closed-form degree updates and
never materialise instances:

* **x-star**: removing ``v`` lowers a neighbour ``u`` by
  ``C(deg(v)-1, x-1) + C(deg(u)-1, x-1)`` (stars centred at v with u a
  tail + stars centred at u with v a tail) and each 2-hop neighbour
  ``w`` (via centre ``u``) by ``C(deg(u)-2, x-2)``.
* **C4 ("diamond")**: removing ``v`` lowers each opposite corner ``u``
  by ``C(p_vu, 2)`` and each shared neighbour, per corner, by
  ``p_vu - 1``, where ``p_vu`` counts the parallel 2-paths.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

from .. import guard
from ..cliques.index import CliqueIndex
from ..graph.graph import Graph, Vertex
from ..patterns.degree import c4_degrees, star_degrees, two_paths_by_endpoint
from ..patterns.pattern import Pattern
from .clique_core import CliqueCoreResult, peel_index_decomposition
from .peel import residual_vertices


def pattern_index(graph: Graph, pattern: Pattern) -> CliqueIndex:
    """A peelable index of every instance of ``pattern`` in ``graph``."""
    return CliqueIndex(graph, pattern.size, pattern=pattern)


def pattern_core_decomposition(graph: Graph, pattern: Pattern) -> CliqueCoreResult:
    """Pattern-core numbers of all vertices (Algorithm 3 generalised)."""
    return peel_index_decomposition(graph, pattern_index(graph, pattern))


def pattern_core_subgraph(graph: Graph, pattern: Pattern, k: int) -> Graph:
    """The (k, Ψ)-core subgraph for a general pattern Ψ."""
    return pattern_core_decomposition(graph, pattern).core_subgraph(graph, k)


# ----------------------------------------------------------------------
# Appendix-D fast paths: peel without materialising instances
# ----------------------------------------------------------------------


def _closed_form_cores(graph: Graph, degree: dict, remove) -> dict[Vertex, int]:
    """Pattern-core numbers by a min-degree peel with closed-form updates.

    ``degree`` holds every vertex's pattern-degree.  The peel runs on
    dense ids in graph order: ``adj[i]`` is the set of vertex ``i``'s
    live neighbour ids and ``deg[i]`` its current pattern-degree.
    ``remove(adj, deg, v, changed)`` lowers the degrees that removing
    ``v`` costs the survivors, adds each lowered id to the set
    ``changed``, and unlinks ``v`` from its neighbours.  A lazy-deletion
    heap keyed on ``(degree, id)`` picks each vertex in O(log n), with
    one push per lowered vertex and removal; stale entries are skipped
    on pop.  The tie order is the old linear min-scan's, graph order.
    A key is the single int ``degree * n + id``: cheaper to push and
    compare than a tuple.
    """
    labels = list(graph)
    n = len(labels)
    id_of = {v: i for i, v in enumerate(labels)}
    adj = [{id_of[u] for u in graph.neighbors(v)} for v in labels]
    deg = [degree[v] for v in labels]
    heap = [d * n + i for i, d in enumerate(deg)]
    heapq.heapify(heap)
    core = [0] * n
    removed = bytearray(n)
    current = 0
    changed: set[int] = set()
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, v = divmod(pop(heap), n)
        if removed[v] or deg[v] != d:
            continue
        current = max(current, d)
        core[v] = current
        removed[v] = 1
        remove(adj, deg, v, changed)
        for u in changed:
            push(heap, deg[u] * n + u)
        changed.clear()
    return dict(zip(labels, core))


def star_core_decomposition(graph: Graph, tails: int) -> dict[Vertex, int]:
    """x-star pattern-core numbers via closed-form degree updates.

    O(n · d² + n log n) instead of O(n · dˣ); returns the same numbers
    as :func:`pattern_core_decomposition` with the x-star pattern (the
    test suite verifies the agreement).
    """
    if tails < 2:
        raise ValueError("star fast path needs >= 2 tails")

    def remove(adj: list, deg: list, v: int, changed: set) -> None:
        neighbours = adj[v]
        y = len(neighbours)
        for u in neighbours:
            others = adj[u]
            zu = len(others)
            deg[u] -= math.comb(y - 1, tails - 1) + math.comb(zu - 1, tails - 1)
            two_hop_delta = math.comb(zu - 2, tails - 2) if zu >= 2 else 0
            if two_hop_delta:
                for w in others:  # v itself included: it is gone already
                    deg[w] -= two_hop_delta
                changed |= others
        changed |= neighbours
        changed.discard(v)
        for u in neighbours:
            adj[u].discard(v)

    return _closed_form_cores(graph, star_degrees(graph, tails), remove)


def c4_core_decomposition(graph: Graph) -> dict[Vertex, int]:
    """C4 ("diamond") pattern-core numbers via 2-path bookkeeping.

    O(n · d² + n log n) peel; agrees with the generic decomposition
    (tested).
    """

    def remove(adj: list, deg: list, v: int, changed: set) -> None:
        neighbours = adj[v]
        for u, p in two_paths_by_endpoint(adj.__getitem__, v).items():
            if p >= 2:
                deg[u] -= math.comb(p, 2)
                changed.add(u)
                # each common neighbour w of v and u sides p-1 cycles
                common = neighbours & adj[u]
                for w in common:
                    deg[w] -= p - 1
                changed |= common
        for u in neighbours:
            adj[u].discard(v)

    return _closed_form_cores(graph, c4_degrees(graph), remove)


def star_peel_densest(graph: Graph, tails: int) -> tuple[set[Vertex], float, int]:
    """PeelApp for the x-star with closed-form degree updates.

    Never materialises instances: the instance count of the residual
    graph is ``Σ deg(v, Ψ) / (x + 1)`` (every star spans x+1 vertices),
    and removals adjust degrees by the Appendix-D deltas.  Returns
    ``(best_vertices, best_density, iterations)``.  Under an active
    budget every removal is a ``peel.round`` checkpoint.
    """
    if tails < 2:
        raise ValueError("star fast path needs >= 2 tails")
    n = graph.num_vertices
    if n == 0:
        return set(), 0.0, 0
    work = graph.copy()
    degree = star_degrees(work, tails)
    mu = sum(degree.values()) // (tails + 1)
    alive = set(work.vertices())
    best_density = mu / n
    best_step = 0
    removed: list[Vertex] = []
    heap = [(d, str(v), v) for v, d in degree.items()]
    heapq.heapify(heap)
    iterations = 0
    budget = guard.ACTIVE
    while len(alive) > 1:
        if budget is not None:
            budget.tick_round()
        iterations += 1
        while True:
            d, _, v = heapq.heappop(heap)
            if v in alive and degree[v] == d:
                break
        removed.append(v)
        mu -= degree[v]
        y = work.degree(v)
        for u in list(work.neighbors(v)):
            zu = work.degree(u)
            degree[u] -= math.comb(y - 1, tails - 1) + math.comb(zu - 1, tails - 1)
            heapq.heappush(heap, (degree[u], str(u), u))
            two_hop = math.comb(zu - 2, tails - 2) if zu >= 2 else 0
            if two_hop:
                for w in work.neighbors(u):
                    if w != v:
                        degree[w] -= two_hop
                        heapq.heappush(heap, (degree[w], str(w), w))
        work.remove_vertex(v)
        alive.discard(v)
        density = mu / len(alive)
        if density > best_density:
            best_density = density
            best_step = iterations
    return residual_vertices(graph, removed, best_step), best_density, iterations


def c4_peel_densest(graph: Graph) -> tuple[set[Vertex], float, int]:
    """PeelApp for the C4 ("diamond") with 2-path bookkeeping.

    Same contract as :func:`star_peel_densest`; each cycle spans four
    vertices, so ``μ = Σ deg / 4``.
    """
    n = graph.num_vertices
    if n == 0:
        return set(), 0.0, 0
    work = graph.copy()
    degree = c4_degrees(work)
    mu = sum(degree.values()) // 4
    alive = set(work.vertices())
    best_density = mu / n
    best_step = 0
    removed: list[Vertex] = []
    heap = [(d, str(v), v) for v, d in degree.items()]
    heapq.heapify(heap)
    iterations = 0
    budget = guard.ACTIVE
    while len(alive) > 1:
        if budget is not None:
            budget.tick_round()
        iterations += 1
        while True:
            d, _, v = heapq.heappop(heap)
            if v in alive and degree[v] == d:
                break
        removed.append(v)
        mu -= degree[v]
        paths = two_paths_by_endpoint(work.neighbors, v)
        for u, p in paths.items():
            if p >= 2:
                degree[u] -= math.comb(p, 2)
                heapq.heappush(heap, (degree[u], str(u), u))
                for w in work.neighbors(v):
                    if w != u and work.has_edge(w, u):
                        degree[w] -= p - 1
                        heapq.heappush(heap, (degree[w], str(w), w))
        work.remove_vertex(v)
        alive.discard(v)
        density = mu / len(alive)
        if density > best_density:
            best_density = density
            best_step = iterations
    return residual_vertices(graph, removed, best_step), best_density, iterations


def fast_pattern_mu(graph: Graph, pattern: Pattern) -> Optional[int]:
    """Closed-form instance count for starred patterns, else ``None``.

    ``μ = Σ_v deg(v, Ψ) / |V_Ψ|`` because every instance is counted
    once per member vertex.
    """
    if pattern.star_tails():
        return sum(star_degrees(graph, pattern.star_tails()).values()) // pattern.size
    if pattern.is_c4():
        return sum(c4_degrees(graph).values()) // 4
    return None


def fast_pattern_core_decomposition(graph: Graph, pattern: Pattern) -> dict[Vertex, int]:
    """Dispatch to an Appendix-D fast path when one applies.

    Returns pattern-core numbers; falls back to the generic
    enumeration-based decomposition for unoptimised patterns.
    """
    if pattern.star_tails():
        return star_core_decomposition(graph, pattern.star_tails())
    if pattern.is_c4():
        return c4_core_decomposition(graph)
    return pattern_core_decomposition(graph, pattern).core
