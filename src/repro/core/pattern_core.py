"""k-pattern-core decomposition (Section 5.4 + Appendix D).

The (k, Ψ)-core for a general pattern Ψ: the largest subgraph in which
every vertex participates in at least ``k`` pattern instances.  The
generic route materialises the instance list and reuses the Algorithm-3
peel; the starred patterns of Figure 7 get the Appendix-D fast paths
that peel with closed-form degree updates and never materialise
instances:

* **x-star**: removing ``v`` lowers a neighbour ``u`` by
  ``C(deg(v)-1, x-1) + C(deg(u)-1, x-1)`` (stars centred at v with u a
  tail + stars centred at u with v a tail) and each 2-hop neighbour
  ``w`` (via centre ``u``) by ``C(deg(u)-2, x-2)``.
* **C4 ("diamond")**: removing ``v`` lowers each opposite corner ``u``
  by ``C(p_vu, 2)`` and each shared neighbour, per corner, by
  ``p_vu - 1``, where ``p_vu`` counts the parallel 2-paths.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..cliques.enumeration import CliqueIndex
from ..graph.graph import Graph, Vertex
from ..patterns.degree import c4_degrees, star_degrees, two_paths_by_endpoint
from ..patterns.isomorphism import Instance, enumerate_pattern_instances, instance_vertices
from ..patterns.pattern import Pattern
from .clique_core import CliqueCoreResult, peel_index_decomposition
from .peel import residual_vertices


def pattern_index(
    graph: Graph, pattern: Pattern, instances: Optional[Sequence[Instance]] = None
) -> CliqueIndex:
    """Build a peelable instance index for ``pattern`` over ``graph``."""
    if instances is None:
        instances = enumerate_pattern_instances(graph, pattern)
    tuples = [tuple(instance_vertices(inst)) for inst in instances]
    return CliqueIndex(graph, pattern.size, instances=tuples)


def pattern_core_decomposition(
    graph: Graph,
    pattern: Pattern,
    instances: Optional[Sequence[Instance]] = None,
) -> CliqueCoreResult:
    """Pattern-core numbers of all vertices (Algorithm 3 generalised).

    ``instances`` may be passed in when the caller already enumerated
    them (CorePExact does); otherwise they are enumerated here.
    """
    return peel_index_decomposition(graph, pattern_index(graph, pattern, instances))


def pattern_core_subgraph(graph: Graph, pattern: Pattern, k: int) -> Graph:
    """The (k, Ψ)-core subgraph for a general pattern Ψ."""
    return pattern_core_decomposition(graph, pattern).core_subgraph(graph, k)


# ----------------------------------------------------------------------
# Appendix-D fast paths: peel without materialising instances
# ----------------------------------------------------------------------


def star_core_decomposition(graph: Graph, tails: int) -> dict[Vertex, int]:
    """x-star pattern-core numbers via closed-form degree updates.

    O(n · d²) instead of O(n · dˣ); returns the same numbers as
    :func:`pattern_core_decomposition` with the x-star pattern (the
    test suite verifies the agreement).
    """
    if tails < 2:
        raise ValueError("star fast path needs >= 2 tails")
    work = graph.copy()
    degree = star_degrees(work, tails)
    core: dict[Vertex, int] = {}
    current = 0
    while work.num_vertices:
        v = min(work.vertices(), key=lambda u: degree[u])
        current = max(current, degree[v])
        core[v] = current
        y = work.degree(v)
        neighbors = list(work.neighbors(v))
        for u in neighbors:
            zu = work.degree(u)
            delta = math.comb(y - 1, tails - 1) + math.comb(zu - 1, tails - 1)
            degree[u] -= delta
            two_hop_delta = math.comb(zu - 2, tails - 2) if zu >= 2 else 0
            if two_hop_delta:
                for w in work.neighbors(u):
                    if w != v:
                        degree[w] -= two_hop_delta
        work.remove_vertex(v)
        degree.pop(v, None)
    return core


def c4_core_decomposition(graph: Graph) -> dict[Vertex, int]:
    """C4 ("diamond") pattern-core numbers via 2-path bookkeeping.

    O(n · d²) peel; agrees with the generic decomposition (tested).
    """
    work = graph.copy()
    degree = c4_degrees(work)
    core: dict[Vertex, int] = {}
    current = 0
    while work.num_vertices:
        v = min(work.vertices(), key=lambda u: degree[u])
        current = max(current, degree[v])
        core[v] = current
        paths = two_paths_by_endpoint(work, v)
        for u, p in paths.items():
            if p >= 2:
                degree[u] -= math.comb(p, 2)
            if p >= 2:
                # each common neighbour w of v and u sides p-1 cycles
                for w in work.neighbors(v):
                    if w != u and work.has_edge(w, u):
                        degree[w] -= p - 1
        work.remove_vertex(v)
        degree.pop(v, None)
    return core


def star_peel_densest(graph: Graph, tails: int) -> tuple[set[Vertex], float, int]:
    """PeelApp for the x-star with closed-form degree updates.

    Never materialises instances: the instance count of the residual
    graph is ``Σ deg(v, Ψ) / (x + 1)`` (every star spans x+1 vertices),
    and removals adjust degrees by the Appendix-D deltas.  Returns
    ``(best_vertices, best_density, iterations)``.
    """
    import heapq

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
    while len(alive) > 1:
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
    import heapq

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
    while len(alive) > 1:
        iterations += 1
        while True:
            d, _, v = heapq.heappop(heap)
            if v in alive and degree[v] == d:
                break
        removed.append(v)
        mu -= degree[v]
        paths = two_paths_by_endpoint(work, v)
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
    degree_seq = pattern.degrees()
    size = pattern.size
    if pattern.num_edges == size - 1 and degree_seq == [1] * (size - 1) + [size - 1]:
        return sum(star_degrees(graph, size - 1).values()) // size
    if size == 4 and pattern.num_edges == 4 and degree_seq == [2, 2, 2, 2]:
        return sum(c4_degrees(graph).values()) // 4
    return None


def fast_pattern_core_decomposition(graph: Graph, pattern: Pattern) -> dict[Vertex, int]:
    """Dispatch to an Appendix-D fast path when one applies.

    Returns pattern-core numbers; falls back to the generic
    enumeration-based decomposition for unoptimised patterns.
    """
    degree_seq = pattern.degrees()
    size = pattern.size
    if pattern.num_edges == size - 1 and degree_seq == [1] * (size - 1) + [size - 1]:
        return star_core_decomposition(graph, size - 1)
    if size == 4 and pattern.num_edges == 4 and degree_seq == [2, 2, 2, 2]:
        return c4_core_decomposition(graph)
    return pattern_core_decomposition(graph, pattern).core
