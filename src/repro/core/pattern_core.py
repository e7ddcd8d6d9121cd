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
from functools import partial
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


def _closed_form_cores(
    graph: Graph, degree: dict, remove, size: int
) -> tuple[dict[Vertex, int], list[Vertex], int, float]:
    """Min-degree peel with closed-form updates: the cores and PeelApp.

    ``degree`` holds every vertex's pattern-degree and ``size`` is
    ``|V_Ψ|``.  The peel runs on dense ids: ``adj[i]`` is the set of
    vertex ``i``'s live neighbour ids and ``deg[i]`` its current
    pattern-degree.  ``remove(adj, deg, v, changed)`` lowers the degrees
    that removing ``v`` costs the survivors, adds each lowered id to the
    set ``changed``, and unlinks ``v`` from its neighbours.  A
    lazy-deletion heap keyed on the single int ``degree * n + id`` picks
    each vertex in O(log n), with one push per lowered vertex and
    removal; stale entries are skipped on pop.  Ids are ranks in
    ``(str(v), v)`` order, so a tie goes to the smallest label string,
    a pure function of the graph (core numbers do not depend on it).

    The instance count μ starts at ``Σ deg / size`` and drops by each
    removed vertex's degree, so the same loop tracks PeelApp's densest
    residual graph.  Every removal is a ``peel.round`` budget
    checkpoint.  Returns ``(core, order, steps, density)``: the core
    numbers in graph order, the removal order, the number of removals
    before the densest residual graph, and that graph's density.
    """
    labels = sorted(graph, key=lambda v: (str(v), v))
    n = len(labels)
    id_of = {v: i for i, v in enumerate(labels)}
    adj = [{id_of[u] for u in graph.neighbors(v)} for v in labels]
    deg = [degree[v] for v in labels]
    heap = [d * n + i for i, d in enumerate(deg)]
    heapq.heapify(heap)
    core = [0] * n
    removed = bytearray(n)
    order: list[Vertex] = []
    mu = sum(deg) // size
    best_density = mu / n if n else 0.0
    best_step = 0
    current = 0
    changed: set[int] = set()
    push, pop = heapq.heappush, heapq.heappop
    budget = guard.ACTIVE
    while heap:
        d, v = divmod(pop(heap), n)
        if removed[v] or deg[v] != d:
            continue
        if budget is not None:
            budget.tick_round()
        current = max(current, d)
        core[v] = current
        removed[v] = 1
        order.append(labels[v])
        mu -= d
        remove(adj, deg, v, changed)
        for u in changed:
            push(heap, deg[u] * n + u)
        changed.clear()
        left = n - len(order)
        if left and mu / left > best_density:
            best_density = mu / left
            best_step = len(order)
    return {v: core[id_of[v]] for v in graph}, order, best_step, best_density


def _remove_star(tails: int, adj: list, deg: list, v: int, changed: set) -> None:
    """The x-star's Appendix-D deltas for removing ``v`` (module docstring)."""
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


def _remove_c4(adj: list, deg: list, v: int, changed: set) -> None:
    """The C4's Appendix-D deltas for removing ``v`` (module docstring)."""
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


def star_core_decomposition(graph: Graph, tails: int) -> dict[Vertex, int]:
    """x-star pattern-core numbers via closed-form degree updates.

    O(n · d² + n log n) instead of O(n · dˣ); returns the same numbers
    as :func:`pattern_core_decomposition` with the x-star pattern (the
    test suite verifies the agreement).
    """
    if tails < 2:
        raise ValueError("star fast path needs >= 2 tails")
    remove = partial(_remove_star, tails)
    return _closed_form_cores(graph, star_degrees(graph, tails), remove, tails + 1)[0]


def c4_core_decomposition(graph: Graph) -> dict[Vertex, int]:
    """C4 ("diamond") pattern-core numbers via 2-path bookkeeping.

    O(n · d² + n log n) peel; agrees with the generic decomposition
    (tested).
    """
    return _closed_form_cores(graph, c4_degrees(graph), _remove_c4, 4)[0]


def star_peel_densest(graph: Graph, tails: int) -> tuple[set[Vertex], float, int]:
    """PeelApp for the x-star with closed-form degree updates.

    Never materialises instances: the instance count of the residual
    graph is ``Σ deg(v, Ψ) / (x + 1)`` (every star spans x+1 vertices),
    and removals adjust degrees by the Appendix-D deltas.  Returns
    ``(best_vertices, best_density, iterations)``, ``iterations`` being
    the n - 1 removals down to one vertex.  Under an active budget
    every removal is a ``peel.round`` checkpoint.
    """
    if tails < 2:
        raise ValueError("star fast path needs >= 2 tails")
    if not graph.num_vertices:
        return set(), 0.0, 0
    remove = partial(_remove_star, tails)
    _, order, steps, density = _closed_form_cores(
        graph, star_degrees(graph, tails), remove, tails + 1
    )
    return residual_vertices(graph, order, steps), density, graph.num_vertices - 1


def c4_peel_densest(graph: Graph) -> tuple[set[Vertex], float, int]:
    """PeelApp for the C4 ("diamond") with 2-path bookkeeping.

    Same contract as :func:`star_peel_densest`; each cycle spans four
    vertices, so ``μ = Σ deg / 4``.
    """
    if not graph.num_vertices:
        return set(), 0.0, 0
    _, order, steps, density = _closed_form_cores(graph, c4_degrees(graph), _remove_c4, 4)
    return residual_vertices(graph, order, steps), density, graph.num_vertices - 1


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
