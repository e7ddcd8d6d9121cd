"""Pattern-instance enumeration via subgraph isomorphism (Section 7.1).

Definition 8: a pattern instance is a subgraph ``S ⊆ G`` isomorphic to
Ψ.  Instances are identified by their *edge set* -- automorphic
re-embeddings onto the same edges are one instance (the remark below
Definition 9).

The matcher is a backtracking embedder over dense vertex ids (the
graph-iteration order :class:`~repro.cliques.index.CliqueIndex` uses).
Pattern vertices are visited in a connectivity-preserving order, and
the candidates for one are the common neighbours of the images of its
already-mapped pattern neighbours.  Without more, every instance would
be found once per automorphism of Ψ (eight times for the C4
"diamond").  Symmetry-breaking conditions (Grochow and Kellis, RECOMB
2007) admit exactly one of those embeddings: walk down the stabiliser
chain of Aut(Ψ), and at each step require the chosen vertex to take
the smallest id of its orbit.  For C4 that anchors each cycle at its
minimum-id vertex, with its two neighbours in ascending order.  The id
bounds also prune the search: with one mapped neighbour they cut its
sorted neighbour list with a bisection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from ..graph.graph import Graph
from .pattern import Pattern


def _search_order(pattern: Pattern) -> list[int]:
    """Pattern vertex positions ordered so each one touches an earlier one.

    Starts from a maximum-degree vertex and greedily appends the vertex
    with the most already-ordered neighbours (ties by degree) -- the
    standard candidate-narrowing heuristic.
    """
    g = pattern.graph
    vertices = list(g)
    ordered = [max(vertices, key=g.degree)]
    placed = set(ordered)
    while len(ordered) < len(vertices):
        best = max(
            (v for v in vertices if v not in placed),
            key=lambda v: (len(g.neighbors(v) & placed), g.degree(v)),
        )
        ordered.append(best)
        placed.add(best)
    position = {v: i for i, v in enumerate(vertices)}
    return [position[v] for v in ordered]


def symmetry_conditions(pattern: Pattern, order: list[int]) -> list[tuple[int, int]]:
    """Pairs ``(a, b)`` of pattern positions demanding ``id(a) < id(b)``.

    Grochow–Kellis: while the group ``H`` (initially Aut(Ψ)) is
    non-trivial, take the first vertex ``v`` of the search ``order``
    with a non-trivial ``H``-orbit, require ``v`` to map below every
    other orbit member, and replace ``H`` by the stabiliser of ``v``.
    Of the ``|Aut(Ψ)|`` embeddings onto one instance, exactly one
    meets every condition.

    >>> from repro.patterns.pattern import get_pattern
    >>> symmetry_conditions(get_pattern("diamond"), [0, 1, 2, 3])
    [(0, 1), (0, 2), (0, 3), (1, 3)]
    """
    group = pattern.automorphisms
    conditions: list[tuple[int, int]] = []
    while len(group) > 1:
        for v in order:
            orbit = sorted({perm[v] for perm in group})
            if len(orbit) > 1:
                break
        conditions.extend((v, u) for u in orbit if u != v)
        group = [perm for perm in group if perm[v] == v]
    return conditions


def _plan(pattern: Pattern, induced: bool):
    """The search order and, per search step, what narrows its candidates.

    Each step ``i`` maps pattern vertex ``order[i]``; its entry lists
    earlier *steps*: ``anchors`` (pattern neighbours: the candidate
    must be adjacent to their images), ``lower`` / ``upper`` (symmetry
    conditions: the candidate id must lie above / below their images),
    ``distinct`` (images it must differ from, where nothing above
    already forces that), ``apart`` (for ``induced``: non-neighbours
    whose images it must not touch), and the pattern degree a
    candidate's graph degree must reach, or 0 when the anchors already
    guarantee it.
    """
    order = _search_order(pattern)
    step = {v: i for i, v in enumerate(order)}
    conditions = symmetry_conditions(pattern, order)
    vertices = list(pattern.graph)
    position = {v: i for i, v in enumerate(vertices)}
    neighbours = [
        {position[u] for u in pattern.graph.neighbors(v)} for v in vertices
    ]
    plans = []
    for i, v in enumerate(order):
        earlier = order[:i]
        anchors = tuple(step[u] for u in earlier if u in neighbours[v])
        lower = tuple(step[a] for a, b in conditions if b == v and step[a] < i)
        upper = tuple(step[b] for a, b in conditions if a == v and step[b] < i)
        forced = set(anchors) | set(lower) | set(upper)
        distinct = tuple(step[u] for u in earlier if step[u] not in forced)
        apart = tuple(step[u] for u in earlier if u not in neighbours[v]) if induced else ()
        degree = len(neighbours[v])
        if degree <= len(anchors):
            degree = 0
        plans.append((anchors, lower, upper, distinct, apart, degree))
    return order, plans


def enumerate_pattern_instances(
    graph: Graph, pattern: Pattern, induced: bool = False
) -> list[tuple[int, ...]]:
    """Every instance of ``pattern`` in ``graph``, one id row each.

    Row entry ``i`` is the image of pattern vertex ``i`` (the pattern's
    ``i``-th vertex in iteration order), as an id into ``list(graph)``
    -- the dense ids a :class:`~repro.cliques.index.CliqueIndex` of
    ``graph`` uses, so the rows index it with no label lookup.  Each
    instance appears exactly once; distinct instances may share a
    vertex set (the three C4s of K4 do).

    With ``induced=True``, only *vertex-induced* instances are kept:
    vertices non-adjacent in Ψ must be non-adjacent in the image too
    (the adaptation Section 7.1 notes in passing).

    >>> from repro.graph.graph import complete_graph
    >>> from repro.patterns.pattern import get_pattern
    >>> enumerate_pattern_instances(complete_graph(4), get_pattern("diamond"))
    [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
    >>> enumerate_pattern_instances(complete_graph(4), get_pattern("diamond"), induced=True)
    []
    """
    labels = list(graph)
    n = len(labels)
    size = pattern.size
    rows: list[tuple[int, ...]] = []
    if n < size:
        return rows
    id_of = {v: i for i, v in enumerate(labels)}
    nbrs = [sorted([id_of[u] for u in graph.neighbors(v)]) for v in labels]
    order, plans = _plan(pattern, induced)
    adjacent: list[set[int]] = []
    if induced or any(len(plan[0]) > 1 for plan in plans):
        adjacent = [set(nb) for nb in nbrs]
    mapped = [0] * size
    last = size - 1

    def extend(i: int) -> None:
        anchors, lower, upper, distinct, apart, degree = plans[i]
        if len(anchors) == 1:  # a slice of one sorted neighbour list
            base = nbrs[mapped[anchors[0]]]
            start = bisect_right(base, max([mapped[a] for a in lower])) if lower else 0
            stop = bisect_left(base, min([mapped[b] for b in upper])) if upper else len(base)
            cands = base[start:stop]
        else:  # intersect the neighbour sets, keep the ids between the bounds
            common = set.intersection(*[adjacent[mapped[a]] for a in anchors])
            lo = max([mapped[a] for a in lower]) if lower else -1
            hi = min([mapped[b] for b in upper]) if upper else n
            cands = sorted([w for w in common if lo < w < hi])
        for a in apart:
            s = adjacent[mapped[a]]
            cands = [w for w in cands if w not in s]
        if distinct:
            used = {mapped[a] for a in distinct}
            cands = [w for w in cands if w not in used]
        if degree:
            cands = [w for w in cands if len(nbrs[w]) >= degree]
        if i == last:
            prefix = tuple(mapped[:last])
            rows.extend([prefix + (w,) for w in cands])
            return
        for w in cands:
            mapped[i] = w
            extend(i + 1)

    root_degree = len(pattern.graph.neighbors(list(pattern.graph)[order[0]]))
    for root in range(n):
        if len(nbrs[root]) >= root_degree:
            mapped[0] = root
            extend(1)
    if order != sorted(order):  # search-step columns -> pattern-vertex columns
        step = {v: i for i, v in enumerate(order)}
        rows = list(map(itemgetter(*(step[v] for v in range(size))), rows))
    return rows


def count_pattern_instances(graph: Graph, pattern: Pattern, induced: bool = False) -> int:
    """``μ(G, Ψ)``: the number of pattern instances in the graph."""
    return len(enumerate_pattern_instances(graph, pattern, induced=induced))


def pattern_density(graph: Graph, pattern: Pattern) -> float:
    """Pattern-density ``ρ(G, Ψ) = μ(G, Ψ) / |V|`` (Definition 10)."""
    if graph.num_vertices == 0:
        return 0.0
    return count_pattern_instances(graph, pattern) / graph.num_vertices
