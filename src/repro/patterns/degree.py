"""Pattern-degrees, including the Appendix-D fast paths.

``deg_G(v, Ψ)`` (Definition 9) counts the pattern instances containing
``v``.  The generic route sums over the instance list produced by
:mod:`repro.patterns.isomorphism`.  For the two special families the
paper optimises (Appendix D) closed-form counters avoid enumeration:

* **x-star** -- ``deg(v) = C(deg(v), x) + Σ_{u∈N(v)} C(deg(u)-1, x-1)``
  (v as the centre, plus v as a tail of each neighbouring centre).
* **loop / "diamond" (C4)** -- group the 2-paths leaving ``v`` by their
  far endpoint ``u``; any two parallel 2-paths close a 4-cycle, so
  ``deg(v) = Σ_u C(|N(v) ∩ N(u)|, 2)``.

Both are cross-checked against generic enumeration in the test suite.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

from ..graph.graph import Graph, Vertex
from .isomorphism import enumerate_pattern_instances
from .pattern import Pattern


def pattern_degrees(graph: Graph, pattern: Pattern) -> dict[Vertex, int]:
    """Pattern-degree of every vertex via instance enumeration."""
    counts = [0] * graph.num_vertices
    for row in enumerate_pattern_instances(graph, pattern):
        for vid in row:
            counts[vid] += 1
    return dict(zip(graph, counts))


def star_degrees(graph: Graph, tails: int) -> dict[Vertex, int]:
    """x-star pattern-degrees in O(n + m) time (Appendix D, case 1).

    Parameters
    ----------
    tails:
        The number x of tail vertices (x >= 2; ``x = 1`` would be the
        plain edge).
    """
    if tails < 2:
        raise ValueError("a star pattern needs at least two tails")
    degrees: dict[Vertex, int] = {}
    for v in graph:
        y = graph.degree(v)
        total = math.comb(y, tails)
        for u in graph.neighbors(v):
            total += math.comb(graph.degree(u) - 1, tails - 1)
        degrees[v] = total
    return degrees


def two_paths_by_endpoint(neighbors: Callable[[Vertex], set], v: Vertex) -> Counter:
    """Count 2-paths ``v - w - u`` grouped by far endpoint ``u != v``.

    ``neighbors(x)`` is the neighbour set of ``x``: ``graph.neighbors``,
    or the lookup of an id-indexed adjacency list.
    """
    paths: Counter = Counter()
    for w in neighbors(v):
        paths.update(neighbors(w))
    del paths[v]  # the 2-paths v - w - v
    return paths


def c4_degrees(graph: Graph) -> dict[Vertex, int]:
    """4-cycle ("diamond") pattern-degrees in O(Σ deg²) time (Appendix D).

    Each C4 containing ``v`` pairs two 2-paths from ``v`` to its
    opposite corner, so every cycle is counted exactly once per vertex.
    """
    return {
        v: sum([math.comb(c, 2) for c in two_paths_by_endpoint(graph.neighbors, v).values()])
        for v in graph
    }


def fast_pattern_degrees(graph: Graph, pattern: Pattern) -> dict[Vertex, int]:
    """Dispatch to a closed-form counter when one exists, else enumerate.

    The fast paths cover the starred patterns of Figure 7 (2-star,
    3-star, diamond); everything else goes through the generic matcher.
    """
    if pattern.star_tails():
        return star_degrees(graph, pattern.star_tails())
    if pattern.is_c4():
        return c4_degrees(graph)
    return pattern_degrees(graph, pattern)
