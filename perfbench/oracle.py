"""Answer checks that share no code with the solvers under test.

Densities are recounted from the graph's adjacency with counters written
here (h-cliques, 2-stars, 4-cycles), so a solver that reports a density
its vertex set does not have is caught even when every solver agrees.
"""

from __future__ import annotations

from math import comb

#: Relative tolerance when comparing a reported density with a recount.
#: Both sides divide the same integer count by the same size, so they
#: normally agree bit for bit; the slack only absorbs a solver that sums
#: floats in another order.
REL_TOL = 1e-9


def _adjacency(graph, vertices) -> dict:
    keep = set(vertices)
    return {v: graph.neighbors(v) & keep for v in keep}


def _clique_count(adj: dict, h: int) -> int:
    """Number of h-cliques in the graph given by ``adj`` (ordered growth)."""
    rank = {v: i for i, v in enumerate(sorted(adj, key=lambda v: (len(adj[v]), repr(v))))}
    later = {v: {u for u in adj[v] if rank[u] > rank[v]} for v in adj}

    def grow(candidates: set, depth: int) -> int:
        if depth == h:
            return 1
        if depth == h - 1:
            return len(candidates)
        return sum(grow(candidates & later[u], depth + 1) for u in candidates)

    return sum(grow(later[v], 1) for v in adj)


def _wedge_count(adj: dict) -> int:
    return sum(comb(len(nbrs), 2) for nbrs in adj.values())


def _four_cycle_count(adj: dict) -> int:
    # every 4-cycle has two diagonals; each diagonal pair {u, w} closes
    # C(common, 2) cycles through two of its common neighbours
    order = list(adj)
    total = 0
    for i, u in enumerate(order):
        nu = adj[u]
        for w in order[i + 1 :]:
            common = len(nu & adj[w])
            if common > 1:
                total += comb(common, 2)
    return total // 2


def instance_count(graph, vertices, psi) -> int:
    """Ψ-instances inside the subgraph induced by ``vertices``.

    ``psi`` is an int h (h-clique), ``"2-star"`` or ``"diamond"`` (the
    4-cycle); instances are counted as subgraphs, not induced ones.
    """
    adj = _adjacency(graph, vertices)
    if isinstance(psi, int):
        if psi == 2:
            return sum(len(n) for n in adj.values()) // 2
        return _clique_count(adj, psi)
    if psi == "2-star":
        return _wedge_count(adj)
    if psi == "diamond":
        return _four_cycle_count(adj)
    raise ValueError(f"no independent counter for pattern {psi!r}")


def motif_size(psi) -> int:
    """|V_Ψ|: the approximation guarantee of every peeling method is 1/|V_Ψ|."""
    if isinstance(psi, int):
        return psi
    return {"2-star": 3, "diamond": 4}[psi]


def density_close(reported: float, recounted: float) -> bool:
    return abs(reported - recounted) <= REL_TOL * max(1.0, abs(recounted))


def check_density(graph, vertices, psi, reported: float) -> str | None:
    """``None`` when ``reported`` is the true Ψ-density of ``vertices``."""
    if not vertices:
        return "empty answer"
    missing = [v for v in vertices if v not in graph]
    if missing:
        return f"answer holds {len(missing)} vertices not in the graph"
    truth = instance_count(graph, vertices, psi) / len(vertices)
    if not density_close(reported, truth):
        return f"reported density {reported!r} but the vertex set has {truth!r}"
    return None


def check_approx(density: float, optimum: float, psi) -> str | None:
    """``None`` when ``density`` meets the 1/|V_Ψ| guarantee against ``optimum``."""
    bound = optimum / motif_size(psi)
    if density < bound - REL_TOL * max(1.0, bound):
        return f"density {density!r} below the 1/|V_Psi| bound {bound!r}"
    if density > optimum + REL_TOL * max(1.0, optimum):
        return f"density {density!r} above the exact optimum {optimum!r}"
    return None
