"""Invariant sanitizer: turn silent wrong answers into loud ones.

Enabled by ``REPRO_CHECK=1`` (or :func:`repro.guard.enable_checks`),
this module re-derives the mathematical invariants a correct solve must
satisfy and raises :class:`SanitizerError` on any violation:

* **Flow state** (after every max-flow solve): non-negative residuals,
  per-node flow conservation, capacity feasibility of every arc,
  residual consistency (``cap - residual == flow`` on finite arcs), the
  sink unreachable in the residual graph, no infinite arc crossing the
  cut, and **max-flow value == min-cut capacity** recomputed from the
  original capacities (for a parametric network, ``base + coeff * α``)
  -- the duality that certifies the cut, and through Lemma 14 the
  density verdict, exact.
* **Peel monotonicity** (per peel round): the live-instance count never
  increases and exactly one vertex leaves per round.
* **Result density** (at the solver/api boundary): the reported density
  equals ``μ(S) / |S|`` recomputed from scratch on the returned vertex
  set, for the solved-for clique or pattern -- both sides divide the
  same two integers, so the check is float-exact.

The checks are pure readers: they never mutate solver state, so a suite
run under ``REPRO_CHECK=1`` computes bit-identical answers.  Cost is
O(V + E) per solve -- fine for CI, not for production; the disabled
path is one module-flag read.
"""

from __future__ import annotations

import math

from ..flow.network import source_reachable

#: Absolute/relative tolerance for the float checks.  The engines work
#: in IEEE doubles on capacities that are small integer combinations of
#: degrees, so real violations overshoot this by orders of magnitude.
TOL = 1e-6


class SanitizerError(AssertionError):
    """An invariant the solver stack must maintain was violated."""


def _fail(context: str, message: str) -> None:
    raise SanitizerError(f"[{context}] {message}")


def _check_flow_state(source, sink, head, cap, orig, adj_start, adj_arcs, context):
    """Core invariant battery over a residual flow state.

    ``orig[a]`` is the original capacity of arc ``a`` at the solved
    parameter value (reverse arcs carry 0 in every builder; ``inf`` is
    allowed on forward arcs).
    """
    n = len(adj_start) - 1
    excess = [0.0] * n
    absflow = [0.0] * n
    for a in range(0, len(head), 2):
        r_fwd, r_rev = cap[a], cap[a ^ 1]
        if r_fwd < -TOL or r_rev < -TOL:
            _fail(context, f"negative residual on arc pair {a}: ({r_fwd}, {r_rev})")
        c = orig[a]
        flow = r_rev  # reverse residual == flow pushed on the forward arc
        if not math.isinf(c):
            scale = TOL * (1.0 + abs(c))
            if flow > c + scale:
                _fail(context, f"arc {a}: flow {flow} exceeds capacity {c}")
            if abs((c - r_fwd) - flow) > scale:
                _fail(
                    context,
                    f"arc {a}: residual {r_fwd} inconsistent with capacity {c} "
                    f"and flow {flow}",
                )
        v, u = head[a], head[a ^ 1]
        excess[v] += flow
        excess[u] -= flow
        absflow[v] += abs(flow)
        absflow[u] += abs(flow)
    for node in range(n):
        if node in (source, sink):
            continue
        if abs(excess[node]) > TOL * (1.0 + absflow[node]):
            _fail(context, f"flow conservation violated at node {node}: excess {excess[node]}")

    seen = source_reachable(head, cap, adj_start, adj_arcs, source)  # lists: the scalar DFS
    if seen[sink]:
        _fail(context, "sink reachable in the residual graph: not a max flow")
    cut_capacity = 0.0
    for a in range(0, len(head), 2):
        if seen[head[a ^ 1]] and not seen[head[a]]:
            if math.isinf(orig[a]):
                _fail(context, f"infinite-capacity arc {a} crosses the min cut")
            cut_capacity += orig[a]
    value = -excess[source]  # excess(source) = inflow - outflow = -|f|
    if abs(value - cut_capacity) > TOL * (1.0 + abs(cut_capacity)):
        _fail(
            context,
            f"max-flow value {value} != min-cut capacity {cut_capacity} "
            "(duality violated)",
        )
    return seen


def _as_list(array) -> list:
    """A plain-list copy of a numpy array (a list passes through)."""
    return array.tolist() if hasattr(array, "tolist") else array


def check_parametric(net) -> None:
    """Validate a solved :class:`~repro.flow.parametric.ParametricNetwork`.

    Must be called on the *plain* (un-cancelled) residual state --
    ``_solve_residual`` calls it right after its ``_uncancel``.  The
    battery runs on list copies with the scalar reachability; for a
    numpy-backed network it also demands that the numpy reachability
    the cuts are read with finds exactly the same source side.
    """
    alpha = net._alpha
    base = _as_list(net.base_cap)
    orig = list(base)
    for a, c in zip(_as_list(net.alpha_arcs), _as_list(net.alpha_coeff)):
        orig[a] = base[a] + c * alpha
    context = f"parametric solve at alpha={alpha}"
    seen = _check_flow_state(
        net.source, net.sink, _as_list(net.head), _as_list(net.cap), orig,
        _as_list(net.adj_start), _as_list(net.adj_arcs), context,
    )
    if not isinstance(net.cap, list):
        fast = source_reachable(net.head, net.cap, net.adj_start, net.adj_arcs, net.source)
        if [bool(flag) for flag in fast.tolist()] != [bool(flag) for flag in seen]:
            _fail(context, "numpy cut differs from the scalar residual reachable set")


def check_peel_round(prev_num_alive: int, num_alive: int, context: str = "peel") -> None:
    """Peel monotonicity: live instances never increase across a round."""
    if num_alive > prev_num_alive:
        _fail(
            context,
            f"live instance count increased across a peel round: "
            f"{prev_num_alive} -> {num_alive}",
        )


def check_result_density(graph, vertices, motif, density: float, where: str) -> None:
    """Recompute ``μ(S)/|S|`` from scratch and demand float-exact agreement.

    ``motif`` is the solved-for Ψ: an int ``h`` (the h-clique) or a
    :class:`~repro.patterns.pattern.Pattern`.  A non-clique pattern is
    recounted by enumerating its instances in ``G[S]``, never through
    the solver's instance index.
    """
    if not vertices:
        if density != 0.0:
            _fail(where, f"empty vertex set reported with density {density}")
        return
    sub = graph.subgraph(vertices)
    if sub.num_vertices != len(vertices):
        _fail(where, "returned vertex set is not a subset of the graph")
    # late imports: keep guard import-light
    if isinstance(motif, int) or motif.is_clique():
        h = motif if isinstance(motif, int) else motif.size
        if h == 2:
            mu = sub.num_edges
        else:
            from ..cliques.index import CliqueIndex

            mu = CliqueIndex(sub, h).m
    else:
        from ..patterns.isomorphism import count_pattern_instances

        mu = count_pattern_instances(sub, motif)
    expect = mu / len(vertices)
    if expect != density and abs(expect - density) > 1e-12 * (1.0 + expect):
        name = motif if isinstance(motif, int) else motif.name
        _fail(
            where,
            f"reported density {density} != recomputed {expect} "
            f"(mu={mu}, |S|={len(vertices)}, motif={name})",
        )
