"""Dinic's max-flow algorithm (BFS level graph + iterative blocking flow).

The one max-flow algorithm of the reproduction.  O(V^2 E) in general,
much faster on the shallow, unit-ish networks that the DSD constructions
produce (the paper's reference uses Gusfield's variant; any exact solver
yields identical min cuts).  The blocking-flow DFS is iterative so deep
level graphs (the Goldberg EDS network chains vertex nodes) cannot hit
the interpreter recursion limit.

The solver runs on the flat arc arrays exposed by
``network.flow_arrays()`` through :func:`repro.accel.dinic_max_flow`:
the numpy tier plans each phase in numpy from
:data:`~repro.accel.vector.PLAN_MIN_ARCS` arc entries -- the level
graph cut down to the arcs of shortest augmenting paths -- computes the
blocking flow of a large phase in batched array rounds and runs the
reference DFS on the rest; the python tier runs the portable scalar
loops.  Both tiers leave the same minimal min cut.
"""

from __future__ import annotations

from .. import accel

__all__ = ["max_flow"]


def max_flow(network) -> float:
    """Run Dinic on ``network`` in place; return the flow value pushed.

    Residual capacities are left in the network so the caller can read
    the min cut with ``min_cut_source_side`` / ``cut_vertices``.  When
    the network already carries flow (a warm-started
    :class:`~repro.flow.parametric.ParametricNetwork`), the return value
    is the *additional* flow pushed, and the residual state on exit is a
    max flow all the same.
    """
    source, sink, head, cap, adj_start, adj_arcs = network.flow_arrays()
    if source == sink:
        raise ValueError("source and sink must differ")
    return accel.dinic_max_flow(source, sink, head, cap, adj_start, adj_arcs)
