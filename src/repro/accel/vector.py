"""numpy kernel implementations -- the middle dispatch tier.

Whenever numpy is importable a ``ParametricNetwork`` keeps its arc
arrays in numpy from construction to cut extraction
(:mod:`repro.flow.parametric`); this tier works on them directly:

* :func:`dinic_max_flow` -- at or above :data:`PLAN_MIN_ARCS` arc-array
  entries every Dinic phase is *planned* in numpy: a frontier BFS over
  the residual that stops at the sink's level exactly as the scalar BFS
  does, a backward pass from the sink that keeps only the nodes lying
  on some shortest augmenting path, and the admissible arcs between
  those nodes compacted in their original adjacency order.  The
  reference DFS (:func:`repro.accel.pure.dinic_blocking_flow`) then runs
  on the compacted arcs alone and the residuals it touched are
  scattered back.  Below the crossover the pure loop runs on
  memoryviews of the arrays, which is faster there.
* :func:`ggt_advance` -- the increasing-α capacity refresh as one
  array expression.

The sequential loops with no useful numpy formulation (the GGT retreat
drains, the peels) stay on the pure tier, which the registry hands
memoryviews of the arrays (:func:`on_views`).

Why the planner cannot change an answer: a node on no shortest s-t
path when a phase starts stays dead for the whole phase -- the phase
only saturates forward level arcs and opens backward ones, and backward
arcs are never admissible -- so the reference DFS would enter it, push
nothing and prune it.  Skipping it in advance leaves the same
augmenting paths, in the same order, with the same bottlenecks: every
residual float, the flow value and the work counters match the pure
tier (asserted by the dispatch property suite).
"""

from __future__ import annotations

from .. import env
from ..flow.network import EPS, arcs_out
from . import pure

if env.flag("REPRO_NO_NUMPY"):  # explicit opt-out for CI / ablations
    np = None
else:
    try:  # optional: the registry only selects this tier with numpy present
        import numpy as np
    except ImportError:  # pragma: no cover - environment-specific
        np = None

#: Arc-array length (reverse arcs included) from which the planner beats
#: the pure loop.  Measured on a 2-vCPU host: the benchmark's networks
#: below 1,000 entries solve 4x slower planned, those of 1,428 and 1,820
#: entries 0.85-1.06x, those from 4,986 entries up 2-4x faster; random
#: EDS/CDS networks cross over between 1,000 and 1,100.  Read at every
#: call, so tests can lower it.
PLAN_MIN_ARCS = 1024

#: How the most recent :func:`dinic_max_flow` call ran: ``"numpy"`` (the
#: planner) or ``"scalar"`` (the pure loop) -- the telemetry side channel
#: the accel dispatcher copies into the per-solve flow records.
LAST_BFS_MODE = "scalar"


def on_views(fn, args, offsets=None):
    """Call scalar kernel ``fn`` on memoryviews of the numpy arrays in ``args``.

    The pure loops index a memoryview as fast as a list -- several times
    faster than a numpy array -- with no copy, and their writes land in
    the arrays themselves.  The CSR offsets at position ``offsets`` are
    copied to a list instead: the loops slice them into per-node
    cursors, which must not alias the network's array.
    """
    views = [memoryview(a) if isinstance(a, np.ndarray) else a for a in args]
    if offsets is not None and isinstance(args[offsets], np.ndarray):
        views[offsets] = args[offsets].tolist()
    return fn(*views)


def _plan_phase(source, sink, head, cap, adj_start, adj_arcs):
    """One phase's level graph, cut down to its shortest augmenting paths.

    Returns ``None`` when the sink is unreachable, else ``(arcs,
    sub_head, sub_start, sub_level)``: the original ids of the arcs kept,
    grouped by tail in adjacency order, and the paired head array, CSR
    offsets and levels (the last two as lists) of the compacted network,
    in which kept arc ``j`` is arc ``2 * j`` and its reverse ``2 * j +
    1``.  The compacted source is node 0 and the sink the last node.
    """
    n = len(adj_start) - 1
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source])
    layers = []  # per level d: the admissible arcs leaving level d
    depth = 0
    while frontier.size and level[sink] < 0:
        depth += 1
        arcs = arcs_out(adj_start, adj_arcs, frontier)
        heads = head[arcs]
        admissible = (cap[arcs] > EPS) & (level[heads] < 0)
        level[heads[admissible]] = depth
        frontier = np.flatnonzero(level == depth)
        layers.append(arcs[admissible])
    if level[sink] < 0:
        return None
    on_path = np.zeros(n, dtype=bool)
    on_path[sink] = True
    for d in range(len(layers) - 1, -1, -1):
        arcs = layers[d][on_path[head[layers[d]]]]
        on_path[head[arcs ^ 1]] = True
        layers[d] = arcs
    arcs = np.concatenate(layers)
    tails = head[arcs ^ 1]
    first = np.empty(arcs.size, dtype=bool)
    first[0] = True
    np.not_equal(tails[1:], tails[:-1], out=first[1:])
    sub_tail = np.cumsum(first) - 1
    nodes = tails[first]
    sub_id = np.empty(n, dtype=np.int64)  # read only at kept nodes
    sub_id[nodes] = np.arange(nodes.size)
    sub_id[sink] = nodes.size
    sub_head = np.empty(2 * arcs.size, dtype=np.int64)
    sub_head[0::2] = sub_id[head[arcs]]
    sub_head[1::2] = sub_tail
    sub_start = np.searchsorted(sub_tail, np.arange(nodes.size + 2))
    sub_level = level[nodes].tolist()
    sub_level.append(depth)
    return arcs, sub_head, sub_start.tolist(), sub_level


def _planned_max_flow(source, sink, head, cap, adj_start, adj_arcs):
    total = 0.0
    bfs_passes = 0
    augments = 0
    while True:
        plan = _plan_phase(source, sink, head, cap, adj_start, adj_arcs)
        bfs_passes += 1
        if plan is None:
            return total, bfs_passes, augments
        arcs, sub_head, sub_start, sub_level = plan
        rev = arcs ^ 1
        sub_cap = np.empty(2 * arcs.size)
        sub_cap[0::2] = cap[arcs]
        sub_cap[1::2] = cap[rev]
        # the DFS indexes memoryviews as fast as lists, without one
        # Python object per arc, and its writes land in sub_cap itself
        total, pushed = pure.dinic_blocking_flow(
            0, len(sub_start) - 2, memoryview(sub_head), memoryview(sub_cap),
            sub_start, range(0, 2 * arcs.size, 2), sub_level, total,
        )
        augments += pushed
        cap[arcs] = sub_cap[0::2]
        cap[rev] = sub_cap[1::2]


def dinic_max_flow(source, sink, head, cap, adj_start, adj_arcs):
    """Dinic, phases planned in numpy from :data:`PLAN_MIN_ARCS` entries.

    Takes the numpy arrays of a parametric network and returns
    ``(total, bfs_passes, augments)`` like the pure tier.
    """
    global LAST_BFS_MODE
    args = (source, sink, head, cap, adj_start, adj_arcs)
    if len(head) < PLAN_MIN_ARCS:
        LAST_BFS_MODE = "scalar"
        return on_views(pure.dinic_max_flow, args, 4)
    LAST_BFS_MODE = "numpy"
    return _planned_max_flow(*args)


def ggt_advance(cap, base_cap, alpha_arcs, alpha_coeff, alpha):
    """Increasing-α capacity refresh as one array expression.

    Per α-arc the same IEEE operations as the pure loop, in the same
    order: ``(base + coeff·α) − flow``.  No α-arc is another's reverse,
    so the elementwise form reads exactly what the loop reads.
    """
    if not isinstance(cap, np.ndarray):  # a list-backed caller (warm_up)
        return pure.ggt_advance(cap, base_cap, alpha_arcs, alpha_coeff, alpha)
    rev = alpha_arcs ^ 1
    flow = cap[rev] - base_cap[rev]
    cap[alpha_arcs] = base_cap[alpha_arcs] + alpha_coeff * alpha - flow
