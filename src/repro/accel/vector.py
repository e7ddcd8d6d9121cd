"""numpy kernel implementations -- the fast tier.

Whenever numpy is importable a ``ParametricNetwork`` keeps its arc
arrays in numpy from construction to cut extraction
(:mod:`repro.flow.parametric`); this tier works on them directly:

* :func:`dinic_max_flow` -- at or above :data:`PLAN_MIN_ARCS` arc-array
  entries every Dinic phase is *planned* in numpy: a frontier BFS over
  the residual that stops at the sink's level exactly as the scalar BFS
  does, a backward pass from the sink that keeps only the nodes lying
  on some shortest augmenting path, and the admissible arcs between
  those nodes compacted level by level in their original adjacency
  order.  A phase of at least :data:`ROUNDS_MIN_ARCS` kept arcs then
  gets its blocking flow from batched rounds (:func:`_push_rounds`);
  the reference DFS (:func:`repro.accel.pure.dinic_blocking_flow`)
  pushes smaller phases, and finishes a phase the rounds leave
  unblocked, on the compacted arcs alone.  The residuals are scattered
  back.  Below :data:`PLAN_MIN_ARCS` the pure loop runs on memoryviews
  of the arrays, which is faster there.
* :func:`ggt_advance` -- the increasing-α capacity refresh as one
  array expression.
* :func:`ggt_retreat` -- the decreasing-α clamp and each vertex's
  return through its own source arc as array expressions, and the
  excess left over drained in one :func:`dinic_max_flow` from the sink
  to the source.

The peels, sequential loops with no useful numpy formulation, stay on
the pure tier, which :mod:`repro.accel` hands memoryviews of the arrays
(:func:`on_views`).

**The rounds** are Karzanov's preflow method (1974), one level of the
compacted network per array expression.  A round sweeps the levels
three times: from the sink back, each node's *reach* -- what its
out-arcs could still carry on to the sink; from the source on, a push
of the source's reach, each node water-filling what arrives over its
out-arcs in adjacency order; from the sink back again, a balance, each
node water-filling what its out-arcs were accepted over its in-arcs.
What the source's arcs were accepted is a feasible flow; it is added,
and rounds repeat until the source's reach shows the phase blocked, a
round adds next to nothing, or :data:`MAX_ROUNDS` ran; the DFS then
finishes the phase.  Every phase still ends blocked, so the algorithm
stays Dinic's: one BFS per phase, each finding longer shortest paths
than the last.

**Why no answer changes.** A node on no shortest s-t path when a phase
starts stays dead for the whole phase -- the phase only saturates
forward level arcs and opens backward ones, and backward arcs are
never admissible -- so the planner only skips what the DFS would enter,
push nothing through and prune.  Where the DFS pushes every phase,
the augmenting paths, their order and bottlenecks, every residual
float and the work counters match the pure tier.  The rounds reach
another maximum flow, with residual floats of its own.  Every maximum
flow leaves the same set of nodes reachable from the source in its
residual network: the unique minimal min cut, which is all a solver
reads.  So cuts, breakpoints and densities are the pure tier's, bit for
bit (the dispatch property suite checks both halves).
"""

from __future__ import annotations

from .. import env
from ..flow.network import EPS, arcs_out
from . import pure

if env.flag("REPRO_NO_NUMPY"):  # explicit opt-out for CI / ablations
    np = None
else:
    try:  # optional: repro.accel only selects this tier with numpy present
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

#: Kept arcs of a planned phase from which the batched rounds
#: (:func:`_push_rounds`) compute its blocking flow.  A round is some 20
#: array calls per level, so on small phases the DFS is faster.
#: Measured on a 2-vCPU host on the 282 planned phases of at least 128
#: kept arcs that the benchmark's exact cells, serve precomputes and
#: CorePExact cells run at seed 1, each phase solved both ways (best of
#: 5): summed over them the DFS alone takes 459 ms, rounds from 2,048
#: arcs 225 ms, from 768 arcs 170 ms, from 256 arcs 168 ms; from 768 no
#: cell's phases are slower than with the DFS alone, from 512 down some
#: are (As-733 h=3 CoreExact).  Read at every phase, so tests can lower
#: it.
ROUNDS_MIN_ARCS = 768

#: Rounds per phase before the DFS takes over.  Each of those phases of
#: at least :data:`ROUNDS_MIN_ARCS` kept arcs blocks within 12 rounds
#: (112 of 113 within 7), and one round costs a median 14% of what the
#: DFS alone spends on the phase: the cap keeps a phase that would block
#: only slowly at about twice the DFS's cost.  Read at every phase, so
#: tests can lower it.
MAX_ROUNDS = 16

#: How the most recent :func:`dinic_max_flow` call ran: ``"numpy"`` (the
#: planner) or ``"scalar"`` (the pure loop), and how many batched rounds
#: its phases ran -- the telemetry side channel :mod:`repro.accel`
#: copies into the per-solve flow records.
LAST_BFS_MODE = "scalar"
LAST_ROUNDS = 0


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
    sub_head, sub_start, sub_level, level_start)``: the original ids of
    the arcs kept, grouped by tail in adjacency order, and the paired
    head array, CSR offsets and levels (the last two as lists) of the
    compacted network, in which kept arc ``j`` is arc ``2 * j`` and its
    reverse ``2 * j + 1``.  The kept arcs are concatenated level by
    level, so the arcs leaving level ``d`` are the slice
    ``level_start[d]:level_start[d + 1]``, and the compacted nodes are
    numbered in level order: the source is node 0 and the sink the last
    node.  :func:`_push_rounds` relies on that layout.
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
    level_start = np.zeros(depth + 1, dtype=np.int64)
    np.cumsum([layer.size for layer in layers], out=level_start[1:])
    arcs = np.concatenate(layers)
    tails = head[arcs ^ 1]
    first = np.empty(arcs.size, dtype=bool)
    first[0] = True
    np.not_equal(tails[1:], tails[:-1], out=first[1:])
    sub_tail = np.cumsum(first) - 1
    nodes = tails[first]
    # level d's arcs leave level-d nodes only: each level is one slice
    # of the arcs and one range of the compacted nodes
    assert np.array_equal(level[tails], np.repeat(np.arange(depth), np.diff(level_start)))
    sub_id = np.empty(n, dtype=np.int64)  # read only at kept nodes
    sub_id[nodes] = np.arange(nodes.size)
    sub_id[sink] = nodes.size
    sub_head = np.empty(2 * arcs.size, dtype=np.int64)
    sub_head[0::2] = sub_id[head[arcs]]
    sub_head[1::2] = sub_tail
    sub_start = np.searchsorted(sub_tail, np.arange(nodes.size + 2))
    sub_level = level[nodes].tolist()
    sub_level.append(depth)
    return arcs, sub_head, sub_start.tolist(), sub_level, level_start.tolist()


def _water_fill(amount, cap, starts, counts):
    """Pour ``amount[i]`` into run ``i`` of ``cap``, entry after entry.

    The runs are consecutive, ``counts[i]`` entries from ``starts[i]``.
    Each entry takes ``min(cap, what its run has left)``; one cumulative
    sum gives every entry what the entries before it in its run took.
    Every share lies in ``[0, cap]``.
    """
    before = np.empty_like(cap)
    before[0] = 0.0
    np.cumsum(cap[:-1], out=before[1:])
    left = np.repeat(amount + before[starts], counts)
    left -= before
    np.maximum(left, 0.0, out=left)
    return np.minimum(left, cap, out=left)


class _Level:
    """The arcs leaving one level of a planned phase, indexed once for
    every round of :func:`_push_rounds`: their slice of the kept arcs,
    the CSR runs of their tails, their heads numbered within the next
    level, and the same arcs stably sorted by head with the runs of
    each head."""

    __slots__ = ("arcs", "out_starts", "out_counts", "rel_head", "by_head",
                 "in_starts", "in_counts")

    def __init__(self, sub_head, sub_start, a0, a1, n0, n1, n2):
        offsets = sub_start[n0 : n1 + 1] - a0
        self.arcs = slice(a0, a1)
        self.out_starts = offsets[:-1]
        self.out_counts = np.diff(offsets)
        self.rel_head = sub_head[2 * a0 : 2 * a1 : 2] - n1
        self.by_head = np.argsort(self.rel_head, kind="stable")
        self.in_counts = np.bincount(self.rel_head, minlength=n2 - n1)
        self.in_starts = np.zeros(n2 - n1, dtype=np.int64)
        np.cumsum(self.in_counts[:-1], out=self.in_starts[1:])


def _push_rounds(sub_head, sub_cap, sub_start, level_start, total):
    """Batched blocking-flow rounds over one planned level graph.

    Karzanov's preflow scheme, one level per array expression; each
    round is three sweeps over the levels of the compacted network:

    1. *reach*, deepest level first: ``e = min(residual, reach[head])``
       per arc and ``reach[tail] = Σ e`` -- an upper bound on what each
       node can still deliver to the sink (the sink's is unbounded);
       residuals at most EPS count as zero, as in the DFS;
    2. *forward push*: the source sends ``e`` on every arc; each other
       node water-fills what arrives on its in-arcs over its out-arcs,
       in adjacency order, capped by ``e``, giving ``f``;
    3. *backward balance*, deepest level first: the sink accepts all
       that arrives; each other node accepts what its out-arcs were
       accepted and water-fills it over its in-arcs, in adjacency
       order, capped by ``f``, giving ``g``.

    Then ``g`` is applied: residual ``-= g``, reverse ``+= g``.  As
    ``g <= f <= e <= residual`` and every inner node passes on what it
    accepted, each round adds a feasible flow, of value what the source
    arcs were accepted.  If a path of arcs with residual above EPS is
    left, every node on it has a reach above EPS, so a source reach at
    most EPS proves the phase blocked.  Returns ``(total, rounds,
    blocked)``; unless ``blocked``, the rounds stalled (one added at
    most EPS) or :data:`MAX_ROUNDS` ran, and the DFS finishes the phase.
    """
    nodes = len(sub_start) - 1
    node_start = [sub_head[2 * a + 1] for a in level_start[:-1]] + [nodes - 1, nodes]
    sub_start = np.asarray(sub_start)
    levels = [
        _Level(sub_head, sub_start, level_start[d], level_start[d + 1],
               node_start[d], node_start[d + 1], node_start[d + 2])
        for d in range(len(level_start) - 1)
    ]
    residual = sub_cap[0::2]
    reverse = sub_cap[1::2]
    rounds = 0
    while True:
        e = []
        reach = None  # of the heads of the level at hand
        for lv in reversed(levels):
            left = residual[lv.arcs]
            e_d = np.where(left > EPS, left, 0.0)
            if reach is not None:
                np.minimum(e_d, reach[lv.rel_head], out=e_d)
            reach = np.add.reduceat(e_d, lv.out_starts)
            e.append(e_d)
        e.reverse()
        if reach[0] <= EPS:
            return total, rounds, True
        if rounds == MAX_ROUNDS:
            return total, rounds, False
        f = [e[0]]
        for prev, lv, e_d in zip(levels, levels[1:], e[1:]):
            arrived = np.bincount(prev.rel_head, weights=f[-1], minlength=prev.in_counts.size)
            f.append(_water_fill(arrived, e_d, lv.out_starts, lv.out_counts))
        del e
        g = f.pop()  # the sink accepts all that arrives
        for lv, nxt in zip(levels[-2::-1], levels[::-1]):
            accepted = np.add.reduceat(g, nxt.out_starts)
            residual[nxt.arcs] -= g
            reverse[nxt.arcs] += g
            f_d = f.pop()
            g = np.empty_like(f_d)
            g[lv.by_head] = _water_fill(accepted, f_d[lv.by_head], lv.in_starts, lv.in_counts)
        residual[levels[0].arcs] -= g
        reverse[levels[0].arcs] += g
        added = float(g.sum())
        total += added
        rounds += 1
        if added <= EPS:
            return total, rounds, False


def _planned_max_flow(source, sink, head, cap, adj_start, adj_arcs):
    global LAST_ROUNDS
    total = 0.0
    bfs_passes = 0
    augments = 0
    while True:
        plan = _plan_phase(source, sink, head, cap, adj_start, adj_arcs)
        bfs_passes += 1
        if plan is None:
            return total, bfs_passes, augments
        arcs, sub_head, sub_start, sub_level, level_start = plan
        rev = arcs ^ 1
        sub_cap = np.empty(2 * arcs.size)
        sub_cap[0::2] = cap[arcs]
        sub_cap[1::2] = cap[rev]
        blocked = False
        if arcs.size >= ROUNDS_MIN_ARCS:
            total, rounds, blocked = _push_rounds(
                sub_head, sub_cap, sub_start, level_start, total
            )
            LAST_ROUNDS += rounds
        if not blocked:
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
    ``(total, bfs_passes, augments)`` like the pure tier; ``augments``
    counts the DFS's paths only, and :data:`LAST_ROUNDS` the batched
    rounds.
    """
    global LAST_BFS_MODE, LAST_ROUNDS
    args = (source, sink, head, cap, adj_start, adj_arcs)
    LAST_ROUNDS = 0
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
    rev = alpha_arcs ^ 1
    flow = cap[rev] - base_cap[rev]
    cap[alpha_arcs] = base_cap[alpha_arcs] + alpha_coeff * alpha - flow


def ggt_retreat(head, cap, base_cap, adj_start, adj_arcs, alpha_arcs, alpha_coeff, alpha_src,
                source, sink, alpha):
    """Decreasing-α half of GGT: :func:`repro.accel.pure.ggt_retreat`
    in array expressions, its drain max flow run by :func:`dinic_max_flow`.

    The clamp performs the pure loop's IEEE operations per α-arc, and
    each vertex's source-arc return is ``min(excess, residual)`` as
    there.  No two α-arcs, and no two source arcs, are one arc, so
    the elementwise forms read and write exactly what the loop does.
    """
    rev = alpha_arcs ^ 1
    new_cap = base_cap[alpha_arcs] + alpha_coeff * alpha
    flow = cap[rev] - base_cap[rev]
    over = flow > new_cap
    cap[alpha_arcs] = np.where(over, 0.0, new_cap - flow)
    rev, new_cap, src = rev[over], new_cap[over], alpha_src[over]
    cap[rev] = base_cap[rev] + new_cap
    left = flow[over] - new_cap
    back = np.zeros_like(left)
    paired = src >= 0
    back[paired] = cap[src[paired] ^ 1]
    returns = (left > EPS) & (back > EPS)
    src, push = src[returns], np.minimum(left[returns], back[returns])
    cap[src ^ 1] = back[returns] - push
    cap[src] += push
    left[returns] -= push
    drain_paths = int(np.count_nonzero(returns))
    drain = left > EPS
    if drain.any():
        out = adj_arcs[adj_start[sink] : adj_start[sink + 1]]
        residual, reverse = cap[out], cap[out ^ 1]
        cap[out] = 0.0
        cap[rev[drain]] = left[drain]
        drain_paths += dinic_max_flow(sink, source, head, cap, adj_start, adj_arcs)[2]
        cap[out] = residual
        cap[out ^ 1] = reverse
    return int(np.count_nonzero(over)), drain_paths
