"""Pure-python hot-loop kernels -- the portable baseline tier.

Every kernel in the registry (:mod:`repro.accel`) has its reference
implementation here, written over the flat arc / incidence arrays as
plain Python lists.  The higher tiers are literal translations of these
loops (:mod:`repro.accel.kernels`, and the array-expression GGT advance
in :mod:`repro.accel.vector`) or reuse them (the numpy Dinic runs
:func:`dinic_blocking_flow` on each phase's shortest-path arcs) --
same traversal order, same float-operation order, same EPS discipline
-- so residual capacities, flow values, cuts, peel orders and densities
are *bit-identical* across tiers (the dispatch property suite pins
this).

Keep that in mind when editing: any reordering of arithmetic or
traversal here must be mirrored in :mod:`repro.accel.kernels`, and vice
versa.
"""

from __future__ import annotations

from ..flow.network import EPS

# --------------------------------------------------------------------
# Dinic (BFS level graph + iterative blocking-flow DFS)
# --------------------------------------------------------------------


def dinic_levels(head, cap, adj_start, adj_arcs, n, source, sink):
    """BFS levels over residual arcs; stops once the sink's level is set."""
    level = [-1] * n
    level[source] = 0
    frontier = [source]
    depth = 0
    while frontier and level[sink] < 0:
        depth += 1
        nxt: list[int] = []
        for u in frontier:
            for idx in range(adj_start[u], adj_start[u + 1]):
                arc = adj_arcs[idx]
                v = head[arc]
                if level[v] < 0 and cap[arc] > EPS:
                    level[v] = depth
                    nxt.append(v)
        frontier = nxt
    return level


def dinic_blocking_flow(source, sink, head, cap, adj_start, adj_arcs, level, total):
    """One Dinic phase's blocking flow: iterative DFS over ``level``.

    Pushes augmenting paths along arcs with residual above EPS that go
    from level d to level d + 1, pruning dead ends (``level`` is
    mutated), until the source has no admissible arc left.  ``total``
    is the running flow value, added to once per augmenting path so
    that its float sum is the same however the phases are driven.
    Returns ``(total, augments)``.

    Shared by both scalar-looping tiers: :func:`dinic_max_flow` runs it
    on the whole network, the numpy tier's planner
    (:mod:`repro.accel.vector`) on the compacted arcs of the phase's
    shortest augmenting paths.
    """
    n = len(adj_start) - 1
    augments = 0
    it = adj_start[:n]  # per-node cursor into adj_arcs
    path: list[int] = []  # arcs from source down to the frontier
    u = source
    while True:
        if u == sink:
            pushed = cap[path[0]]
            for arc in path:
                if cap[arc] < pushed:
                    pushed = cap[arc]
            for arc in path:
                cap[arc] -= pushed
                cap[arc ^ 1] += pushed
            total += pushed
            augments += 1
            # retreat to just before the first saturated arc
            for i, arc in enumerate(path):
                if cap[arc] <= EPS:
                    u = head[arc ^ 1]  # tail of the saturated arc
                    del path[i:]
                    break
            continue
        advanced = False
        end = adj_start[u + 1]
        while it[u] < end:
            arc = adj_arcs[it[u]]
            v = head[arc]
            if cap[arc] > EPS and level[v] == level[u] + 1:
                path.append(arc)
                u = v
                advanced = True
                break
            it[u] += 1
        if advanced:
            continue
        if u == source:
            return total, augments  # blocking flow complete for this phase
        # dead end: prune the node from this phase and retreat
        level[u] = -1
        arc = path.pop()
        u = head[arc ^ 1]
        it[u] += 1


def dinic_max_flow(source, sink, head, cap, adj_start, adj_arcs):
    """Dinic over the flat arc arrays; returns ``(total, bfs_passes,
    augments)``.

    ``total`` is the flow pushed; ``bfs_passes`` counts the level-graph
    constructions (Dinic phases) and ``augments`` the augmenting paths
    of the blocking flows -- pure work counters for the telemetry layer
    (:mod:`repro.obs`), identical across accel tiers because every tier
    executes the same traversal.  The :mod:`repro.accel` dispatcher
    strips them; engine callers still see a plain float.
    """
    n = len(adj_start) - 1
    total = 0.0
    bfs_passes = 0
    augments = 0
    while True:
        level = dinic_levels(head, cap, adj_start, adj_arcs, n, source, sink)
        bfs_passes += 1
        if level[sink] < 0:
            return total, bfs_passes, augments
        total, pushed = dinic_blocking_flow(
            source, sink, head, cap, adj_start, adj_arcs, level, total
        )
        augments += pushed


# --------------------------------------------------------------------
# GGT retreat: clamp over-full sink arcs, drain the excess to the source
# --------------------------------------------------------------------


def _drain_to_source(head, cap, adj_start, adj_arcs, num_nodes, source, node, amount):
    """Push ``amount`` units of excess from ``node`` back to the source.

    Repeated residual-path search (node -> source, DFS) with path
    augmentation; the excess always drains fully when it came from
    clamping a feasible flow (flow decomposition guarantees the reverse
    arcs of its paths carry enough residual).  Returns the number of
    drain paths pushed (the telemetry work counter).
    """
    paths = 0
    remaining = amount
    while remaining > EPS:
        parent = [-2] * num_nodes  # arc that discovered each node
        parent[node] = -1
        stack = [node]
        found = False
        while stack and not found:
            u = stack.pop()
            for idx in range(adj_start[u], adj_start[u + 1]):
                arc = adj_arcs[idx]
                w = head[arc]
                if parent[w] == -2 and cap[arc] > EPS:
                    parent[w] = arc
                    if w == source:
                        found = True
                        break
                    stack.append(w)
        if not found:  # pragma: no cover - impossible for clamped max flows
            break
        path: list[int] = []
        w = source
        while w != node:
            arc = parent[w]
            path.append(arc)
            w = head[arc ^ 1]
        push = remaining
        for arc in path:
            if cap[arc] < push:
                push = cap[arc]
        for arc in path:
            cap[arc] -= push
            cap[arc ^ 1] += push
        remaining -= push
        paths += 1
    return paths


def ggt_retreat(
    head, cap, base_cap, adj_start, adj_arcs, alpha_arcs, alpha_coeff,
    num_nodes, source, alpha,
):
    """Decreasing-alpha half of GGT over the flat arrays.

    Each alpha-arc whose flow exceeds its shrunken capacity is clamped
    to saturation and the difference drained from the arc's tail back to
    the source; arcs still under capacity just have their residual
    recomputed.  Mutates ``cap`` in place; the state on exit is a
    feasible warm flow at the new alpha.  Returns ``(clamped,
    drain_paths)`` -- the telemetry work counters (tier-identical); the
    :mod:`repro.accel` dispatcher strips them.
    """
    excess: list[tuple[int, float]] = []
    for i in range(len(alpha_arcs)):
        a = alpha_arcs[i]
        c = alpha_coeff[i]
        new_cap = base_cap[a] + c * alpha
        flow = cap[a ^ 1] - base_cap[a ^ 1]
        if flow > new_cap:
            cap[a] = 0.0
            cap[a ^ 1] = base_cap[a ^ 1] + new_cap
            excess.append((head[a ^ 1], flow - new_cap))
        else:
            cap[a] = new_cap - flow
    drain_paths = 0
    for node, amount in excess:
        drain_paths += _drain_to_source(
            head, cap, adj_start, adj_arcs, num_nodes, source, node, amount
        )
    return len(excess), drain_paths


def ggt_advance(cap, base_cap, alpha_arcs, alpha_coeff, alpha):
    """Increasing-alpha capacity refresh (the numpy and numba tiers run
    it as one array expression, :func:`repro.accel.vector.ggt_advance`)."""
    for i in range(len(alpha_arcs)):
        a = alpha_arcs[i]
        flow = cap[a ^ 1] - base_cap[a ^ 1]
        cap[a] = base_cap[a] + alpha_coeff[i] * alpha - flow


# --------------------------------------------------------------------
# Bucket-queue peel (Algorithm-3 core decomposition engine)
# --------------------------------------------------------------------


def degree_bucket_queue(deg):
    """Counting-sort setup of the Batagelj-Zaversnik bucket queue.

    Returns ``(position, order, bin_ptr)``: ``order`` lists vertex ids
    ascending by degree with ``position`` its inverse, and ``bin_ptr[d]``
    points at the first entry of degree-``d``'s bucket; :func:`bucket_peel`
    then runs the standard one-swap-per-decrement loop over these arrays.
    """
    n = len(deg)
    max_deg = max(deg, default=0)
    bin_start = [0] * (max_deg + 2)
    for d in deg:
        bin_start[d + 1] += 1
    for i in range(max_deg + 1):
        bin_start[i + 1] += bin_start[i]
    fill = bin_start[: max_deg + 1]
    position = [0] * n
    order = [0] * n
    for i in range(n):
        d = deg[i]
        p = fill[d]
        position[i] = p
        order[p] = i
        fill[d] += 1
    return position, order, bin_start[: max_deg + 1]


def bucket_peel(inst, inc_start, inc_ids, deg, alive, in_graph, h, n_graph, num_alive):
    """Min-degree bucket-queue peel over a flat instance index.

    The engine behind the (k, Psi)-core decomposition: removes vertices
    ascending by current degree (one bucket swap per decrement), kills
    the incident instances, and tracks the best residual density over
    the ``in_graph`` vertices.  ``deg`` and ``alive`` are mutated in
    place (callers pass private copies).

    Returns ``(core, order, best_removed, best_density)``: the core
    number and removal order by internal id, how many removals led to
    the best residual, and that density.
    """
    n = len(deg)
    position, order, bin_ptr = degree_bucket_queue(deg)
    core = [0] * n
    removed = bytearray(n)
    best_density = (num_alive / n_graph) if n_graph else 0.0
    best_removed = 0
    alive_graph = n_graph
    for i in range(n):
        vi = order[i]
        dv = deg[vi]
        removed[vi] = 1
        core[vi] = dv
        if in_graph[vi]:
            alive_graph -= 1
        for pos in range(inc_start[vi], inc_start[vi + 1]):
            iid = inc_ids[pos]
            if not alive[iid]:
                continue
            alive[iid] = 0
            num_alive -= 1
            for k in range(iid * h, iid * h + h):
                ui = inst[k]
                if not removed[ui] and deg[ui] > dv:
                    du = deg[ui]
                    first = bin_ptr[du]
                    w = order[first]
                    if w != ui:
                        pu = position[ui]
                        order[first], order[pu] = ui, w
                        position[ui], position[w] = first, pu
                    bin_ptr[du] += 1
                    deg[ui] = du - 1
        if alive_graph:
            density = num_alive / alive_graph
            if density > best_density:
                best_density = density
                best_removed = i + 1
    return core, order, best_removed, best_density
