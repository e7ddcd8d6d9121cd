"""Pure-python hot-loop kernels -- the portable baseline tier.

Every kernel of :mod:`repro.accel` has its reference implementation
here, written over the flat arc / incidence arrays as plain Python
lists.  The numpy tier (:mod:`repro.accel.vector`) runs the GGT advance
and the retreat's clamp as array expressions with the same
float-operation order, reuses :func:`dinic_blocking_flow` on each
phase's shortest-path arcs (after batched rounds on a large phase), and
runs the peels here as they are -- so residual capacities, flow values,
cuts, peel orders and densities are *bit-identical* across tiers
wherever these loops push the flow (the dispatch property suite pins
this; the numpy tier's rounds reach another maximum flow with the same
minimal min cut).

Keep that in mind when editing: any reordering of arithmetic or
traversal here must be mirrored in :mod:`repro.accel.vector`.
"""

from __future__ import annotations

import heapq

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
    (:mod:`repro.obs`), identical across accel tiers wherever every tier
    executes the same traversal (the numpy tier's batched rounds push
    paths the DFS then does not count).  The :mod:`repro.accel`
    functions strip them; engine callers still see a plain float.
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


def ggt_retreat(
    head, cap, base_cap, adj_start, adj_arcs, alpha_arcs, alpha_coeff, alpha_src,
    source, sink, alpha,
):
    """Decreasing-alpha half of GGT over the flat arrays.

    Each alpha-arc whose flow exceeds its shrunken capacity is clamped
    to saturation, and the difference becomes an excess at its tail;
    arcs still under capacity just have their residual recomputed.  An
    excess above EPS drains back to the source in two steps:

    1. through the tail's own source arc (``alpha_src[i]``, -1 when
       unknown): ``min(excess, residual)`` when that arc's reverse has a
       residual above EPS -- a one-arc path, found without a search;
    2. whatever is left, in one :func:`dinic_max_flow` from the sink to
       the source.  For its duration each clamped arc's reverse
       (``t -> v``) gets the excess left at ``v`` as its residual and
       every other residual arc out of the sink is zeroed; afterwards
       the sink's arcs, both directions, get their residuals back.  So
       the sink sends out exactly the excess, and Dinic drains it from
       each ``v`` over the reverse arcs of the flow that reached ``v``:
       flow decomposition guarantees their residual, and no path passes
       through the sink, which sends no other flow.

    Mutates ``cap`` in place; the state on exit is a feasible warm flow
    at the new alpha.  Returns ``(clamped, drain_paths)``, the telemetry
    work counters: the one-arc returns plus the max flow's augmenting
    paths.  The :mod:`repro.accel` functions strip them.
    """
    clamped = drain_paths = 0
    excess: list[tuple[int, float]] = []  # (t -> v arc, excess left at v)
    for i in range(len(alpha_arcs)):
        a = alpha_arcs[i]
        new_cap = base_cap[a] + alpha_coeff[i] * alpha
        flow = cap[a ^ 1] - base_cap[a ^ 1]
        if flow <= new_cap:
            cap[a] = new_cap - flow
            continue
        cap[a] = 0.0
        cap[a ^ 1] = base_cap[a ^ 1] + new_cap
        clamped += 1
        left = flow - new_cap
        src = alpha_src[i]
        back = cap[src ^ 1] if src >= 0 else 0.0
        if left > EPS and back > EPS:
            push = left if left <= back else back
            cap[src ^ 1] = back - push
            cap[src] += push
            left -= push
            drain_paths += 1
        if left > EPS:
            excess.append((a ^ 1, left))
    if excess:
        out = [adj_arcs[i] for i in range(adj_start[sink], adj_start[sink + 1])]
        saved = [(cap[a], cap[a ^ 1]) for a in out]
        for a in out:
            cap[a] = 0.0
        for a, left in excess:
            cap[a] = left
        drain_paths += dinic_max_flow(sink, source, head, cap, adj_start, adj_arcs)[2]
        for a, (residual, reverse) in zip(out, saved):
            cap[a] = residual
            cap[a ^ 1] = reverse
    return clamped, drain_paths


def ggt_advance(cap, base_cap, alpha_arcs, alpha_coeff, alpha):
    """Increasing-alpha capacity refresh (the numpy tier runs it as one
    array expression, :func:`repro.accel.vector.ggt_advance`)."""
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


# --------------------------------------------------------------------
# Lazy-deletion heap peel (PeelApp's engine)
# --------------------------------------------------------------------


def heap_peel(inst, inc_start, inc_ids, deg, alive, num_alive, n, h):
    """Min-degree peel over a lazy-deletion heap, one removal per step.

    Repeatedly removes the vertex of minimum ``(degree, id)`` among the
    first ``n`` ids, kills its live instances (``alive`` is cleared in
    place) and decrements the surviving members' ``deg`` (mutated in
    place), down to a single remaining vertex.  The heap is O(log n) per
    operation even when every vertex shares one degree (a per-degree
    bucket scan degenerates to O(n) per pop on regular graphs); stale
    entries are skipped on pop.  The keys are unique, so the removal
    order is a pure function of the degrees -- exactly what a naive
    min-scan with the same key removes.

    A generator: yields ``(vid, num_alive)`` after each removal, the
    live instance count included, so a caller can stop (or tick a
    budget) between removals.
    """
    heap = [(deg[i], i) for i in range(n)]
    heapq.heapify(heap)
    removed = bytearray(len(deg))
    push = heapq.heappush
    pop = heapq.heappop
    for _ in range(n - 1):
        while heap:
            d, vid = pop(heap)
            if not removed[vid] and deg[vid] == d:
                break
        else:
            return
        removed[vid] = 1
        for pos in range(inc_start[vid], inc_start[vid + 1]):
            iid = inc_ids[pos]
            if not alive[iid]:
                continue
            alive[iid] = 0
            num_alive -= 1
            for k in range(iid * h, iid * h + h):
                uid = inst[k]
                if not removed[uid]:
                    deg[uid] -= 1
                    if uid < n:
                        push(heap, (deg[uid], uid))
        yield vid, num_alive
