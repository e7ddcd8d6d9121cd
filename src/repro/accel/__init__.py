"""Two-tier acceleration backend for the flow and peel hot loops.

The scalar hot loops of this package -- Dinic's max flow, the GGT
advance and retreat, and the two peel engines -- are called through the
five functions of this module instead of branching locally.  Two tiers:

* **numpy** -- :mod:`repro.accel.vector`: Dinic with every phase planned
  in numpy from one size crossover and cut down to the arcs of shortest
  augmenting paths, the blocking flow of a large phase computed in
  batched push-and-balance rounds and the reference DFS pushing the
  rest; the GGT advance, and the retreat's clamp and source-arc
  returns, as array expressions, the rest of the retreat's drain as one
  max flow of that Dinic.  The peels run the pure loops.  Selected
  whenever numpy is importable.
* **python** -- :mod:`repro.accel.pure`: dependency-free reference
  implementations.  Always available; handed memoryviews of numpy
  arrays, which the loops index as fast as lists and write through.

Both tiers produce bit-identical answers -- cuts, breakpoints, peel
orders, densities.  The numpy advance and retreat perform the pure
loops' IEEE operations in the same order, and the numpy Dinic's
residual floats match the pure tier's where the pure DFS pushes every
phase itself, on a subset of arcs it provably never pushes flow outside
of.  Its batched rounds on large phases reach another maximum flow,
which leaves the same unique minimal min cut.  The dispatch property suite
(``tests/test_accel_dispatch.py``) asserts both on the random
network/graph matrices.

**Selection** happens once at import: numpy when importable, python
otherwise; ``REPRO_NO_NUMPY=1`` forces the python tier (and, as
everywhere else in this package, disables numpy outright).  Tests and
the ablation bench switch tiers at runtime with :func:`select_tier`;
``select_tier(None)`` restores the import-time default.  A kernel that
raises is a bug: the exception reaches the caller.
"""

from __future__ import annotations

import time

from .. import env, obs
from . import pure, vector

if env.flag("REPRO_NO_NUMPY"):  # explicit opt-out for CI / ablations
    np = None
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - environment-specific
        np = None

#: The selected tier ("numpy" / "python").
TIER = "python"

#: Work counters of the most recent max-flow call -- the telemetry side
#: channel :mod:`repro.flow.parametric` copies into its per-solve
#: ``flow.solve`` events.  Populated only while :data:`repro.obs.ENABLED`
#: is set (the disabled path adds nothing but the flag check), replaced
#: wholesale per call.
last_solve: dict = {}


def available_tiers() -> tuple:
    """The tiers this interpreter can select, fastest first."""
    return ("numpy", "python") if np is not None else ("python",)


def select_tier(tier: str | None = None) -> str:
    """Switch every kernel to ``tier``; returns the tier set.

    ``None`` restores the import-time default: numpy when importable.
    """
    global TIER
    if tier is None:
        tier = "numpy" if np is not None else "python"
    if tier not in ("numpy", "python"):
        raise ValueError(f"unknown accel tier {tier!r}")
    if tier == "numpy" and np is None:
        raise RuntimeError("accel tier 'numpy' requires numpy (is REPRO_NO_NUMPY set?)")
    TIER = tier
    return tier


def _pure(fn, args: tuple, offsets=None):
    """Run pure loop ``fn``; numpy arrays reach it as memoryviews
    (``offsets``: the position of its CSR offsets argument, if any)."""
    if np is None:
        return fn(*args)
    return vector.on_views(fn, args, offsets)


def dinic_max_flow(source, sink, head, cap, adj_start, adj_arcs):
    """Dinic max flow over flat arc arrays (mutates ``cap`` in place)."""
    global last_solve
    args = (source, sink, head, cap, adj_start, adj_arcs)
    on_numpy = TIER == "numpy"
    t0 = time.perf_counter() if obs.ENABLED else 0.0
    if on_numpy:
        total, bfs_passes, augments = vector.dinic_max_flow(*args)
    else:
        total, bfs_passes, augments = _pure(pure.dinic_max_flow, args, 4)
    if not obs.ENABLED:
        return total
    rounds = vector.LAST_ROUNDS if on_numpy else 0
    last_solve = {
        "kernel": "dinic",
        "tier": TIER,
        "arcs": len(head) // 2,
        # whether the phases were planned in numpy or run by a scalar loop
        "bfs_mode": vector.LAST_BFS_MODE if on_numpy else "scalar",
        "bfs_passes": bfs_passes,
        "augments": augments,
        "rounds": rounds,
        "seconds": time.perf_counter() - t0,
    }
    obs.counter("accel.dinic.calls")
    obs.counter("accel.dinic.bfs_passes", bfs_passes)
    obs.counter("accel.dinic.augments", augments)
    obs.counter("accel.dinic.rounds", rounds)
    return total


def ggt_retreat(head, cap, base_cap, adj_start, adj_arcs, alpha_arcs, alpha_coeff,
                alpha_src, source, sink, alpha):
    """GGT decreasing-alpha clamp + excess drain (mutates ``cap``).

    The drain's max flow runs on the tier's own Dinic, not through
    :func:`dinic_max_flow`: the ``accel.dinic.*`` counters and
    ``flow.solves`` count solves only.
    """
    args = (head, cap, base_cap, adj_start, adj_arcs, alpha_arcs, alpha_coeff,
            alpha_src, source, sink, alpha)
    if TIER == "numpy":
        clamped, drain_paths = vector.ggt_retreat(*args)
    else:
        clamped, drain_paths = _pure(pure.ggt_retreat, args, 3)
    if obs.ENABLED:
        obs.counter("accel.ggt_retreat.calls")
        obs.counter("accel.ggt_retreat.clamped", clamped)
        obs.counter("accel.ggt_retreat.drain_paths", drain_paths)


def ggt_advance(cap, base_cap, alpha_arcs, alpha_coeff, alpha):
    """GGT increasing-alpha capacity refresh (mutates ``cap``)."""
    if obs.ENABLED:
        obs.counter("accel.ggt_advance.calls")
    args = (cap, base_cap, alpha_arcs, alpha_coeff, alpha)
    if TIER == "numpy":
        return vector.ggt_advance(*args)
    return _pure(pure.ggt_advance, args)


def bucket_peel(inst, inc_start, inc_ids, deg, alive, in_graph, h, n_graph, num_alive):
    """Bucket-queue min-degree peel over a flat instance index."""
    if obs.ENABLED:
        obs.counter("accel.bucket_peel.calls")
    return pure.bucket_peel(inst, inc_start, inc_ids, deg, alive, in_graph, h, n_graph, num_alive)


def heap_peel(inst, inc_start, inc_ids, deg, alive, num_alive, n, h):
    """Lazy-deletion heap peel: a generator of ``(vid, num_alive)`` per
    removal (the engine of :func:`repro.core.peel.min_degree_peel`)."""
    if obs.ENABLED:
        obs.counter("accel.heap_peel.calls")
    return pure.heap_peel(inst, inc_start, inc_ids, deg, alive, num_alive, n, h)


select_tier(None)
