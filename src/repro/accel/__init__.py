"""Three-tier acceleration backend for the flow and peel hot loops.

The scalar hot loops of this package -- Dinic's blocking-flow DFS, the
GGT retreat drains, and the two peel engines -- all dispatch through
the kernel registry in this module instead of branching locally.
Three tiers, fastest first:

* **numba** -- the loops from :mod:`repro.accel.kernels`, compiled to
  native code with ``numba.njit``.  Selected automatically when numba
  is importable.  Parametric networks hold numpy arrays whenever numpy
  is importable, so the wrappers pass them straight through; each runs
  on a private copy of the residuals and writes them back on success.
* **numpy** -- :mod:`repro.accel.vector`: Dinic with every phase planned
  in numpy from one size crossover and cut down to the arcs of shortest
  augmenting paths, the blocking flow of a large phase computed in
  batched push-and-balance rounds and the reference DFS pushing the
  rest, the GGT advance as an array expression, and the pure loops for
  everything sequential.  Selected when numpy is importable but numba
  is not.
* **python** -- :mod:`repro.accel.pure`: dependency-free reference
  implementations.  Always available; handed memoryviews of numpy
  arrays, which the loops index as fast as lists and write through.

Every tier produces bit-identical answers -- cuts, breakpoints, peel
orders, densities.  The higher tiers are literal translations of the
pure loops (same traversal order, same IEEE-double operation order),
so their residual floats match as well, and so do the numpy Dinic's
where the pure DFS pushes every phase itself, on a subset of arcs it
provably never pushes flow outside of.  Its batched rounds on large
phases reach another maximum flow, which leaves the same unique
minimal min cut.  The dispatch property suite
(``tests/test_accel_dispatch.py``) asserts both on the random
network/graph matrices.

**Selection** happens once at import:

* ``REPRO_NO_NUMPY=1`` forces the python tier (and, as everywhere else
  in this package, disables numpy outright);
* ``REPRO_NO_NUMBA=1`` disables just the numba tier;
* ``REPRO_NUMBA_INTERP=1`` selects the numba tier with the kernels run
  *interpreted* when numba itself is missing -- slow, but byte-for-byte
  the code the JIT would compile, which is how CI pins the numba tier's
  bit-identity without installing numba.

Tests and the ablation bench can rebuild the registry at runtime with
:func:`select_tier`; ``select_tier(None)`` restores the import-time
default.

**Failover.**  Every kernel carries a fallback chain (numba -> numpy ->
pure, deduplicated per kernel).  When a kernel call raises, the
dispatcher restores the call's mutable arrays from a pre-call snapshot
(the numba flow wrappers are transactional -- they write residuals back
only on success -- so no snapshot is taken there), **demotes the kernel
to the next tier for the rest of the process**, emits an
``accel.failover`` counter + event and a ``RuntimeWarning``, and retries
the same call.  Answers stay bit-identical across the retry because the
tiers' are.  ``select_tier`` rebuilds the registry and thereby
clears demotions.  Kernels whose chain ends with no implementation
(``heap_peel`` outside the numba tier) raise :class:`KernelFallback` so
the caller's reference loop runs instead.  Faults can be injected
deterministically at exact call counts via :mod:`repro.guard.faults`
(``REPRO_FAULT=<kernel>:<nth>``), which is how CI exercises these
paths.

**Warm-up / compile cache.**  Numba compiles each kernel lazily on its
first call (a few seconds per kernel, once per process).  Two
mitigations: ``njit(cache=True)`` persists the compiled machine code
under ``NUMBA_CACHE_DIR`` (CI caches that directory, so only the first
run after a kernel edit pays the compile), and :func:`warm_up` runs
every kernel on a two-node toy network so a serving process can front-
load the compilation (or a CI job can fail fast on a typing error)
before real traffic arrives.  ``fastmath`` stays off: it would license
float reassociation and break bit-identity with the other tiers.
"""

from __future__ import annotations

import time
import warnings

from .. import env, obs
from ..guard import faults as _faults
from . import pure, vector

if env.flag("REPRO_NO_NUMPY"):  # explicit opt-out for CI / ablations
    np = None
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - environment-specific
        np = None

numba = None
if np is not None and not env.flag("REPRO_NO_NUMBA"):
    try:
        import numba  # type: ignore[no-redef]
    except ImportError:  # expected: numba is an optional extra
        numba = None

#: Whether the numba tier is actually compiled (vs interpreted).
NUMBA_JITTED = numba is not None

if np is not None:
    from . import kernels as _kernels

    # kernels.py keeps EPS as a literal (numba freezes module globals
    # into compiled code), so pin it against the canonical constant
    # here: drift would silently break cross-tier bit-identity.
    assert _kernels.EPS == pure.EPS, "accel.kernels.EPS drifted from flow.network.EPS"
else:  # kernels.py needs numpy at import; the python tier never uses it
    _kernels = None

_JITTED: dict | None = None


def _jitted_kernels() -> dict:
    """Compile (lazily, once) every kernel with ``numba.njit``."""
    global _JITTED
    if _JITTED is None:
        jit = numba.njit(cache=True)
        _JITTED = {name: jit(getattr(_kernels, name)) for name in _kernels.KERNEL_NAMES}
    return _JITTED


# --- tier wrappers: numpy arrays pass straight through to the numba
# --- kernels and reach the pure loops as memoryviews


def _i8(x):
    return x if isinstance(x, np.ndarray) else np.asarray(x, dtype=np.int64)


def _f8(x):
    return x if isinstance(x, np.ndarray) else np.asarray(x, dtype=np.float64)


def _write_back(cap, cap_a) -> None:
    """Copy a kernel's private residual array into the caller's ``cap``."""
    cap[:] = cap_a if isinstance(cap, np.ndarray) else cap_a.tolist()


def _wrap_max_flow(kfn):
    def run(source, sink, head, cap, adj_start, adj_arcs):
        cap_a = np.array(cap, dtype=np.float64)
        total, work1, work2 = kfn(
            source, sink, _i8(head), cap_a, _i8(adj_start), _i8(adj_arcs)
        )
        _write_back(cap, cap_a)
        return float(total), int(work1), int(work2)

    return run


def _wrap_ggt_retreat(kfn):
    def run(head, cap, base_cap, adj_start, adj_arcs, alpha_arcs, alpha_coeff,
            num_nodes, source, alpha):
        cap_a = np.array(cap, dtype=np.float64)
        clamped, drain_paths = kfn(
            _i8(head), cap_a, _f8(base_cap), _i8(adj_start), _i8(adj_arcs),
            _i8(alpha_arcs), _f8(alpha_coeff), num_nodes, source, alpha,
        )
        _write_back(cap, cap_a)
        return int(clamped), int(drain_paths)

    return run


def _on_views(fn, offsets=None):
    """A pure loop that sees memoryviews of numpy-backed arc arrays
    (``offsets``: the position of its CSR offsets argument, if any)."""
    if np is None:
        return fn

    def run(*args):
        return vector.on_views(fn, args, offsets)

    return run


def _wrap_bucket_peel(kfn):
    def run(inst, inc_start, inc_ids, deg, alive, in_graph, h, n_graph, num_alive):
        core, order, best_removed, best_density = kfn(
            _i8(inst), _i8(inc_start), _i8(inc_ids), _i8(deg),
            np.frombuffer(alive, dtype=np.uint8),
            np.frombuffer(in_graph, dtype=np.uint8),
            h, n_graph, num_alive,
        )
        return core.tolist(), order.tolist(), int(best_removed), float(best_density)

    return run


def _wrap_heap_peel(kfn):
    def run(inst, inc_start, inc_ids, deg, alive, num_alive, n, h):
        # ``alive`` is the index's own bytearray: frombuffer shares its
        # memory, so the kernel's kills land directly in the index.
        cnt, order, num_alive_after, final_alive = kfn(
            _i8(inst), _i8(inc_start), _i8(inc_ids), _i8(deg),
            np.frombuffer(alive, dtype=np.uint8), num_alive, n, h,
        )
        return order[:cnt].tolist(), num_alive_after[:cnt].tolist(), int(final_alive)

    return run


# --- registry -------------------------------------------------------

#: Kernel names every tier must resolve (``heap_peel`` resolves to
#: ``None`` outside the numba tier: it exists to *replace* the pure
#: generator in :func:`repro.core.peel.min_degree_peel`, which is its
#: own reference implementation).
KERNEL_NAMES = ("dinic", "ggt_retreat", "ggt_advance", "bucket_peel", "heap_peel")

_impl: dict = {}

#: Resolved tier per kernel name (for tests, stats, and the bench).
KERNEL_TIERS: dict = {}

#: The selected default tier ("numba" / "numpy" / "python").
TIER = "python"

#: Per-kernel fallback chain below the current impl: ``name ->
#: [(label, fn, transactional), ...]``.  Non-empty chain == the
#: dispatcher takes the guarded (snapshot + retry) path.
_chains: dict = {}

#: Whether the *current* impl of a kernel restores its mutable args
#: itself on failure (the numba flow wrappers copy to arrays and write
#: back only on success); transactional impls skip the pre-call
#: snapshot.
_transactional: dict = {}

#: Process-lifetime failover log (cleared on ``select_tier`` rebuilds):
#: ``{"kernel", "from_tier", "to_tier", "error"}`` per demotion.
FAILOVERS: list = []


class KernelFallback(RuntimeError):
    """A kernel was demoted to a tier with no registered implementation.

    Only ``heap_peel`` can land here (its non-numba "implementation" is
    the reference loop in :func:`repro.core.peel.min_degree_peel`); the
    caller catches this and runs that loop.  The failed call's mutable
    arrays have already been restored.
    """


def available_tiers() -> tuple:
    """The tiers worth benchmarking on this interpreter, fastest first.

    ``"numba"`` appears only when numba is importable (the interpreted
    kernels reachable via ``select_tier("numba")`` are a bit-identity
    testing device, not a performance tier).
    """
    tiers = []
    if NUMBA_JITTED:
        tiers.append("numba")
    if np is not None:
        tiers.append("numpy")
    tiers.append("python")
    return tuple(tiers)


def _build_registry(tier: str) -> None:
    # Full fallback ladder per kernel, current tier first.  Entries are
    # ``(label, fn, transactional)``; the terminal entry is always the
    # pure tier (fn=None for heap_peel: the caller's reference loop).
    chains: dict = {
        "dinic": [("python", _on_views(pure.dinic_max_flow, 4), False)],
        "ggt_retreat": [("python", _on_views(pure.ggt_retreat, 3), False)],
        "ggt_advance": [("python", _on_views(pure.ggt_advance), False)],
        "bucket_peel": [("python", pure.bucket_peel, False)],
        "heap_peel": [("python", None, False)],
    }
    if tier in ("numpy", "numba"):
        chains["dinic"].insert(0, ("numpy", vector.dinic_max_flow, False))
        # O(#alpha-arcs) of float work as one array expression on both
        # array tiers; its single write makes it transactional
        chains["ggt_advance"].insert(0, ("numpy", vector.ggt_advance, True))
    if tier == "numba":
        kerns = _jitted_kernels() if NUMBA_JITTED else _kernels.__dict__
        label = "numba" if NUMBA_JITTED else "numba-interp"
        # the max-flow / retreat wrappers are transactional: they run on
        # a private array copy and write residuals back only on success
        chains["dinic"].insert(0, (label, _wrap_max_flow(kerns["dinic_max_flow"]), True))
        chains["ggt_retreat"].insert(0, (label, _wrap_ggt_retreat(kerns["ggt_retreat"]), True))
        # the peel wrappers share the caller's buffers (frombuffer), so
        # the dispatcher snapshots/restores them around a failed call
        chains["bucket_peel"].insert(0, (label, _wrap_bucket_peel(kerns["bucket_peel"]), False))
        chains["heap_peel"].insert(0, (label, _wrap_heap_peel(kerns["heap_peel"]), False))
    _impl.clear()
    KERNEL_TIERS.clear()
    _chains.clear()
    _transactional.clear()
    FAILOVERS.clear()
    for name, chain in chains.items():
        label, fn, transactional = chain[0]
        _impl[name] = fn
        KERNEL_TIERS[name] = label
        _transactional[name] = transactional
        _chains[name] = chain[1:]


def select_tier(tier: str | None = None) -> str:
    """Rebuild the kernel registry for ``tier``; returns the tier set.

    ``None`` restores the import-time default.  ``"numba"`` without
    numba installed falls back to running the kernels interpreted
    (requires numpy; bit-identity testing only -- it is *slower* than
    the pure tier).
    """
    global TIER
    if tier is None:
        if NUMBA_JITTED:
            tier = "numba"
        elif np is not None and env.flag("REPRO_NUMBA_INTERP"):
            tier = "numba"
        elif np is not None:
            tier = "numpy"
        else:
            tier = "python"
    if tier not in ("numba", "numpy", "python"):
        raise ValueError(f"unknown accel tier {tier!r}")
    if tier in ("numpy", "numba") and np is None:
        raise RuntimeError(f"accel tier {tier!r} requires numpy (is REPRO_NO_NUMPY set?)")
    _build_registry(tier)
    TIER = tier
    return tier


def get(name: str):
    """The registered implementation for ``name`` (None when the tier
    has no replacement and the caller's reference loop should run)."""
    return _impl[name]


def kernel_tiers() -> dict:
    """Copy of the per-kernel resolved-tier map (for stats and tests)."""
    return dict(KERNEL_TIERS)


def kernel_chain(name: str) -> tuple:
    """Current tier of ``name`` followed by its remaining fallbacks."""
    return (KERNEL_TIERS[name],) + tuple(label for label, _, _ in _chains[name])


def failover_log() -> list:
    """Copy of the demotions since the last registry (re)build."""
    return [dict(rec) for rec in FAILOVERS]


# --- guarded dispatch: snapshot, fault hook, demote-and-retry --------


def _snapshot(obj):
    if isinstance(obj, bytearray):
        return bytes(obj)
    return obj.copy()  # a list or a numpy array


def _demote(name: str, exc: BaseException) -> None:
    old = KERNEL_TIERS[name]
    label, fn, transactional = _chains[name].pop(0)
    _impl[name] = fn
    KERNEL_TIERS[name] = label
    _transactional[name] = transactional
    FAILOVERS.append(
        {"kernel": name, "from_tier": old, "to_tier": label, "error": repr(exc)}
    )
    warnings.warn(
        f"accel kernel {name!r} failed on tier {old!r}; demoted to {label!r} "
        f"for this process: {exc!r}",
        RuntimeWarning,
        stacklevel=4,
    )
    if obs.ENABLED:
        obs.counter("accel.failover")
        obs.counter(f"accel.failover.{name}")
        obs.event(
            "accel.failover", kernel=name, from_tier=old, to_tier=label, error=repr(exc)
        )


def _dispatch(name: str, args: tuple, mutable: tuple):
    """Run kernel ``name``, failing over down its tier chain on error.

    ``mutable`` names the positions of ``args`` the kernels mutate in
    place; unless the current impl is transactional they are snapshotted
    before the call and restored before a retry, so the fallback tier
    sees the exact pre-call state (and produces the bit-identical
    result the tier tests guarantee).  The terminal tier's failure --
    nothing left to fall back to -- propagates.

    Fast path: a kernel with an empty chain and no armed fault plan
    calls straight through, adding two dict/attribute reads over the
    pre-failover dispatcher.
    """
    if not _chains[name] and not _faults.ARMED and _impl[name] is not None:
        return _impl[name](*args)
    while True:
        fn = _impl[name]
        if fn is None:
            raise KernelFallback(
                f"kernel {name!r} has no implementation on tier {KERNEL_TIERS[name]!r}"
            )
        snaps = None
        if _chains[name] and not _transactional[name]:
            snaps = [(args[i], _snapshot(args[i])) for i in mutable]
        try:
            if _faults.ARMED:
                _faults.maybe_raise(name, KERNEL_TIERS[name])
            return fn(*args)
        except Exception as exc:
            if not _chains[name]:
                raise
            if snaps is not None:
                for obj, snap in snaps:
                    obj[:] = snap
            _demote(name, exc)


# --- module-level dispatchers (the API the engines call) ------------

#: Work counters of the most recent max-flow / retreat kernel call --
#: the telemetry side channel :mod:`repro.flow.parametric` copies into
#: its per-solve ``flow.solve`` events.  Populated only while
#: :data:`repro.obs.ENABLED` is set (the disabled path adds nothing but
#: the flag check), replaced wholesale per call.
last_solve: dict = {}


def _bfs_mode() -> str:
    """``"numpy"`` when the last Dinic call planned its phases in numpy,
    ``"scalar"`` when a scalar loop (pure or compiled) ran them."""
    if KERNEL_TIERS["dinic"] == "numpy":
        return vector.LAST_BFS_MODE
    return "scalar"


def _rounds() -> int:
    """Batched blocking-flow rounds of the last Dinic call (only the
    numpy tier runs any)."""
    if KERNEL_TIERS["dinic"] == "numpy":
        return vector.LAST_ROUNDS
    return 0


def dinic_max_flow(source, sink, head, cap, adj_start, adj_arcs):
    """Dinic max flow over flat arc arrays (mutates ``cap`` in place)."""
    global last_solve
    args = (source, sink, head, cap, adj_start, adj_arcs)
    if not obs.ENABLED:
        total, _, _ = _dispatch("dinic", args, (3,))
        return total
    t0 = time.perf_counter()
    total, bfs_passes, augments = _dispatch("dinic", args, (3,))
    seconds = time.perf_counter() - t0
    rounds = _rounds()
    last_solve = {
        "kernel": "dinic",
        "tier": KERNEL_TIERS["dinic"],
        "arcs": len(head) // 2,
        "bfs_mode": _bfs_mode(),
        "bfs_passes": bfs_passes,
        "augments": augments,
        "rounds": rounds,
        "seconds": seconds,
    }
    obs.counter("accel.dinic.calls")
    obs.counter("accel.dinic.bfs_passes", bfs_passes)
    obs.counter("accel.dinic.augments", augments)
    obs.counter("accel.dinic.rounds", rounds)
    return total


def ggt_retreat(head, cap, base_cap, adj_start, adj_arcs, alpha_arcs, alpha_coeff,
                num_nodes, source, alpha):
    """GGT decreasing-alpha clamp + excess drain (mutates ``cap``)."""
    clamped, drain_paths = _dispatch(
        "ggt_retreat",
        (head, cap, base_cap, adj_start, adj_arcs, alpha_arcs, alpha_coeff,
         num_nodes, source, alpha),
        (1,),
    )
    if obs.ENABLED:
        obs.counter("accel.ggt_retreat.calls")
        obs.counter("accel.ggt_retreat.clamped", clamped)
        obs.counter("accel.ggt_retreat.drain_paths", drain_paths)


def ggt_advance(cap, base_cap, alpha_arcs, alpha_coeff, alpha):
    """GGT increasing-alpha capacity refresh (mutates ``cap``)."""
    if obs.ENABLED:
        obs.counter("accel.ggt_advance.calls")
    return _dispatch("ggt_advance", (cap, base_cap, alpha_arcs, alpha_coeff, alpha), (0,))


def bucket_peel(inst, inc_start, inc_ids, deg, alive, in_graph, h, n_graph, num_alive):
    """Bucket-queue min-degree peel over a flat instance index."""
    if obs.ENABLED:
        obs.counter("accel.bucket_peel.calls")
    return _dispatch(
        "bucket_peel",
        (inst, inc_start, inc_ids, deg, alive, in_graph, h, n_graph, num_alive),
        (3, 4),
    )


def heap_peel(inst, inc_start, inc_ids, deg, alive, num_alive, n, h):
    """Whole-sequence min-degree peel (numba tier only; see
    :func:`repro.core.peel.min_degree_peel` for the reference loop).

    Raises :class:`KernelFallback` -- with ``deg`` and ``alive``
    restored -- when the kernel fails and the registry has no
    replacement; the caller then runs its reference loop.
    """
    if obs.ENABLED:
        obs.counter("accel.heap_peel.calls")
    return _dispatch(
        "heap_peel", (inst, inc_start, inc_ids, deg, alive, num_alive, n, h), (3, 4)
    )


def warm_up() -> str:
    """Run every registered kernel once on a toy input.

    On the numba tier this triggers (and caches) the JIT compilation of
    all kernels, so a serving process pays the compile before traffic
    arrives -- and a CI job fails fast on a kernel typing error.
    Returns the active tier.
    """
    # two-node network: source 0, sink 1, one unit arc + its reverse
    head = [1, 0]
    cap = [1.0, 0.0]
    adj_start = [0, 1, 2]
    adj_arcs = [0, 1]
    dinic_max_flow(0, 1, head, list(cap), list(adj_start), list(adj_arcs))
    ggt_retreat(head, [0.5, 0.5], [0.0, 0.0], adj_start, adj_arcs, [0], [1.0], 2, 0, 0.25)
    ggt_advance([0.5, 0.5], [0.0, 0.0], [0], [1.0], 0.75)
    # one 2-clique instance over two vertices
    bucket_peel([0, 1], [0, 1, 2], [0, 0], [1, 1], bytearray(b"\x01"),
                bytearray(b"\x01\x01"), 2, 2, 1)
    if get("heap_peel") is not None:
        try:
            heap_peel([0, 1], [0, 1, 2], [0, 0], [1, 1], bytearray(b"\x01"), 1, 2, 2)
        except KernelFallback:  # demoted mid-warm-up: reference loop covers it
            pass
    return TIER


select_tier(None)
