"""Outside-in layer timers for the traced run.

Each target is a public function or method of one ``repro`` layer.  A
function is replaced at every ``repro`` module attribute that holds it,
because callers that did ``from ... import name`` look it up in their own
module; a method is replaced on its class.  Wrappers nest: a call's self
time is its duration minus the time of the wrapped calls inside it, so
self times add up to the time the outermost wrappers cover, and the rest
of a pass is reported as unattributed.  :meth:`LayerClock.uninstall`
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: ``(key, module, qualified name)``: what to time, under which key.
#: Keys are per-layer metric names (``<layer>.<what>_s``); several
#: targets may share one key.
TARGETS = (
    ("graph.subgraph_s", "repro.graph.graph", "Graph.subgraph"),
    ("graph.components_s", "repro.graph.graph", "Graph.connected_components"),
    ("cliques.index_s", "repro.cliques.index", "CliqueIndex.__init__"),
    ("cliques.subindex_s", "repro.cliques.index", "CliqueIndex.subindex"),
    ("cliques.density_within_s", "repro.cliques.index", "CliqueIndex.density_within"),
    ("patterns.enumerate_s", "repro.patterns.isomorphism", "enumerate_pattern_instances"),
    ("core.decomposition_s", "repro.core.clique_core", "clique_core_decomposition"),
    ("core.decomposition_s", "repro.core.clique_core", "peel_index_decomposition"),
    ("core.decomposition_s", "repro.core.kcore", "core_decomposition"),
    ("core.decomposition_s", "repro.core.pattern_core", "pattern_core_decomposition"),
    ("core.decomposition_s", "repro.core.pattern_core", "fast_pattern_core_decomposition"),
    ("core.exact_s", "repro.core.exact", "exact_densest"),
    ("core.exact_s", "repro.core.core_exact", "core_exact_densest"),
    ("core.exact_s", "repro.core.pds", "p_exact_densest"),
    ("core.exact_s", "repro.core.pds", "core_p_exact_densest"),
    ("core.peel_s", "repro.core.peel", "peel_densest"),
    ("core.peel_s", "repro.core.pds", "pattern_peel_densest"),
    ("core.core_app_s", "repro.core.core_app", "core_app_densest"),
    ("core.core_app_s", "repro.core.pds", "pattern_core_app_densest"),
    ("flow.build_s", "repro.flow.builders", "build_eds_parametric"),
    ("flow.build_s", "repro.flow.builders", "build_cds_parametric"),
    ("flow.build_s", "repro.flow.builders", "build_pds_parametric"),
    ("flow.solve_s", "repro.flow.parametric", "ParametricNetwork._solve_residual"),
    ("flow.max_density_s", "repro.flow.parametric", "ParametricNetwork.max_density"),
    ("flow.breakpoints_s", "repro.flow.parametric", "ParametricNetwork.solve_breakpoints"),
    ("flow.cut_s", "repro.flow.parametric", "ParametricNetwork.min_cut_source_side"),
    ("flow.cut_s", "repro.flow.parametric", "ParametricNetwork.cut_vertices"),
    ("accel.dinic_s", "repro.accel", "dinic_max_flow"),
    ("accel.advance_s", "repro.accel", "ggt_advance"),
    ("accel.retreat_s", "repro.accel", "ggt_retreat"),
    ("accel.bucket_peel_s", "repro.accel", "bucket_peel"),
    ("accel.heap_peel_s", "repro.accel", "heap_peel"),
    ("serve.snapshot_s", "repro.serve.snapshot", "Snapshot.__init__"),
    ("serve.query_s", "repro.serve.snapshot", "Snapshot.query_density"),
    ("serve.query_s", "repro.serve.snapshot", "Snapshot.densest_subgraph"),
    ("serve.query_s", "repro.serve.snapshot", "Snapshot.top_k"),
    ("serve.connect_s", "repro.serve.store", "SnapshotStore.__init__"),
    ("serve.save_s", "repro.serve.store", "SnapshotStore.save"),
    ("serve.load_s", "repro.serve.store", "SnapshotStore.load"),
    ("api.overhead_s", "repro.api", "densest_subgraph"),
)

TIMED_KEYS = tuple(dict.fromkeys(key for key, _, _ in TARGETS))

#: Every per-layer metric and the end-to-end figures it should move, on
#: the workloads in brackets.  ``exact_s`` .. ``lookup_p99_us`` are the
#: per-method splits of an untraced pass; ``pass_s`` and the latency
#: percentiles of the named workload move with them.
SHOULD_MOVE = {
    "graph.subgraph_s": "core_exact_s, precompute_s (exact, serve)",
    "graph.subgraph_calls": "core_exact_s, precompute_s (exact, serve)",
    "graph.components_s": "core_exact_s, precompute_s (exact, serve)",
    "cliques.index_s": "exact_s, core_exact_s, core_app_s, precompute_s (h >= 3)",
    "cliques.instances": "exact_s, core_exact_s, core_app_s, precompute_s (h >= 3)",
    "cliques.subindex_s": "core_exact_s, precompute_s (exact, serve)",
    "cliques.density_within_s": "core_exact_s, precompute_s (exact, serve)",
    "patterns.enumerate_s": "core_exact_s, core_app_s, peel_s (pattern)",
    "patterns.enumerate_calls": "core_exact_s (pattern)",
    "patterns.instances": "core_exact_s (pattern)",
    "core.decomposition_s": "core_exact_s, core_app_s (exact, approx, pattern)",
    "core.exact_s": "exact_s, core_exact_s (exact, pattern)",
    "core.peel_s": "peel_s (approx, pattern)",
    "core.core_app_s": "core_app_s (approx, pattern)",
    "core.located_frac": "core_exact_s (exact)",
    "flow.build_s": "exact_s, core_exact_s, precompute_s (exact, pattern, serve)",
    "flow.solve_s": "exact_s, core_exact_s, precompute_s (exact, pattern, serve)",
    "flow.max_density_s": "exact_s, core_exact_s (exact, pattern)",
    "flow.breakpoints_s": "precompute_s (serve)",
    "flow.cut_s": "exact_s, core_exact_s, precompute_s (exact, pattern, serve)",
    "flow.solves": "exact_s, core_exact_s, precompute_s (exact, pattern, serve)",
    "flow.warm_frac": "exact_s, precompute_s (exact, serve)",
    "flow.augments": "exact_s, core_exact_s (exact)",
    "flow.bfs_passes": "exact_s, core_exact_s (exact)",
    "flow.arcs_max": "exact_s, peak_rss_mb (exact)",
    "flow.probe_yield": "precompute_s (serve)",
    "accel.dinic_s": "exact_s, core_exact_s (exact, pattern)",
    "accel.advance_s": "exact_s (exact)",
    "accel.retreat_s": "precompute_s (serve)",
    "accel.retreat_clamped": "precompute_s (serve)",
    "accel.drain_paths": "precompute_s (serve)",
    "accel.bucket_peel_s": "core_exact_s (exact)",
    "accel.heap_peel_s": "peel_s (approx; numba tier only)",
    "accel.failovers": "every time metric (any workload)",
    "serve.snapshot_s": "precompute_s (serve)",
    "serve.query_s": "lookup_p50_us, query_p50_ms (serve)",
    "serve.connect_s": "reload_s (serve)",
    "serve.save_s": "reload_s (serve)",
    "serve.load_s": "reload_s (serve)",
    "serve.breakpoints": "precompute_s, peak_rss_mb (serve)",
    "serve.store_bytes": "reload_s, peak_rss_mb (serve)",
    "api.overhead_s": "query_p50_ms (exact, approx, pattern)",
    "obs.trace_overhead": "none: validates the traced run (all)",
    "traced_pass_s": "pass_s, traced (all)",
    "unattributed_s": "none: harness time no wrapper covers (all)",
    "exact_s": "pass_s, query_p95_ms (exact)",
    "core_exact_s": "pass_s (exact, pattern)",
    "peel_s": "pass_s, query_p95_ms (approx, pattern)",
    "core_app_s": "query_p50_ms, query_gmean_ms (approx, pattern)",
    "precompute_s": "pass_s (serve)",
    "reload_s": "query_gmean_ms (serve)",
    "lookup_p50_us": "query_p50_ms (serve)",
    "lookup_p99_us": "query_p95_ms (serve)",
    "query_samples": "none: sample count behind the percentiles (all)",
}


def repro_namespace() -> dict:
    """Identity map of every ``repro`` module and target-class attribute.

    Two equal maps mean no attribute was rebound in between; the
    self-tests compare one taken before :meth:`LayerClock.install` with
    one taken after :meth:`LayerClock.uninstall`.
    """
    for _, module, _ in TARGETS:
        importlib.import_module(module)
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = id(value)
    for _, module, qualname in TARGETS:
        if "." in qualname:
            cls = getattr(importlib.import_module(module), qualname.split(".")[0])
            for attr, value in vars(cls).items():
                out[(module, cls.__name__, attr)] = id(value)
    return out


class LayerClock:
    """Self-time accounting over nested wrapped calls."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0  # summed duration of outermost wrapped calls
        self._stack: list[list] = []  # [key, child seconds] per open call
        self._patches: list[tuple[object, str, object]] = []

    def inside(self, key: str) -> bool:
        return any(frame[0] == key for frame in self._stack)

    def _wrap(self, key: str, fn, after):
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.self_s[key] += dur - frame[1]
                self.calls[key] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    self.covered_s += dur
            if after is not None:
                after(self, args, out)
            return out

        return timed

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        for key, module, qualname in TARGETS:
            mod = importlib.import_module(module)
            after = _AFTER.get(qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[attr]
                self._patch(cls, attr, self._wrap(key, original, after))
                continue
            original = getattr(mod, qualname)
            wrapper = self._wrap(key, original, after)
            for name, other in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --- count harvesting from public return values --------------------------


def _after_index(clock: LayerClock, args, out) -> None:
    clock.counts["cliques.instances"] += args[0].m


def _after_enumerate(clock: LayerClock, args, out) -> None:
    clock.counts["patterns.instances"] += len(out)


def _after_solve(clock: LayerClock, args, out) -> None:
    if clock.inside("flow.breakpoints_s"):
        clock.counts["flow.sweep_solves"] += 1


def _after_breakpoints(clock: LayerClock, args, out) -> None:
    clock.counts["flow.breakpoints"] += len(out) - 1


_AFTER = {
    "CliqueIndex.__init__": _after_index,
    "enumerate_pattern_instances": _after_enumerate,
    "ParametricNetwork._solve_residual": _after_solve,
    "ParametricNetwork.solve_breakpoints": _after_breakpoints,
}
