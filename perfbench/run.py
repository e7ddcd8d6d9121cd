"""Densest-subgraph engine benchmark: one serial process, one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``exact``, ``approx``, ``pattern`` and
``serve``.  The load is a closed loop: one query at a time, the next sent
when the previous one returns.  A run times three cold set-ups, each in
a fresh interpreter that imports ``repro`` and builds the seeded graphs
(the median is ``setup_s``), sets up once more in its own process,
untimed, runs one warm-up pass whose timings are discarded, then a fixed
number of full passes over the
query list: as many as take ``--seconds`` on the reference host
(``seconds / workload.reference_pass_s``, rounded), so that a slower
commit or host gets as many passes as a faster one.  Garbage is
collected before each pass, and its young generations before each query
(each snapshot build for ``serve``), outside the timings.  Every answer
is then checked (``oracle.py``); a wrong or failed answer counts in
``failed`` and makes the exit status 1.

Each query is timed once per pass and reported by its fastest pass:
``pass_s`` sums those over the list, and the latency percentiles and
geometric mean are taken over them.  On the shared 2-CPU host this was
tuned on, the same pure-Python work takes up to 1.7x longer for tens of
seconds at a time whatever the program does; the fastest of seven to
nine passes spread over the run is the reading such drift moves least.
The summary line before the result gives the median wall-clock pass as
well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half
the passes untraced and half with the layer wrappers of ``layers.py``
installed and ``repro.obs`` enabled, and prints the per-layer metrics.
The process is single-threaded and has no queues, so no layer ever
waits on another: there is no wait metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Settings that change what the program under test does; a measured
#: run must not inherit them.
PINNED_ENV = ("REPRO_WORKERS", "REPRO_TRACE", "REPRO_CHECK", "REPRO_FAULT")
SETUP_REPEATS = 3
#: Per-method time splits of a pass: sample op -> metric name.
METHOD_SPLIT = {
    "exact": "exact_s",
    "core-exact": "core_exact_s",
    "peel": "peel_s",
    "core-app": "core_app_s",
    "precompute": "precompute_s",
    "reload": "reload_s",
}
LOOKUP_OPS = ("alpha", "densest", "top_k")


class SetupError(RuntimeError):
    """The run cannot start: missing sources or a pinned setting is set."""


def check_environment() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro sources under {ROOT / 'src'}")
    leaked = [name for name in PINNED_ENV if os.environ.get(name)]
    if leaked:
        raise SetupError(f"unset {', '.join(leaked)}: the benchmark runs serially, untraced, unchecked")


def import_repro() -> None:
    """Import every ``repro`` module the workloads call."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401
    import repro.datasets.registry  # noqa: F401
    import repro.flow.builders  # noqa: F401
    import repro.serve.snapshot  # noqa: F401
    import repro.serve.store  # noqa: F401


def set_up(args) -> tuple[object, dict, float]:
    """Import ``repro`` and build the workload's graphs; returns
    ``(workload, graphs, seconds)``."""
    t0 = time.perf_counter()
    import_repro()
    wl = workloads.make(args.workload)
    graphs = workloads.build_graphs(wl.datasets, args.seed, args.scale)
    return wl, graphs, time.perf_counter() - t0


def cold_setup_seconds(args) -> float:
    """:func:`set_up` in a fresh interpreter, so that whatever importing
    ``repro`` pulls in is paid again; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--scale", str(args.scale), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def environment() -> dict:
    from repro import obs

    fp = obs.env_fingerprint()
    return {
        "python": fp["python"],
        "numpy": fp["numpy"],
        "numba": fp["numba"],
        "accel_tier": fp["active_tier"],
        "nproc": os.cpu_count(),
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_seconds(samples) -> float:
    return sum(s.seconds for s in samples)


def pass_count(wl, seconds: float) -> int:
    """Passes that take ``seconds`` on the reference host; at least one."""
    return max(1, round(seconds / wl.reference_pass_s))


def run_passes(wl, graphs, count: int, first_index: int) -> list:
    passes = []
    for i in range(count):
        gc.collect()
        passes.append(wl.run_pass(graphs, first_index + i))
    return passes


def best_of(passes) -> dict[tuple[str, int], float]:
    """Each query's fastest time over ``passes``.

    Every pass repeats the same query list, so the k-th sample of a kind
    is the same query in every pass.
    """
    best: dict[tuple[str, int], float] = {}
    for samples in passes:
        seen: dict[str, int] = {}
        for s in samples:
            k = seen.get(s.kind, 0)
            seen[s.kind] = k + 1
            key = (s.kind, k)
            best[key] = min(best.get(key, s.seconds), s.seconds)
    return best


def end_to_end(passes, setup_s: float, peak_rss_mb: float, ratio: float) -> dict:
    seconds = list(best_of(passes).values())
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(seconds), "s"),
        "query_p50_ms": (percentile(seconds, 50) * 1e3, "ms"),
        "query_p95_ms": (percentile(seconds, 95) * 1e3, "ms"),
        "query_gmean_ms": (math.exp(statistics.fmean(math.log(x) for x in seconds)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "approx_ratio_min": (ratio, "ratio"),
    }


def method_split(passes) -> dict:
    best = best_of(passes)
    out = {}
    for op, name in METHOD_SPLIT.items():
        out[name] = (sum(v for (kind, _), v in best.items() if kind.split(":")[0] == op), "s")
    lookups = [v * 1e6 for (kind, _), v in best.items() if kind.split(":")[0] in LOOKUP_OPS]
    out["lookup_p50_us"] = (percentile(lookups, 50) if lookups else 0.0, "us")
    out["lookup_p99_us"] = (percentile(lookups, 99) if lookups else 0.0, "us")
    out["query_samples"] = (sum(len(p) for p in passes), "count")
    return out


def per_layer(clock, collector, traced, untraced) -> dict:
    """Per-pass layer metrics of the traced passes."""
    n = len(traced)
    out = {key: (clock.self_s.get(key, 0.0) / n, "s") for key in layers.TIMED_KEYS}
    counters = collector.counters
    solve_events = collector.events("flow.solve")
    solves = len(solve_events)
    cold = sum(1 for e in solve_events if e["fields"].get("mode") == "cold")
    counts = clock.counts
    located = [s.extra for p in traced for s in p if "located" in s.extra]
    out.update(
        {
            "graph.subgraph_calls": (clock.calls.get("graph.subgraph_s", 0) / n, "count"),
            "cliques.instances": (counts["cliques.instances"] / n, "count"),
            "patterns.enumerate_calls": (clock.calls.get("patterns.enumerate_s", 0) / n, "count"),
            "patterns.instances": (counts["patterns.instances"] / n, "count"),
            "core.located_frac": (
                sum(e["located"] for e in located) / sum(e["n"] for e in located) if located else 0.0,
                "fraction",
            ),
            "flow.solves": (clock.calls.get("flow.solve_s", 0) / n, "count"),
            "flow.warm_frac": ((solves - cold) / solves if solves else 0.0, "fraction"),
            "flow.augments": (counters.get("accel.dinic.augments", 0) / n, "count"),
            "flow.bfs_passes": (counters.get("accel.dinic.bfs_passes", 0) / n, "count"),
            "flow.arcs_max": (max((e["fields"].get("arcs", 0) for e in solve_events), default=0), "count"),
            "flow.probe_yield": (
                counts["flow.breakpoints"] / counts["flow.sweep_solves"] if counts["flow.sweep_solves"] else 0.0,
                "ratio",
            ),
            "accel.retreat_clamped": (counters.get("accel.ggt_retreat.clamped", 0) / n, "count"),
            "accel.drain_paths": (counters.get("accel.ggt_retreat.drain_paths", 0) / n, "count"),
            "accel.failovers": (counters.get("accel.failover", 0), "count"),
            "serve.breakpoints": (
                sum(s.extra.get("breakpoints", 0) for p in traced for s in p) / n, "count"),
            "serve.store_bytes": (
                sum(s.extra.get("store_bytes", 0) for p in traced for s in p) / n, "bytes"),
        }
    )
    traced_s = sum(pass_seconds(p) for p in traced) / n
    attributed = sum(clock.self_s.values())
    if not math.isclose(attributed, clock.covered_s, rel_tol=1e-6, abs_tol=1e-9):
        raise AssertionError(f"self times sum to {attributed} s, wrappers cover {clock.covered_s} s")
    out["traced_pass_s"] = (traced_s, "s")
    out["unattributed_s"] = (traced_s - clock.covered_s / n, "s")
    overhead = sum(best_of(traced).values()) / sum(best_of(untraced).values())
    out["obs.trace_overhead"] = (overhead, "ratio")
    out.update(method_split(untraced))
    return out


def run(args) -> tuple[dict, int, int]:
    """Run one workload; returns ``(metrics, attempted, failed)``."""
    check_environment()
    setup_s = statistics.median(cold_setup_seconds(args) for _ in range(SETUP_REPEATS))
    wl, graphs, _ = set_up(args)
    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)

    count = pass_count(wl, args.seconds)
    # the snapshot stores of ``serve``; inside the checkout, which is the
    # only place a run may write to
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl.prepare(graphs, args.seed, Path(workdir))
        warm = wl.run_pass(graphs, 0)
        if args.trace:
            untraced = run_passes(wl, graphs, max(1, count // 2), 1)
            metrics, traced = trace_passes(wl, graphs, max(1, count - count // 2), 1 + len(untraced), untraced)
            timed_passes = untraced + traced
        else:
            timed_passes = run_passes(wl, graphs, count, 1)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.inject_error:
            # every workload's first sample answers (vertex set, density)
            first = timed_passes[0][0]
            first.answer = (first.answer[0], first.answer[1] + 1.0)
        ratio = wl.check(graphs, [warm] + timed_passes)
    everything = [s for p in [warm] + timed_passes for s in p]
    failed = sum(1 for s in everything if s.error is not None)
    for s in everything:
        if s.error is not None:
            print(f"# FAILED {s.kind}: {s.error}", file=sys.stderr)
    if not args.trace:
        metrics = end_to_end(timed_passes, setup_s, peak_rss_mb, ratio)
    wall = statistics.median(pass_seconds(p) for p in timed_passes)
    print(
        f"# workload={args.workload} seed={args.seed} scale={args.scale} "
        f"timed_passes={len(timed_passes)} samples={sum(len(p) for p in timed_passes)} "
        f"error_rate={failed / len(everything):.6g} median_pass_s={wall:.6g}",
        flush=True,
    )
    return metrics, len(everything), failed


def trace_passes(wl, graphs, count, first_index, untraced):
    from repro import obs

    clock = layers.LayerClock()
    clock.install()
    obs.enable()
    try:
        traced = run_passes(wl, graphs, count, first_index)
    finally:
        obs.disable()
        clock.uninstall()
    metrics = per_layer(clock, obs.get_collector(), traced, untraced)
    obs.reset()
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="sets the number of timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="surrogate size factor (self-tests)")
    parser.add_argument("--inject-error", action="store_true", help="corrupt one answer (self-tests)")
    parser.add_argument("--setup-only", action="store_true", help="print the seconds of one set-up and exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(set_up(args)[2])
        return 0
    try:
        metrics, attempted, failed = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
