"""Trace smoke test: run traced solves, validate the JSONL trace.

The ``make trace-smoke`` entry point (CI runs it too).  Solves a small
but non-trivial workload -- Exact and CoreExact, edge and triangle
densities -- with tracing streamed to a JSONL file, then validates
every record against the schema in :mod:`repro.obs.validate` and
prints the per-phase rollup.  Exits non-zero on any schema error, on a
trace with no ``flow.solve`` events or no warm-started ones, or when
the legacy ``stats`` timings stop reconciling with the span durations
(they are built from the same floats, so the comparison is exact
equality).

Usage::

    python -m repro.obs.smoke [out/trace_smoke.jsonl]
"""

from __future__ import annotations

import json
import os
import random
import sys

from .. import api, obs
from ..graph.graph import Graph
from .validate import validate_trace


def _workload_graph(n: int = 80, m: int = 400, seed: int = 7) -> Graph:
    """A reproducible random graph dense enough to exercise warm starts."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(sorted(edges))


def run(path: str) -> int:
    """Run the traced workload, validate ``path``, print the rollup."""
    graph = _workload_graph()
    obs.enable(sink=path)

    failures: list[str] = []
    for method in ("exact", "core-exact"):
        for h in (2, 3):
            stats = api.densest_subgraph(graph, h, method=method).stats
            # stats are built from span.seconds, so the last span of
            # each phase must carry exactly the stats float.
            sp = obs.get_collector().spans(f"{method.replace('-', '_')}.flow")
            if sp and "flow_seconds" in stats:
                if sp[-1]["dur_s"] != stats["flow_seconds"]:
                    failures.append(
                        f"{method} h={h}: flow span "
                        f"{sp[-1]['dur_s']} != stats {stats['flow_seconds']}"
                    )

    rollup = obs.summary()
    obs.close()
    obs.disable()

    count, errors = validate_trace(path)
    flow = rollup["flow"]

    print(f"trace: {path} ({count} records)")
    print(f"flow solves: {flow['solves']} "
          f"(warm {flow['warm']} / cold {flow['cold']}; modes {flow['modes']})")
    print("phase rollup:")
    for name, agg in sorted(rollup["spans"].items()):
        print(f"  {name:28s} x{agg['count']:<4d} {agg['total_s'] * 1e3:9.2f} ms")
    print(f"counters: {json.dumps(rollup['counters'], sort_keys=True)}")

    ok = True
    if errors:
        ok = False
        for err in errors:
            print(f"SCHEMA ERROR: {err}", file=sys.stderr)
    if flow["solves"] == 0:
        ok = False
        print("ERROR: no flow.solve events in the trace", file=sys.stderr)
    if flow["warm"] == 0:
        ok = False
        print("ERROR: no warm-started solves in the trace", file=sys.stderr)
    for failure in failures:
        ok = False
        print(f"STATS MISMATCH: {failure}", file=sys.stderr)
    print("trace-smoke: OK" if ok else "trace-smoke: FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else "benchmarks/out/trace_smoke.jsonl"
    out_dir = os.path.dirname(path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    return run(path)


if __name__ == "__main__":
    raise SystemExit(main())
