#!/usr/bin/env python3
"""Profiled run: trace a densest-subgraph solve and print the rollup.

Enables the :mod:`repro.obs` tracing layer around one CoreExact call
and prints the resulting nested profile -- per-phase wall times, every
max-flow solve with its warm-start mode and kernel work counters, and
the aggregate flow rollup:

    python examples/trace_run.py

Set ``REPRO_TRACE=trace.jsonl`` instead to stream the same records to a
JSONL file from any unmodified run.
"""

from repro import densest_subgraph, obs
from repro.graph.generators import erdos_renyi_gnm, planted_clique


def main() -> None:
    background = erdos_renyi_gnm(150, 450, seed=11)
    graph, members = planted_clique(background, 9, seed=12)
    print(f"graph: n={graph.num_vertices} m={graph.num_edges}\n")

    obs.enable()
    result = densest_subgraph(graph, psi=3, method="core-exact")
    summary = obs.summary()
    obs.disable()

    print(f"CDS(3) density={result.density:.3f} size={result.size} "
          f"via {result.method}\n")

    env = summary["env"]
    print(f"environment: python {env['python']}, numpy={env['numpy']}, "
          f"tier={env['active_tier']}")

    print("\nphase rollup (nested spans):")
    for name, agg in sorted(summary["spans"].items()):
        print(f"  {name:28s} x{agg['count']:<3d} {agg['total_s'] * 1e3:8.2f} ms")

    flow = summary["flow"]
    print(f"\nmax-flow solves: {flow['solves']} "
          f"(warm {flow['warm']} / cold {flow['cold']})")
    print(f"  warm-start modes: {flow['modes']}")
    print(f"  BFS passes: {flow['bfs_passes']}  augments: {flow['augments']}")

    print("\nper-solve telemetry (flow.solve events):")
    for ev in obs.get_collector().events(obs.FLOW_SOLVE):
        f = ev["fields"]
        print(f"  alpha={f['alpha']:<8.4f} mode={f['mode']:<10s} "
              f"tier={f['tier']:<6s} arcs={f['arcs']:<6d} "
              f"passes={f.get('bfs_passes', '-')}")


if __name__ == "__main__":
    main()
