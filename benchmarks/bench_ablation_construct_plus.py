"""Ablation: PExact's per-instance network vs construct+'s grouping.

Algorithm 7's motivation: many pattern instances share one vertex set,
so grouping shrinks the network.  This ablation measures node counts and
min-cut time on both constructions for patterns with heavy co-location
(diamond, 2-triangle) and verifies Lemma 11's cut equality.  Both
networks are built from the rows of one pattern-instance index.
"""

from repro.core.pattern_core import pattern_index
from repro.datasets.registry import load
from repro.experiments.harness import timed
from repro.flow import dinic
from repro.flow.builders import build_pds_network, build_pds_network_grouped
from repro.patterns.pattern import get_pattern


def test_ablation_construct_plus(benchmark, emit, bench_scale):
    graph = load("Netscience", bench_scale)
    rows = []
    for name in ("diamond", "2-triangle", "2-star"):
        index = pattern_index(graph, get_pattern(name))
        if not index.m:
            continue
        alpha = index.m / graph.num_vertices  # a mid-range guess
        plain = build_pds_network(index, alpha)
        grouped = build_pds_network_grouped(index, alpha)
        value_plain, plain_s = timed(dinic.max_flow, plain)
        value_grouped, grouped_s = timed(dinic.max_flow, grouped)
        assert abs(value_plain - value_grouped) < 1e-6 * max(1.0, value_plain)
        rows.append(
            {
                "pattern": name,
                "instances": index.m,
                "plain_nodes": plain.num_nodes,
                "grouped_nodes": grouped.num_nodes,
                "plain_s": plain_s,
                "grouped_s": grouped_s,
            }
        )
    emit(
        "ablation_construct_plus",
        rows,
        "Ablation -- PExact network vs construct+ grouping (Lemma 11: equal cuts)",
    )
    # grouping can only shrink the network
    assert all(r["grouped_nodes"] <= r["plain_nodes"] for r in rows)

    index = pattern_index(graph, get_pattern("diamond"))
    benchmark(build_pds_network_grouped, index, 1.0)
