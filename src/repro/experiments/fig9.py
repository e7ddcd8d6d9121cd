"""Figure 9: flow-network sizes across CoreExact iterations.

The paper plots, per h-clique, the node count of each flow network
CoreExact builds: iteration "-1" is the network the plain Exact
algorithm would build on the entire graph; iteration "0" is the first
network built after core-location.  In the paper each later iteration
is a binary-search guess; here it is a max-flow solve of the breakpoint
walk, and the networks shrink whenever the walk raises the lower bound
past the next integer.
"""

from __future__ import annotations

from ..cliques.index import CliqueIndex
from ..core.core_exact import core_exact_densest
from ..datasets.registry import load
from ..graph.graph import Graph


def _full_network_size(graph: Graph, h: int) -> int:
    """Node count of the Algorithm-1 network on the whole graph.

    Matches the index-driven builders: an (h-1)-clique only becomes a
    node if some h-clique covers it (uncovered ones cannot carry flow
    and are never created).
    """
    if h == 2:
        return graph.num_vertices + 2
    index = CliqueIndex(graph, h)
    covered = {psi for _, psi in index.member_subsets()}
    return graph.num_vertices + len(covered) + 2


def run(
    name: str = "Ca-HepTh",
    h_values: tuple[int, ...] = (2, 3, 4),
    scale: float = 1.0,
    max_iterations: int = 6,
) -> list[dict]:
    """One row per (h, iteration) with the flow-network node count."""
    graph = load(name, scale)
    rows = []
    for h in h_values:
        result = core_exact_densest(graph, h)
        sizes = result.stats["network_sizes"][: max_iterations + 1]
        rows.append(
            {"dataset": name, "h": h, "iteration": -1,
             "network_nodes": _full_network_size(graph, h)}
        )
        for i, size in enumerate(sizes):
            rows.append({"dataset": name, "h": h, "iteration": i, "network_nodes": size})
    return rows
