"""Table 5: Ψ-densities of the CDS/PDS vs the same density on the EDS.

For each dataset: ρ_opt for every clique size (and 2-star / diamond),
next to the Ψ-density evaluated on the *edge*-densest subgraph.  The
paper's point: the CDS/PDS dominates the EDS under its own density, and
on near-clique datasets the two coincide.
"""

from __future__ import annotations

from ..cliques.enumeration import count_cliques
from ..core.core_exact import core_exact_densest
from ..core.pds import core_p_exact_densest
from ..datasets.registry import load
from ..patterns.isomorphism import pattern_density
from ..patterns.pattern import get_pattern


def run(
    names: tuple[str, ...] = ("S-DBLP", "Yeast", "Netscience", "As-733"),
    h_values: tuple[int, ...] = (2, 3, 4),
    patterns: tuple[str, ...] = ("2-star", "diamond"),
    scale: float = 1.0,
) -> list[dict]:
    """One row per dataset: ρ_opt and ρ(EDS, Ψ) per clique size / pattern."""
    rows = []
    for name in names:
        graph = load(name, scale)
        eds = core_exact_densest(graph, 2)
        eds_graph = graph.subgraph(eds.vertices)
        row: dict = {"dataset": name, "edge_rho_opt": eds.density}
        for h in h_values:
            if h == 2:
                continue
            result = core_exact_densest(graph, h)
            row[f"{h}clique_rho_opt"] = result.density
            row[f"{h}clique_on_EDS"] = (
                count_cliques(eds_graph, h) / eds_graph.num_vertices
                if eds_graph.num_vertices
                else 0.0
            )
        for pname in patterns:
            pattern = get_pattern(pname)
            result = core_p_exact_densest(graph, pattern)
            row[f"{pname}_rho_opt"] = result.density
            row[f"{pname}_on_EDS"] = pattern_density(eds_graph, pattern)
        rows.append(row)
    return rows
