"""Property-based tests (hypothesis) for the paper's invariants.

Each property encodes a lemma or structural fact from the paper and is
checked on randomly drawn graphs:

* Theorem 1 density bounds of (k, Ψ)-cores,
* Lemma 5 upper bound ρ_opt <= kmax,
* Lemma 8 / Lemma 10 approximation guarantees,
* core nestedness, max-flow/min-cut duality, enumeration identities.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.cliques.enumeration import CliqueIndex, count_cliques
from repro.core.clique_core import clique_core_decomposition
from repro.core.core_app import core_app_densest
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.inc_app import inc_app_densest
from repro.core.kcore import core_decomposition
from repro.core.peel import peel_densest
from repro.graph.graph import Graph

from .test_flow import ArcNetwork, nx_reference


@st.composite
def graphs(draw, max_vertices: int = 16, max_extra_edges: int = 40) -> Graph:
    """Random simple graphs, connected-ish, small enough for exact runs."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_extra_edges,
        )
    )
    g = Graph(vertices=range(n))
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    return g


@st.composite
def flow_networks(draw) -> ArcNetwork:
    n = draw(st.integers(min_value=2, max_value=8))
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.1, 10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=24,
        )
    )
    names = ["s", "t"] + [f"n{i}" for i in range(max(n - 2, 0))]
    return ArcNetwork(
        (names[u], names[v], c)
        for u, v, c in arcs
        if u != v and names[v] != "s" and names[u] != "t"
    )


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_theorem1_lower_bound(g: Graph):
    """Every non-empty (k, Ψ)-core has density >= k/|V_Ψ| (triangles)."""
    result = clique_core_decomposition(g, 3)
    for k in range(1, result.kmax + 1):
        sub = result.core_subgraph(g, k)
        if sub.num_vertices:
            assert count_cliques(sub, 3) / sub.num_vertices >= k / 3 - 1e-12


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_lemma5_rho_opt_at_most_kmax(g: Graph):
    result = clique_core_decomposition(g, 3)
    optimum = core_exact_densest(g, 3, decomposition=None).density
    assert optimum <= result.kmax + 1e-9


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=12, max_extra_edges=30))
def test_exact_equals_core_exact(g: Graph):
    for h in (2, 3):
        assert abs(exact_densest(g, h).density - core_exact_densest(g, h).density) < 1e-9


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_approximation_sandwich(g: Graph):
    """approx <= opt and approx >= opt/h for peel and the core methods."""
    h = 3
    optimum = core_exact_densest(g, h).density
    for algo in (peel_densest, inc_app_densest, core_app_densest):
        approx = algo(g, h).density
        assert approx <= optimum + 1e-9
        if optimum > 0:
            assert approx >= optimum / h - 1e-9


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_core_nestedness(g: Graph):
    result = clique_core_decomposition(g, 3)
    previous: set | None = None
    for k in range(result.kmax, -1, -1):
        members = {v for v, c in result.core.items() if c >= k}
        if previous is not None:
            assert previous <= members
        previous = members


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_clique_core_number_at_most_clique_degree(g: Graph):
    result = clique_core_decomposition(g, 3)
    degrees = CliqueIndex(g, 3).degrees()
    assert all(result.core[v] <= degrees[v] for v in g)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_h2_clique_core_is_classical_core(g: Graph):
    assert clique_core_decomposition(g, 2).core == core_decomposition(g)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_clique_degree_handshake(g: Graph):
    """Sum of clique-degrees = h * number of instances (triangles)."""
    index = CliqueIndex(g, 3)
    assert sum(index.degrees().values()) == 3 * index.num_alive


@settings(max_examples=40, deadline=None)
@given(flow_networks())
def test_dinic_agrees_with_networkx(net: ArcNetwork):
    value, side = nx_reference(net.arcs)
    assert math.isclose(net.max_flow(), value, rel_tol=1e-7, abs_tol=1e-7)
    assert net.source_side() == side


@settings(max_examples=40, deadline=None)
@given(flow_networks())
def test_max_flow_equals_min_cut(net: ArcNetwork):
    value = net.max_flow()
    cut = net.cut_capacity(net.source_side())
    assert math.isclose(value, cut, rel_tol=1e-7, abs_tol=1e-7)


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=12, max_extra_edges=26))
def test_pattern_count_symmetry_star(g: Graph):
    """2-star count via formula == via enumeration on random graphs."""
    from repro.patterns.degree import pattern_degrees, star_degrees
    from repro.patterns.pattern import get_pattern

    assert star_degrees(g, 2) == pattern_degrees(g, get_pattern("2-star"))


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=12, max_extra_edges=26))
def test_peel_result_is_subset_of_graph(g: Graph):
    result = peel_densest(g, 2)
    assert result.vertices <= set(g.vertices())
    sub = g.subgraph(result.vertices)
    if sub.num_vertices:
        assert abs(sub.edge_density() - result.density) < 1e-9


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=12, max_extra_edges=30))
def test_lemma3_cds_components_equal_density(g: Graph):
    """Connected components of a CDS share its density (Lemma 3)."""
    result = exact_densest(g, 2)
    if not result.vertices or result.density == 0.0:
        return
    sub = g.subgraph(result.vertices)
    for component in sub.connected_components():
        comp = sub.subgraph(component)
        assert abs(comp.edge_density() - result.density) < 1e-6


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=12, max_extra_edges=30))
def test_lemma7_cds_inside_core(g: Graph):
    """The CDS is contained in the (ceil(rho_opt), Ψ)-core (Lemma 7)."""
    h = 3
    result = core_exact_densest(g, h)
    if result.density <= 0.0:
        return
    decomposition = clique_core_decomposition(g, h)
    k = math.ceil(result.density - 1e-9)
    core_members = {v for v, c in decomposition.core.items() if c >= k}
    assert result.vertices <= core_members
