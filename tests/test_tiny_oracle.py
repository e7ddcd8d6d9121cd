"""Brute-force oracle: every graph on at most seven vertices.

The networkx graph atlas lists every graph with up to seven vertices.
For each of its 1,245 graphs with an edge and each h in {2, 3, 4}, the
tables below enumerate every vertex subset: its h-clique count gives
the optimum density ρ* and the maximal densest subgraph (the union of
all densest subsets), and its minimum clique-degree gives the
(k, Ψ)-cores (the (k, Ψ)-core is the union of all subsets whose minimum
clique-degree is at least k).  The 12 catalogue patterns get the same
treatment on the 202 atlas graphs of at most six vertices, their
instances found by trying every injection of the pattern.  Densities
are compared as integer ratios, by cross-multiplication, never through
a float tolerance.

The same tables check the exact solvers, the query variant and, on the
graphs of at most six vertices, every min cut of the α-parametric flow
networks.
"""

import itertools
from fractions import Fraction

import networkx as nx
import pytest

from repro import obs
from repro.api import densest_subgraph
from repro.cliques.index import CliqueIndex
from repro.core import kcore
from repro.core.core_app import core_app_densest
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.inc_app import inc_app_densest
from repro.core.kcore import core_decomposition
from repro.core.pattern_core import pattern_index
from repro.core.pds import (
    core_p_exact_densest,
    p_exact_densest,
    pattern_core_app_densest,
    pattern_inc_app_densest,
    pattern_peel_densest,
)
from repro.core.peel import peel_densest
from repro.core.query_variant import query_densest
from repro.flow.builders import build_cds_parametric, build_eds_parametric, build_pds_parametric
from repro.graph.graph import Graph
from repro.patterns.isomorphism import enumerate_pattern_instances
from repro.patterns.pattern import get_pattern, pattern_names


@pytest.fixture(scope="module")
def atlas():
    return [g for g in nx.graph_atlas_g() if g.number_of_edges()]


def _graph(atlas_graph) -> Graph:
    # atlas vertices are 0..n-1, so vertex v is bit v of a subset mask
    return Graph(atlas_graph.edges(), vertices=atlas_graph.nodes())


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


#: the members of every subset mask of seven vertices, by mask
MEMBERS = [[v for v in range(7) if subset >> v & 1] for subset in range(1 << 7)]
SIZE = [len(members) for members in MEMBERS]


def _oracle(graph: Graph, h: int):
    """``(count, rho, core, densest)`` from every vertex subset of ``graph``.

    ``count[S]`` is the number of h-cliques inside subset mask ``S``;
    ``rho`` the optimum density as ``(instances, vertices)``; ``core``
    the (kmax, Ψ)-core as a mask; ``densest`` the union of all densest
    subsets as a mask.
    """
    n = graph.num_vertices
    full = (1 << n) - 1
    count = [0] * (full + 1)
    degree = [[0] * n for _ in range(full + 1)]
    for clique in itertools.combinations(range(n), h):
        if not all(graph.has_edge(u, v) for u, v in itertools.combinations(clique, 2)):
            continue
        inside = _mask(clique)
        rest = full & ~inside
        extra = rest
        while True:  # every superset of the clique
            subset = inside | extra
            count[subset] += 1
            row = degree[subset]
            for v in clique:
                row[v] += 1
            if not extra:
                break
            extra = (extra - 1) & rest
    rho = (0, 1)
    kmax, core = 0, full
    for subset in range(1, full + 1):
        members = MEMBERS[subset]
        size = len(members)
        if count[subset] * rho[1] > rho[0] * size:
            rho = (count[subset], size)
        k = min(map(degree[subset].__getitem__, members))
        if k > kmax:
            kmax, core = k, subset
        elif k == kmax:
            core |= subset
    densest = 0
    for subset in range(1, full + 1):
        if count[subset] * rho[1] == rho[0] * SIZE[subset]:
            densest |= subset
    return count, rho, core, densest


@pytest.fixture(scope="module")
def oracles(atlas):
    """``h -> [(graph, _oracle(graph, h)) for every atlas graph]``,
    each h computed once for the module."""
    tables: dict = {}

    def get(h: int) -> list:
        if h not in tables:
            graphs = [_graph(g) for g in atlas]
            tables[h] = [(graph, _oracle(graph, h)) for graph in graphs]
        return tables[h]

    return get


def test_atlas_has_every_graph_with_an_edge(atlas):
    assert len(atlas) == 1245
    assert max(g.number_of_nodes() for g in atlas) == 7


@pytest.mark.parametrize("path", ["numpy", "loop"])
def test_kcore_numbers_equal_networkx(monkeypatch, atlas, path):
    if path == "loop":
        monkeypatch.setattr(kcore, "np", None)
    for i, atlas_graph in enumerate(atlas):
        assert core_decomposition(_graph(atlas_graph)) == nx.core_number(atlas_graph), i


@pytest.mark.parametrize("h", [2, 3, 4])
def test_approximations_against_every_subset(oracles, h):
    for i, (graph, (count, (best, best_size), core, _)) in enumerate(oracles(h)):

        index = CliqueIndex(graph, h)  # IncApp leaves it whole, PeelApp consumes it
        assert _mask(inc_app_densest(graph, h, index=index).vertices) == core, i
        assert _mask(core_app_densest(graph, h).vertices) == core, i

        peel = peel_densest(graph, h, index=index)
        chosen = _mask(peel.vertices)
        size = len(peel.vertices)
        assert peel.density == count[chosen] / size, i
        # ρ*/h <= density <= ρ*, as integer ratios
        assert count[chosen] * best_size <= best * size, i
        assert h * count[chosen] * best_size >= best * size, i


# --- the Figure-7 patterns on the atlas graphs with at most six vertices ---


def _pattern_oracle(graph: Graph, pattern):
    """``(instances, count, rho)`` by brute force over injections.

    Every edge-preserving injection of Ψ into ``graph`` is an embedding;
    embeddings with one image edge set are one instance (Definition 8).
    ``instances`` is the vertex mask of each instance, ``count[S]`` the
    number of instances inside subset mask ``S`` and ``rho`` the optimum
    density as ``(instances, vertices)``.
    """
    n = graph.num_vertices
    position = {v: i for i, v in enumerate(pattern.graph)}
    edges = [(position[u], position[v]) for u, v in pattern.graph.edges()]
    # pattern vertex i must land next to the images of its neighbours j < i
    earlier = [[j for j in range(i) if (i, j) in edges or (j, i) in edges]
               for i in range(pattern.size)]
    by_edges = {}
    image: list[int] = []

    def extend(i: int) -> None:  # every edge-preserving injection
        if i == pattern.size:
            key = frozenset(frozenset((image[a], image[b])) for a, b in edges)
            by_edges[key] = _mask(image)
            return
        for w in range(n):
            if w not in image and all(graph.has_edge(image[j], w) for j in earlier[i]):
                image.append(w)
                extend(i + 1)
                image.pop()

    extend(0)
    instances = list(by_edges.values())
    full = (1 << n) - 1
    count = [0] * (full + 1)
    for inside in instances:
        rest = full & ~inside
        extra = rest
        while True:  # every superset of the instance
            count[inside | extra] += 1
            if not extra:
                break
            extra = (extra - 1) & rest
    rho = (0, 1)
    for subset in range(1, full + 1):
        size = len(MEMBERS[subset])
        if count[subset] * rho[1] > rho[0] * size:
            rho = (count[subset], size)
    return instances, count, rho


@pytest.fixture(scope="module")
def small_atlas(atlas):
    return [_graph(g) for g in atlas if g.number_of_nodes() <= 6]


def test_catalogue_patterns_against_every_subset(small_atlas):
    """The matcher's rows, the exact PDS solvers and the pattern
    approximations on every atlas graph with at most six vertices."""
    for name in pattern_names():
        pattern = get_pattern(name)
        k = pattern.size
        for i, graph in enumerate(small_atlas):
            instances, count, (best, best_size) = _pattern_oracle(graph, pattern)
            rows = enumerate_pattern_instances(graph, pattern)
            labels = list(graph)
            assert sorted(_mask(labels[v] for v in row) for row in rows) == sorted(
                instances
            ), (name, i)
            if not instances:
                continue
            for solver in (p_exact_densest, core_p_exact_densest):
                result = solver(graph, pattern)
                chosen, size = _mask(result.vertices), len(result.vertices)
                assert result.density == count[chosen] / size, (name, i)
                assert count[chosen] * best_size == best * size, (name, i, solver)
            for solver in (pattern_peel_densest, pattern_inc_app_densest, pattern_core_app_densest):
                result = solver(graph, pattern)
                chosen, size = _mask(result.vertices), len(result.vertices)
                assert result.density == count[chosen] / size, (name, i)
                # ρ*/|V_Ψ| <= density <= ρ*, as integer ratios
                assert count[chosen] * best_size <= best * size, (name, i, solver)
                assert k * count[chosen] * best_size >= best * size, (name, i, solver)


# --- the exact solvers and the query variant on every atlas graph ---


@pytest.mark.parametrize("h", [2, 3, 4])
def test_exact_solvers_against_every_subset(oracles, h):
    """Exact, CoreExact and the api's exact methods reach ρ*; Exact's
    walk ends on the maximal densest subgraph.  On graphs this small
    ``method="auto"`` is the api's ``"core-exact"`` entry (its result
    says CoreExact), so one call checks both.  The api differs from the
    direct calls only in the clique index it builds and passes, so it
    runs where there is one: for h >= 3, on the graphs with an h-clique
    (elsewhere the solvers take their early exit)."""
    methods = [  # (name, the algorithm that answers, solver)
        ("Exact", "Exact", lambda g: exact_densest(g, h)),
        ("CoreExact", "CoreExact", lambda g: core_exact_densest(g, h)),
        ("api-exact", "Exact", lambda g: densest_subgraph(g, h, method="exact")),
        ("api-auto", "CoreExact", lambda g: densest_subgraph(g, h, method="auto")),
    ]
    for i, (graph, (count, (best, best_size), _, densest)) in enumerate(oracles(h)):
        for name, algorithm, solve in methods:
            if name.startswith("api-") and (h == 2 or not best):
                continue
            result = solve(graph)
            assert result.method == algorithm, (i, name)
            chosen, size = _mask(result.vertices), len(result.vertices)
            assert result.density == count[chosen] / size, (i, name)
            assert count[chosen] * best_size == best * size, (i, name)
            if algorithm == "Exact":
                assert chosen == densest, (i, name)


def test_query_variant_against_every_superset(oracles):
    """The §6.3 query variant on every atlas graph, for Q = {0} and for
    Q = {a maximum-degree vertex}: the answer contains Q and is the
    densest subset containing Q."""
    queries = 0
    for i, (graph, (count, _, _, _)) in enumerate(oracles(2)):
        top = max(graph.vertices(), key=lambda v: (graph.degree(v), -v))
        for q in {0, top}:
            result = query_densest(graph, [q])
            chosen, size = _mask(result.vertices), len(result.vertices)
            assert chosen >> q & 1, (i, q)
            assert result.density == count[chosen] / size, (i, q)
            best, best_size = 0, 1
            for subset in range(1 << q, len(count)):
                if subset >> q & 1 and count[subset] * best_size > best * SIZE[subset]:
                    best, best_size = count[subset], SIZE[subset]
            assert count[chosen] * best_size == best * size, (i, q)
            queries += 1
    assert queries == 2131


# --- every min cut of the parametric networks on the small atlas graphs ---


def _up_and_down(values: list) -> list:
    """Ascending ``values`` visited two up, one back, then the last one
    again: after the first (cold) solve, the network advances, retreats
    and stays put (noop)."""
    order = values[:1]
    for i in range(1, len(values), 2):
        order += values[i : i + 2][::-1]
    return order + order[-1:]


def _alphas(count) -> list:
    """Every subset density of the table ``count`` and every midpoint
    between consecutive ones, ascending, in the up-and-down order."""
    densities = sorted({Fraction(count[s], SIZE[s]) for s in range(1, len(count))})
    alphas = densities + [(a + b) / 2 for a, b in zip(densities, densities[1:])]
    return _up_and_down(sorted(alphas))


def _check_cuts(net, count, alphas, anchor_mask=0):
    """Solve ``net`` at each α of ``alphas``; each cut must be the
    inclusion-minimal maximiser of μ(S) − α|S| over the subsets S that
    contain ``anchor_mask``, found by integer arithmetic on the table
    ``count``."""
    subsets = [s for s in range(len(count)) if s & anchor_mask == anchor_mask]
    for alpha in alphas:
        p, q = alpha.numerator, alpha.denominator
        gain = [count[s] * q - p * SIZE[s] for s in subsets]
        top = max(gain)
        minimal = -1
        for s, value in zip(subsets, gain):
            if value == top:
                minimal &= s
        assert _mask(net.solve(float(alpha))) == minimal, alpha


def test_parametric_cuts_against_every_subset(oracles):
    """EDS, CDS (h = 3, 4), PDS (Algorithm 8 and construct+, for the
    C4 "diamond" and the five-vertex "basket", whose instances often
    share a vertex set, so construct+ merges nodes) and the anchored EDS
    network, each solved warm through an up-and-down sequence of α
    values, on every atlas graph with at most six vertices."""
    patterns = [get_pattern("diamond"), get_pattern("basket")]
    tables = zip(oracles(2), oracles(3), oracles(4))
    obs.enable()
    try:
        for (graph, (count2, *_)), (_, (count3, *_)), (_, (count4, *_)) in tables:
            if graph.num_vertices > 6:
                continue
            alphas = _alphas(count2)
            _check_cuts(build_eds_parametric(graph), count2, alphas)
            _check_cuts(build_eds_parametric(graph, anchors=[0]), count2, alphas, anchor_mask=1)
            for h, count in ((3, count3), (4, count4)):
                if count[-1]:
                    _check_cuts(build_cds_parametric(graph, h), count, _alphas(count))
            for pattern in patterns:
                index = pattern_index(graph, pattern)
                if not index.m:
                    continue
                count = _pattern_oracle(graph, pattern)[1]
                alphas = _alphas(count)
                for grouped in (False, True):
                    _check_cuts(build_pds_parametric(index, grouped=grouped), count, alphas)
        modes = obs.summary()["flow"]["modes"]
    finally:
        obs.disable()
        obs.reset()
    assert set(modes) == {"cold", "advance", "retreat", "noop"}, modes
