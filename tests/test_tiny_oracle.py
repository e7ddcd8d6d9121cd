"""Brute-force oracle: every graph on at most seven vertices.

The networkx graph atlas lists every graph with up to seven vertices.
For each of its 1,245 graphs with an edge and each h in {2, 3, 4}, the
tables below enumerate every vertex subset: its h-clique count gives
the optimum density ρ*, and its minimum clique-degree gives the
(k, Ψ)-cores (the (k, Ψ)-core is the union of all subsets whose minimum
clique-degree is at least k).  The 12 catalogue patterns get the same
treatment on the 202 atlas graphs of at most six vertices, their
instances found by trying every injection of the pattern.  Densities
are compared as integer ratios, by cross-multiplication, never through
a float tolerance.
"""

import itertools

import networkx as nx
import pytest

from repro.cliques.index import CliqueIndex
from repro.core import kcore
from repro.core.core_app import core_app_densest
from repro.core.inc_app import inc_app_densest
from repro.core.kcore import core_decomposition
from repro.core.pds import (
    core_p_exact_densest,
    p_exact_densest,
    pattern_core_app_densest,
    pattern_inc_app_densest,
    pattern_peel_densest,
)
from repro.core.peel import peel_densest
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


def _oracle(graph: Graph, h: int):
    """``(count, rho, core)`` from every vertex subset of ``graph``.

    ``count[S]`` is the number of h-cliques inside subset mask ``S``;
    ``rho`` the optimum density as ``(instances, vertices)``; ``core``
    the (kmax, Ψ)-core as a mask.
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
    return count, rho, core


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
def test_approximations_against_every_subset(atlas, h):
    for i, atlas_graph in enumerate(atlas):
        graph = _graph(atlas_graph)
        count, (best, best_size), core = _oracle(graph, h)

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
