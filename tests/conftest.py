"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro import env, guard
from repro.graph.graph import Graph


@pytest.fixture(autouse=True)
def _sanitizer_follows_the_environment():
    """Every test runs with the sanitizer armed exactly when
    ``REPRO_CHECK`` says so: a test that flips it must put it back, or
    the rest of a checked suite would run unchecked."""
    assert guard.CHECK == env.switch("REPRO_CHECK")


def random_graph(n: int, m: int, seed: int) -> Graph:
    """A seeded uniform random simple graph (tests-only helper)."""
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    max_edges = n * (n - 1) // 2
    target = min(m, max_edges)
    while g.num_edges < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


def to_networkx(graph: Graph) -> nx.Graph:
    """Convert to networkx for oracle comparisons."""
    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(graph.edges())
    return g


@pytest.fixture
def triangle_graph() -> Graph:
    return Graph([(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def paper_figure1_graph() -> Graph:
    """A graph in the spirit of Figure 1: a K4 blob plus a sparse tail."""
    return Graph(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]
    )


@pytest.fixture
def paper_figure3_graph() -> Graph:
    """The 8-vertex running example of Figure 3 (reconstructed shape).

    A K4 {A,B,C,D}, a triangle {E,F,G} hanging off D, and a pendant H --
    enough structure to exercise distinct k-cores and (k, Ψ)-cores.
    """
    return Graph(
        [
            ("A", "B"), ("A", "C"), ("A", "D"),
            ("B", "C"), ("B", "D"), ("C", "D"),
            ("D", "E"), ("E", "F"), ("E", "G"), ("F", "G"),
            ("G", "H"),
        ]
    )


@pytest.fixture
def disconnected_graph() -> Graph:
    """Two components of different densities plus an isolated vertex."""
    g = Graph([(0, 1), (1, 2), (2, 0), (10, 11), (11, 12)])
    g.add_vertex(99)
    return g
