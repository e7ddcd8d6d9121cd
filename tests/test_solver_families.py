"""Cross-family property test: every solver on the same 50 random graphs.

One test matrix ties the whole algorithm zoo together:

* Exact and CoreExact must report the same optimal density
  bit-identically;
* the PeelApp approximation stays at or below the optimum and above
  its claimed ratio, ``1/h!`` at h = 2 (Charikar's 1/2).
"""

from __future__ import annotations

import random

import pytest

from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.peel import peel_densest
from repro.graph.graph import Graph


def _family_graph(seed: int) -> Graph:
    """Small random graphs of varying shape (sparse to near-complete)."""
    rng = random.Random(seed)
    n = rng.randint(6, 16)
    m = rng.randint(n // 2, n * (n - 1) // 3 + 1)
    g = Graph(vertices=range(n))
    max_edges = n * (n - 1) // 2
    while g.num_edges < min(m, max_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


@pytest.mark.parametrize("seed", range(50))
def test_solver_families_agree_and_bound(seed):
    g = _family_graph(seed)

    exact = exact_densest(g, 2)
    core = core_exact_densest(g, 2)

    # exact family: one optimum
    assert core.density == exact.density

    optimum = exact.density

    # approximation family: <= optimum, >= the claimed ratio
    peel = peel_densest(g, 2)
    assert peel.density <= optimum + 1e-9
    assert peel.density >= optimum / 2.0 - 1e-9  # 1/h! at h = 2


@pytest.mark.parametrize("seed", range(10))
def test_solver_families_triangle_density(seed):
    """Same agreement matrix for Ψ = triangle (h = 3)."""
    g = _family_graph(seed + 500)
    exact = exact_densest(g, 3)
    core = core_exact_densest(g, 3)
    assert core.density == exact.density

    peel = peel_densest(g, 3)
    assert peel.density <= exact.density + 1e-9
    if exact.density > 0:
        assert peel.density >= exact.density / 3.0 - 1e-9  # Lemma 8 ratio 1/h
