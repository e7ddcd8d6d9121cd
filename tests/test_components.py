"""Property suite for the per-component structure of the exact solvers.

Flow never crosses connected components.  CoreExact exploits it: it
splits the located core into components and walks them one after the
other, carrying the lower bound from each component to the next.  A
50-graph matrix of multi-component random graphs pins that serial
component loop against the whole-graph paths:

* CoreExact's density equals the whole-graph Exact walk's and the best
  single component's, bit for bit (``==`` on floats: equal rationals
  round identically);
* the whole-graph Exact walk is the merge of the per-component walks --
  the densest component wins, exact-float ties union, and the density
  is the one division ``Σ counts / |union|`` -- the argument
  :meth:`repro.serve.Snapshot._merge_walks` rests on;
* the call-level clique index sliced per component equals a fresh index
  of that component, and the slices partition the instances;
* a solve budget is charged for the walks of every component, and an
  expired one degrades to the same incumbent on every run;
* the same bits come out with numpy forced off (subprocess leg).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api, guard
from repro.cliques.index import CliqueIndex
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.peel import peel_densest
from repro.graph.graph import Graph

REPO = Path(__file__).resolve().parent.parent


def _graph(seed: int) -> Graph:
    """A multi-component random graph: 2-4 blobs of 8-16 vertices."""
    rng = random.Random(seed)
    comps = 2 + seed % 3
    p = 0.25 + 0.05 * (seed % 3)
    g = Graph()
    base = 0
    for _ in range(comps):
        n = 8 + 2 * rng.randrange(5)
        verts = list(range(base, base + n))
        for v in verts:
            g.add_vertex(v)
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                if rng.random() < p:
                    g.add_edge(u, v)
        base += n
    return g


def _h(seed: int) -> int:
    return (2, 3, 4)[seed % 3]


def _clones(seed: int, copies: int = 3, n: int = 12, p: float = 0.3) -> Graph:
    """``copies`` label-shifted copies of one random blob.

    Identical structure means identical clique-core numbers, so
    CoreExact's locate-core pruning keeps every component, and every
    component ties at the optimum.
    """
    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    g = Graph()
    for c in range(copies):
        base = c * n
        for v in range(base, base + n):
            g.add_vertex(v)
        for i, j in edges:
            g.add_edge(base + i, base + j)
    return g


def _count(graph: Graph, vertices, h: int) -> int:
    """Ψ-instances inside ``vertices``, counted from scratch."""
    sub = graph.subgraph(vertices)
    return sub.num_edges if h == 2 else CliqueIndex(sub, h).m


def _components(graph: Graph) -> list[Graph]:
    return [graph.subgraph(cc) for cc in graph.connected_components()]


# --- the 50-graph matrix ----------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_core_exact_component_loop_matches_the_whole_graph(seed):
    g, h = _graph(seed), _h(seed)
    core = core_exact_densest(g, h)
    exact = exact_densest(g, h)
    assert core.density == exact.density, (seed, h)
    best_alone = max(exact_densest(sub, h).density for sub in _components(g))
    assert core.density == best_alone, (seed, h)
    if core.density > 0:
        assert _count(g, core.vertices, h) / len(core.vertices) == core.density


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_exact_walk_is_the_merge_of_component_walks(seed):
    g, h = _graph(seed), _h(seed)
    whole = exact_densest(g, h)
    maxrho, union, count = 0.0, set(), 0
    for sub in _components(g):
        part = exact_densest(sub, h)
        if part.density == 0.0:
            continue
        if part.density > maxrho:
            maxrho, union, count = part.density, set(part.vertices), 0
        elif part.density < maxrho:
            continue
        union |= part.vertices
        count += _count(sub, part.vertices, h)
    if not union:
        # no component holds a Ψ instance: the whole vertex set at 0
        assert whole.vertices == set(g.vertices()) and whole.density == 0.0
        return
    assert whole.vertices == union, (seed, h)
    assert whole.density == count / len(union), (seed, h)


@pytest.mark.parametrize("h", (3, 4))
@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_component_subindexes_partition_the_instances(seed, h):
    g = _graph(seed)
    index = CliqueIndex(g, h)
    total = 0
    for sub in _components(g):
        sliced = index.subindex(sub)
        assert sliced.inst == CliqueIndex(sub, h).inst, (seed, h)
        assert index.count_within(set(sub.vertices())) == sliced.m
        total += sliced.m
    assert total == index.m


@pytest.mark.parametrize("seed", (3, 11))
def test_peel_keeps_its_ratio_across_components(seed):
    g, h = _graph(seed), _h(seed)
    optimum = exact_densest(g, h).density
    direct = peel_densest(g, h)
    via_api = api.densest_subgraph(g, h, method="peel")
    assert via_api.vertices == direct.vertices
    assert via_api.density == direct.density
    assert via_api.iterations == direct.iterations
    assert direct.density <= optimum
    assert direct.density >= optimum / h - 1e-12  # Lemma 8 ratio 1/h


def test_tied_components_union_in_the_walk_and_tie_in_core_exact():
    g, h = _clones(4), 3
    blob = _clones(4, copies=1)
    alone = exact_densest(blob, h)
    exact = exact_densest(g, h)
    assert exact.vertices == {c * 12 + v for c in range(3) for v in alone.vertices}
    assert exact.density == alone.density
    core = api.densest_subgraph(g, h, method="core-exact")
    direct = core_exact_densest(g, h)
    assert core.vertices == direct.vertices
    assert core.density == direct.density == alone.density


# --- the numpy-off leg ------------------------------------------------


def test_component_matrix_holds_without_numpy():
    """Pure-python tier: the same vertex sets and density bits."""
    script = (
        "import sys; sys.path.insert(0, 'tests'); sys.path.insert(0, 'src')\n"
        "from test_components import _graph, _h\n"
        "from repro.core.core_exact import core_exact_densest\n"
        "from repro.core.exact import exact_densest\n"
        "for seed in (1, 8):\n"
        "    g, h = _graph(seed), _h(seed)\n"
        "    for r in (core_exact_densest(g, h), exact_densest(g, h)):\n"
        "        print(seed, sorted(r.vertices), r.density.hex())\n"
    )
    env = dict(os.environ, REPRO_NO_NUMPY="1", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    expected = []
    for seed in (1, 8):
        g, h = _graph(seed), _h(seed)
        for r in (core_exact_densest(g, h), exact_densest(g, h)):
            expected.append(f"{seed} {sorted(r.vertices)} {r.density.hex()}")
    assert proc.stdout.splitlines() == expected


# --- budgets across components ----------------------------------------


def test_dead_deadline_degrades_core_exact_with_a_bracket():
    g = _graph(7)
    clean = core_exact_densest(g, 2)
    with guard.Budget(deadline_s=0.0):
        result = core_exact_densest(g, 2)
    stats = result.stats
    assert stats.get("degraded") is True
    assert "deadline" in stats["degraded_reason"]
    assert result.vertices
    assert stats["density_lower_bound"] == result.density
    assert result.density <= clean.density <= stats["density_upper_bound"]


def test_solve_budget_is_charged_for_every_component_walk():
    # pruning off keeps all three copies located, so the solves of
    # every component's walk count against the one budget
    g = _clones(10)
    clean = core_exact_densest(g, 2, pruning1=False, pruning2=False)
    assert clean.iterations > 1
    with guard.Budget(max_solves=clean.iterations) as budget:
        exact_fit = core_exact_densest(g, 2, pruning1=False, pruning2=False)
    assert "degraded" not in exact_fit.stats
    assert budget.solves == clean.iterations
    assert exact_fit.vertices == clean.vertices
    assert exact_fit.density == clean.density
    with guard.Budget(max_solves=clean.iterations - 1):
        short = core_exact_densest(g, 2, pruning1=False, pruning2=False)
    assert short.stats.get("degraded") is True
    assert short.vertices
    assert short.stats["density_lower_bound"] == short.density
    assert short.density <= clean.density <= short.stats["density_upper_bound"]


def test_degraded_incumbent_is_deterministic():
    g = _clones(16)
    runs = []
    for _ in range(2):
        with guard.Budget(max_solves=1):
            runs.append(core_exact_densest(g, 2, pruning1=False, pruning2=False))
    first, second = runs
    assert first.stats.get("degraded") and second.stats.get("degraded")
    assert first.vertices == second.vertices
    assert first.density == second.density
    assert first.stats["density_upper_bound"] == second.stats["density_upper_bound"]
