"""Named surrogate datasets standing in for the paper's graphs.

The paper evaluates on ten real graphs (Table 2), three additional real
graphs (Table 6) and three GTgraph synthetics.  This environment is
offline and pure-Python, so each real graph is replaced by a *seeded
synthetic surrogate* at laptop scale whose family matches the
structural properties the algorithms are sensitive to: a skewed
(power-law) degree distribution, local clustering, and a small dense
core -- or, for ER, deliberately none of those (the paper uses ER as
the adversarial case where core-based pruning is weakest).

The substitutions, by family:

* Netscience, Ca-HepTh, DBLP, Friendster, UK-2002 and Google --
  Holme–Kim power-law graphs with high clustering and one planted
  clique, the dense core of co-authorship and social graphs;
* As-733, As-Caida, Cit-Patents, Enwiki-2017, Flickr and Foursquare --
  Chung–Lu graphs with a power-law expected degree sequence and little
  clustering;
* Yeast and Yeast-PPI -- a sparse Chung–Lu graph with three planted
  complexes (a clique, a hub star, a K3,x bi-clique), so that edge,
  star and C4 densities pick different subgraphs (Figure 21);
* S-DBLP -- a collaboration surrogate plus an advisor hub, so that
  triangle and 2-star densities pick different subgraphs (Figure 17);
* SSCA, ER and R-MAT -- the paper's own synthetic generators.

Each surrogate keeps the paper's dataset name and records the original
size for Table 2.  Every surrogate is deterministic (fixed seed), so
benchmark tables are reproducible run to run.  ``load(name,
scale=...)`` shrinks or grows a surrogate while keeping its family,
which is how the benchmark suite trades fidelity for wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..graph.generators import (
    chung_lu,
    erdos_renyi_gnm,
    holme_kim,
    planted_clique,
    power_law_weights,
    rmat,
    ssca,
)
from ..graph.graph import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """A registry entry.

    Attributes
    ----------
    name:
        The paper's dataset name.
    category:
        ``"small"`` (exact algorithms run on it), ``"large"``
        (approximation algorithms only), ``"extra"`` (Appendix E),
        ``"synthetic"`` or ``"case-study"``.
    paper_vertices / paper_edges:
        The original dataset's size, for the Table-2 column.
    build:
        Factory ``scale -> Graph``; ``scale`` multiplies the surrogate's
        default vertex count.
    """

    name: str
    category: str
    paper_vertices: int
    paper_edges: int
    build: Callable[[float], Graph]


def _collab(n: int, m_per: int, clique: int, seed: int, scale: float) -> Graph:
    """Collaboration-style surrogate: power-law + one planted clique.

    The planted clique shrinks with sqrt(scale) so that down-scaled
    surrogates keep bench runtimes bounded (clique-instance counts grow
    combinatorially in the clique size).
    """
    size = max(int(n * scale), m_per + 2)
    clique_size = min(size, max(4, int(clique * min(scale, 1.0) ** 0.5)))
    graph = holme_kim(size, m_per, triangle_prob=0.6, seed=seed)
    graph, _ = planted_clique(graph, clique_size, seed=seed + 1)
    return graph


def _powerlaw(n: int, alpha: float, mean_degree: float, seed: int, scale: float) -> Graph:
    size = max(int(n * scale), 10)
    return chung_lu(power_law_weights(size, alpha, mean_degree), seed=seed)


def _ppi(n: int, alpha: float, mean_degree: float, seed: int, scale: float) -> Graph:
    """PPI-style surrogate: sparse power-law plus three distinct complexes.

    Planted structures model different kinds of protein complexes so
    that different patterns pick *different* densest subnetworks (the
    paper's Figure-21 case study):

    * a 7-clique          -- wins edge / h-clique / c3-star density,
    * a hub star          -- wins 2-star density (no triangles),
    * a K3,x bi-clique    -- wins diamond (C4) density (triangle-free).
    """
    import random

    graph = _powerlaw(n, alpha, mean_degree, seed, scale)
    size = graph.num_vertices
    rng = random.Random(seed + 100)
    vertices = sorted(graph.vertices())
    rng.shuffle(vertices)
    cursor = 0

    def take(count: int) -> list:
        nonlocal cursor
        block = vertices[cursor : cursor + count]
        cursor += count
        return block

    clique = take(min(7, max(size // 8, 2)))
    for i, u in enumerate(clique):
        for v in clique[i + 1 :]:
            graph.add_edge(u, v)
    hub_leaves = take(min(60, size // 6))
    if hub_leaves and cursor < len(vertices):
        hub = take(1)[0]
        for leaf in hub_leaves:
            graph.add_edge(hub, leaf)
    centers = take(min(3, max(size // 20, 0)))
    wings = take(min(20, size // 6))
    for c in centers:
        for w in wings:
            graph.add_edge(c, w)
    return graph


def _collab_with_hub(
    n: int, m_per: int, clique: int, hub_degree: int, seed: int, scale: float
) -> Graph:
    """Collaboration surrogate with a planted clique *and* a hub.

    The hub (an advisor linked to many otherwise-unrelated authors)
    gives star patterns a different optimum than triangle patterns --
    the contrast of the paper's Figure-17 case study.
    """
    import random

    graph = _collab(n, m_per, clique, seed, scale)
    rng = random.Random(seed + 200)
    vertices = sorted(graph.vertices())
    hub = vertices[0]
    hub_count = min(int(hub_degree * scale) or hub_degree, len(vertices) - 1)
    targets = rng.sample(vertices[1:], hub_count)
    for t in targets:
        graph.add_edge(hub, t)
    return graph


_REGISTRY: dict[str, DatasetSpec] = {}


def _register(
    name: str,
    category: str,
    paper_n: int,
    paper_m: int,
    build: Callable[[float], Graph],
) -> None:
    _REGISTRY[name.lower()] = DatasetSpec(name, category, paper_n, paper_m, build)


# --- small real graphs (exact + approximation algorithms) -------------
_register("Yeast", "small", 1_116, 2_148, lambda s=1.0: _ppi(1_116, 2.9, 3.8, 11, s))
_register("Netscience", "small", 1_589, 2_742, lambda s=1.0: _collab(1_589, 2, 18, 12, s))
_register("As-733", "small", 1_486, 3_172, lambda s=1.0: _powerlaw(1_486, 2.2, 4.3, 13, s))
_register("Ca-HepTh", "small", 9_877, 25_998, lambda s=1.0: _collab(2_000, 3, 20, 14, s))
_register("As-Caida", "small", 26_475, 106_762, lambda s=1.0: _powerlaw(3_000, 2.1, 8.0, 15, s))

# --- large real graphs (approximation algorithms only) ----------------
_register("DBLP", "large", 425_957, 1_049_866, lambda s=1.0: _collab(8_000, 3, 26, 21, s))
_register("Cit-Patents", "large", 3_774_768, 16_518_948,
          lambda s=1.0: _powerlaw(12_000, 2.3, 8.0, 22, s))
_register("Friendster", "large", 20_145_325, 106_570_765,
          lambda s=1.0: _collab(16_000, 5, 30, 23, s))
_register("Enwiki-2017", "large", 5_409_498, 122_008_994,
          lambda s=1.0: _powerlaw(14_000, 2.4, 16.0, 24, s))
_register("UK-2002", "large", 18_520_486, 298_113_762, lambda s=1.0: _collab(20_000, 6, 32, 25, s))

# --- additional datasets (Appendix E / Figure 20) ----------------------
_register("Flickr", "extra", 214_698, 2_096_306, lambda s=1.0: _powerlaw(6_000, 2.2, 12.0, 31, s))
_register("Google", "extra", 875_713, 4_322_051, lambda s=1.0: _collab(8_000, 4, 24, 32, s))
_register("Foursquare", "extra", 2_127_093, 8_640_352,
          lambda s=1.0: _powerlaw(10_000, 2.5, 8.0, 33, s))

# --- synthetic random graphs (Section 8, Figures 13/14) ----------------
_register(
    "SSCA", "synthetic", 100_000, 3_405_676,
    lambda s=1.0: ssca(max(int(4_000 * s), 50), max_clique_size=16, seed=41),
)
_register(
    "ER", "synthetic", 100_000, 4_837_534,
    lambda s=1.0: erdos_renyi_gnm(max(int(4_000 * s), 50), max(int(48_000 * s), 200), seed=42),
)
_register(
    "R-MAT", "synthetic", 100_000, 2_571_986,
    lambda s=1.0: rmat(max(int(4_000 * s), 50), max(int(26_000 * s), 150), seed=43),
)

# --- case-study surrogates (Section 8.2, Figures 17/21) ----------------
_register(
    "S-DBLP", "case-study", 478, 1_086,
    lambda s=1.0: _collab_with_hub(478, 2, 12, hub_degree=150, seed=51, scale=s),
)
_register("Yeast-PPI", "case-study", 1_116, 2_148, lambda s=1.0: _ppi(1_116, 2.9, 3.8, 52, s))


def dataset_names(category: str | None = None) -> list[str]:
    """Registry names, optionally filtered by category."""
    return [
        spec.name for spec in _REGISTRY.values() if category is None or spec.category == category
    ]


def get_spec(name: str) -> DatasetSpec:
    """The :class:`DatasetSpec` for ``name`` (case-insensitive).

    Raises
    ------
    KeyError
        For unknown names; :func:`dataset_names` lists valid ones.
    """
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; known: {dataset_names()}") from None


def load(name: str, scale: float = 1.0) -> Graph:
    """Build (deterministically) and return the surrogate graph.

    ``scale`` multiplies the surrogate's default vertex count; the
    benchmark suite uses small scales to keep pure-Python runtimes
    friendly while preserving each graph family.
    """
    return get_spec(name).build(scale)
