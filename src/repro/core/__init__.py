"""The paper's primary contribution: core-based DSD algorithms."""

from .clique_core import (
    CliqueCoreResult,
    clique_core_decomposition,
    clique_core_subgraph,
    kmax_clique_core,
)
from .core_app import core_app_densest
from .core_exact import core_exact_densest
from .exact import DensestSubgraphResult, exact_densest
from .inc_app import inc_app_densest
from .kcore import core_decomposition, degeneracy, k_core, max_core
from .peel import peel_densest

__all__ = [
    "CliqueCoreResult",
    "DensestSubgraphResult",
    "clique_core_decomposition",
    "clique_core_subgraph",
    "core_app_densest",
    "core_decomposition",
    "core_exact_densest",
    "degeneracy",
    "exact_densest",
    "inc_app_densest",
    "k_core",
    "kmax_clique_core",
    "max_core",
    "peel_densest",
]
