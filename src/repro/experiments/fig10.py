"""Figure 10: individual effect of the CoreExact pruning criteria.

Variants P1 and P2 enable exactly one of Pruning1/2 (base core-location
stays on in both, as in the paper); the full CoreExact enables both.
Times are compared per h-clique size.  The paper's P3 column has no
counterpart: Pruning3 relaxes the binary search's stopping resolution,
and CoreExact here walks the min-cut breakpoints instead, which has no
resolution to relax.
"""

from __future__ import annotations

from ..core.core_exact import core_exact_densest
from ..datasets.registry import load
from .harness import timed

_VARIANTS = {
    "P1": {"pruning1": True, "pruning2": False},
    "P2": {"pruning1": False, "pruning2": True},
    "CoreExact": {"pruning1": True, "pruning2": True},
}


def run(
    name: str = "As-733",
    h_values: tuple[int, ...] = (2, 3, 4),
    scale: float = 1.0,
) -> list[dict]:
    """One row per h with a timing column per pruning variant."""
    graph = load(name, scale)
    rows = []
    for h in h_values:
        row: dict = {"dataset": name, "h": h}
        reference_density = None
        for label, flags in _VARIANTS.items():
            result, seconds = timed(core_exact_densest, graph, h, **flags)
            row[f"{label}_s"] = seconds
            if reference_density is None:
                reference_density = result.density
            else:
                assert abs(result.density - reference_density) < 1e-6, (
                    f"{name} h={h} {label}: density diverged"
                )
        rows.append(row)
    return rows
