"""Figure 10: ablation of the CoreExact pruning criteria (P1/P2).

The paper's P3 column has no counterpart: Pruning3 relaxes the binary
search's stopping resolution, and CoreExact walks the min-cut
breakpoints instead (see :mod:`repro.experiments.fig10`).
"""

from repro.core.core_exact import core_exact_densest
from repro.datasets.registry import load
from repro.experiments import fig10


def test_fig10_pruning_ablation(benchmark, emit, bench_scale):
    rows = []
    for name in ("As-733", "Ca-HepTh"):
        rows.extend(fig10.run(name, h_values=(2, 3), scale=bench_scale))
    emit(
        "fig10_prunings",
        rows,
        "Figure 10 -- CoreExact pruning ablation (seconds per variant)",
    )
    graph = load("As-733", bench_scale)
    benchmark(core_exact_densest, graph, 3, pruning1=True, pruning2=False)
