"""Ablation: the breakpoint walk vs the paper's binary search, and the
clique-index kernels, in the exact algorithms.

The exact solvers find ρ* by walking the min-cut breakpoints of one
α-parametric network (discrete Newton, the increasing-α half of
Gallo–Grigoriadis–Tarjan).  The paper's Algorithm 1 instead bisects α
down to a ``1/(n(n-1))`` resolution with one min cut per guess.  This
bench keeps that binary search as a local baseline for Exact -- a
freshly built parametric network per guess, one cold solve each -- and
runs both on the Figure-8 small-dataset suite.

Per cell (dataset × algorithm × h) it records:

* the walk's wall-clock and max-flow solve count, and for Exact the
  binary search's (which must return the identical vertex set and
  density);
* the **enumeration/flow split** of the walk, read off the solvers'
  ``stats`` (``enumeration_seconds`` / ``decomposition_seconds`` /
  ``flow_seconds``), which is where the clique-layer speedup shows up
  end-to-end;
* the **kernel ablation**: the clique-index build timed with the numpy
  intersection kernels vs the pure-python fallback, asserted >= 2x
  faster with numpy on every cell whose instance count is non-trivial.

For h >= 3 every cell also asserts that a solver fed a
reference-enumerator index ("old enumeration") is bit-identical to the
kernel-fed run -- the ablation is only meaningful if results are
unchanged.

The **accel-backend ablation** times the walk's flow phase per dispatch
tier of :mod:`repro.accel` (numba / numpy / python) on full-graph
parametric networks and writes it -- together with the cells and the
per-cell backend -- to the machine-readable
``benchmarks/out/BENCH_flow.json``.  With numba actually jitted the
bench asserts a >= 3x flow-phase speedup over the numpy tier on at
least one non-trivial cell; cuts and densities must be identical on
every tier regardless.
"""

import json
import time
from pathlib import Path

from repro import accel, obs
from repro.cliques.enumeration import enumerate_cliques
from repro.cliques.index import CliqueIndex
from repro.cliques.kernels import have_numpy
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.datasets.registry import dataset_names, load
from repro.experiments.harness import env_fingerprint, timed
from repro.flow.builders import build_cds_parametric, build_eds_parametric

OUT_DIR = Path(__file__).parent / "out"

#: Flow-phase wall-clock (numpy tier) below which a backend cell is too
#: fast to time reliably; the numba >= 3x claim is only asserted on
#: cells above it.
TIER_ASSERT_MIN_SECONDS = 0.005

#: Required numba-vs-numpy flow-phase speedup on at least one
#: non-trivial cell (the PR's headline acceptance criterion).
NUMBA_MIN_SPEEDUP = 3.0

#: Cells at or above this many instances take milliseconds to
#: enumerate, so the numpy-vs-python ratio is timing-noise-robust and
#: the full >= 2x kernel claim is asserted on them.  Smaller cells down
#: to ENUM_FLOOR_MIN_INSTANCES still must clear a conservative 1.4x
#: (sub-millisecond builds on shared CI runners jitter too much for a
#: tight bound); below that only the aggregate is asserted.
ENUM_ASSERT_MIN_INSTANCES = 1000
ENUM_FLOOR_MIN_INSTANCES = 150


def _best_of(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _binary_search_exact(graph, h):
    """The paper's Algorithm 1: bisect α until ``u - l < 1/(n(n-1))``.

    Each guess builds a fresh parametric network and solves it cold, as
    the paper's per-iteration network construction does.  Returns
    ``(cut, solves)``: the last feasible cut (the maximal densest
    subgraph, since no subgraph density lies strictly between the final
    lower bound and ρ*, Lemma 12) and the number of max-flow solves.
    """
    n = graph.num_vertices
    index = CliqueIndex(graph, h) if h >= 3 else None
    upper = graph.max_degree() if h == 2 else max(index.base_degree, default=0)
    low, high = 0.0, float(upper)
    resolution = 1.0 / (n * (n - 1)) if n > 1 else 0.5
    best, solves = None, 0
    while high - low >= resolution:
        alpha = (low + high) / 2.0
        if h == 2:
            net = build_eds_parametric(graph)
        else:
            net = build_cds_parametric(graph, h, index=index)
        cut = net.solve(alpha)
        solves += 1
        if cut:
            low, best = alpha, cut
        else:
            high = alpha
    return best, solves


def _cells(bench_scale):
    rows = []
    for name in dataset_names("small"):
        graph = load(name, bench_scale)
        enum_cache = {}
        for algorithm, fn, h_values in (
            ("CoreExact", core_exact_densest, (2, 3, 4)),
            ("Exact", exact_densest, (2, 3)),
        ):
            for h in h_values:
                result, seconds = timed(fn, graph, h)
                row = {
                    "dataset": name,
                    "algorithm": algorithm,
                    "h": h,
                    "backend": accel.TIER,
                    # explicit comparability keys: every cell says which
                    # tier actually ran it, so cross-machine JSONs are
                    # never silently compared numba-vs-interpreter
                    "active_tier": accel.TIER,
                    "numba_available": accel.NUMBA_JITTED,
                    "ggt_s": seconds,
                    # max-flow solves of the walk, one per breakpoint hop
                    "solves_ggt": result.iterations,
                    "density": result.density,
                    # enumeration/flow wall-clock split of the walk;
                    # decomposition_seconds includes the index build
                    # (the paper's Algorithm-3 accounting), so subtract
                    # it to keep the three parts disjoint
                    "enum_s": result.stats.get("enumeration_seconds", 0.0),
                    "decomp_s": max(
                        result.stats.get("decomposition_seconds", 0.0)
                        - result.stats.get("enumeration_seconds", 0.0),
                        0.0,
                    ),
                    "flow_s": result.stats.get("flow_seconds", 0.0),
                }
                if algorithm == "Exact":
                    (cut, solves), binary_s = timed(_binary_search_exact, graph, h)
                    # the walk ends on the same maximal densest subgraph
                    assert cut == result.vertices, (name, h, "binary search")
                    row["binary_s"] = binary_s
                    row["solves_binary"] = solves
                    row["speedup_ggt"] = binary_s / seconds if seconds > 0 else float("inf")

                if h >= 3:
                    # old-vs-new enumeration: the reference nested-loop
                    # enumerator's instances must drive the solver to the
                    # bit-identical answer
                    reference_index = CliqueIndex(
                        graph, h, instances=list(enumerate_cliques(graph, h))
                    )
                    via_reference = fn(graph, h, index=reference_index)
                    assert via_reference.vertices == result.vertices, (
                        name, algorithm, h, "reference-enumeration",
                    )
                    assert via_reference.density == result.density, (
                        name, algorithm, h, "reference-enumeration",
                    )

                    # kernel ablation: numpy intersection kernels vs the
                    # pure-python fallback for the same canonical index
                    if h not in enum_cache:
                        num_instances = CliqueIndex(graph, h).m
                        cell = {"instances": num_instances}
                        if have_numpy():
                            cell["enum_numpy_s"] = _best_of(
                                lambda: CliqueIndex(graph, h, use_numpy=True)
                            )
                            cell["enum_python_s"] = _best_of(
                                lambda: CliqueIndex(graph, h, use_numpy=False)
                            )
                            cell["enum_speedup"] = cell["enum_python_s"] / max(
                                cell["enum_numpy_s"], 1e-9
                            )
                        enum_cache[h] = cell
                    row.update(enum_cache[h])
                rows.append(row)
    return rows


def _flow_tier_cells(bench_scale):
    """Time the GGT flow phase per accel backend tier, per (dataset, h).

    Per cell: build the full-graph parametric network (untimed, it is
    interpreter work on every tier), run the Newton/GGT breakpoint walk
    (timed, best of 2) -- the saturating probe solve plus the warm hops,
    i.e. exactly the compiled hot loops.  Every tier must return the
    identical cut and density; wall times land in BENCH_flow.json.
    """
    tiers = accel.available_tiers()
    cells = []
    try:
        for name in dataset_names("small"):
            graph = load(name, bench_scale)
            for h in (2, 3, 4):
                index = CliqueIndex(graph, h) if h >= 3 else None
                if h >= 3 and index.m == 0:
                    continue
                if h == 2:
                    density_of = lambda s: graph.subgraph(s).num_edges / len(s)
                else:
                    density_of = index.density_within

                def run_walk():
                    if h == 2:
                        net = build_eds_parametric(graph)
                    else:
                        net = build_cds_parametric(graph, h, index=index)
                    start = time.perf_counter()
                    cut, rho, solves = net.max_density(density_of, low=0.0)
                    return time.perf_counter() - start, cut, rho, solves

                cell = {"dataset": name, "h": h, "flow_solve": {}, "trace": {}}
                reference = None
                for tier in tiers:
                    accel.select_tier(tier)
                    best = float("inf")
                    for _ in range(2):
                        seconds, cut, rho, solves = run_walk()
                        best = min(best, seconds)
                    if reference is None:
                        reference = (cut, rho)
                        cell["density"] = rho
                        cell["solves"] = solves
                        cell["cut_size"] = len(cut) if cut else 0
                    else:  # bit-identity across backend tiers
                        assert (cut, rho) == reference, (name, h, tier)
                    cell["flow_solve"][tier] = best
                    # one traced (untimed) walk per tier: the per-solve
                    # flow telemetry rollup -- warm/cold mix, BFS-mode
                    # choices, kernel work counters -- lands next to the
                    # wall times so the JSON explains them
                    obs.enable()
                    run_walk()
                    events = obs.get_collector().events(obs.FLOW_SOLVE)
                    if events and "network" not in cell:
                        cell["network"] = {
                            "nodes": events[0]["fields"]["nodes"],
                            "arcs": events[0]["fields"]["arcs"],
                        }
                    cell["trace"][tier] = obs.summary()["flow"]
                    obs.disable()
                if "numba" in cell["flow_solve"] and "numpy" in cell["flow_solve"]:
                    cell["speedup_numba_vs_numpy"] = cell["flow_solve"]["numpy"] / max(
                        cell["flow_solve"]["numba"], 1e-9
                    )
                cells.append(cell)
    finally:
        accel.select_tier(None)
    return tiers, cells


def test_flow_reuse_ablation(benchmark, emit, bench_scale):
    rows = _cells(bench_scale)

    aggregates = {}
    for algorithm in ("CoreExact", "Exact"):
        sub = [r for r in rows if r["algorithm"] == algorithm]
        aggregates[algorithm] = {
            "ggt_s": sum(r["ggt_s"] for r in sub),
            "solves_ggt": sum(r["solves_ggt"] for r in sub),
            "enum_s": sum(r["enum_s"] for r in sub),
            "flow_s": sum(r["flow_s"] for r in sub),
        }
    exact_rows = [r for r in rows if r["algorithm"] == "Exact"]
    binary_s = sum(r["binary_s"] for r in exact_rows)
    aggregates["Exact"].update(
        binary_s=binary_s,
        solves_binary=sum(r["solves_binary"] for r in exact_rows),
        speedup_ggt=(
            binary_s / aggregates["Exact"]["ggt_s"]
            if aggregates["Exact"]["ggt_s"] > 0
            else float("inf")
        ),
    )
    enum_cells = [r for r in rows if "enum_speedup" in r]
    if enum_cells:
        total_np = sum(r["enum_numpy_s"] for r in enum_cells)
        total_py = sum(r["enum_python_s"] for r in enum_cells)
        aggregates["enumeration"] = {
            "numpy_s": total_np,
            "python_s": total_py,
            "speedup": total_py / max(total_np, 1e-9),
        }

    enum_line = (
        f"; enumeration {aggregates['enumeration']['speedup']:.1f}x with numpy"
        if "enumeration" in aggregates
        else ""
    )
    emit(
        "ablation_flow_reuse",
        rows,
        "Breakpoint walk vs binary search x clique-kernel ablation "
        f"(Exact: walk {aggregates['Exact']['speedup_ggt']:.2f}x faster, "
        f"solves {aggregates['Exact']['solves_binary']} binary -> "
        f"{aggregates['Exact']['solves_ggt']} walk{enum_line})",
    )

    # the walk's headline: a small fraction of the binary search's
    # solves, on every Exact cell and in aggregate -- one parametric
    # sweep, never the O(log n²) ladder of the bisection
    assert aggregates["Exact"]["solves_ggt"] * 2 < aggregates["Exact"]["solves_binary"]
    for row in exact_rows:
        assert row["solves_ggt"] < row["solves_binary"]

    # the clique-layer headline: the numpy intersection kernels make the
    # enumeration pass >= 2x faster on every cell large enough to time
    # reliably (with a conservative floor on the mid-size cells), and
    # >= 2x in (time-weighted) aggregate
    for row in enum_cells:
        if row["instances"] >= ENUM_ASSERT_MIN_INSTANCES:
            assert row["enum_speedup"] >= 2.0, (
                row["dataset"], row["algorithm"], row["h"], row["enum_speedup"],
            )
        elif row["instances"] >= ENUM_FLOOR_MIN_INSTANCES:
            assert row["enum_speedup"] >= 1.4, (
                row["dataset"], row["algorithm"], row["h"], row["enum_speedup"],
            )
    if enum_cells:
        assert aggregates["enumeration"]["speedup"] >= 2.0

    # --- accel-backend ablation: the flow phase per dispatch tier -----
    tiers, tier_cells = _flow_tier_cells(bench_scale)
    tier_totals = {
        tier: sum(c["flow_solve"][tier] for c in tier_cells) for tier in tiers
    }
    # The >= 3x jit claim only holds where numba actually compiled; an
    # explicit skip record keeps interpreter-only JSONs from reading as
    # "numba passed" (they never ran the assert at all).
    if accel.NUMBA_JITTED:
        eligible = [
            c for c in tier_cells
            if c["flow_solve"].get("numpy", 0.0) >= TIER_ASSERT_MIN_SECONDS
        ]
        numba_assert = {
            "asserted": True,
            "min_speedup": NUMBA_MIN_SPEEDUP,
            "eligible_cells": len(eligible),
            "best_speedup": max(
                (c["speedup_numba_vs_numpy"] for c in eligible), default=0.0
            ),
        }
    else:
        numba_assert = {
            "asserted": False,
            "skip_reason": "numba tier not jitted in this environment",
        }
    flow_payload = {
        "bench_scale": bench_scale,
        "env": env_fingerprint(),
        "backend_default": accel.TIER,
        "numba_jitted": accel.NUMBA_JITTED,
        "numba_speedup_assert": numba_assert,
        "tiers": list(tiers),
        "kernel_tiers": accel.kernel_tiers(),
        "exact_cells": rows,
        "flow_tier_cells": tier_cells,
        "aggregates": {
            "flow_solve_totals": tier_totals,
            "exact": aggregates,
        },
        "results_identical_across_tiers": True,  # asserted per cell above
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_flow.json").write_text(
        json.dumps(flow_payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    emit(
        "bench_flow_tiers",
        [
            {
                "dataset": c["dataset"],
                "h": c["h"],
                "solves": c["solves"],
                **{f"{tier}_s": c["flow_solve"][tier] for tier in tiers},
                **(
                    {"numba_speedup": c["speedup_numba_vs_numpy"]}
                    if "speedup_numba_vs_numpy" in c
                    else {}
                ),
            }
            for c in tier_cells
        ],
        "Flow-phase wall time per accel backend tier (GGT walk, full-graph "
        f"networks; default backend: {accel.TIER}"
        + (
            ", numba jitted"
            if accel.NUMBA_JITTED
            else f", numba unavailable -- >= {NUMBA_MIN_SPEEDUP:g}x jit assert SKIPPED"
        )
        + ")",
    )

    # the compiled tier's headline: with numba actually jitted, the flow
    # phase of at least one non-trivial cell runs >= 3x faster than the
    # numpy tier (the BFS/DFS loops leave the interpreter)
    if accel.NUMBA_JITTED:
        assert numba_assert["eligible_cells"], (
            "no cell large enough to assert the numba speedup"
        )
        assert numba_assert["best_speedup"] >= NUMBA_MIN_SPEEDUP, [
            (c["dataset"], c["h"], c["speedup_numba_vs_numpy"]) for c in eligible
        ]
    else:
        print(
            f"\n[numba >= {NUMBA_MIN_SPEEDUP:g}x flow-phase assert SKIPPED: "
            "numba tier not jitted in this environment]"
        )

    graph = load("Yeast", bench_scale)
    result = benchmark(core_exact_densest, graph, 2)
    assert result.density > 0.0
