"""Ablation: flow engines × clique-index kernels in the exact algorithms.

PR 2 introduced the array-backed :class:`ParametricNetwork` (engine
``"reuse"``), PR 3 the GGT breakpoint walk (engine ``"ggt"``, now the
default), and PR 4 the array-backed clique-index layer that feeds every
engine its instances.  The bench quantifies all of it on the Figure-8
small-dataset suite and writes a machine-readable JSON
(``benchmarks/out/flow_reuse_ablation.json``, committed as evidence) so
the perf trajectory is tracked across PRs.

Per cell (dataset × algorithm × h) it records:

* wall-clock and speedups of the three flow engines
  (``rebuild``/``reuse``/``ggt``) plus their max-flow solve counts;
* the **enumeration/flow split** of the default-engine run, read off
  the solvers' ``stats`` (``enumeration_seconds`` /
  ``decomposition_seconds`` / ``flow_seconds``), which is where the
  clique-layer speedup shows up end-to-end;
* the **kernel ablation**: the clique-index build timed with the numpy
  intersection kernels vs the pure-python fallback, asserted >= 2x
  faster with numpy on every cell whose instance count is non-trivial.

Every cell asserts all three engines return identical vertex sets and
densities, and (h >= 3) that a solver fed a reference-enumerator index
("old enumeration") is bit-identical to the kernel-fed run -- the
ablation is only meaningful if results are unchanged.

PR 5 added the **accel-backend ablation**: the GGT flow phase timed per
dispatch tier of :mod:`repro.accel` (numba / numpy / python) on
full-graph parametric networks, written -- together with the engine
cells, solve counts and the per-cell backend -- to the machine-readable
``benchmarks/out/BENCH_flow.json`` so the perf trajectory is trackable
across PRs.  With numba actually jitted the bench asserts a >= 3x
flow-phase speedup over the numpy tier on at least one non-trivial
cell; cuts and densities must be identical on every tier regardless.
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

ENGINES = ("rebuild", "reuse", "ggt")

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
                results = {}
                seconds = {}
                for engine in ENGINES:
                    results[engine], seconds[engine] = timed(
                        fn, graph, h, flow_engine=engine
                    )
                baseline = results["rebuild"]
                for engine in ("reuse", "ggt"):
                    assert results[engine].vertices == baseline.vertices, (
                        name, algorithm, h, engine,
                    )
                    assert results[engine].density == baseline.density, (
                        name, algorithm, h, engine,
                    )

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
                    "rebuild_s": seconds["rebuild"],
                    "reuse_s": seconds["reuse"],
                    "ggt_s": seconds["ggt"],
                    "speedup_reuse": (
                        seconds["rebuild"] / seconds["reuse"]
                        if seconds["reuse"] > 0
                        else float("inf")
                    ),
                    "speedup_ggt": (
                        seconds["rebuild"] / seconds["ggt"]
                        if seconds["ggt"] > 0
                        else float("inf")
                    ),
                    # max-flow solve counts: the binary search runs one
                    # per iteration, the GGT walk one per breakpoint hop
                    "solves_binary": results["reuse"].iterations,
                    "solves_ggt": results["ggt"].iterations,
                    "density": baseline.density,
                    # enumeration/flow wall-clock split of the default
                    # run; decomposition_seconds includes the index
                    # build (the paper's Algorithm-3 accounting), so
                    # subtract it to keep the three parts disjoint
                    "enum_s": results["ggt"].stats.get("enumeration_seconds", 0.0),
                    "decomp_s": max(
                        results["ggt"].stats.get("decomposition_seconds", 0.0)
                        - results["ggt"].stats.get("enumeration_seconds", 0.0),
                        0.0,
                    ),
                    "flow_s": results["ggt"].stats.get("flow_seconds", 0.0),
                }

                if h >= 3:
                    # old-vs-new enumeration: the reference nested-loop
                    # enumerator's instances must drive the solver to the
                    # bit-identical answer
                    reference_index = CliqueIndex(
                        graph, h, instances=list(enumerate_cliques(graph, h))
                    )
                    via_reference = fn(graph, h, index=reference_index)
                    assert via_reference.vertices == baseline.vertices, (
                        name, algorithm, h, "reference-enumeration",
                    )
                    assert via_reference.density == baseline.density, (
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
        rebuild = sum(r["rebuild_s"] for r in sub)
        reuse = sum(r["reuse_s"] for r in sub)
        ggt = sum(r["ggt_s"] for r in sub)
        aggregates[algorithm] = {
            "rebuild_s": rebuild,
            "reuse_s": reuse,
            "ggt_s": ggt,
            "speedup_reuse": rebuild / reuse if reuse > 0 else float("inf"),
            "speedup_ggt": rebuild / ggt if ggt > 0 else float("inf"),
            "solves_binary": sum(r["solves_binary"] for r in sub),
            "solves_ggt": sum(r["solves_ggt"] for r in sub),
            "enum_s": sum(r["enum_s"] for r in sub),
            "flow_s": sum(r["flow_s"] for r in sub),
        }
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
        "Flow-engine x clique-kernel ablation -- rebuild vs reuse vs GGT "
        f"(aggregate speedup: Exact {aggregates['Exact']['speedup_reuse']:.2f}x reuse / "
        f"{aggregates['Exact']['speedup_ggt']:.2f}x ggt, "
        f"CoreExact {aggregates['CoreExact']['speedup_reuse']:.2f}x reuse / "
        f"{aggregates['CoreExact']['speedup_ggt']:.2f}x ggt; "
        f"Exact solves {aggregates['Exact']['solves_binary']} binary -> "
        f"{aggregates['Exact']['solves_ggt']} ggt{enum_line})",
    )
    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "bench_scale": bench_scale,
        "env": env_fingerprint(),
        "cells": rows,
        "aggregates": aggregates,
        "results_identical": True,  # asserted per cell above
    }
    (OUT_DIR / "flow_reuse_ablation.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # the engines' headlines: where the binary search actually runs
    # (Exact always does), α-reuse is worth an integer factor, and the
    # GGT walk needs a small fraction of the binary search's solves
    assert aggregates["Exact"]["speedup_reuse"] >= 2.0
    assert aggregates["Exact"]["solves_ggt"] * 2 < aggregates["Exact"]["solves_binary"]
    for row in rows:
        if row["algorithm"] == "Exact":
            # one parametric sweep: a handful of solves per instance,
            # never the O(log n²) ladder of the binary search
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
        "engine_cells": rows,
        "flow_tier_cells": tier_cells,
        "aggregates": {
            "flow_solve_totals": tier_totals,
            "engine": aggregates,
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
    # numpy tier (the DFS/discharge loops leave the interpreter)
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
    result = benchmark(core_exact_densest, graph, 2, flow_engine="ggt")
    assert result.density > 0.0
