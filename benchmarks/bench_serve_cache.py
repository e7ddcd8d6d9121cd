"""Query serving: cold solve vs warm snapshot vs restart-reload.

The serving layer (:mod:`repro.serve`) runs one precompute that
materialises a :class:`~repro.serve.Snapshot` -- per component the full
min-cut breakpoint family, stored as one vertex order whose prefixes
are the nested cuts -- after which every densest-subgraph / α-density
query is a lookup.  The load-bearing
contract is **bit-identity at zero flow solves**: warm answers equal
the cold ``method="exact"`` run exactly, and the ``flow.solves``
counter stays at zero across any number of warm queries.  This bench
asserts both on every cell while measuring what the snapshot buys.

Per Figure-8 small-dataset cell (h in {2, 3}):

* ``cold_s`` -- one full exact solve (enumeration + parametric flow);
* ``precompute_s`` -- building the snapshot (per component one
  breakpoint sweep and one certifying Newton solve);
* ``warm_s`` -- a served ``densest_subgraph()`` off the snapshot;
* ``load_s`` / ``reload_warm_s`` -- restoring from the SQLite store on
  a fresh connection (the restart path) and querying the restored
  artifact, with every α-profile answer compared against the original.

Wall times land in the machine-readable
``benchmarks/out/BENCH_service.json``.  The headline -- >= 10x
warm-vs-cold on at least one non-trivial cell -- is asserted whenever a
cell's cold solve clears the timing-noise floor; otherwise the JSON
carries an explicit skip record so a degenerate run is never misread.
"""

import json
import tempfile
import time
from pathlib import Path

from repro import api, obs
from repro.datasets.registry import dataset_names, load
from repro.experiments.harness import env_fingerprint
from repro.serve import Snapshot, SnapshotStore

OUT_DIR = Path(__file__).parent / "out"

H_VALUES = (2, 3)

#: Required warm-vs-cold speedup on at least one eligible cell (the
#: PR's headline acceptance criterion).
SERVE_MIN_SPEEDUP = 10.0

#: Cold wall-clock floor for a cell to count toward the speedup claim;
#: faster cells are dominated by timing noise, not solver work.
SERVE_ASSERT_MIN_SECONDS = 0.005


def _best_timed(fn, *args, reps=3, **kwargs):
    result, best = None, float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return result, best


def _probe_alphas(snap: Snapshot) -> list[float]:
    """Segment-midpoint probes (plus 0.0 and past the last breakpoint)."""
    alphas = sorted({a for art in snap.components for a in art.fam_alphas})
    probes = [0.0]
    for a, b in zip(alphas, alphas[1:]):
        probes.append((a + b) / 2.0)
    probes.append((alphas[-1] if alphas else 0.0) + 1.0)
    return probes


def _assert_same_result(got, want, context):
    assert got.vertices == want.vertices, context
    assert got.density == want.density, context


def test_serve_cache(benchmark, emit, bench_scale):
    rows = []
    cells = []  # (row, snapshot) pairs for the reload + zero-solve passes
    with tempfile.TemporaryDirectory() as tmp:
        store = SnapshotStore(tmp)
        for name in dataset_names("small"):
            graph = load(name, bench_scale)
            for h in H_VALUES:
                cold, cold_s = _best_timed(
                    api.densest_subgraph, graph, h, method="exact", reps=2
                )
                start = time.perf_counter()
                snap = Snapshot(graph, h)
                precompute_s = time.perf_counter() - start
                warm, warm_s = _best_timed(snap.densest_subgraph, reps=5)
                # the contract the whole layer stands on: same bits
                _assert_same_result(warm, cold, (name, h, "warm"))
                via_api = api.densest_subgraph(graph, h, snapshot=snap)
                _assert_same_result(via_api, cold, (name, h, "snapshot="))
                assert store.save(snap), (name, h)
                row = {
                    "dataset": name,
                    "h": h,
                    "density": cold.density,
                    "breakpoints": sum(
                        len(art.fam_alphas) for art in snap.components
                    ),
                    "cold_s": cold_s,
                    "precompute_s": precompute_s,
                    "warm_s": warm_s,
                    "speedup_warm": cold_s / warm_s if warm_s > 0 else float("inf"),
                }
                rows.append(row)
                cells.append((row, snap))
        store.close()

        # --- the restart path: fresh connection, no re-enumeration ----
        reopened = SnapshotStore(tmp)
        for row, snap in cells:
            loaded, load_s = _best_timed(reopened.load, snap.key, reps=1)
            assert loaded is not None and loaded.loaded, (row["dataset"], row["h"])
            reload_warm, reload_warm_s = _best_timed(
                loaded.densest_subgraph, reps=5
            )
            _assert_same_result(
                reload_warm, snap.densest_subgraph(),
                (row["dataset"], row["h"], "reload"),
            )
            for alpha in _probe_alphas(snap):
                a, b = snap.query_density(alpha), loaded.query_density(alpha)
                assert a.vertices == b.vertices, (row["dataset"], row["h"], alpha)
                assert a.count == b.count, (row["dataset"], row["h"], alpha)
            row["load_s"] = load_s
            row["reload_warm_s"] = reload_warm_s
            row["speedup_reload"] = (
                row["cold_s"] / (load_s + reload_warm_s)
                if load_s + reload_warm_s > 0
                else float("inf")
            )
        reopened.close()

    # --- warm queries never touch a flow network -----------------------
    obs.enable(fresh=True)
    try:
        for row, snap in cells:
            snap.densest_subgraph()
            snap.query_density(0.0)
            snap.top_k(3)
        flow_solves = dict(obs.get_collector().counters).get("flow.solves", 0)
    finally:
        obs.disable()
    assert flow_solves == 0, "a warm query ran a parametric solve"

    # --- the headline claim, or an explicit skip record ----------------
    eligible = [r for r in rows if r["cold_s"] >= SERVE_ASSERT_MIN_SECONDS]
    best = max((r["speedup_warm"] for r in eligible), default=0.0)
    if eligible:
        serve_assert = {
            "asserted": True,
            "min_speedup": SERVE_MIN_SPEEDUP,
            "eligible_cells": len(eligible),
            "best_speedup_warm": best,
        }
    else:
        serve_assert = {
            "asserted": False,
            "min_speedup": SERVE_MIN_SPEEDUP,
            "eligible_cells": 0,
            "best_speedup_warm": best,
            "skip_reason": (
                f"no cell's cold solve reached {SERVE_ASSERT_MIN_SECONDS}s "
                "at this bench scale; warm-vs-cold is not measurable here "
                "(bit-identity and zero flow solves still asserted)"
            ),
        }

    emit(
        "bench_serve_cache",
        [
            {
                k: r.get(k, "-")
                for k in (
                    "dataset", "h", "breakpoints", "cold_s", "precompute_s",
                    "warm_s", "load_s", "speedup_warm", "speedup_reload",
                )
            }
            for r in rows
        ],
        "Query serving: cold exact solve vs warm snapshot vs restart-reload "
        "(answers bit-identical, zero flow solves on every warm cell"
        + (
            ""
            if serve_assert["asserted"]
            else f"; >= {SERVE_MIN_SPEEDUP:g}x warm assert SKIPPED"
        )
        + ")",
    )

    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "bench_scale": bench_scale,
        "env": env_fingerprint(),
        "h_values": list(H_VALUES),
        "serve_speedup_assert": serve_assert,
        "cells": rows,
        "warm_flow_solves": flow_solves,
        "results_identical": True,  # asserted per cell above
        "aggregates": {
            "cells": len(rows),
            "cold_s": sum(r["cold_s"] for r in rows),
            "precompute_s": sum(r["precompute_s"] for r in rows),
            "warm_s": sum(r["warm_s"] for r in rows),
            "load_s": sum(r["load_s"] for r in rows),
        },
    }
    (OUT_DIR / "BENCH_service.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    if serve_assert["asserted"]:
        assert best >= SERVE_MIN_SPEEDUP, [
            (r["dataset"], r["h"], r["speedup_warm"]) for r in eligible
        ]
    else:
        print(
            f"\n[serve >= {SERVE_MIN_SPEEDUP:g}x warm assert SKIPPED: "
            f"{serve_assert['skip_reason']}]"
        )

    _, headline = cells[-1]
    result = benchmark(headline.densest_subgraph)
    assert result.density >= 0.0
