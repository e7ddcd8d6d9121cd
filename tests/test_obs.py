"""Tests for the observability layer (:mod:`repro.obs`).

Covers the span/event/counter primitives, the trace <-> legacy-stats
reconciliation contract (stats are built *from* span durations, so the
floats must be identical), counter determinism across the accel
dispatch tiers, the JSONL schema round-trip, and the disabled-tracing
overhead guard.
"""

from __future__ import annotations

import io
import json
import random
import time

import pytest

from repro import accel, api, obs
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.graph.graph import Graph, complete_graph
from repro.obs.validate import validate_records


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Every test starts and ends with tracing off and a clean collector."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _random_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(sorted(edges))


# --- primitives -------------------------------------------------------


def test_span_nesting_order_and_depth():
    obs.enable()
    with obs.span("outer"):
        with obs.span("inner.a"):
            pass
        with obs.span("inner.b", tag=7):
            pass
    spans = obs.get_collector().spans()
    # spans record on *exit*: children close before their parent
    assert [s["name"] for s in spans] == ["inner.a", "inner.b", "outer"]
    by_name = {s["name"]: s for s in spans}
    assert by_name["outer"]["depth"] == 0
    assert by_name["outer"]["parent"] is None
    assert by_name["inner.a"]["depth"] == 1
    assert by_name["inner.a"]["parent"] == "outer"
    assert by_name["inner.b"]["parent"] == "outer"
    assert by_name["inner.b"]["attrs"] == {"tag": 7}
    # seq strictly increases in record order
    seqs = [s["seq"] for s in spans]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_span_times_even_when_disabled():
    assert not obs.enabled()
    with obs.span("quiet") as sp:
        time.sleep(0.001)
    assert sp.seconds >= 0.001
    assert obs.get_collector().records == []  # nothing recorded


def test_event_and_counter_noop_when_disabled():
    obs.event("never", x=1)
    obs.counter("never", 5)
    assert obs.get_collector().records == []
    assert obs.get_collector().counters == {}


def test_counters_accumulate():
    obs.enable()
    obs.counter("k")
    obs.counter("k", 4)
    assert obs.get_collector().counters == {"k": 5}


def test_enable_fresh_clears_collector():
    obs.enable()
    obs.event("stale")
    obs.enable(fresh=True)
    assert obs.get_collector().records == []
    obs.event("kept")
    obs.enable(fresh=False)
    assert len(obs.get_collector().events()) == 1


# --- solver integration ----------------------------------------------


def test_flow_solve_events_have_required_fields():
    graph = _random_graph(50, 220, seed=11)
    obs.enable()
    api.densest_subgraph(graph, 2, method="exact")
    events = obs.get_collector().events(obs.FLOW_SOLVE)
    assert events, "exact solve must emit flow.solve events"
    for ev in events:
        fields = ev["fields"]
        for key in ("alpha", "mode", "tier", "nodes", "arcs", "seconds"):
            assert key in fields, key
        assert fields["mode"] in obs.WARM_MODES + ("cold",)
        assert fields["tier"] in ("numpy", "python")
    # the GGT walk re-solves one network: after the cold start, warm modes
    modes = [ev["fields"]["mode"] for ev in events]
    assert modes[0] == "cold"
    assert any(m in obs.WARM_MODES for m in modes[1:])


def test_stats_backward_compat_and_reconciliation():
    """Legacy stats keys survive, and their floats equal the span durations."""
    graph = _random_graph(60, 260, seed=5)
    obs.enable()
    exact = exact_densest(graph, 2)
    col = obs.get_collector()
    builds = len(col.spans("cliques.index.build"))
    core = core_exact_densest(graph, 3)

    for key in ("network_sizes", "enumeration_seconds", "flow_seconds"):
        assert key in exact.stats, key
    for key in (
        "network_sizes", "decomposition_seconds", "enumeration_seconds",
        "flow_seconds", "total_seconds", "kmax", "k_locate",
        "located_vertices",
    ):
        assert key in core.stats, key

    # exact reconciliation: the stats floats ARE the span durations
    assert exact.stats["flow_seconds"] == col.spans("exact.flow")[-1]["dur_s"]
    assert exact.stats["enumeration_seconds"] == 0.0  # h = 2: no clique index
    assert core.stats["flow_seconds"] == col.spans("core_exact.flow")[-1]["dur_s"]
    enum_sp = col.spans("cliques.index.build")[builds]["dur_s"]
    decomp_sp = col.spans("core_exact.decomposition")[-1]["dur_s"]
    assert core.stats["enumeration_seconds"] == enum_sp
    assert core.stats["decomposition_seconds"] == enum_sp + decomp_sp
    # total still covers the phases
    assert core.stats["total_seconds"] >= core.stats["flow_seconds"]

    # api path: the index is built before the solver starts and is still
    # charged to the call's enumeration, decomposition and total time
    builds = len(col.spans("cliques.index.build"))
    via_api = api.densest_subgraph(graph, 3, method="core-exact")
    enum_sp = col.spans("cliques.index.build")[builds]["dur_s"]
    assert via_api.stats["enumeration_seconds"] == enum_sp > 0.0
    assert via_api.stats["decomposition_seconds"] >= via_api.stats["enumeration_seconds"]
    assert via_api.stats["total_seconds"] >= via_api.stats["enumeration_seconds"]


def test_flow_build_and_cut_spans_nest_under_core_exact_flow(tmp_path):
    """Network construction and cut extraction get their own spans
    inside ``core_exact.flow``; with the solves they fit inside it."""
    from repro.obs.validate import main as validate_main

    graph = _random_graph(60, 260, seed=5)
    path = tmp_path / "trace.jsonl"
    obs.enable(sink=str(path))
    core_exact_densest(graph, 3)
    obs.close()
    col = obs.get_collector()
    (flow_sp,) = col.spans("core_exact.flow")
    builds = col.spans("flow.build")
    cuts = col.spans("flow.cut")
    assert builds and cuts
    for sp in builds + cuts:
        assert sp["parent"] == "core_exact.flow"
        assert flow_sp["t0_s"] <= sp["t0_s"] <= flow_sp["t0_s"] + flow_sp["dur_s"]
    for sp in builds:
        assert sp["attrs"]["nodes"] > 0 and sp["attrs"]["arcs"] > 0
    solve_s = sum(ev["fields"]["seconds"] for ev in col.events(obs.FLOW_SOLVE))
    inner = sum(sp["dur_s"] for sp in builds + cuts) + solve_s
    assert inner <= flow_sp["dur_s"]
    assert validate_main([str(path)]) == 0


def test_core_app_spans_nest_the_kcore_under_the_run(tmp_path):
    """CoreApp's trace separates its k-core from its prefix peels:
    ``kcore.decomposition`` nests under ``core_app.run``, which records
    the answer's kmax and round count."""
    from repro.core.core_app import core_app_densest
    from repro.obs.validate import main as validate_main

    graph = _random_graph(80, 400, seed=6)
    path = tmp_path / "trace.jsonl"
    obs.enable(sink=str(path))
    result = core_app_densest(graph, 3, initial_size=8)
    obs.close()
    col = obs.get_collector()
    (run,) = col.spans("core_app.run")
    (kcore_sp,) = col.spans("kcore.decomposition")
    assert kcore_sp["parent"] == "core_app.run"
    assert run["t0_s"] <= kcore_sp["t0_s"] <= run["t0_s"] + run["dur_s"]
    assert kcore_sp["attrs"]["n"] == run["attrs"]["n"] == graph.num_vertices
    assert run["attrs"]["h"] == 3
    assert run["attrs"]["kmax"] == result.stats["kmax"] > 0
    assert run["attrs"]["rounds"] == result.stats["rounds"]
    for sp in col.spans("cliques.index.build"):
        assert sp["parent"] == "core_app.run"
    assert validate_main([str(path)]) == 0


def test_inc_app_and_query_variant_spans(tmp_path):
    """IncApp and the §6.3 query variant each open one run span with
    ``h``/``n``, and record the answer's kmax or solve count on it."""
    from repro.core.inc_app import inc_app_densest
    from repro.core.query_variant import query_densest
    from repro.obs.validate import main as validate_main

    graph = _random_graph(40, 160, seed=9)
    path = tmp_path / "trace.jsonl"
    obs.enable(sink=str(path))
    inc = inc_app_densest(graph, 3)
    query = query_densest(graph, [0])
    obs.close()
    col = obs.get_collector()
    (inc_sp,) = col.spans("inc_app.run")
    assert inc_sp["attrs"] == {"h": 3, "n": graph.num_vertices, "kmax": inc.stats["kmax"]}
    assert inc.stats["kmax"] > 0
    (index_sp,) = col.spans("cliques.index.build")
    assert index_sp["parent"] == "inc_app.run"
    (query_sp,) = col.spans("query_variant.run")
    assert query_sp["attrs"] == {"h": 2, "n": graph.num_vertices, "solves": query.iterations}
    assert query.iterations > 0
    (kcore_sp,) = col.spans("kcore.decomposition")
    assert kcore_sp["parent"] == "query_variant.run"
    assert validate_main([str(path)]) == 0


def test_traced_core_p_exact_validates(tmp_path):
    """CorePExact's trace: its own span around the instance index and
    CoreExact's decomposition and flow spans, on a schema-valid JSONL."""
    from repro.core.pds import core_p_exact_densest
    from repro.obs.validate import main as validate_main
    from repro.patterns.pattern import get_pattern

    graph = _random_graph(40, 160, seed=8)
    path = tmp_path / "trace.jsonl"
    obs.enable(sink=str(path))
    result = core_p_exact_densest(graph, get_pattern("diamond"))
    obs.close()
    col = obs.get_collector()
    (run,) = col.spans("pds.core_p_exact")
    assert run["attrs"] == {"pattern": "diamond", "n": graph.num_vertices}
    (index_sp,) = col.spans("cliques.index.build")
    (decomp_sp,) = col.spans("core_exact.decomposition")
    (flow_sp,) = col.spans("core_exact.flow")
    for sp in (index_sp, decomp_sp, flow_sp):
        assert sp["parent"] == "pds.core_p_exact"
    assert col.spans("flow.build")
    (index_ev,) = col.events("cliques.index")
    assert index_ev["fields"]["kernel"] == "pattern"
    assert index_ev["fields"]["m"] == result.stats["instances"] > 0
    assert validate_main([str(path)]) == 0


def test_summary_flow_rollup_consistent():
    graph = _random_graph(60, 260, seed=5)
    obs.enable()
    exact_densest(graph, 2)
    summary = obs.summary()
    flow = summary["flow"]
    events = obs.get_collector().events(obs.FLOW_SOLVE)
    assert flow["solves"] == len(events)
    assert flow["warm"] + flow["cold"] == flow["solves"]
    assert sum(flow["modes"].values()) == flow["solves"]
    assert flow["bfs_passes"] == sum(
        ev["fields"].get("bfs_passes", 0) for ev in events
    )
    # env fingerprint rides along for comparability
    for key in ("python", "numpy", "numba", "active_tier"):
        assert key in summary["env"], key


@pytest.mark.parametrize("tier", accel.available_tiers())
def test_counter_determinism_across_tiers(tier):
    """Work counters are tier-invariant: identical traversals, identical counts."""
    graph = _random_graph(48, 200, seed=23)
    accel.select_tier(tier)
    try:
        obs.enable()
        core_exact_densest(graph, 2)
        counters = {
            k: v for k, v in obs.get_collector().counters.items()
            if not k.endswith("seconds")
        }
        events = [
            {
                k: v for k, v in ev["fields"].items()
                if k not in ("seconds", "tier", "bfs_mode")
            }
            for ev in obs.get_collector().events(obs.FLOW_SOLVE)
        ]
        obs.disable()
    finally:
        accel.select_tier(None)

    if not hasattr(test_counter_determinism_across_tiers, "_reference"):
        test_counter_determinism_across_tiers._reference = (counters, events)
    else:
        ref_counters, ref_events = test_counter_determinism_across_tiers._reference
        assert counters == ref_counters
        assert events == ref_events


# --- JSONL sink + schema ---------------------------------------------


def test_jsonl_sink_schema_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.enable(sink=str(path))
    api.densest_subgraph(complete_graph(7), 3, method="core-exact")
    obs.close()
    obs.disable()

    lines = path.read_text(encoding="utf-8").splitlines()
    count, errors = validate_records(lines)
    assert errors == [], errors
    kinds = [json.loads(line)["type"] for line in lines]
    assert kinds[0] == "meta"
    assert kinds[-1] == "summary"
    assert "span" in kinds and "event" in kinds


def test_jsonl_filelike_sink():
    buf = io.StringIO()
    obs.enable(sink=buf)
    with obs.span("x"):
        obs.event("y", v=1)
    obs.close()
    obs.disable()
    count, errors = validate_records(buf.getvalue().splitlines())
    assert errors == [], errors
    assert count == 4  # meta, event, span, summary


def test_validate_rejects_bad_records():
    bad = [
        json.dumps({"type": "meta", "env": {}}),  # missing env keys
        json.dumps({"type": "span", "name": 3}),  # wrong types
        json.dumps(
            {
                "type": "event", "name": "flow.solve", "seq": 1, "depth": 0,
                "fields": {"mode": "teleport"},  # unknown mode, missing keys
            }
        ),
        "not json",
    ]
    _, errors = validate_records(bad)
    assert len(errors) >= 4


# --- overhead guard ---------------------------------------------------


@pytest.mark.parametrize("tier", accel.available_tiers())
def test_disabled_overhead_within_budget(tier):
    """Disabled tracing costs <= 2% of a bench-smoke cell on every tier.

    Non-flaky by construction: instead of differencing two noisy
    end-to-end timings, multiply the *measured* per-call cost of the
    disabled primitives by the instrumentation call volume of the cell
    (counted from one enabled run) and compare against the cell's
    disabled wall time.
    """
    graph = _random_graph(70, 320, seed=3)
    accel.select_tier(tier)
    try:
        # instrumentation volume of one run, counted with tracing on
        obs.enable()
        core_exact_densest(graph, 3)
        col = obs.get_collector()
        spans = len(col.spans())
        events = len(col.events())
        # counter() call count: the accel kernels make <= 3 per call,
        # the solve telemetry 2 per solve
        kernel_calls = sum(
            v for k, v in col.counters.items() if k.endswith(".calls")
        )
        counter_calls = 3 * kernel_calls + 2 * col.counters.get("flow.solves", 0)
        obs.disable()
        volume = spans + events + counter_calls

        # per-call cost of the disabled primitives (max of the three)
        reps = 20_000
        start = time.perf_counter()
        for _ in range(reps):
            with obs.span("probe"):
                pass
        span_cost = (time.perf_counter() - start) / reps
        start = time.perf_counter()
        for _ in range(reps):
            obs.event("probe", a=1)
        event_cost = (time.perf_counter() - start) / reps
        start = time.perf_counter()
        for _ in range(reps):
            obs.counter("probe")
        counter_cost = (time.perf_counter() - start) / reps
        per_call = max(span_cost, event_cost, counter_cost)

        # the cell's wall time with tracing off (best of 3)
        wall = min(
            timeit_once(core_exact_densest, graph, 3) for _ in range(3)
        )
    finally:
        accel.select_tier(None)

    overhead = per_call * volume
    assert overhead <= 0.02 * wall, (
        f"tier={tier}: modelled disabled-tracing overhead {overhead * 1e6:.1f}us "
        f"exceeds 2% of the {wall * 1e3:.2f}ms cell "
        f"(volume={volume}, per_call={per_call * 1e9:.0f}ns)"
    )


def timeit_once(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start
