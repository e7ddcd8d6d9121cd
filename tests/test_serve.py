"""Property suite for the serving layer (:mod:`repro.serve`).

The load-bearing contract: **snapshot answers are bit-identical to the
cold solvers, at zero flow solves**.  A 50-graph matrix of
multi-component random graphs pins it:

* :meth:`Snapshot.densest_subgraph` (and the ``api.densest_subgraph``
  ``snapshot=`` fast path) equals the cold ``method="exact"`` run's
  vertex set and density exactly (``==`` on floats, not approx);
* warm queries never touch a flow network: the ``flow.solves`` counter
  stays at zero across densest / α / profile / top-k lookups;
* ``query_density(α)`` at segment midpoints equals a cold parametric
  ``net.solve(α)`` per component (the right-continuity convention);
* the densest cut is served even where the breakpoint sweep's family
  skips it (the precompute's certifying walk), and a 40k-vertex
  component serves every cut of its family, however small its step in
  cut value;
* a snapshot reloaded from the SQLite store -- in-process or from a
  fresh interpreter -- serves the same bits it was saved with, an
  EPS-mismatched row is evicted, not served, a file of an older layout
  is rebuilt, and labels that JSON does not round-trip are not stored;
* both LRU tiers (store byte cap, memory entry cap) evict and count;
* an expired build deadline degrades the batch through the api's
  fallback machinery instead of failing;
* everything holds with numpy forced off (subprocess leg).
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api, guard, obs, serve
from repro.cliques.index import CliqueIndex
from repro.datasets.registry import load
from repro.flow.builders import build_cds_parametric, build_eds_parametric
from repro.graph.graph import Graph
from repro.serve import ArtifactCache, Snapshot, SnapshotStore

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


def _midpoints(snap: Snapshot) -> list[float]:
    """Probe α values strictly inside each family segment.

    Exact breakpoint abscissae are where a cold solve and a stored
    family could legitimately disagree by one ulp of the intersection
    arithmetic; midpoints (plus 0.0 and one past the last breakpoint)
    probe every segment's interior, where the cut is unambiguous.
    """
    alphas = sorted({a for art in snap.components for a in art.fam_alphas})
    probes = [0.0]
    for a, b in zip(alphas, alphas[1:]):
        probes.append((a + b) / 2.0)
    probes.append((alphas[-1] if alphas else 0.0) + 1.0)
    return probes


def _cold_cut(graph: Graph, h: int, alpha: float) -> tuple[set, int]:
    """A cold per-component parametric solve at ``alpha`` (no snapshot)."""
    index = CliqueIndex(graph, h) if h >= 3 else None
    vertices: set = set()
    count = 0
    for cc in graph.connected_components():
        sub = graph.subgraph(cc)
        if h == 2:
            if sub.num_edges == 0:
                continue
            net = build_eds_parametric(sub)
            cut = net.solve(alpha)
            if cut:
                vertices |= cut
                count += sub.subgraph(cut).num_edges
        else:
            subidx = index.subindex(sub)
            if subidx.m == 0:
                continue
            net = build_cds_parametric(sub, h, index=subidx)
            cut = net.solve(alpha)
            if cut:
                vertices |= cut
                count += subidx.count_within(cut)
    return vertices, count


# --- the 50-graph identity matrix -------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_snapshot_densest_is_bit_identical_to_cold_exact(seed):
    g, h = _graph(seed), _h(seed)
    cold = api.densest_subgraph(g, h, method="exact")
    snap = Snapshot(g, h)
    warm = snap.densest_subgraph()
    assert warm.vertices == cold.vertices, (seed, h)
    assert warm.density == cold.density, (seed, h)
    assert warm.stats["served"] is True
    via_api = api.densest_subgraph(g, h, method="exact", snapshot=snap)
    assert via_api.vertices == cold.vertices, (seed, h)
    assert via_api.density == cold.density, (seed, h)


@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_query_density_matches_cold_parametric_solves(seed):
    g, h = _graph(seed), _h(seed)
    snap = Snapshot(g, h)
    for alpha in _midpoints(snap):
        warm = snap.query_density(alpha)
        cold_vertices, cold_count = _cold_cut(g, h, alpha)
        assert warm.vertices == cold_vertices, (seed, h, alpha)
        assert warm.count == cold_count, (seed, h, alpha)
        if cold_vertices:
            assert warm.density == cold_count / len(cold_vertices)
        else:
            assert warm.density == 0.0


# --- the zero-flow-solve guarantee ------------------------------------


@pytest.mark.parametrize("seed", (1, 5, 12))
def test_warm_queries_perform_zero_flow_solves(seed):
    g, h = _graph(seed), _h(seed)
    snap = Snapshot(g, h)  # the only phase allowed to solve
    obs.enable(fresh=True)
    try:
        for _ in range(3):
            snap.densest_subgraph()
        api.densest_subgraph(g, h, snapshot=snap)  # the api fast path too
        for alpha in _midpoints(snap):
            snap.query_density(alpha)
        snap.density_profile()
        snap.top_k(5)
        counters = dict(obs.get_collector().counters)
    finally:
        obs.disable()
    assert counters.get("flow.solves", 0) == 0, (seed, h)


def test_profile_and_top_k_expose_the_piecewise_structure():
    g, h = _graph(4), _h(4)
    snap = Snapshot(g, h)
    densest = snap.densest_subgraph()
    profile = snap.density_profile()
    assert profile, "family always has the α=0 entry"
    assert profile[0]["alpha"] == 0.0
    assert profile[-1]["size"] == 0  # past dmax/h the cut is empty forever
    # right-continuity: the profile row at α answers exactly query_density(α)
    for row in profile:
        answer = snap.query_density(row["alpha"])
        assert answer.size == row["size"] and answer.count == row["count"]
    ranked = snap.top_k(10)
    assert ranked, "a non-trivial graph stores at least one dense cut"
    assert ranked[0].density == densest.density
    densities = [c.density for c in ranked]
    assert densities == sorted(densities, reverse=True)
    assert snap.top_k(0) == []


def test_degenerate_graphs_serve_like_the_cold_path():
    # no Ψ instance anywhere: degenerate optimum, whole set at 0.0
    path = Graph()
    for v in range(5):
        path.add_vertex(v)
    for v in range(4):
        path.add_edge(v, v + 1)
    cold = api.densest_subgraph(path, 3, method="exact")
    snap = Snapshot(path, 3)
    warm = snap.densest_subgraph()
    assert warm.vertices == cold.vertices == set(range(5))
    assert warm.density == cold.density == 0.0
    assert snap.query_density(0.0).vertices == set()
    assert snap.top_k(3) == []


def test_precompute_rejects_a_family_that_is_not_nested(monkeypatch):
    """Only nested cuts fold into one vertex order: a family whose later
    cut leaves the one before it makes the build raise instead of
    storing prefixes that are not its cuts."""
    from repro.flow.parametric import ParametricNetwork

    def crossed(self, alpha_lo, alpha_hi, tol=1e-9):
        labels = self.vertex_labels
        return [
            (alpha_lo, set(labels[:2])),
            (alpha_hi / 2, set(labels[1:3])),
            (alpha_hi, set()),
        ]

    monkeypatch.setattr(ParametricNetwork, "solve_breakpoints", crossed)
    with pytest.raises(RuntimeError, match="not inside the cut before it"):
        Snapshot(_graph(0), 2)


def test_precompute_certifies_the_densest_cut_a_merged_family_skips(monkeypatch):
    """A sweep whose family goes from a cut straight to the empty cut,
    past the densest subgraph -- here K5 with a pendant path, with
    K5's entry dropped from the family -- is repaired by the
    precompute's certifying walk: it splices K5 back, giving the family
    the full sweep finds."""
    from repro.flow.parametric import ParametricNetwork

    g = Graph([(u, v) for u in range(5) for v in range(u + 1, 5)] + [(4, 5), (5, 6), (6, 7)])
    want = Snapshot(g, 2).components[0]
    sweep = ParametricNetwork.solve_breakpoints

    def without_k5(self, alpha_lo, alpha_hi, tol=1e-9):
        family = sweep(self, alpha_lo, alpha_hi, tol=tol)
        return [(alpha, cut) for alpha, cut in family if cut != set(range(5))]

    merged = without_k5(build_eds_parametric(g), 0.0, 2.5)
    assert [len(cut) for _, cut in merged] == [8, 0]  # K5 is not in it
    monkeypatch.setattr(ParametricNetwork, "solve_breakpoints", without_k5)
    snap = Snapshot(g, 2)
    got = snap.components[0]
    assert (got.labels, got.fam_alphas, got.fam_sizes, got.fam_counts) == (
        want.labels, want.fam_alphas, want.fam_sizes, want.fam_counts
    )
    densest = snap.densest_subgraph()
    assert (densest.vertices, densest.density) == (set(range(5)), 2.0)
    assert snap.top_k(1)[0].vertices == frozenset(range(5))


def test_snapshot_serves_k10_past_a_merged_breakpoint():
    """K10; vertex 10 joined to four of its vertices and vertex -1 to
    three others; a 40,200-vertex two-level tree hanging off vertex 10.
    Cut values are about m·n = 1.6e9.  At α = 3.5, where the lines of
    the 12-vertex cut and of K10 cross, the 11-vertex cut (K10 and
    vertex 10, density 49/11) lies one unit below them, so a crossing
    test with a tolerance relative to the cut value (about 1.6) takes
    the 12-vertex cut and K10 as adjacent and serves 12 or 10 vertices
    on [3, 4).  The exact test keeps every cut, so each segment serves
    what a cold solve returns."""
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    edges += [(10, v) for v in range(4)]
    edges += [(-1, v) for v in range(4, 7)]
    for hub in range(11, 211):
        edges.append((10, hub))
        edges += [(hub, leaf) for leaf in range(200 * hub, 200 * hub + 200)]
    g = Graph(edges)
    snap = Snapshot(g, 2)
    cold = api.densest_subgraph(g, 2, method="exact")
    warm = snap.densest_subgraph()
    assert (warm.vertices, warm.density) == (cold.vertices, cold.density)
    assert (warm.vertices, warm.density) == (set(range(10)), 4.5)
    (comp,) = snap.components
    alphas = comp.fam_alphas
    for lo, hi in zip(alphas, alphas[1:]):
        mid = (lo + hi) / 2
        assert snap.query_density(mid).vertices == build_eds_parametric(g).solve(mid), mid
    for alpha in (3.2, 3.7):  # both sides of the merged crossing at 3.5
        assert snap.query_density(alpha).vertices == set(range(11))
    assert [len(cut.vertices) for cut in snap.top_k(3)] == [10, 11, 12]
    assert snap.top_k(3)[1].density == 49 / 11


def test_snapshot_serves_yeast_h3_past_multi_path_drains(monkeypatch):
    """Yeast (scale 1.0) at h = 3: some retreats of the precompute's
    sweep leave a vertex more excess than its own source arc carries, so
    the drain's max flow from the sink runs.  Every stored segment's
    midpoint serves what a cold solve of the whole graph returns."""
    # imported here: a subprocess below imports this module top-level
    from .test_flow_parametric import _record_dinic_calls

    g = load("Yeast", 1.0)
    calls = _record_dinic_calls(monkeypatch)
    snap = Snapshot(g, 3)
    # the builders number the sink right after the source, so a drain,
    # from the sink to the source, is a call whose source is the larger id
    assert any(source > sink for source, sink in calls)
    index = CliqueIndex(g, 3)
    for mid in _midpoints(snap):
        cold = build_cds_parametric(g, 3, index=index).solve(mid)
        assert snap.query_density(mid).vertices == cold, mid


def test_query_density_rejects_bad_alphas():
    snap = Snapshot(_graph(0), 2)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            snap.query_density(bad)


@pytest.mark.parametrize("deadline_s", [None, 0.0])
def test_batch_densest_rejects_bad_alphas_before_building(deadline_s):
    # the deadline_s=0.0 leg would otherwise answer through the
    # degraded fallback, which never looks at the alpha values
    cache = ArtifactCache()
    for alphas in ([0.0, -2.0], [float("nan")]):
        with pytest.raises(ValueError, match="alpha"):
            serve.batch_densest(_graph(0), 2, alphas, deadline_s=deadline_s, cache=cache)
    assert cache.misses == 0


# --- the api snapshot= gate -------------------------------------------


def test_api_snapshot_gate_validates_requests():
    g = _graph(3)
    snap = Snapshot(g, 3)
    with pytest.raises(ValueError, match="h-clique"):
        api.densest_subgraph(g, "diamond", snapshot=snap)
    with pytest.raises(ValueError, match="h=3"):
        api.densest_subgraph(g, 2, snapshot=snap)
    with pytest.raises(ValueError, match="exact methods"):
        api.densest_subgraph(g, 3, method="peel", snapshot=snap)
    other = _graph(30)
    with pytest.raises(ValueError, match="content hash"):
        api.densest_subgraph(other, 3, snapshot=snap)
    # strict=False is the documented escape hatch around the key check:
    # the snapshot serves its own stored answer regardless of the graph
    lax = api.densest_subgraph(other, 3, strict=False, snapshot=snap)
    assert lax.vertices == snap.densest_subgraph().vertices


def test_checked_lax_snapshot_lookup_recounts_a_matching_graph(monkeypatch):
    """strict=False waives the key check, not the sanitizer: a snapshot
    of this very graph is still recounted, so a corrupted stored answer
    raises."""
    g = _graph(3)
    snap = Snapshot(g, 3)
    good = snap.densest_subgraph()
    assert good.density > 0.0
    snap._densest = dataclasses.replace(good, density=good.density + 1.0)
    monkeypatch.setattr(guard, "CHECK", True)
    with pytest.raises(guard.SanitizerError, match="recomputed"):
        api.densest_subgraph(g, 3, strict=False, snapshot=snap)


# --- persistence: kill and reload -------------------------------------


def test_store_roundtrip_reproduces_every_query(tmp_path):
    g, h = _graph(7), _h(7)
    snap = Snapshot(g, h)
    store = SnapshotStore(tmp_path)
    assert store.save(snap)
    store.close()
    # a fresh connection on the same directory: the in-process "restart"
    reopened = SnapshotStore(tmp_path)
    loaded = reopened.load(snap.key)
    assert loaded is not None and loaded.loaded
    assert loaded.key == snap.key and loaded.h == h
    assert loaded.n == snap.n
    assert [a.labels for a in loaded.components] == [a.labels for a in snap.components]
    want = snap.densest_subgraph()
    got = loaded.densest_subgraph()
    assert got.vertices == want.vertices
    assert got.density == want.density
    for alpha in _midpoints(snap):
        a, b = snap.query_density(alpha), loaded.query_density(alpha)
        assert a.vertices == b.vertices and a.density == b.density
        assert a.count == b.count
    assert reopened.load("no-such-key") is None
    reopened.close()


def test_store_survives_a_real_process_restart(tmp_path):
    g, h = _graph(11), _h(11)
    snap = Snapshot(g, h)
    store = SnapshotStore(tmp_path)
    assert store.save(snap)
    store.close()
    want = snap.densest_subgraph()
    script = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.serve import SnapshotStore\n"
        f"store = SnapshotStore({str(tmp_path)!r})\n"
        f"snap = store.load({snap.key!r})\n"
        "assert snap is not None and snap.loaded\n"
        "res = snap.densest_subgraph()\n"
        "assert res.stats['flow_solves'] == 0\n"
        "print(sorted(res.vertices))\n"
        "print(res.density.hex())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == str(sorted(want.vertices))
    assert lines[1] == want.density.hex()  # bit-identical across the restart


def test_store_evicts_rows_built_under_a_different_eps(tmp_path):
    snap = Snapshot(_graph(1), 2)
    store = SnapshotStore(tmp_path)
    assert store.save(snap)
    # a flow-layer retune: the persisted family no longer matches cold
    store._conn.execute("UPDATE snapshots SET eps = eps * 2 + 1e-3")
    store._conn.commit()
    assert store.load(snap.key) is None
    assert store.keys() == []  # deleted, not served
    store.close()


#: The store layout before ``PRAGMA user_version`` was set: its
#: components table also held the edge pairs, instance rows and node
#: count that no query read.
_V1_SCHEMA = """
CREATE TABLE snapshots (
    key TEXT PRIMARY KEY,
    h INTEGER NOT NULL,
    eps REAL NOT NULL,
    n INTEGER NOT NULL,
    m INTEGER NOT NULL,
    labels TEXT NOT NULL,
    env TEXT NOT NULL,
    iterations INTEGER NOT NULL,
    nbytes INTEGER NOT NULL,
    created_s REAL NOT NULL,
    last_used_s REAL NOT NULL
);
CREATE TABLE components (
    key TEXT NOT NULL,
    cid INTEGER NOT NULL,
    labels TEXT NOT NULL,
    esrc BLOB NOT NULL,
    edst BLOB NOT NULL,
    inst_rows BLOB NOT NULL,
    nodes INTEGER NOT NULL,
    walk_cut BLOB,
    walk_rho REAL NOT NULL,
    walk_count INTEGER NOT NULL,
    walk_solves INTEGER NOT NULL,
    fam_alphas BLOB NOT NULL,
    fam_counts BLOB NOT NULL,
    fam_offsets BLOB NOT NULL,
    fam_cutids BLOB NOT NULL,
    PRIMARY KEY (key, cid)
);
CREATE TABLE results (
    key TEXT PRIMARY KEY,
    density REAL NOT NULL,
    vertices BLOB NOT NULL,
    iterations INTEGER NOT NULL
);
"""

#: Version 2: the Newton walk's cut and one id tuple per breakpoint cut
#: (``fam_offsets``/``fam_cutids``) per component, and a ``results``
#: table with the densest subgraph.
_V2_SCHEMA = """
CREATE TABLE snapshots (
    key TEXT PRIMARY KEY,
    h INTEGER NOT NULL,
    eps REAL NOT NULL,
    n INTEGER NOT NULL,
    m INTEGER NOT NULL,
    labels TEXT NOT NULL,
    env TEXT NOT NULL,
    iterations INTEGER NOT NULL,
    nbytes INTEGER NOT NULL,
    created_s REAL NOT NULL,
    last_used_s REAL NOT NULL
);
CREATE TABLE components (
    key TEXT NOT NULL,
    cid INTEGER NOT NULL,
    labels TEXT NOT NULL,
    walk_cut BLOB,
    walk_rho REAL NOT NULL,
    walk_count INTEGER NOT NULL,
    walk_solves INTEGER NOT NULL,
    fam_alphas BLOB NOT NULL,
    fam_counts BLOB NOT NULL,
    fam_offsets BLOB NOT NULL,
    fam_cutids BLOB NOT NULL,
    PRIMARY KEY (key, cid)
);
CREATE TABLE results (
    key TEXT PRIMARY KEY,
    density REAL NOT NULL,
    vertices BLOB NOT NULL,
    iterations INTEGER NOT NULL
);
PRAGMA user_version = 2;
"""

#: Each older layout with one row in every table.
_OLDER_LAYOUTS = (
    (
        _V1_SCHEMA,
        "INSERT INTO snapshots VALUES ('old', 2, 1e-9, 0, 0, '[]', '{}', 0, 0, 0.0, 0.0);"
        "INSERT INTO components VALUES "
        "('old', 0, '[]', x'', x'', x'', 0, NULL, 0.0, 0, 0, x'', x'', x'', x'');"
        "INSERT INTO results VALUES ('old', 0.0, x'', 0);",
    ),
    (
        _V2_SCHEMA,
        "INSERT INTO snapshots VALUES ('old', 2, 1e-9, 0, 0, '[]', '{}', 0, 0, 0.0, 0.0);"
        "INSERT INTO components VALUES "
        "('old', 0, '[]', NULL, 0.0, 0, 0, x'', x'', x'', x'');"
        "INSERT INTO results VALUES ('old', 0.0, x'', 0);",
    ),
)


def test_store_rebuilds_a_file_of_the_older_layout(tmp_path):
    """A store file of an older layout (unversioned or version 2, NOT
    NULL columns the current insert does not fill) is rebuilt on open:
    a save and a load then work and serve the same answers."""
    import sqlite3

    g, h = _graph(5), _h(5)
    snap = Snapshot(g, h)
    for version, (schema, rows) in enumerate(_OLDER_LAYOUTS, start=1):
        root = tmp_path / f"v{version}"
        root.mkdir()
        conn = sqlite3.connect(str(root / "snapshots.sqlite"))
        conn.executescript(schema + rows)
        conn.commit()
        conn.close()
        store = SnapshotStore(root)
        assert store.save(snap), version
        store.close()
        reopened = SnapshotStore(root)
        assert reopened.keys() == [snap.key], version
        loaded = reopened.load(snap.key)
        want, got = snap.densest_subgraph(), loaded.densest_subgraph()
        assert (got.vertices, got.density) == (want.vertices, want.density), version
        for alpha in _midpoints(snap):
            a, b = snap.query_density(alpha), loaded.query_density(alpha)
            assert (a.vertices, a.density, a.count) == (b.vertices, b.density, b.count)
        tables = {name for (name,) in reopened._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )}
        assert tables == {"snapshots", "components"}, version
        reopened.close()


def test_store_skips_labels_that_json_does_not_round_trip(tmp_path):
    """Tuple labels come back from JSON as lists, which are not even
    hashable: such a snapshot is not saved, and a cache with a store
    rebuilds it after a restart instead of raising."""
    g = Graph([((0, 0), (0, 1)), ((0, 1), (1, 1)), ((0, 0), (1, 1)), ((1, 1), (2, 2))])
    snap = Snapshot(g, 2)
    store = SnapshotStore(tmp_path)
    assert not store.save(snap)
    assert store.keys() == []
    cache = ArtifactCache(store=store)
    first = cache.get(g, 2)
    cache.clear()  # the in-memory tier is gone after a restart
    again = cache.get(g, 2)
    assert not again.loaded and cache.misses == 2 and cache.loads == 0
    cold = api.densest_subgraph(g, 2, method="exact")
    for built in (first, again):
        got = built.densest_subgraph()
        assert (got.vertices, got.density) == (cold.vertices, cold.density)
    store.close()


def test_store_lru_respects_the_byte_cap(tmp_path):
    store = SnapshotStore(tmp_path, cap_bytes=1)
    first, second = Snapshot(_graph(0), 2), Snapshot(_graph(10), 2)
    assert store.save(first)
    assert store.save(second)
    # cap of one byte: only the newest row may survive each save
    assert store.keys() == [second.key]
    assert store.evictions >= 1
    assert store.stats()["snapshots"] == 1
    store.close()


# --- the cache tiers and their telemetry ------------------------------


def test_cache_tiers_hit_load_miss_and_the_obs_rollup(tmp_path):
    g, h = _graph(6), 2
    obs.enable(fresh=True)
    try:
        store = SnapshotStore(tmp_path)
        cache = ArtifactCache(store=store)
        built = cache.get(g, h)      # miss: full precompute + persist
        again = cache.get(g, h)      # memory hit: same object
        assert again is built
        cache.clear()
        loaded = cache.get(g, h)     # store load: reconstruct, no solve
        assert loaded.loaded and loaded.key == built.key
        rollup = obs.summary()["serve"]
        stats = cache.stats()
        store.close()
    finally:
        obs.disable()
    assert rollup["misses"] == 1
    assert rollup["hits"] == 1
    assert rollup["loads"] == 1
    assert rollup["precomputes"] == 1
    assert rollup["hit_ratio"] == pytest.approx(2.0 / 3.0)
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["loads"] == 1


def test_memory_lru_evicts_by_entry_count():
    cache = ArtifactCache(max_entries=2)
    graphs = [_graph(s) for s in (0, 10, 20)]
    for g in graphs:
        cache.get(g, 2)
    assert cache.evictions == 1
    assert cache.stats()["entries"] == 2
    # the evicted first graph misses again (no store behind this cache)
    cache.get(graphs[0], 2)
    assert cache.misses == 4
    with pytest.raises(ValueError):
        ArtifactCache(max_entries=0)


def test_default_cache_reads_the_env_knobs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SNAPSHOT_CAP", "")
    serve.reset_cache()
    try:
        g = _graph(8)
        first = serve.get_snapshot(g, 2)
        assert serve.get_snapshot(g, 2) is first  # memory hit
        serve.reset_cache()                       # process "restart"
        reloaded = serve.get_snapshot(g, 2)
        assert reloaded.loaded                    # came back from SQLite
        assert reloaded.densest_subgraph().vertices == first.densest_subgraph().vertices
    finally:
        serve.reset_cache()
    assert (tmp_path / "snapshots.sqlite").exists()


# --- the batch entry point and its degradation ------------------------


def test_batch_densest_answers_mixed_requests_off_one_snapshot():
    g, h = _graph(14), _h(14)
    cache = ArtifactCache()
    snap = serve.get_snapshot(g, h, cache=cache)
    want = snap.densest_subgraph()
    alphas = _midpoints(snap)[:2]
    answers = serve.batch_densest(g, h, [None, alphas[0], None, alphas[1]], cache=cache)
    assert len(answers) == 4
    assert answers[0].vertices == want.vertices == answers[2].vertices
    assert answers[0].density == want.density
    for req, got in ((alphas[0], answers[1]), (alphas[1], answers[3])):
        direct = snap.query_density(req)
        assert got.vertices == direct.vertices and got.count == direct.count
    assert cache.misses == 1  # one precompute served the whole batch


def test_batch_densest_degrades_when_the_build_deadline_expires():
    g = _graph(7)
    answers = serve.batch_densest(
        g, 2, [None, 0.1], deadline_s=0.0, cache=ArtifactCache()
    )
    densest, alpha_answer = answers
    assert densest.stats["degraded"] is True
    assert densest.stats["degraded_at"] == "serve.precompute"
    assert densest.vertices  # the fallback still produced an answer
    assert alpha_answer.stats["degraded"] is True
    assert alpha_answer.stats["count_unavailable"] is True
    if alpha_answer.vertices:
        assert alpha_answer.density > 0.1


# --- the numpy-off leg ------------------------------------------------


def test_snapshots_hold_without_numpy(tmp_path):
    """Pure-python tier: same bits served, stored, and reloaded."""
    script = (
        "import sys; sys.path.insert(0, 'tests'); sys.path.insert(0, 'src')\n"
        "from test_serve import _graph, _h\n"
        "from repro import api\n"
        "from repro.serve import ArtifactCache, Snapshot, SnapshotStore\n"
        f"store = SnapshotStore({str(tmp_path)!r})\n"
        "cache = ArtifactCache(store=store)\n"
        "for seed in (1, 8):\n"
        "    g, h = _graph(seed), _h(seed)\n"
        "    cold = api.densest_subgraph(g, h, method='exact')\n"
        "    snap = cache.get(g, h)\n"
        "    warm = snap.densest_subgraph()\n"
        "    assert warm.vertices == cold.vertices, seed\n"
        "    assert warm.density == cold.density, seed\n"
        "    cache.clear()\n"
        "    loaded = cache.get(g, h)\n"
        "    assert loaded.loaded, seed\n"
        "    assert loaded.densest_subgraph().vertices == cold.vertices, seed\n"
        "print('identical')\n"
    )
    env = dict(os.environ, REPRO_NO_NUMPY="1", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "identical" in proc.stdout


# --- budgets -----------------------------------------------------------


def test_warm_queries_run_under_an_expired_solve_budget():
    """Lookups tick rounds, never solves: a zero-solve budget that would
    kill any cold path leaves warm serving untouched."""
    g, h = _graph(5), 2
    snap = Snapshot(g, h)
    want = snap.densest_subgraph()
    with guard.Budget(max_solves=0):
        got = snap.densest_subgraph()
        answer = snap.query_density(0.0)
    assert got.vertices == want.vertices
    assert answer.count >= 0
