"""The resilience layer: budgets, degradation, sanitizer."""

import math
import random
import subprocess
import sys
import time

import pytest

from repro import accel, guard, obs
from repro.api import densest_subgraph
from repro.cliques.index import CliqueIndex
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.pds import pattern_peel_densest
from repro.core.peel import peel_densest
from repro.flow.builders import build_eds_parametric
from repro.graph.graph import Graph, complete_graph
from repro.guard import sanitize
from repro.patterns.pattern import get_pattern


def random_graph(n, m, seed=0):
    rng = random.Random(seed)
    g = Graph()
    while g.num_edges < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


def disjoint_copies(g, copies):
    """``copies`` label-shifted copies of ``g`` (integer labels)."""
    shift = max(g.vertices()) + 1
    out = Graph()
    for c in range(copies):
        for u, v in g.edges():
            out.add_edge(c * shift + u, c * shift + v)
    return out


def subgraph_density(g, vertices, h):
    if not vertices:
        return 0.0
    sub = g.subgraph(vertices)
    if h == 2:
        return sub.num_edges / sub.num_vertices
    return CliqueIndex(sub, h).m / len(vertices)


@pytest.fixture(autouse=True)
def _clean_guard_state():
    checking = guard.CHECK  # REPRO_CHECK=1 arms it for the whole suite
    yield
    accel.select_tier(None)
    if checking:
        guard.enable_checks()
    else:
        guard.disable_checks()
    assert guard.ACTIVE is None


# ---------------------------------------------------------------------
# Budget mechanics
# ---------------------------------------------------------------------


class TestBudget:
    def test_requires_a_limit(self):
        with pytest.raises(ValueError, match="at least one limit"):
            guard.Budget()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": -1}, {"max_solves": -1}, {"max_arcs": -2},
            # NaN fails every comparison, so it would never expire
            {"deadline_s": math.nan}, {"max_solves": math.nan}, {"max_arcs": math.nan},
        ],
    )
    def test_rejects_negative_limits(self, kwargs):
        with pytest.raises(ValueError):
            guard.Budget(**kwargs)

    def test_install_and_restore(self):
        assert guard.current() is None
        with guard.Budget(max_solves=5) as b:
            assert guard.current() is b
        assert guard.current() is None

    def test_nesting_restores_outer(self):
        with guard.Budget(max_solves=5) as outer:
            with guard.Budget(max_solves=1) as inner:
                assert guard.current() is inner
            assert guard.current() is outer

    def test_suspended_masks_budget(self):
        with guard.Budget(max_solves=1) as b:
            with guard.suspended():
                assert guard.current() is None
            assert guard.current() is b

    def test_max_solves_allows_exactly_n(self):
        with guard.Budget(max_solves=3) as b:
            for _ in range(3):
                b.tick_solve(10)
            with pytest.raises(guard.BudgetExceeded, match="max_solves=3"):
                b.tick_solve(10)

    def test_max_arcs_expires_before_counting_the_solve(self):
        with guard.Budget(max_arcs=100) as b:
            b.tick_solve(100)
            with pytest.raises(guard.BudgetExceeded, match="max_arcs=100"):
                b.tick_solve(101)
            assert b.solves == 1  # the oversized solve was never counted

    def test_dead_deadline_expires_on_first_tick(self):
        with guard.Budget(deadline_s=0.0) as b:
            with pytest.raises(guard.BudgetExceeded, match="deadline"):
                b.tick_solve(1)

    def test_expired_budget_stays_expired(self):
        with guard.Budget(max_solves=1) as b:
            b.tick_solve(1)
            with pytest.raises(guard.BudgetExceeded):
                b.tick_solve(1)
            with pytest.raises(guard.BudgetExceeded):
                b.tick_round()
            assert b.expired is not None

    def test_tick_round_checks_deadline(self):
        with guard.Budget(deadline_s=0.0) as b:
            with pytest.raises(guard.BudgetExceeded):
                b.tick_round()
            assert b.rounds == 1

    def test_snapshot_postmortem(self):
        with guard.Budget(max_solves=1) as b:
            b.tick_solve(7)
            with pytest.raises(guard.BudgetExceeded):
                b.tick_solve(7)
        snap = b.snapshot()
        assert snap["expired"] is True
        assert snap["solves"] == 2
        assert "max_solves=1" in snap["expired_reason"]

    def test_incumbent_first_attachment_wins(self):
        exc = guard.BudgetExceeded("s", "r", guard.Budget(max_solves=1))
        exc.attach_incumbent({1, 2}, 1.5)
        exc.attach_incumbent({3}, 9.0)  # outer layers must not override
        assert exc.incumbent == {1, 2}
        assert exc.incumbent_density == 1.5

    def test_empty_incumbent_is_ignored(self):
        exc = guard.BudgetExceeded("s", "r", guard.Budget(max_solves=1))
        exc.attach_incumbent(set(), 0.0)
        assert exc.incumbent is None
        exc.attach_incumbent({1}, 2.0)
        assert exc.incumbent == {1}

    def test_expiry_emits_obs_event(self):
        obs.enable()
        try:
            with guard.Budget(max_solves=1) as b:
                b.tick_solve(1)
                with pytest.raises(guard.BudgetExceeded):
                    b.tick_solve(1)
            col = obs.get_collector()
            events = [e for e in col.events() if e["name"] == "guard.deadline"]
            assert len(events) == 1
            fields = events[0]["fields"]
            assert fields["site"] == "flow.solve"
            assert "max_solves" in fields["reason"]
            assert fields["elapsed_s"] >= 0
            assert col.counters.get("guard.expired") == 1
        finally:
            obs.disable()


# ---------------------------------------------------------------------
# Degradation contract across solvers and tiers
# ---------------------------------------------------------------------

SOLVERS = {
    "exact": lambda g, h: exact_densest(g, h),
    "core-exact": lambda g, h: core_exact_densest(g, h),
    # pruning off keeps every copy of the blob located, so the budget
    # expires across several components (see MULTI_COMPONENT)
    "core-exact-unpruned": lambda g, h: core_exact_densest(
        g, h, pruning1=False, pruning2=False
    ),
    "peel": lambda g, h: peel_densest(g, h),
}

#: Solvers run on three disjoint copies of one random blob instead of
#: the one-component default graph; every budget below degrades them.
MULTI_COMPONENT = {"core-exact-unpruned"}

BUDGETS = {
    "dead-deadline": {"deadline_s": 0.0},
    "one-solve": {"max_solves": 1},
    "three-solves": {"max_solves": 3},
    "tiny-network": {"max_arcs": 8},
}


class TestDegradationContract:
    """A budget-killed solver must return a *valid* result, never raise."""

    @pytest.mark.parametrize("solver_name", sorted(SOLVERS))
    @pytest.mark.parametrize("budget_name", sorted(BUDGETS))
    def test_degraded_result_is_valid(self, solver_name, budget_name):
        if solver_name == "peel" and budget_name != "dead-deadline":
            pytest.skip("peel rounds only check the deadline")
        if solver_name in MULTI_COMPONENT:
            g = disjoint_copies(random_graph(12, 20, seed=10), 3)
        else:
            g = random_graph(50, 220, seed=17)
        h = 2
        clean = SOLVERS[solver_name](g, h)
        with guard.Budget(**BUDGETS[budget_name]):
            res = SOLVERS[solver_name](g, h)
        # valid vertices and an honest density, degraded or not
        assert res.vertices <= set(g.vertices())
        assert res.vertices
        assert res.density == pytest.approx(subgraph_density(g, res.vertices, h))
        if solver_name in MULTI_COMPONENT:
            assert res.stats.get("degraded") is True
        if res.stats.get("degraded"):
            lo = res.stats["density_lower_bound"]
            hi = res.stats["density_upper_bound"]
            assert lo == res.density
            assert lo <= clean.density <= hi + 1e-9
            assert res.stats["budget"]["expired"] is True
            assert res.stats["degraded_incumbent"] in (
                "walk", "core", "partial-peel", "none",
            )

    @pytest.mark.parametrize("tier", ["numpy", "python"])
    def test_degradation_across_tiers(self, tier):
        if tier not in accel.available_tiers():
            pytest.skip(f"tier {tier!r} unavailable in this environment")
        g = random_graph(40, 160, seed=23)
        accel.select_tier(tier)
        clean = exact_densest(g, 2)
        with guard.Budget(max_solves=2):
            res = exact_densest(g, 2)
        assert res.density == pytest.approx(subgraph_density(g, res.vertices, 2))
        if res.stats.get("degraded"):
            assert res.stats["density_lower_bound"] <= clean.density
            assert clean.density <= res.stats["density_upper_bound"] + 1e-9

    def test_h3_degradation(self):
        g = random_graph(30, 140, seed=29)
        clean = exact_densest(g, 3)
        with guard.Budget(max_solves=1):
            res = exact_densest(g, 3)
        assert res.density == pytest.approx(subgraph_density(g, res.vertices, 3))
        if res.stats.get("degraded"):
            assert res.stats["density_lower_bound"] <= clean.density
            assert clean.density <= res.stats["density_upper_bound"] + 1e-9


class TestApiFallback:
    def test_dead_budget_falls_back_to_peel(self):
        g = random_graph(60, 260, seed=31)
        clean = densest_subgraph(g, 2, method="exact")
        with guard.Budget(deadline_s=0.0):
            res = densest_subgraph(g, 2, method="exact")
        assert res.stats["degraded"] is True
        assert res.stats["fallback"] == "peel"
        assert res.stats["approx_ratio"] == pytest.approx(0.5)
        # the peel guarantee: within 1/h of optimal, verifiably
        assert res.density >= clean.density / 2 - 1e-9
        assert res.density == pytest.approx(subgraph_density(g, res.vertices, 2))
        assert clean.density <= res.stats["density_upper_bound"] + 1e-9

    def test_core_app_dead_budget_falls_back_to_peel(self):
        """CoreApp checkpoints each prefix round: an expired budget stops
        it and the api answers with the peel approximation."""
        g = random_graph(60, 260, seed=33)
        with guard.Budget(deadline_s=0.0) as b:
            res = densest_subgraph(g, 3, method="core-app")
        assert res.stats["fallback"] == "peel"
        assert res.stats["degraded_at"] == "core_app.round"
        assert b.expired[0] == "core_app.round"
        assert res.vertices == peel_densest(g, 3).vertices
        assert res.density == pytest.approx(subgraph_density(g, res.vertices, 3))

    def test_pattern_method_budget_propagates_to_fallback(self):
        g = random_graph(30, 120, seed=37)
        with guard.Budget(deadline_s=0.0):
            res = densest_subgraph(g, "triangle", method="exact")
        assert res.stats.get("fallback") == "peel"
        assert res.stats["approx_ratio"] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("name", ["diamond", "2-star", "c3-star"])
    @pytest.mark.parametrize(
        "method,site",
        [
            ("exact", "pds.p_exact"),
            ("core-exact", "pds.core_p_exact"),
            ("peel", "pds.peel"),
            ("inc-app", "pds.inc_app"),
            ("core-app", "pds.core_app"),
        ],
    )
    def test_dead_budget_on_pattern_methods_falls_back_to_peel(self, method, site, name):
        """Every pattern entry point checkpoints before it enumerates or
        peels: a spent budget stops it, and the api answers with the
        pattern peel, run to completion."""
        g = random_graph(30, 100, seed=47)
        pattern = get_pattern(name)
        with guard.Budget(deadline_s=0.0) as b:
            res = densest_subgraph(g, pattern, method=method)
        assert b.expired[0] == site
        assert res.stats["fallback"] == "peel"
        assert res.stats["degraded_at"] == site
        assert res.stats["approx_ratio"] == pytest.approx(1 / pattern.size)
        clean = pattern_peel_densest(g, pattern)
        assert (res.vertices, res.density) == (clean.vertices, clean.density)

    @pytest.mark.parametrize("h", [2, 3])
    def test_inc_app_dead_budget_falls_back_to_peel(self, h):
        """IncApp checkpoints before its decomposition: a spent budget
        stops it and the api answers with the peel approximation."""
        g = random_graph(40, 160, seed=49)
        with guard.Budget(deadline_s=0.0) as b:
            res = densest_subgraph(g, h, method="inc-app")
        assert b.expired[0] == "inc_app.run"
        assert res.stats["fallback"] == "peel"
        assert res.stats["degraded_at"] == "inc_app.run"
        clean = peel_densest(g, h)
        assert (res.vertices, res.density) == (clean.vertices, clean.density)

    def test_query_variant_dead_budget_raises_before_any_work(self):
        from repro.core.query_variant import query_densest

        g = random_graph(40, 160, seed=51)
        obs.enable()
        try:
            with guard.Budget(deadline_s=0.0):
                with pytest.raises(guard.BudgetExceeded) as info:
                    query_densest(g, [0])
            col = obs.get_collector()
            assert info.value.site == "query_variant.run"
            assert col.spans("query_variant.run")
            assert not col.spans("kcore.decomposition")
            assert not col.events(obs.FLOW_SOLVE)
        finally:
            obs.disable()

    def test_budget_restored_after_fallback(self):
        g = random_graph(30, 120, seed=41)
        with guard.Budget(deadline_s=0.0) as b:
            densest_subgraph(g, 2, method="exact")
            assert guard.current() is b  # suspended() must restore

    def test_untouched_without_budget(self):
        g = random_graph(30, 120, seed=43)
        res = densest_subgraph(g, 2, method="exact")
        assert "degraded" not in res.stats


class TestDeadlineWallClock:
    def test_fig8_scale_deadline_holds(self):
        """A deadline-bounded call on a fig8-scale graph honours the budget.

        The checkpoint granularity is one flow solve, so the allowance is
        deadline * 1.1 plus one solve's worth of slack (the budget is
        checked *before* each solve; a solve admitted at deadline-epsilon
        runs to completion).  The cell is Exact at h = 3 on As-Caida.  An
        unbudgeted traced run gives the time until its network is built
        and the time of each solve; the deadline falls halfway through
        the solves, so the budgeted walk is cut short on every accel tier.
        """
        from repro.datasets.registry import load

        g = load("as-caida", 1.0)
        obs.enable()
        try:
            start = time.perf_counter()
            densest_subgraph(g, 3, method="exact")
            col = obs.get_collector()
            built = max(s["t0_s"] + s["dur_s"] for s in col.spans("flow.build"))
            solves = [e["fields"]["seconds"] for e in col.events(obs.FLOW_SOLVE)]
        finally:
            obs.disable()
            obs.reset()
        deadline = built - start + sum(solves) / 2
        slack = max(solves) + 0.15  # one solve, plus a CI margin
        start = time.perf_counter()
        with guard.Budget(deadline_s=deadline):
            res = densest_subgraph(g, 3, method="exact")
        elapsed = time.perf_counter() - start
        assert res.stats.get("degraded") is True
        assert elapsed <= deadline * 1.1 + slack
        # the degraded answer still brackets the optimum verifiably
        assert res.density == pytest.approx(subgraph_density(g, res.vertices, 3))
        assert res.stats["density_lower_bound"] <= res.stats["density_upper_bound"]


# ---------------------------------------------------------------------
# Invariant sanitizer
# ---------------------------------------------------------------------


class TestSanitizer:
    def test_parametric_happy_path(self):
        g = random_graph(30, 120, seed=61)
        net = build_eds_parametric(g)
        net.solve(1.0)
        sanitize.check_parametric(net)  # must not raise

    def test_detects_capacity_violation(self):
        g = random_graph(30, 120, seed=61)
        net = build_eds_parametric(g)
        net.solve(1.0)
        # push more flow through arc 0 than its capacity allows
        net.cap[0] = -1.0
        with pytest.raises(guard.SanitizerError):
            sanitize.check_parametric(net)

    def test_detects_numpy_cut_mismatch(self, monkeypatch):
        """The numpy reachability that cuts are read with must find the
        scalar reachability's source side exactly."""
        g = random_graph(30, 120, seed=61)
        net = build_eds_parametric(g)
        net.solve(1.0)
        if isinstance(net.cap, list):
            pytest.skip("list-backed network: no numpy cut to compare")
        real = sanitize.source_reachable

        def skewed(head, cap, *rest):
            seen = real(head, cap, *rest)
            if not isinstance(cap, list):
                seen[0] = not seen[0]
            return seen

        monkeypatch.setattr(sanitize, "source_reachable", skewed)
        with pytest.raises(guard.SanitizerError, match="numpy cut"):
            sanitize.check_parametric(net)

    def test_detects_conservation_violation(self):
        g = random_graph(30, 120, seed=67)
        net = build_eds_parametric(g)
        net.solve(1.0)
        # find an arc between two interior nodes and fake extra flow on it
        for a in range(0, len(net.head), 2):
            u, v = net.head[a ^ 1], net.head[a]
            if u not in (net.source, net.sink) and v not in (net.source, net.sink):
                if net.cap[a] > 0.5:
                    net.cap[a] -= 0.5
                    net.cap[a ^ 1] += 0.5
                    break
        else:  # pragma: no cover - construction always has interior arcs
            pytest.skip("no interior arc found")
        with pytest.raises(guard.SanitizerError):
            sanitize.check_parametric(net)

    def test_result_density_recompute(self):
        g = complete_graph(5)
        sanitize.check_result_density(g, set(g.vertices()), 2, 2.0, "t")
        with pytest.raises(guard.SanitizerError, match="recomputed"):
            sanitize.check_result_density(g, set(g.vertices()), 2, 1.9, "t")

    def test_result_density_recounts_the_pattern(self):
        # K4 holds three C4s and six 2-triangles: a density of the wrong
        # motif, or of the right one miscounted, fails
        g = complete_graph(4)
        diamond = get_pattern("diamond")
        sanitize.check_result_density(g, set(g.vertices()), diamond, 0.75, "t")
        with pytest.raises(guard.SanitizerError, match="motif=diamond"):
            sanitize.check_result_density(g, set(g.vertices()), diamond, 1.5, "t")
        with pytest.raises(guard.SanitizerError, match="recomputed 0.75"):
            sanitize.check_result_density(g, set(g.vertices()), diamond, 1.0, "t")

    def test_result_density_empty_set(self):
        g = complete_graph(3)
        sanitize.check_result_density(Graph(), set(), 2, 0.0, "t")
        with pytest.raises(guard.SanitizerError):
            sanitize.check_result_density(g, set(), 2, 1.0, "t")

    def test_result_density_foreign_vertex(self):
        g = complete_graph(3)
        with pytest.raises(guard.SanitizerError):
            sanitize.check_result_density(g, {0, 99}, 2, 0.5, "t")

    def test_peel_monotonicity(self):
        sanitize.check_peel_round(10, 7)
        sanitize.check_peel_round(7, 7)
        with pytest.raises(guard.SanitizerError, match="increased"):
            sanitize.check_peel_round(7, 9)

    def test_checked_solves_end_to_end(self):
        guard.enable_checks()
        g = random_graph(40, 170, seed=73)
        exact_densest(g, 2)
        core_exact_densest(g, 3)
        peel_densest(g, 2)
        densest_subgraph(g, 2)

    def test_repro_check_env_arms_subprocess(self):
        code = (
            "import repro.guard as g\n"
            "assert g.CHECK\n"
            "from repro.graph.graph import complete_graph\n"
            "from repro.core.exact import exact_densest\n"
            "assert exact_densest(complete_graph(5), 2).density == 2.0\n"
            "print('CHECKED-OK')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "REPRO_CHECK": "1", "PATH": "/usr/bin:/bin"},
        )
        assert "CHECKED-OK" in out.stdout, out.stderr


# ---------------------------------------------------------------------
# Trace schema for the new events
# ---------------------------------------------------------------------


class TestTraceSchemas:
    def _validate_event(self, name, fields):
        import json

        from repro.obs.validate import validate_records

        rec = {"type": "event", "name": name, "seq": 1, "depth": 0, "fields": fields}
        _, errors = validate_records([json.dumps(rec)])
        return errors

    def test_guard_deadline_schema(self):
        good = {"site": "flow.solve", "reason": "deadline", "elapsed_s": 0.1}
        assert self._validate_event("guard.deadline", good) == []
        assert self._validate_event("guard.deadline", {"site": "x"})  # missing keys
        bad = dict(good, elapsed_s=-1)
        assert self._validate_event("guard.deadline", bad)

    def test_live_trace_passes_validation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(sink=str(path))
        try:
            with guard.Budget(max_solves=2):
                exact_densest(random_graph(30, 120, seed=79), 2)
        finally:
            obs.disable()
            obs.close()
        from repro.obs.validate import validate_trace

        count, errors = validate_trace(str(path))
        assert errors == []
        assert count > 0


# ---------------------------------------------------------------------
# Disabled-mode overhead
# ---------------------------------------------------------------------


def test_disabled_overhead_within_budget(monkeypatch):
    """The guard layer costs <= 2% of a solve cell when nothing is armed.

    Same non-flaky construction as the obs overhead test: measure the
    per-call cost of the disabled primitives (the ``guard.ACTIVE`` and
    ``guard.CHECK`` reads the solvers make) and multiply by the
    checkpoint volume of a real cell, instead of differencing two noisy
    end-to-end wall times.  The sanitizer is
    disarmed for the test, which a ``REPRO_CHECK=1`` suite arms.
    """
    monkeypatch.setattr(guard, "CHECK", False)
    g = random_graph(70, 320, seed=3)

    # checkpoint volume of one cell, counted with tracing on
    obs.enable()
    core_exact_densest(g, 3)
    col = obs.get_collector()
    solves = col.counters.get("flow.solves", 0)
    kernel_calls = sum(v for k, v in col.counters.items() if k.endswith(".calls"))
    obs.disable()
    volume = solves + kernel_calls + 2  # + the two result-shape checks

    # per-checkpoint disabled cost: one module-attribute read + is-None
    reps = 50_000
    start = time.perf_counter()
    for _ in range(reps):
        if guard.ACTIVE is not None:  # pragma: no cover
            raise AssertionError
        if guard.CHECK:  # pragma: no cover
            raise AssertionError
    per_checkpoint = (time.perf_counter() - start) / reps

    start = time.perf_counter()
    core_exact_densest(g, 3)
    cell_seconds = time.perf_counter() - start

    overhead = per_checkpoint * volume
    assert overhead <= 0.02 * cell_seconds, (
        f"guard disabled overhead {overhead:.6f}s exceeds 2% of "
        f"{cell_seconds:.4f}s cell ({volume} checkpoints)"
    )


# ---------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------


def test_top_level_exports():
    import repro

    assert repro.Budget is guard.Budget
    assert repro.BudgetExceeded is guard.BudgetExceeded


def test_degraded_stats_is_json_serializable():
    import json

    exc = guard.BudgetExceeded("flow.solve", "r", guard.Budget(max_solves=1))
    stats = guard.degraded_stats(exc, incumbent_source="walk", lower=1.0, upper=2.0)
    json.dumps(stats)
    assert not math.isnan(stats["density_lower_bound"])
