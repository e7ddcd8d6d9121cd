"""Backend-dispatch property suite for the :mod:`repro.accel` tiers.

Three layers of guarantees:

* **selection** -- the import-time tier is numpy when importable and
  python under ``REPRO_NO_NUMPY`` (pinned in subprocesses, since the
  flag is read once at import);
* **bit-identity** -- both tiers produce *identical* flow values,
  residual capacity floats, min cuts, peel orders, core numbers and
  densities on the random network/graph matrices;
* **end-to-end** -- Exact / CoreExact / PeelApp / the GGT breakpoint
  drivers return identical results whichever tier is selected.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import accel, guard
from repro.accel import pure
from repro.core.clique_core import clique_core_decomposition
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.peel import peel_densest
from repro.flow.builders import build_cds_parametric, build_eds_parametric
from repro.flow.network import EPS
from repro.guard import sanitize

from .conftest import random_graph
from .test_flow import nx_reference, random_network
from .test_flow_parametric import _net_outflow, _network_of_kind, _plain_arcs

SRC_DIR = str(Path(accel.__file__).resolve().parents[2])


TIERS = accel.available_tiers()
MULTI = len(TIERS) >= 2

#: A ``ROUNDS_MIN_ARCS`` no phase reaches: the DFS pushes every phase.
NEVER = 1 << 62
PUSH_ROUNDS, BLOCKING_FLOW = accel.vector._push_rounds, pure.dinic_blocking_flow


@pytest.fixture(autouse=True)
def _restore_tier():
    yield
    accel.select_tier(None)


# --------------------------------------------------------------------
# registry selection
# --------------------------------------------------------------------


def _clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_NUMPY"}
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _probe_import(module: str) -> bool:
    return (
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=_clean_env(), capture_output=True,
        ).returncode
        == 0
    )


HAS_NUMPY = _probe_import("numpy")


def _subprocess_tier(extra_env: dict) -> str:
    env = _clean_env()
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-c", "import repro.accel as a; print(a.TIER)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()


class TestSelection:
    def test_no_numpy_forces_python_tier(self):
        assert _subprocess_tier({"REPRO_NO_NUMPY": "1"}) == "python"

    def test_default_tier_is_best_available(self):
        expected = "numpy" if HAS_NUMPY else "python"
        assert _subprocess_tier({}) == expected

    def test_select_tier_validates(self):
        for gone in ("bogus", "numba"):
            with pytest.raises(ValueError):
                accel.select_tier(gone)
        if accel.np is None:
            with pytest.raises(RuntimeError):
                accel.select_tier("numpy")

    def test_every_tier_runs_the_five_kernels(self):
        """Each kernel the benchmark times by name runs on a toy input
        on every tier: a two-node network, one 2-clique instance."""
        for tier in TIERS:
            assert accel.select_tier(tier) == tier
            # head, adj_start, adj_arcs, and alpha_src: no paired source arc
            arrays = [[1, 0], [0, 1, 2], [0, 1], [-1]]
            if accel.np is not None:
                arrays = [accel.np.asarray(a, dtype=accel.np.int64) for a in arrays]
            head, adj_start, adj_arcs, alpha_src = arrays
            f8 = accel.np.asarray if accel.np is not None else list
            cap = f8([1.0, 0.0])
            assert accel.dinic_max_flow(0, 1, head, cap, adj_start, adj_arcs) == 1.0
            base, coeff, alpha_arcs = f8([0.0, 0.0]), f8([1.0]), head[1:]  # the s-t arc
            # the excess drains in the max flow from the sink
            accel.ggt_retreat(head, cap, base, adj_start, adj_arcs, alpha_arcs, coeff,
                              alpha_src, 0, 1, 0.25)
            assert list(cap) == [0.0, 0.25]  # the s-t arc clamped to its new capacity
            accel.ggt_advance(cap, base, alpha_arcs, coeff, 0.75)
            assert list(cap) == [0.5, 0.25]
            peel = accel.bucket_peel([0, 1], [0, 1, 2], [0, 0], [1, 1], bytearray(b"\x01"),
                                     bytearray(b"\x01\x01"), 2, 2, 1)
            assert peel == ([1, 1], [0, 1], 0, 0.5)  # core numbers, order, best step, density
            alive = bytearray(b"\x01")
            steps = list(accel.heap_peel([0, 1], [0, 1, 2], [0, 0], [1, 1], alive, 1, 2, 2))
            assert steps == [(0, 0)] and alive == bytearray(b"\x00")


# --------------------------------------------------------------------
# solver bit-identity on the 50-network random matrix
# --------------------------------------------------------------------


@pytest.mark.skipif(not MULTI, reason="only one tier available")
class TestFlowKernelBitIdentity:
    @pytest.mark.parametrize("seed", range(50))
    def test_dinic_bit_identical_across_tiers(self, seed):
        results = {}
        for tier in TIERS:
            accel.select_tier(tier)
            net = random_network(seed, n=12 + seed % 7, arcs=30 + seed)
            value = net.max_flow()
            results[tier] = (value, list(net.cap), net.source_side())
        base = results[TIERS[0]]
        for tier in TIERS[1:]:
            assert results[tier] == base, tier

    @pytest.mark.skipif(accel.np is None, reason="vector tier needs numpy")
    @pytest.mark.parametrize("seed", range(50))
    def test_vectorised_bfs_bit_identical(self, seed, monkeypatch):
        """Force the numpy phase planner on tiny networks.  With the
        DFS pushing every phase: same flow value, residual floats and
        cut as the python tier.  With the batched rounds on every phase
        (another maximum flow): the same cut, the same value to 1e-9
        relative, and the sanitizer's flow-state battery passes."""
        accel.select_tier("python")
        ref = random_network(seed)
        ref_value = ref.max_flow()
        monkeypatch.setattr(accel.vector, "PLAN_MIN_ARCS", 0)
        monkeypatch.setattr(accel.vector, "ROUNDS_MIN_ARCS", NEVER)
        accel.select_tier("numpy")
        net = random_network(seed)
        value = net.max_flow()
        assert value == ref_value
        assert list(net.cap) == list(ref.cap)
        assert net.source_side() == ref.source_side()

        monkeypatch.setattr(accel.vector, "ROUNDS_MIN_ARCS", 0)
        net = random_network(seed)
        assert net.max_flow() == pytest.approx(ref_value, rel=1e-9, abs=EPS)
        assert accel.vector.LAST_ROUNDS > 0 or ref_value == 0.0
        assert net.source_side() == ref.source_side()
        orig = [c for _, _, capacity in net.arcs for c in (capacity, 0.0)]
        sanitize._check_flow_state(
            net.source, net.sink, net.head.tolist(), net.cap.tolist(), orig,
            net.adj_start.tolist(), net.adj_arcs.tolist(), f"network {seed}",
        )


# --------------------------------------------------------------------
# GGT warm chains (advance + retreat + drain) across tiers
# --------------------------------------------------------------------


@pytest.mark.skipif(not MULTI, reason="only one tier available")
class TestParametricBitIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_alpha_walk_bit_identical(self, seed, monkeypatch):
        """A fixed up-and-down α walk must leave identical residual
        floats and cuts on every tier (exercises the retreat drains),
        and with the numpy phase planner forced on at any size -- on the
        EDS network and, for the INF ψ→v arcs, on a CDS h=3 network.
        With the batched rounds on every planned phase too, the walk
        reaches other maximum flows: the same cuts and flow values, and
        the sanitizer passes every solve."""
        import random as _random

        from repro.cliques.index import CliqueIndex

        rng = _random.Random(seed)
        g = random_graph(22, 65, seed + 900)
        walks = {
            "eds": (
                lambda: build_eds_parametric(g),
                [rng.uniform(0.0, g.max_degree()) for _ in range(12)],
            ),
            "cds": (
                lambda: build_cds_parametric(g, 3),
                [rng.uniform(0.0, max(CliqueIndex(g, 3).base_degree) / 3.0) for _ in range(12)],
            ),
        }

        def walk() -> dict:
            out = {}
            for name, (build, alphas) in walks.items():
                net = build()
                out[name] = [
                    (frozenset(net.solve(a)), tuple(net.cap), _net_outflow(net)[net.source])
                    for a in alphas
                ]
            return out

        traces = {}
        for tier in TIERS:
            accel.select_tier(tier)
            traces[tier] = walk()
        if accel.np is not None:
            monkeypatch.setattr(accel.vector, "PLAN_MIN_ARCS", 0)
            monkeypatch.setattr(accel.vector, "ROUNDS_MIN_ARCS", NEVER)
            accel.select_tier("numpy")
            traces["planner"] = walk()
        base = traces[TIERS[0]]
        for tier, trace in traces.items():
            assert trace == base, tier
        if accel.np is None:
            return
        monkeypatch.setattr(accel.vector, "ROUNDS_MIN_ARCS", 0)
        monkeypatch.setattr(guard, "CHECK", True)  # audit every solve
        for name, steps in walk().items():
            for (cut, _, value), (ref_cut, _, ref_value) in zip(steps, base[name]):
                assert cut == ref_cut, name
                assert value == pytest.approx(ref_value, rel=1e-9, abs=EPS), name

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("h", [2, 3])
    def test_max_density_identical(self, seed, h):
        g = random_graph(18, 50, seed + 60)
        results = {}
        for tier in TIERS:
            accel.select_tier(tier)
            if h == 2:
                net = build_eds_parametric(g)
                density_of = lambda s: g.subgraph(s).num_edges / len(s)
            else:
                net = build_cds_parametric(g, h)
                from repro.cliques.index import CliqueIndex

                density_of = CliqueIndex(g, h).density_within
            results[tier] = net.max_density(density_of, low=0.0)
        base = results[TIERS[0]]
        for tier in TIERS[1:]:
            assert results[tier] == base, tier  # (cut, alpha, solves)


# --------------------------------------------------------------------
# the numpy tier's batched blocking flow, forced onto every phase
# --------------------------------------------------------------------


@pytest.mark.skipif(accel.np is None, reason="the batched rounds need numpy")
class TestBatchedBlockingFlow:
    """The push-and-balance rounds on every planned phase, over an
    up-and-down α walk on random EDS, anchored EDS (Q = {0}), CDS h = 3
    and grouped PDS (2-star, construct+) networks.  They reach another
    maximum flow than the DFS alone, so after every solve: the flow
    value is networkx's max-flow value, the node cut is the python
    tier's, and the sanitizer's flow battery passes."""

    KINDS = (0, 1, 2, 7)  # _network_of_kind: EDS, anchored, CDS h=3, grouped PDS

    def _walk(self, seed, monkeypatch) -> dict:
        rng = random.Random(seed)
        g = random_graph(12 + seed % 7, 30 + seed, seed + 2000)
        kind = self.KINDS[seed % 4]
        accel.select_tier("python")
        ref, high = _network_of_kind(g, kind)
        ups = sorted(rng.uniform(0.0, high) for _ in range(3))
        downs = sorted((rng.uniform(0.0, ups[-1]) for _ in range(2)), reverse=True)
        alphas = ups + downs + downs[-1:]  # the repeat is a noop solve
        ref_sides = []
        for alpha in alphas:
            ref.solve(alpha)
            ref_sides.append(ref.min_cut_source_side())

        stats = {"rounds": 0, "finisher_paths": 0}

        def rounds(*args):
            total, ran, blocked = PUSH_ROUNDS(*args)
            stats["rounds"] += ran
            return total, ran, blocked

        def dfs(*args):
            total, pushed = BLOCKING_FLOW(*args)
            stats["finisher_paths"] += pushed  # every phase ran rounds first
            return total, pushed

        monkeypatch.setattr(accel.vector, "_push_rounds", rounds)
        monkeypatch.setattr(pure, "dinic_blocking_flow", dfs)
        monkeypatch.setattr(accel.vector, "PLAN_MIN_ARCS", 0)
        monkeypatch.setattr(accel.vector, "ROUNDS_MIN_ARCS", 0)
        accel.select_tier("numpy")
        net, _ = _network_of_kind(g, kind)
        for alpha, ref_side in zip(alphas, ref_sides):
            net.solve(alpha)
            value, _ = nx_reference(_plain_arcs(net, alpha))
            assert _net_outflow(net)[net.source] == pytest.approx(value, rel=1e-9, abs=EPS), alpha
            assert net.min_cut_source_side() == ref_side, alpha
            sanitize.check_parametric(net)
        return stats

    @pytest.mark.parametrize("seed", range(16))
    def test_walk_matches_networkx_and_the_python_cut(self, seed, monkeypatch):
        assert self._walk(seed, monkeypatch)["rounds"] > 0

    def test_dfs_finishes_what_one_round_leaves(self, monkeypatch):
        """One round per phase, then the DFS finishes the phase: the same
        checks on eight walks (each kind twice), in which the DFS pushes
        what the single rounds left."""
        monkeypatch.setattr(accel.vector, "MAX_ROUNDS", 1)
        paths = [self._walk(seed, monkeypatch)["finisher_paths"] for seed in range(8)]
        assert sum(paths) > 0, paths


# --------------------------------------------------------------------
# end-to-end: exact solvers and peels on the 50-graph matrix
# --------------------------------------------------------------------


@pytest.mark.skipif(not MULTI, reason="only one tier available")
class TestEndToEndBitIdentity:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("h", [2, 3])
    def test_exact_and_core_exact(self, seed, h):
        g = random_graph(22, 60, seed)
        results = {}
        for tier in TIERS:
            accel.select_tier(tier)
            ex = exact_densest(g, h)
            ce = core_exact_densest(g, h)
            results[tier] = (
                frozenset(ex.vertices), ex.density, ex.iterations,
                frozenset(ce.vertices), ce.density, ce.iterations,
            )
        base = results[TIERS[0]]
        for tier in TIERS[1:]:
            assert results[tier] == base, tier

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("h", [2, 3])
    def test_decomposition_and_peels(self, seed, h):
        g = random_graph(24, 70, seed + 30)
        results = {}
        for tier in TIERS:
            accel.select_tier(tier)
            dec = clique_core_decomposition(g, h)
            peel = peel_densest(g, h)
            results[tier] = (
                tuple(sorted(dec.core.items())), dec.kmax,
                dec.best_residual_density, frozenset(dec.best_residual_vertices),
                tuple(dec.peel_order),
                frozenset(peel.vertices), peel.density, peel.iterations,
            )
        base = results[TIERS[0]]
        for tier in TIERS[1:]:
            assert results[tier] == base, tier

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_core_exact_h4(self, seed):
        g = random_graph(18, 55, seed + 70)
        results = {}
        for tier in TIERS:
            accel.select_tier(tier)
            ce = core_exact_densest(g, 4)
            results[tier] = (frozenset(ce.vertices), ce.density)
        base = results[TIERS[0]]
        for tier in TIERS[1:]:
            assert results[tier] == base, tier
