"""Chaos smoke: exercise the resilience layer end to end.

Runs a battery of fault-injection, budget-degradation, and sanitizer
scenarios against small random graphs and exits non-zero if any
contract is violated::

    python -m repro.guard.chaos        # or: make chaos-smoke

Scenarios
---------
* every accel kernel that has a fallback tier on this interpreter is
  made to fail (``guard.faults``) mid-run; the run must complete with a
  bit-identical result, a demotion in ``accel.failover_log()``, and the
  ``accel.failover`` counter;
* exhausting a kernel's whole chain must surface the injected fault to
  the caller (no silent wrong answer);
* a dead deadline and a one-solve budget must both yield degraded
  results whose ``stats`` carry a verifiable density bracket, and the
  API fallback must honour the peel 1/h bound;
* the invariant sanitizer must stay silent on healthy solves.

Everything is restored in a ``finally`` (registry rebuild, fault plan
reset, checks off), so the process is reusable afterwards.
"""

from __future__ import annotations

import random
import sys
import warnings

from .. import accel, guard, obs
from ..core.clique_core import clique_core_decomposition
from ..core.core_exact import core_exact_densest
from ..core.exact import exact_densest
from ..core.peel import peel_densest
from ..flow.builders import build_eds_parametric
from ..graph.graph import Graph
from . import faults

FAILURES: list[str] = []


def _scenario(name: str, ok: bool, detail: str = "") -> None:
    status = "ok" if ok else "FAIL"
    line = f"[{status}] {name}" + (f": {detail}" if detail else "")
    print(line)
    if not ok:
        FAILURES.append(line)


def _random_graph(n: int = 60, m: int = 300, seed: int = 11) -> Graph:
    rng = random.Random(seed)
    g = Graph()
    while g.num_edges < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


def _reset() -> None:
    faults.reset()
    accel.select_tier(accel.TIER)  # rebuild: clears demotions + failover log


# --- per-kernel drive functions (clean vs faulted comparable output) --


def _drive_dinic(g: Graph):
    r = exact_densest(g, 2)
    return (frozenset(r.vertices), r.density)


def _drive_ggt_retreat(g: Graph):
    net = build_eds_parametric(g)
    hi = net.solve(2.0)
    lo = net.solve(0.5)  # decreasing alpha: the retreat/drain path
    return (frozenset(hi), frozenset(lo))


def _drive_bucket_peel(g: Graph):
    r = clique_core_decomposition(g, 2)
    return (tuple(sorted(r.core.items())), frozenset(r.best_residual_vertices))


def _drive_heap_peel(g: Graph):
    r = peel_densest(g, 2)
    return (frozenset(r.vertices), r.density)


DRIVERS = {
    "dinic": _drive_dinic,
    "ggt_retreat": _drive_ggt_retreat,
    "bucket_peel": _drive_bucket_peel,
    "heap_peel": _drive_heap_peel,
}


def run() -> int:
    g = _random_graph()
    was_checking = guard.CHECK
    try:
        # ---- kernel failover: inject, complete, compare -------------
        for kernel, drive in DRIVERS.items():
            chain = accel.kernel_chain(kernel)
            if accel.get(kernel) is None or len(chain) < 2:
                _scenario(f"failover.{kernel}", True, f"skipped (chain={chain})")
                continue
            _reset()
            clean = drive(g)
            _reset()
            faults.inject(kernel, nth=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                faulted = drive(g)
            log = accel.failover_log()
            _scenario(
                f"failover.{kernel}",
                faulted == clean
                and len(log) == 1
                and log[0]["kernel"] == kernel
                and log[0]["from_tier"] == chain[0]
                and len(faults.fired()) == 1,
                f"{chain[0]} -> {accel.kernel_tiers()[kernel]}",
            )
            _reset()

        # ---- chain exhaustion: the fault must surface ---------------
        chain = accel.kernel_chain("dinic")
        _reset()
        for nth in range(1, len(chain) + 1):
            faults.inject("dinic", nth=nth)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _drive_dinic(g)
            _scenario("exhaustion.dinic", False, "injected fault was swallowed")
        except faults.InjectedFault:
            _scenario("exhaustion.dinic", True, f"surfaced after {len(chain)} tiers")
        _reset()

        # ---- budget degradation -------------------------------------
        from ..api import densest_subgraph

        clean = densest_subgraph(g, 2, method="exact")
        with guard.Budget(deadline_s=0.0):
            r = densest_subgraph(g, 2, method="exact")
        ok = (
            r.stats.get("degraded") is True
            and r.stats["density_lower_bound"] - 1e-9
            <= clean.density
            <= r.stats["density_upper_bound"] + 1e-9
            and r.density >= clean.density / 2.0 - 1e-9  # peel 1/h bound, h=2
        )
        _scenario("budget.deadline", ok, f"incumbent={r.stats.get('degraded_incumbent')}")

        with guard.Budget(max_solves=2):
            r = core_exact_densest(g, 2)
        ok = not r.stats.get("degraded") or (
            r.stats["density_lower_bound"] - 1e-9
            <= clean.density
            <= r.stats["density_upper_bound"] + 1e-9
        )
        _scenario(
            "budget.max_solves",
            ok,
            "degraded" if r.stats.get("degraded") else "finished within budget",
        )

        # ---- sanitizer: silent on healthy solves --------------------
        guard.enable_checks()
        try:
            core_exact_densest(g, 2)
            peel_densest(_random_graph(seed=12), 2)
            exact_densest(_random_graph(seed=13), 3)
            _scenario("sanitizer.healthy", True)
        except guard.SanitizerError as exc:
            _scenario("sanitizer.healthy", False, str(exc))
        finally:
            if not was_checking:
                guard.disable_checks()
    finally:
        faults.reset()
        accel.select_tier(accel.TIER)
        if was_checking:
            guard.enable_checks()

    if FAILURES:
        print(f"\nCHAOS SMOKE FAILED: {len(FAILURES)} scenario(s)", file=sys.stderr)
        return 1
    print("\nchaos smoke passed")
    return 0


def main() -> int:
    if obs.ENABLED:  # keep the smoke's counters out of a live trace
        print("warning: tracing enabled; chaos counters will land in the trace")
    return run()


if __name__ == "__main__":
    raise SystemExit(main())
