"""Chaos smoke: exercise the resilience layer end to end.

Runs a battery of budget-degradation and sanitizer scenarios against
small random graphs and exits non-zero if any contract is violated::

    python -m repro.guard.chaos        # or: make chaos-smoke

Scenarios
---------
* a dead deadline and a one-solve budget must both yield degraded
  results whose ``stats`` carry a verifiable density bracket, and the
  API fallback must honour the peel 1/h bound;
* the invariant sanitizer must stay silent on healthy solves.

The sanitizer is restored in a ``finally``, so the process is reusable
afterwards.
"""

from __future__ import annotations

import random
import sys

from .. import guard, obs
from ..core.core_exact import core_exact_densest
from ..core.exact import exact_densest
from ..core.peel import peel_densest
from ..graph.graph import Graph

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


def run() -> int:
    from ..api import densest_subgraph

    g = _random_graph()

    # ---- budget degradation -----------------------------------------
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

    # ---- sanitizer: silent on healthy solves ------------------------
    was_checking = guard.CHECK
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
