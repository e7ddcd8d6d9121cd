"""Solver resilience layer: budgets, degradation, sanitizing.

The solvers in this package are exact algorithms with unbounded worst
cases: a hostile graph can hold one :func:`~repro.api.densest_subgraph`
call in flow solves indefinitely, and silently malformed input produces
silently wrong densities.  This package is the containment layer the
serving layer builds on.  Two pieces:

**Budgets** (:class:`Budget`).  A context manager installing a
cooperative budget -- wall-clock deadline, max flow solves, max network
size -- that the solvers check at the instrumentation points the obs
layer already owns: one flag test per flow solve and per peel round.
On expiry the checkpoint raises :class:`BudgetExceeded`; the solvers
catch it and **degrade instead of failing**: Exact returns its best
breakpoint-walk incumbent, CoreExact the densest pruned-core incumbent,
peel its best residual subgraph so far, and the api falls back to the
peel ``1/h``-approximation when the exact search died before producing
any cut.  Every degraded result carries ``stats["degraded"]`` with the
site, the recomputed density lower bound, a sound upper bound, and the
budget post-mortem; a ``guard.deadline`` obs event records where the
budget died.  Disabled cost is one module-attribute read per
checkpoint, same discipline as ``obs.ENABLED``.

**Invariant sanitizer** (:mod:`repro.guard.sanitize`).  ``REPRO_CHECK=1``
(or :func:`enable_checks`) validates flow conservation, capacity
feasibility and the max-flow/min-cut duality after every solve, plus
peel monotonicity and final-result density recomputation -- silent
wrong answers become loud ones.

``make chaos-smoke`` (:mod:`repro.guard.chaos`) drives both end to end.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from .. import env, obs
from .sanitize import SanitizerError

__all__ = [
    "Budget",
    "BudgetExceeded",
    "SanitizerError",
    "current",
    "suspended",
    "enable_checks",
    "disable_checks",
    "degraded_stats",
]

#: The installed budget (or None).  Solvers read this once per
#: checkpoint -- the entire disabled-mode cost of the deadline layer.
ACTIVE: Optional["Budget"] = None

#: Whether the invariant sanitizer runs after each solve.  Seeded from
#: ``REPRO_CHECK`` at import; flip at runtime with
#: :func:`enable_checks` / :func:`disable_checks`.
CHECK = False

#: Event name for budget expiry (schema in :mod:`repro.obs.validate`).
GUARD_DEADLINE = "guard.deadline"


class BudgetExceeded(RuntimeError):
    """Raised at a cooperative checkpoint when the active budget is spent.

    Solver layers that hold a partial answer catch this on the way up,
    attach it via :meth:`attach_incumbent` (innermost attachment wins:
    it is the most refined), and re-raise; the top-level solver turns
    the exception into a degraded result.
    """

    def __init__(self, site: str, reason: str, budget: "Budget"):
        super().__init__(f"budget exhausted at {site}: {reason}")
        self.site = site
        self.reason = reason
        self.budget = budget
        self.incumbent: Optional[set] = None
        self.incumbent_density: float = 0.0

    def attach_incumbent(self, vertices: Optional[set], density: float) -> None:
        """Record the best feasible subgraph known at the raise site."""
        if self.incumbent is None and vertices:
            self.incumbent = set(vertices)
            self.incumbent_density = density


class Budget:
    """Cooperative resource budget for a block of solver work.

    Parameters
    ----------
    deadline_s:
        Wall-clock allowance in seconds (monotonic clock), checked at
        every flow solve and peel round.
    max_solves:
        Maximum number of max-flow solves.
    max_arcs:
        Largest flow network (forward-arc count) the budget permits; a
        solve on a bigger network expires the budget *before* running,
        so a request degrades instead of attempting work it was sized
        against.

    All limits are optional and combine with AND-of-violations (the
    first one hit expires the budget).  Budgets nest: the innermost
    installed budget is the one checked, and the outer one is restored
    on exit.  Once expired, a budget stays expired -- later checkpoints
    under it re-raise immediately.
    """

    __slots__ = (
        "deadline_s", "max_solves", "max_arcs",
        "started", "_deadline_at", "solves", "rounds", "expired", "_prev",
    )

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        max_solves: Optional[int] = None,
        max_arcs: Optional[int] = None,
    ):
        limits = {"deadline_s": deadline_s, "max_solves": max_solves, "max_arcs": max_arcs}
        for name, value in limits.items():
            # ``not >=`` also rejects NaN, which no comparison would ever fire on
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if deadline_s is None and max_solves is None and max_arcs is None:
            raise ValueError("Budget needs at least one limit")
        self.deadline_s = deadline_s
        self.max_solves = max_solves
        self.max_arcs = max_arcs
        self.started = 0.0
        self._deadline_at = math.inf
        self.solves = 0
        self.rounds = 0
        self.expired: Optional[tuple[str, str]] = None
        self._prev: Optional[Budget] = None

    def __enter__(self) -> "Budget":
        global ACTIVE
        self.started = time.monotonic()
        if self.deadline_s is not None:
            self._deadline_at = self.started + self.deadline_s
        self.solves = 0
        self.rounds = 0
        self.expired = None
        self._prev = ACTIVE
        ACTIVE = self
        return self

    def __exit__(self, *exc_info) -> None:
        global ACTIVE
        ACTIVE = self._prev
        self._prev = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def _expire(self, site: str, reason: str) -> None:
        self.expired = (site, reason)
        if obs.ENABLED:
            obs.event(
                GUARD_DEADLINE,
                site=site,
                reason=reason,
                elapsed_s=self.elapsed(),
                solves=self.solves,
                rounds=self.rounds,
            )
            obs.counter("guard.expired")
        raise BudgetExceeded(site, reason, self)

    def tick_solve(self, arcs: int, site: str = "flow.solve") -> None:
        """Checkpoint before a max-flow solve on an ``arcs``-arc network."""
        if self.expired is not None:
            raise BudgetExceeded(self.expired[0], self.expired[1], self)
        if self.max_arcs is not None and arcs > self.max_arcs:
            self._expire(site, f"network of {arcs} arcs exceeds max_arcs={self.max_arcs}")
        self.solves += 1
        if self.max_solves is not None and self.solves > self.max_solves:
            self._expire(site, f"solve #{self.solves} exceeds max_solves={self.max_solves}")
        if time.monotonic() >= self._deadline_at:
            self._expire(site, f"deadline_s={self.deadline_s} elapsed")

    def tick_round(self, site: str = "peel.round") -> None:
        """Checkpoint at a peel-round boundary (deadline only)."""
        if self.expired is not None:
            raise BudgetExceeded(self.expired[0], self.expired[1], self)
        self.rounds += 1
        if time.monotonic() >= self._deadline_at:
            self._expire(site, f"deadline_s={self.deadline_s} elapsed")

    def snapshot(self) -> dict:
        """Post-mortem dict for ``stats["budget"]`` of a degraded result."""
        return {
            "deadline_s": self.deadline_s,
            "max_solves": self.max_solves,
            "max_arcs": self.max_arcs,
            "elapsed_s": self.elapsed(),
            "solves": self.solves,
            "rounds": self.rounds,
            "expired": self.expired is not None,
            "expired_site": self.expired[0] if self.expired else None,
            "expired_reason": self.expired[1] if self.expired else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Budget(deadline_s={self.deadline_s}, max_solves={self.max_solves}, "
            f"max_arcs={self.max_arcs}, expired={self.expired})"
        )


def current() -> Optional[Budget]:
    """The installed budget, if any."""
    return ACTIVE


class suspended:
    """Context manager masking the active budget inside its block.

    Used by the api's degradation fallback: the cheap peel pass that
    replaces a budget-killed exact solve must itself run to completion,
    or degradation could recurse forever.
    """

    __slots__ = ("_prev",)

    def __enter__(self) -> None:
        global ACTIVE
        self._prev = ACTIVE
        ACTIVE = None

    def __exit__(self, *exc_info) -> None:
        global ACTIVE
        ACTIVE = self._prev


def enable_checks() -> None:
    """Turn the invariant sanitizer on (same effect as ``REPRO_CHECK=1``)."""
    global CHECK
    CHECK = True


def disable_checks() -> None:
    global CHECK
    CHECK = False


def degraded_stats(
    exc: BudgetExceeded,
    *,
    incumbent_source: str,
    lower: float,
    upper: Optional[float],
) -> dict:
    """Uniform ``stats`` annotation for a budget-degraded result.

    ``lower`` is the returned subgraph's (exact, recomputable) density;
    ``upper`` a sound bound on the true optimum -- together they bracket
    how far the degraded answer can be from optimal.
    """
    return {
        "degraded": True,
        "degraded_at": exc.site,
        "degraded_reason": exc.reason,
        "degraded_incumbent": incumbent_source,
        "density_lower_bound": lower,
        "density_upper_bound": upper,
        "budget": exc.budget.snapshot(),
    }


if env.switch("REPRO_CHECK"):
    CHECK = True
