"""Solver-wide tracing & metrics -- the observability layer.

Every layer of this package (flow solvers, the accel kernels,
the clique index, the exact/approximate solvers, the public API)
reports what it does through this module, so a single run yields a
complete nested profile: which phases ran, how long each took, how many
max-flow solves happened at which α, warm or cold, on which accel tier,
with how many BFS passes and augmenting paths.

Three primitives, one collector:

* :func:`span` -- a hierarchical timed scope (context manager).  Spans
  *always* time themselves with the monotonic clock (the solvers build
  their legacy ``stats`` dicts from ``span.seconds``, so the numbers in
  ``stats`` and in the trace are the same floats); recording into the
  collector / sink happens only while tracing is enabled.
* :func:`event` -- a one-shot structured record (e.g. one per max-flow
  solve).  No-op unless enabled.
* :func:`counter` -- a named monotonic counter.  No-op unless enabled.

**Overhead discipline.**  The module-level :data:`ENABLED` flag is
checked once per call; hot paths (the accel dispatchers, the per-solve
telemetry in :mod:`repro.flow.parametric`) guard *all* their
record-building behind it, so with tracing off the cost is one module
attribute read per instrumentation point (the overhead guard in
``tests/test_obs.py`` bounds it at <= 2% of a bench-smoke cell on every
accel tier).

**Enabling.**  ``obs.enable()`` in code, or the ``REPRO_TRACE``
environment variable at import: ``REPRO_TRACE=1`` turns on the
in-memory collector; any other non-empty value is taken as a file path
and additionally streams every record as JSON lines to that file
(schema in :mod:`repro.obs.validate`; the file gains a ``meta`` header
line with the environment fingerprint and a final ``summary`` line on
:func:`close`).

**Reading a trace.**  In memory: ``obs.get_collector().records`` (raw),
``obs.summary()`` (rollup: per-span totals, event counts, counters, and
the flow-solve aggregate -- warm/cold split, per-mode and per-tier solve
counts, BFS/DFS pass totals).  On disk: one JSON object per line; see
``README.md`` ("Observability") for the event-name reference.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time
from typing import Optional, TextIO

from .. import env

__all__ = [
    "ENABLED",
    "Collector",
    "Span",
    "enabled",
    "enable",
    "disable",
    "reset",
    "span",
    "event",
    "counter",
    "get_collector",
    "summary",
    "close",
    "env_fingerprint",
]

#: Module-level enabled flag -- the single check every instrumentation
#: point performs.  Toggle via :func:`enable` / :func:`disable` (or
#: ``REPRO_TRACE`` at import), never by assignment from outside.
ENABLED = False

#: Event name of the per-max-flow-solve record emitted by
#: :meth:`repro.flow.parametric.ParametricNetwork._solve_residual`.
FLOW_SOLVE = "flow.solve"

#: Span-event modes counted as warm in the flow rollup (everything the
#: warm-start repertoire covers; ``"cold"`` is the set_alpha reset).
WARM_MODES = ("noop", "advance", "retreat")


class Collector:
    """In-memory trace store: ordered records plus named counters.

    ``records`` is the flat, time-ordered list of span/event dicts;
    ``counters`` maps counter name to its running total.  The
    :meth:`summary` rollup is the machine-readable per-run profile the
    benches attach to their JSON artefacts.
    """

    __slots__ = ("records", "counters", "_seq")

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.counters: dict[str, int] = {}
        self._seq = 0

    def clear(self) -> None:
        self.records.clear()
        self.counters.clear()
        self._seq = 0

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def add(self, record: dict) -> None:
        self.records.append(record)
        if _sink is not None:
            _flush_meta()
            _sink.write(json.dumps(record, sort_keys=True) + "\n")

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # --- read access ---------------------------------------------------

    def spans(self, name: Optional[str] = None) -> list[dict]:
        """Span records, optionally filtered by name."""
        return [
            r for r in self.records
            if r["type"] == "span" and (name is None or r["name"] == name)
        ]

    def events(self, name: Optional[str] = None) -> list[dict]:
        """Event records, optionally filtered by name."""
        return [
            r for r in self.records
            if r["type"] == "event" and (name is None or r["name"] == name)
        ]

    def summary(self) -> dict:
        """Roll the raw records up into a per-run profile.

        Returns ``{"env", "spans", "events", "counters", "flow",
        "serve"}``: per-span-name call counts and total seconds,
        per-event-name counts, the counter map, the flow-solve
        aggregate (solve count, warm/cold split, per-mode / per-tier /
        per-BFS-mode counts, the BFS-pass, augmenting-path and batched-
        round totals, total solve seconds), and the
        snapshot-cache rollup (hit/miss/load counts, evictions per
        tier, and the hit ratio ``(hits + loads) / lookups`` -- the
        serving layer's load metric; ``None`` before any lookup).
        """
        spans: dict[str, dict] = {}
        events: dict[str, int] = {}
        flow = {
            "solves": 0,
            "warm": 0,
            "cold": 0,
            "modes": {},
            "tiers": {},
            "bfs_modes": {},
            "bfs_passes": 0,
            "augments": 0,
            "rounds": 0,
            "seconds": 0.0,
        }
        for rec in self.records:
            if rec["type"] == "span":
                agg = spans.setdefault(rec["name"], {"count": 0, "total_s": 0.0})
                agg["count"] += 1
                agg["total_s"] += rec["dur_s"]
                continue
            name = rec["name"]
            events[name] = events.get(name, 0) + 1
            if name == FLOW_SOLVE:
                fields = rec["fields"]
                flow["solves"] += 1
                mode = fields.get("mode", "cold")
                flow["warm" if mode in WARM_MODES else "cold"] += 1
                flow["modes"][mode] = flow["modes"].get(mode, 0) + 1
                tier = fields.get("tier")
                if tier is not None:
                    flow["tiers"][tier] = flow["tiers"].get(tier, 0) + 1
                bfs_mode = fields.get("bfs_mode")
                if bfs_mode is not None:
                    flow["bfs_modes"][bfs_mode] = flow["bfs_modes"].get(bfs_mode, 0) + 1
                flow["bfs_passes"] += fields.get("bfs_passes", 0) or 0
                flow["augments"] += fields.get("augments", 0) or 0
                flow["rounds"] += fields.get("rounds", 0) or 0
                flow["seconds"] += fields.get("seconds", 0.0) or 0.0
        counters = dict(self.counters)
        hits = counters.get("serve.hits", 0)
        misses = counters.get("serve.misses", 0)
        loads = counters.get("serve.loads", 0)
        lookups = hits + misses + loads
        serve = {
            "hits": hits,
            "misses": misses,
            "loads": loads,
            "precomputes": counters.get("serve.precomputes", 0),
            "evictions": {
                "memory": counters.get("serve.evictions.memory", 0),
                "store": counters.get("serve.evictions.store", 0),
            },
            "hit_ratio": ((hits + loads) / lookups) if lookups else None,
        }
        return {
            "env": env_fingerprint(),
            "spans": spans,
            "events": events,
            "counters": counters,
            "flow": flow,
            "serve": serve,
        }


_collector = Collector()
_stack: list[str] = []  # names of the open spans, innermost last
_sink: Optional[TextIO] = None
_sink_owned = False
_meta_pending = False  # write the meta header before the first record


def _flush_meta() -> None:
    """Write the deferred ``meta`` header line to the sink.

    Deferred (rather than written inside :func:`enable`) because with
    ``REPRO_TRACE=<path>`` enabling happens at import, when the accel
    registry the fingerprint reports may still be mid-initialisation.
    """
    global _meta_pending
    if _meta_pending and _sink is not None:
        _meta_pending = False
        _sink.write(
            json.dumps(
                {"type": "meta", "env": env_fingerprint(), "clock": "perf_counter"},
                sort_keys=True,
            )
            + "\n"
        )


class Span:
    """A timed scope.  Always measures ``seconds``; records only when
    tracing was enabled at ``__enter__``.

    Usage::

        with obs.span("exact.flow", h=3) as sp:
            ...
        stats["flow_seconds"] = sp.seconds
    """

    __slots__ = ("name", "attrs", "seconds", "_t0", "_recording", "_parent")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.seconds = 0.0
        self._t0 = 0.0
        self._recording = False
        self._parent: Optional[str] = None

    def __enter__(self) -> "Span":
        if ENABLED:
            self._recording = True
            self._parent = _stack[-1] if _stack else None
            _stack.append(self.name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._t0
        if self._recording:
            # pop our own frame even if inner code misbehaved; the name
            # search tolerates spans closed out of order under exceptions
            if _stack and _stack[-1] == self.name:
                _stack.pop()
            elif self.name in _stack:  # pragma: no cover - exception paths
                _stack.remove(self.name)
            rec = {
                "type": "span",
                "name": self.name,
                "seq": _collector.next_seq(),
                "depth": len(_stack),
                "parent": self._parent,
                "t0_s": self._t0,
                "dur_s": self.seconds,
            }
            if self.attrs:
                rec["attrs"] = self.attrs
            _collector.add(rec)


def enabled() -> bool:
    """Whether tracing is currently on."""
    return ENABLED


def enable(sink: Optional[object] = None, fresh: bool = True) -> None:
    """Turn tracing on.

    Parameters
    ----------
    sink:
        Optional JSONL destination: a path (str / PathLike, opened and
        owned by this module -- :func:`close` closes it) or a file-like
        object with ``write``.  Omitted: in-memory collection only.
    fresh:
        Clear the collector first (default).  Pass ``False`` to resume
        accumulating into the existing records.
    """
    global ENABLED, _sink, _sink_owned, _meta_pending
    if fresh:
        reset()
    if sink is not None:
        if hasattr(sink, "write"):
            _sink = sink
            _sink_owned = False
        else:
            _sink = open(os.fspath(sink), "w", encoding="utf-8")
            _sink_owned = True
        _meta_pending = True
    ENABLED = True


def disable() -> None:
    """Turn tracing off (collector contents are kept until :func:`reset`)."""
    global ENABLED
    ENABLED = False
    _stack.clear()


def reset() -> None:
    """Clear the collector and the span stack (does not touch the sink)."""
    _collector.clear()
    _stack.clear()


def close() -> None:
    """Write the summary line to the sink (if any) and release it."""
    global _sink, _sink_owned, _meta_pending
    if _sink is not None:
        _flush_meta()
        _sink.write(
            json.dumps({"type": "summary", **_collector.summary()}, sort_keys=True) + "\n"
        )
        if _sink_owned:
            _sink.close()
        _sink = None
        _sink_owned = False
        _meta_pending = False


def get_collector() -> Collector:
    """The module's collector (a process-wide singleton)."""
    return _collector


def summary() -> dict:
    """Shortcut for ``get_collector().summary()``."""
    return _collector.summary()


def span(name: str, **attrs) -> Span:
    """A new :class:`Span`; enter it with ``with``."""
    return Span(name, attrs)


def event(name: str, **fields) -> None:
    """Record a one-shot structured event (no-op unless enabled)."""
    if not ENABLED:
        return
    _collector.add(
        {
            "type": "event",
            "name": name,
            "seq": _collector.next_seq(),
            "depth": len(_stack),
            "fields": fields,
        }
    )


def counter(name: str, n: int = 1) -> None:
    """Increment a named counter (no-op unless enabled)."""
    if ENABLED:
        _collector.inc(name, n)


def env_fingerprint() -> dict:
    """The run environment, for cross-run comparability of artefacts.

    Python version and platform, the numpy version the solvers see
    (``None`` under ``REPRO_NO_NUMPY``, even with numpy installed) and
    the active accel tier.  ``numba`` is always ``None``: no tier
    compiles code, and the key stays because the benchmark harness
    records it and older trajectory entries carry it.
    """
    import platform

    from .. import accel  # late: accel itself imports this module

    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "numpy": accel.np.__version__ if accel.np is not None else None,
        "numba": None,
        "active_tier": accel.TIER,
    }


# --- REPRO_TRACE: configure at import --------------------------------

_env_value = env.text("REPRO_TRACE")
if _env_value:
    if _env_value.lower() in ("1", "true", "yes", "on"):
        enable()
    else:
        enable(sink=_env_value)
        atexit.register(close)
