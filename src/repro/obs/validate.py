"""Schema validation for JSONL trace files.

A trace (as written by ``obs.enable(sink=path)`` / ``REPRO_TRACE=path``)
is one JSON object per line.  Four record types:

``meta``
    The header: ``{"type": "meta", "env": {...}, "clock": str}``.
    ``env`` must carry the fingerprint keys (python, platform, numpy,
    numba, active_tier).
``span``
    A closed timed scope: name (str), seq (int >= 1), depth (int >= 0),
    parent (str or null), dur_s (float >= 0), optional t0_s (monotonic
    start time, float >= 0), optional attrs (object).
``event``
    A one-shot record: name (str), seq, depth, fields (object).  Every
    event name the package emits has an entry in :data:`EVENT_SCHEMAS`
    describing its required and optional fields -- the registry is the
    single source of truth consumed both by this validator and by the
    ``obs-coverage`` rule of :mod:`repro.analysis`, which flags any
    ``obs.event(...)`` call whose name is missing here (schema drift
    fails the lint, not a production trace read).
``summary``
    The trailer: the :meth:`repro.obs.Collector.summary` rollup keys
    (env, spans, events, counters, flow).

Hand-rolled on purpose: no jsonschema dependency, and the checks double
as executable documentation of the trace format.  CLI::

    python -m repro.obs.validate trace.jsonl
"""

from __future__ import annotations

import json
import sys
from typing import Iterable, NamedTuple

ENV_KEYS = ("python", "platform", "numpy", "numba", "active_tier")
FLOW_MODES = ("noop", "advance", "retreat", "cold")
SUMMARY_KEYS = ("env", "spans", "events", "counters", "flow", "serve")


class Field(NamedTuple):
    """One field of an event schema.

    ``kind`` is ``"str"`` / ``"number"`` / ``"int"``; ``choices``
    restricts string values; ``nonneg`` restricts numeric ones.
    """

    kind: str
    required: bool = True
    choices: tuple = ()
    nonneg: bool = False


#: Schema of every obs event the package emits, by event name.  An
#: ``obs.event("x", ...)`` call anywhere in ``repro`` without an ``"x"``
#: entry here is a lint error (``obs-coverage``): new telemetry must
#: declare its shape before it ships.
EVENT_SCHEMAS: dict[str, dict[str, Field]] = {
    # one per parametric max-flow solve (flow/parametric.py)
    "flow.solve": {
        "alpha": Field("number"),
        "mode": Field("str", choices=FLOW_MODES),
        "tier": Field("str"),
        "nodes": Field("int"),
        "arcs": Field("int"),
        "seconds": Field("number", required=False, nonneg=True),
        "bfs_mode": Field("str", required=False),
        "bfs_passes": Field("int", required=False, nonneg=True),
        "augments": Field("int", required=False, nonneg=True),
        "rounds": Field("int", required=False, nonneg=True),
    },
    # a cooperative budget expiring (guard/__init__.py)
    "guard.deadline": {
        "site": Field("str"),
        "reason": Field("str"),
        "elapsed_s": Field("number", nonneg=True),
        "solves": Field("int", required=False, nonneg=True),
        "rounds": Field("int", required=False, nonneg=True),
    },
    # one per CliqueIndex build (cliques/index.py)
    "cliques.index": {
        "h": Field("int"),
        "n": Field("int", nonneg=True),
        "m": Field("int", nonneg=True),
        "incidence": Field("int", nonneg=True),
        "kernel": Field("str"),
        "seconds": Field("number", nonneg=True),
    },
    # one per induced-subgraph row selection (cliques/index.py)
    "cliques.subindex": {
        "h": Field("int"),
        "n": Field("int", nonneg=True),
        "m": Field("int", nonneg=True),
        "parent_m": Field("int", nonneg=True),
        "incidence": Field("int", nonneg=True),
    },
    # snapshot resolved from the in-memory cache tier (serve/cache.py)
    "serve.hit": {
        "key": Field("str"),
        "h": Field("int"),
    },
    # snapshot not cached anywhere: the full precompute ran (serve/cache.py)
    "serve.miss": {
        "key": Field("str"),
        "h": Field("int"),
        "seconds": Field("number", required=False, nonneg=True),
    },
    # snapshot reconstructed from the persistence tier (serve/store.py)
    "serve.load": {
        "key": Field("str"),
        "h": Field("int"),
        "seconds": Field("number", required=False, nonneg=True),
        "bytes": Field("int", required=False, nonneg=True),
    },
}


def _check(cond: bool, errors: list, lineno: int, message: str) -> None:
    if not cond:
        errors.append(f"line {lineno}: {message}")


def _check_field(
    name: str, field: Field, value, errors: list, lineno: int, context: str
) -> None:
    if field.kind == "str":
        _check(isinstance(value, str), errors, lineno, f"{context} {name} must be str")
        if field.choices:
            _check(
                value in field.choices, errors, lineno,
                f"{context} {name} must be one of {field.choices}",
            )
        return
    if field.kind == "int":
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:  # "number"
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    _check(ok, errors, lineno, f"{context} {name} must be a number")
    if ok and field.nonneg:
        _check(value >= 0, errors, lineno, f"{context} {name} must be >= 0")


def _check_event_fields(name: str, fields: dict, errors: list, lineno: int) -> None:
    schema = EVENT_SCHEMAS.get(name)
    if schema is None:
        # Unknown names are tolerated at trace-read time (old readers,
        # new traces); the lint gate is what keeps the registry complete.
        return
    for fname, field in schema.items():
        if fname not in fields:
            _check(not field.required, errors, lineno, f"{name} missing {fname!r}")
            continue
        _check_field(fname, field, fields[fname], errors, lineno, name)


def validate_records(lines: Iterable[str]) -> tuple[int, list[str]]:
    """Validate trace lines; returns ``(record_count, errors)``."""
    errors: list[str] = []
    count = 0
    last_seq = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        count += 1
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(rec, dict):
            errors.append(f"line {lineno}: not a JSON object")
            continue
        kind = rec.get("type")
        if kind == "meta":
            env = rec.get("env")
            _check(isinstance(env, dict), errors, lineno, "meta.env must be an object")
            if isinstance(env, dict):
                for key in ENV_KEYS:
                    _check(key in env, errors, lineno, f"meta.env missing {key!r}")
        elif kind == "span":
            _check(isinstance(rec.get("name"), str), errors, lineno, "span.name must be str")
            seq = rec.get("seq")
            _check(isinstance(seq, int) and seq >= 1, errors, lineno, "span.seq must be int >= 1")
            if isinstance(seq, int):
                _check(seq > last_seq, errors, lineno, "span.seq must increase")
                last_seq = max(last_seq, seq)
            depth = rec.get("depth")
            _check(
                isinstance(depth, int) and depth >= 0, errors, lineno,
                "span.depth must be int >= 0",
            )
            _check(
                rec.get("parent") is None or isinstance(rec["parent"], str),
                errors, lineno, "span.parent must be str or null",
            )
            dur = rec.get("dur_s")
            _check(
                isinstance(dur, (int, float)) and dur >= 0, errors, lineno,
                "span.dur_s must be a number >= 0",
            )
            if "t0_s" in rec:
                t0 = rec["t0_s"]
                _check(
                    isinstance(t0, (int, float)) and t0 >= 0, errors, lineno,
                    "span.t0_s must be a number >= 0",
                )
            _check(
                "attrs" not in rec or isinstance(rec["attrs"], dict),
                errors, lineno, "span.attrs must be an object",
            )
        elif kind == "event":
            name = rec.get("name")
            _check(isinstance(name, str), errors, lineno, "event.name must be str")
            seq = rec.get("seq")
            _check(isinstance(seq, int) and seq >= 1, errors, lineno, "event.seq must be int >= 1")
            if isinstance(seq, int):
                _check(seq > last_seq, errors, lineno, "event.seq must increase")
                last_seq = max(last_seq, seq)
            fields = rec.get("fields")
            _check(isinstance(fields, dict), errors, lineno, "event.fields must be an object")
            if isinstance(name, str) and isinstance(fields, dict):
                _check_event_fields(name, fields, errors, lineno)
        elif kind == "summary":
            for key in SUMMARY_KEYS:
                _check(key in rec, errors, lineno, f"summary missing {key!r}")
        else:
            errors.append(f"line {lineno}: unknown record type {kind!r}")
    if count == 0:
        errors.append("trace is empty")
    return count, errors


def validate_trace(path: str) -> tuple[int, list[str]]:
    """Validate the JSONL trace file at ``path``."""
    with open(path, encoding="utf-8") as handle:
        return validate_records(handle)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.validate <trace.jsonl>", file=sys.stderr)
        return 2
    count, errors = validate_trace(argv[0])
    if errors:
        for err in errors:
            print(err, file=sys.stderr)
        print(f"INVALID: {len(errors)} error(s) in {count} record(s)", file=sys.stderr)
        return 1
    print(f"OK: {count} schema-valid record(s) in {argv[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
