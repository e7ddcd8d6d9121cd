"""SQLite persistence tier: warm snapshot state survives process restarts.

One :class:`SnapshotStore` owns ``<root>/snapshots.sqlite`` in WAL mode
(concurrent readers never block each other or a writer -- the shape the
serving layer needs for many processes answering off one store).  Two
tables:

``snapshots``
    One row per stored snapshot: the content-hash key, ``h``, the EPS
    the flow layer was tuned to when the artifact was built, the edge
    count, the env fingerprint, byte size and LRU bookkeeping.
``components``
    One row per connected component in prefix form: its vertex labels,
    innermost cut first (the rows together hold every label once), and
    the breakpoint family's ``fam_alphas`` / ``fam_sizes`` /
    ``fam_counts`` arrays packed as little-endian blobs via
    :mod:`array` -- loadable with or without numpy, byte-exact both
    ways.

The layout is versioned with SQLite's ``user_version``
(:data:`SCHEMA_VERSION`): opening a file written under an older layout
drops and recreates its tables, since the store is a cache and a row
of the old layout cannot be filled by the new insert.

Loading checks the stored EPS against the live
:data:`repro.flow.network.EPS`: a flow-layer retune silently invalidates
every persisted family, so a mismatched row is deleted, not served.
Densities are never persisted as trusted floats -- every cut travels
with its exact integer instance count, and a restored snapshot re-derives
each served density as the same single division the builder performed,
which is the whole bit-identity argument.

When a byte cap is configured, saves evict least-recently-used
snapshots (``last_used_s``; loads refresh it) until the store fits,
counting evictions locally and in ``obs``.
"""

from __future__ import annotations

import json
import sqlite3
import time
from array import array
from pathlib import Path
from typing import Optional

from .. import obs
from ..flow.network import EPS
from .snapshot import ComponentArtifact, Snapshot

__all__ = ["SnapshotStore"]

#: Layout version kept in ``PRAGMA user_version``; version 2 dropped the
#: ``esrc``/``edst``/``inst_rows``/``nodes`` component columns, version 3
#: stores each component in prefix form, has no ``results`` table and
#: keeps the vertex labels in the component rows only.
SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS snapshots (
    key TEXT PRIMARY KEY,
    h INTEGER NOT NULL,
    eps REAL NOT NULL,
    m INTEGER NOT NULL,
    env TEXT NOT NULL,
    nbytes INTEGER NOT NULL,
    created_s REAL NOT NULL,
    last_used_s REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS components (
    key TEXT NOT NULL,
    cid INTEGER NOT NULL,
    labels TEXT NOT NULL,
    fam_alphas BLOB NOT NULL,
    fam_sizes BLOB NOT NULL,
    fam_counts BLOB NOT NULL,
    PRIMARY KEY (key, cid)
);
"""


def _pack_i(values) -> bytes:
    """Ints as a little-endian int64 blob (``array`` -- numpy-free)."""
    return array("q", [int(v) for v in values]).tobytes()


def _unpack_i(blob: bytes) -> list[int]:
    out = array("q")
    out.frombytes(blob)
    return out.tolist()


def _pack_f(values) -> bytes:
    """Floats as a little-endian float64 blob -- exact IEEE-754 bytes."""
    return array("d", [float(v) for v in values]).tobytes()


def _unpack_f(blob: bytes) -> list[float]:
    out = array("d")
    out.frombytes(blob)
    return out.tolist()


class SnapshotStore:
    """Durable artifact store under ``root`` (created if missing).

    Parameters
    ----------
    root:
        Directory holding ``snapshots.sqlite``.
    cap_bytes:
        Optional LRU byte cap over the summed component-blob sizes;
        ``None`` (or 0) stores without bound.
    """

    def __init__(self, root, *, cap_bytes: Optional[int] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "snapshots.sqlite"
        self.cap_bytes = int(cap_bytes) if cap_bytes else None
        self.evictions = 0
        self._conn = sqlite3.connect(str(self.path))
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        (version,) = self._conn.execute("PRAGMA user_version").fetchone()
        if version < SCHEMA_VERSION:
            self._conn.executescript(
                "DROP TABLE IF EXISTS snapshots; DROP TABLE IF EXISTS components; "
                "DROP TABLE IF EXISTS results;"
            )
        self._conn.executescript(_SCHEMA)
        self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        self._conn.commit()

    # --- write ---------------------------------------------------------

    def save(self, snap: Snapshot) -> bool:
        """Persist ``snap`` (idempotent by key); returns success.

        Labels must survive a JSON round trip unchanged; a snapshot whose
        labels do not (a tuple comes back as a list, which is not even
        hashable) simply skips persistence (``False``) rather than
        failing the request that built it, or the next load.
        """
        try:
            comp_labels = [json.dumps(art.labels) for art in snap.components]
        except TypeError:
            return False
        if any(
            json.loads(labels) != art.labels
            for art, labels in zip(snap.components, comp_labels)
        ):
            return False
        now = time.time()
        nbytes = 0
        comp_rows = []
        for art, labels in zip(snap.components, comp_labels):
            blobs = (
                _pack_f(art.fam_alphas),
                _pack_i(art.fam_sizes),
                _pack_i(art.fam_counts),
            )
            nbytes += sum(len(b) for b in blobs) + len(labels)
            comp_rows.append((snap.key, art.cid, labels, *blobs))
        with self._conn:
            self._conn.execute("DELETE FROM components WHERE key = ?", (snap.key,))
            self._conn.executemany(
                "INSERT INTO components VALUES (?, ?, ?, ?, ?, ?)", comp_rows
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO snapshots VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    snap.key, snap.h, snap.eps, snap.num_edges,
                    json.dumps(snap.env), nbytes, now, now,
                ),
            )
        self._evict()
        return True

    def _evict(self) -> None:
        """Drop LRU snapshots until the byte cap holds (newest survives)."""
        if self.cap_bytes is None:
            return
        rows = self._conn.execute(
            "SELECT key, nbytes FROM snapshots ORDER BY last_used_s ASC"
        ).fetchall()
        total = sum(nbytes for _, nbytes in rows)
        for key, nbytes in rows:
            if total <= self.cap_bytes or len(rows) <= 1:
                break
            self.delete(key)
            rows = rows[1:]
            total -= nbytes
            self.evictions += 1
            obs.counter("serve.evictions.store")

    def delete(self, key: str) -> None:
        """Remove one snapshot and its artifacts (no-op if absent)."""
        with self._conn:
            self._conn.execute("DELETE FROM snapshots WHERE key = ?", (key,))
            self._conn.execute("DELETE FROM components WHERE key = ?", (key,))

    # --- read ----------------------------------------------------------

    def load(self, key: str) -> Optional[Snapshot]:
        """Restore a snapshot by key -- no enumeration, no flow.

        Returns ``None`` on a miss, and deletes-then-misses a row whose
        stored EPS differs from the live flow layer's (the persisted
        breakpoint family would no longer match what a cold solve
        computes).
        """
        t0 = time.perf_counter()
        row = self._conn.execute(
            "SELECT h, eps, m, env, nbytes FROM snapshots WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            return None
        h, eps, num_edges, env_json, nbytes = row
        if eps != EPS:
            self.delete(key)
            return None
        components = [
            ComponentArtifact(
                cid=cid,
                labels=json.loads(comp_labels),
                fam_alphas=_unpack_f(alphas),
                fam_sizes=_unpack_i(sizes),
                fam_counts=_unpack_i(counts),
            )
            for cid, comp_labels, alphas, sizes, counts in self._conn.execute(
                "SELECT cid, labels, fam_alphas, fam_sizes, fam_counts FROM components "
                "WHERE key = ? ORDER BY cid",
                (key,),
            )
        ]
        snap = Snapshot.restore(
            key=key,
            h=h,
            eps=eps,
            num_edges=num_edges,
            components=components,
            env=json.loads(env_json),
        )
        with self._conn:
            self._conn.execute(
                "UPDATE snapshots SET last_used_s = ? WHERE key = ?",
                (time.time(), key),
            )
        obs.event(
            "serve.load",
            key=key,
            h=h,
            seconds=time.perf_counter() - t0,
            bytes=int(nbytes),
        )
        obs.counter("serve.loads")
        return snap

    def keys(self) -> list[str]:
        """Stored snapshot keys, most recently used last."""
        return [
            key
            for (key,) in self._conn.execute(
                "SELECT key FROM snapshots ORDER BY last_used_s ASC"
            )
        ]

    def stats(self) -> dict:
        """Store occupancy: snapshot count, total bytes, evictions."""
        count, nbytes = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM snapshots"
        ).fetchone()
        return {
            "path": str(self.path),
            "snapshots": count,
            "bytes": nbytes,
            "cap_bytes": self.cap_bytes,
            "evictions": self.evictions,
        }

    def close(self) -> None:
        """Commit and release the connection (the file stays loadable)."""
        self._conn.commit()
        self._conn.close()
