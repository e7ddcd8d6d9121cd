"""In-memory artifact cache fronting the persistence tier.

One :class:`ArtifactCache` resolves ``(graph, h)`` to a
:class:`~repro.serve.snapshot.Snapshot` through three tiers, cheapest
first:

1. **memory hit** -- the snapshot object is already resident
   (``serve.hit``): zero work beyond the content hash;
2. **store load** -- the persistence tier has the artifacts
   (``serve.load``, emitted by the store): reconstruct from blobs, no
   enumeration, no flow;
3. **miss** -- run the full precompute (``serve.miss``), persist it,
   and keep it resident.

The memory tier is a bounded LRU over snapshot *objects* (entry count,
not bytes -- the byte-capped LRU lives in the store, where sizes are
known exactly); evictions count into ``obs`` so the summary's serve
rollup shows churn.  Every outcome increments its ``serve.*`` counter,
from which :func:`repro.obs.summary` derives the cache hit ratio -- the
serving layer's load metric.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Optional

from .. import obs
from ..graph.graph import Graph
from .snapshot import Snapshot, snapshot_key
from .store import SnapshotStore

__all__ = ["ArtifactCache"]


class ArtifactCache:
    """Keyed snapshot cache: memory LRU over an optional durable store."""

    def __init__(self, store: Optional[SnapshotStore] = None, max_entries: int = 32):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.store = store
        self.max_entries = max_entries
        self._mem: OrderedDict[str, Snapshot] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.loads = 0
        self.evictions = 0

    def get(self, graph: Graph, h: int = 2) -> Snapshot:
        """The snapshot for ``(graph, h)``, building it only on a miss."""
        key = snapshot_key(graph, h)
        snap = self._mem.get(key)
        if snap is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            obs.event("serve.hit", key=key, h=h)
            obs.counter("serve.hits")
            return snap
        if self.store is not None:
            snap = self.store.load(key)
            if snap is not None:
                self.loads += 1
                self._remember(key, snap)
                return snap
        t0 = time.perf_counter()
        snap = Snapshot(graph, h, key=key)
        obs.event("serve.miss", key=key, h=h, seconds=time.perf_counter() - t0)
        obs.counter("serve.misses")
        self.misses += 1
        if self.store is not None:
            self.store.save(snap)
        self._remember(key, snap)
        return snap

    def _remember(self, key: str, snap: Snapshot) -> None:
        self._mem[key] = snap
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)
            self.evictions += 1
            obs.counter("serve.evictions.memory")

    def clear(self) -> None:
        """Drop the resident snapshots (the store is untouched)."""
        self._mem.clear()

    def stats(self) -> dict:
        """Cache effectiveness counters plus the store's occupancy."""
        total = self.hits + self.misses + self.loads
        return {
            "entries": len(self._mem),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "loads": self.loads,
            "evictions": self.evictions,
            "hit_ratio": ((self.hits + self.loads) / total) if total else None,
            "store": self.store.stats() if self.store is not None else None,
        }
