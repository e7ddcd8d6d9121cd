"""Array-backed h-clique instance index -- the shared clique layer.

Every solver family in this package consumes h-clique instances: the
(k, Ψ)-core decomposition peels them, PeelApp reads clique-degrees from
them, Exact/CoreExact build flow networks over them.  Historically each
consumer re-derived its own structure (tuple lists, dict posting lists,
per-component re-enumeration); this module replaces all of that with a
single cacheable artifact built once per ``(graph, h)``:

* ``inst`` -- the instances as one flat ``(m_Ψ × h)`` int row array
  over dense internal vertex ids (``vertices[i]`` maps id ``i`` back to
  the external label, in graph-iteration order).  Graph-built indexes
  are *canonical*: ascending within each row, rows lexicographic, and
  bit-identical whether the numpy kernels or the pure-python fallback
  produced them (:mod:`repro.cliques.kernels`).
* ``inc_start`` / ``inc_ids`` -- a per-vertex CSR incidence index:
  the instances containing internal vertex ``v`` are
  ``inc_ids[inc_start[v]:inc_start[v+1]]``.  Peeling a vertex touches
  exactly its incidence range -- no dict scans.
* ``base_degree`` -- clique-degrees (Definition 3) by internal id,
  immutable; the mutable ``alive`` layer on top serves the peeling
  algorithms (Algorithm 3 and PeelApp).

The instance and incidence arrays are never mutated, so one index can
serve a core decomposition, a peel, and the flow builders of the same
call without re-enumeration; :meth:`subindex` restricts it to an
induced subgraph (CoreExact's located components) by row selection
instead of re-enumeration.

The same arrays hold the instances of a general pattern Ψ (Section 7):
built with ``pattern=``, a row is one instance as the symmetry-broken
matcher of :mod:`repro.patterns.isomorphism` emits it, and every
consumer above -- peels, core decompositions, flow builders -- runs on
it unchanged.  The exact solvers read :attr:`CliqueIndex.pattern` to
pick the PDS flow networks over the CDS ones.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Iterator, Optional, Sequence, Union

from .. import obs
from ..graph.graph import Graph, Vertex
from ..patterns.isomorphism import enumerate_pattern_instances
from ..patterns.pattern import Pattern
from . import kernels


class CliqueIndex:
    """A materialised index of every h-clique instance in a graph.

    Parameters
    ----------
    graph:
        The indexed graph.  Internal ids ``0..n-1`` follow its
        iteration order (so id-based peels reproduce the legacy
        dict-based peel orders exactly).
    h:
        Instance size: every row has exactly ``h`` vertices.
    instances:
        Optional explicit instance tuples of vertex labels, duplicates
        preserved.  When omitted, the h-cliques of ``graph`` are
        enumerated with the fastest available kernel.
    use_numpy:
        Force the enumeration kernel (``None`` auto-selects); only
        meaningful when ``instances`` is omitted.
    pattern:
        Index the instances of this pattern (``h`` must be its size)
        instead of the h-cliques: the matcher's id rows are the index
        rows as they come, and :attr:`pattern` keeps the motif.

    ``build_seconds`` keeps how long the build took (the
    ``cliques.index.build`` span; for a :meth:`subindex`, the row
    selection), so a solver handed a pre-built index can charge it to
    its enumeration time.
    """

    __slots__ = (
        "h",
        "vertices",
        "_id_of",
        "inst",
        "m",
        "inc_start",
        "inc_ids",
        "base_degree",
        "alive",
        "num_alive",
        "canonical",
        "pattern",
        "build_seconds",
        "_np_rows",
    )

    def __init__(
        self,
        graph: Graph,
        h: int,
        instances: Optional[Sequence[tuple[Vertex, ...]]] = None,
        use_numpy: Optional[bool] = None,
        pattern: Optional[Pattern] = None,
    ):
        if pattern is not None and pattern.size != h:
            raise ValueError(
                f"pattern {pattern.name!r} has {pattern.size} vertices, expected h={h}"
            )
        self.h = h
        self.pattern = pattern
        self.vertices: list[Vertex] = list(graph)
        id_of = {v: i for i, v in enumerate(self.vertices)}
        self._id_of = id_of

        with obs.span("cliques.index.build", h=h, n=len(self.vertices)) as sp:
            if pattern is not None:
                rows = enumerate_pattern_instances(graph, pattern)
                self.inst = list(chain.from_iterable(rows))
                self.canonical = False
                kernel = "pattern"
            elif instances is None:
                self.inst: list[int] = kernels.clique_rows(graph, h, id_of, use_numpy)
                self.canonical = True
                kernel = kernels.LAST_KERNEL
            else:
                flat: list[int] = []
                for inst in instances:
                    if len(inst) != h:
                        raise ValueError(
                            f"instance {inst!r} has {len(inst)} members, expected h={h}"
                        )
                    for v in inst:
                        vid = id_of.get(v)
                        if vid is None:  # instance member outside the graph
                            vid = id_of[v] = len(self.vertices)
                            self.vertices.append(v)
                        flat.append(vid)
                self.inst = flat
                self.canonical = False
                kernel = "explicit"

            self.m = len(self.inst) // h if h else 0
            self._build_incidence()
        self.build_seconds = sp.seconds
        self.alive = bytearray(b"\x01") * self.m
        self.num_alive = self.m
        self._np_rows = None
        if obs.ENABLED:
            obs.event(
                "cliques.index",
                h=h, n=len(self.vertices), m=self.m,
                incidence=len(self.inc_ids), kernel=kernel,
                seconds=sp.seconds,
            )

    # --- construction helpers -----------------------------------------

    def _build_incidence(self) -> None:
        """Counting-sort the flat rows into the per-vertex CSR incidence."""
        n = len(self.vertices)
        flat, h = self.inst, self.h
        if kernels.np is not None and len(flat) >= 1024:
            np = kernels.np
            arr = np.asarray(flat, dtype=np.int64)
            counts = np.bincount(arr, minlength=n)
            start = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=start[1:])
            # stable sort of member positions by vertex id; position // h
            # is the instance id, and stability keeps each vertex's
            # incidence list ascending in instance id.
            ids = np.argsort(arr, kind="stable") // h
            self.inc_start = start.tolist()
            self.inc_ids = ids.tolist()
            self.base_degree = counts.tolist()
            return
        degree = [0] * n
        for vid in flat:
            degree[vid] += 1
        start = [0] * (n + 1)
        for i in range(n):
            start[i + 1] = start[i] + degree[i]
        fill = list(start)
        inc = [0] * len(flat)
        for pos, vid in enumerate(flat):
            inc[fill[vid]] = pos // h
            fill[vid] += 1
        self.inc_start = start
        self.inc_ids = inc
        self.base_degree = degree

    # --- read-only array surface --------------------------------------

    @property
    def num_instances(self) -> int:
        """Total instance count ``m_Ψ`` (alive or not)."""
        return self.m

    @property
    def motif(self) -> Union[int, Pattern]:
        """What the rows are instances of: the pattern, or ``h`` for h-cliques."""
        return self.h if self.pattern is None else self.pattern

    def id_of(self, v: Vertex) -> int:
        """Internal id of an external vertex label."""
        return self._id_of[v]

    def row(self, i: int) -> tuple[int, ...]:
        """Instance ``i`` as a tuple of internal ids."""
        h = self.h
        return tuple(self.inst[i * h : (i + 1) * h])

    def instance(self, i: int) -> tuple[Vertex, ...]:
        """Instance ``i`` as a tuple of external labels."""
        labels = self.vertices
        h = self.h
        return tuple(labels[vid] for vid in self.inst[i * h : (i + 1) * h])

    def instance_tuples(self) -> list[tuple[Vertex, ...]]:
        """All instances as label tuples (alive or not), row order."""
        return [self.instance(i) for i in range(self.m)]

    def rows_array(self):
        """The instances as an ``(m × h)`` numpy int array (cached).

        Raises RuntimeError when numpy is unavailable; callers use the
        flat :attr:`inst` list on the pure-python path.
        """
        if kernels.np is None:
            raise RuntimeError("rows_array requires numpy")
        if self._np_rows is None:
            self._np_rows = kernels.np.asarray(self.inst, dtype=kernels.np.int64).reshape(
                self.m, self.h
            )
        return self._np_rows

    def member_subsets(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield ``(member_id, ψ)`` for every (instance, member) pair.

        ``ψ`` is the instance minus that member as an ascending internal
        id tuple -- the (h-1)-clique node key of the Algorithm-1 flow
        construction.  Canonical rows are already ascending, so the sort
        only runs for explicit-instance indexes; equal keys always
        compare equal, which is what the builders' node dedup relies on.
        """
        inst, h = self.inst, self.h
        canonical = self.canonical
        for base in range(0, len(inst), h):
            row = inst[base : base + h]
            for k in range(h):
                rest = row[:k] + row[k + 1 :]
                yield row[k], tuple(rest) if canonical else tuple(sorted(rest))

    def initial_degrees(self) -> dict[Vertex, int]:
        """Initial (unpeeled) clique-degrees of all indexed vertices."""
        return {v: self.base_degree[i] for i, v in enumerate(self.vertices)}

    def count_within(self, vertex_set) -> int:
        """Number of instances fully contained in ``vertex_set`` (labels).

        Counts over *all* rows, ignoring the alive layer: the instances
        of the induced subgraph ``G[S]`` are exactly the index rows
        inside ``S``, which is how the exact solvers price candidate
        cuts without re-enumeration.
        """
        id_of = self._id_of
        ids = set()
        for v in vertex_set:
            vid = id_of.get(v)
            if vid is not None:
                ids.add(vid)
        if not ids or not self.m:
            return 0
        np = kernels.np
        if np is not None and self.m >= 256:
            members = np.fromiter(ids, dtype=np.int64, count=len(ids))
            mask = np.isin(self.rows_array(), members)
            return int(mask.all(axis=1).sum())
        flat, h = self.inst, self.h
        count = 0
        for i in range(0, len(flat), h):
            if all(flat[k] in ids for k in range(i, i + h)):
                count += 1
        return count

    def density_within(self, vertex_set) -> float:
        """Ψ-density ``μ(G[S]) / |S|`` of a vertex set, 0.0 when empty."""
        size = len(vertex_set)
        if not size:
            return 0.0
        return self.count_within(vertex_set) / size

    def subindex(self, subgraph: Graph) -> "CliqueIndex":
        """The index restricted to an induced subgraph -- no re-enumeration.

        Selects the rows fully contained in ``subgraph`` (exactly the
        instances of the induced subgraph), remaps them to the
        subgraph's own dense ids, and rebuilds the incidence arrays.
        Canonical indexes stay canonical (rows are re-sorted after the
        remap).  The parent's alive layer is ignored: the result is a
        fresh, fully-alive index.
        """
        start = time.perf_counter()
        sub = CliqueIndex.__new__(CliqueIndex)
        sub.h = self.h
        sub.pattern = self.pattern
        sub.vertices = list(subgraph)
        sub_id_of = {v: i for i, v in enumerate(sub.vertices)}
        sub._id_of = sub_id_of
        h = self.h

        np = kernels.np
        if np is not None and self.m >= 256:
            remap = np.full(len(self.vertices), -1, dtype=np.int64)
            for v, i in sub_id_of.items():
                old = self._id_of.get(v)
                if old is not None:
                    remap[old] = i
            rows = remap[self.rows_array()]
            rows = rows[(rows >= 0).all(axis=1)]
            if self.canonical and len(rows):
                rows = np.sort(rows, axis=1)
                rows = rows[np.lexsort(rows.T[::-1])]
            sub.inst = rows.reshape(-1).tolist()
        else:
            flat = self.inst
            picked: list[list[int]] = []
            labels = self.vertices
            for i in range(0, len(flat), h):
                row = []
                for k in range(i, i + h):
                    nid = sub_id_of.get(labels[flat[k]])
                    if nid is None:
                        break
                    row.append(nid)
                else:
                    picked.append(sorted(row) if self.canonical else row)
            if self.canonical:
                picked.sort()
            sub.inst = [vid for row in picked for vid in row]

        sub.canonical = self.canonical
        sub.m = len(sub.inst) // h if h else 0
        sub._build_incidence()
        sub.alive = bytearray(b"\x01") * sub.m
        sub.num_alive = sub.m
        sub._np_rows = None
        sub.build_seconds = time.perf_counter() - start
        if obs.ENABLED:
            obs.event(
                "cliques.subindex",
                h=h, n=len(sub.vertices), m=sub.m, parent_m=self.m,
                incidence=len(sub.inc_ids),
            )
        return sub

    # --- mutable peel layer (Algorithm 3 / PeelApp) -------------------

    def degrees(self) -> dict[Vertex, int]:
        """Current (live) clique-degrees of all indexed vertices."""
        if self.num_alive == self.m:  # nothing peeled yet
            return self.initial_degrees()
        live = [0] * len(self.vertices)
        flat, h, alive = self.inst, self.h, self.alive
        for i in range(self.m):
            if alive[i]:
                for k in range(i * h, i * h + h):
                    live[flat[k]] += 1
        return {v: live[i] for i, v in enumerate(self.vertices)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CliqueIndex(h={self.h}, n={len(self.vertices)}, m={self.m}, "
            f"alive={self.num_alive})"
        )
