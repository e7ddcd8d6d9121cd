"""Immutable snapshot artifacts: precompute once, answer with zero flow work.

A :class:`Snapshot` materialises what the exact solvers would compute
for one ``(graph, h)`` pair -- per connected component the *entire*
nested min-cut breakpoint family from
:meth:`~repro.flow.parametric.ParametricNetwork.solve_breakpoints` --
behind a content-hash key over the vertex/edge arrays, ``h`` and
:data:`~repro.flow.network.EPS`.  The minimal min cuts of an
α-parametric network are nested (Gallo–Grigoriadis–Tarjan), so each
component stores its family in prefix form: one vertex order, innermost
cut first, and per breakpoint the size and exact instance count of the
prefix that is its cut -- O(n + B) for n vertices and B breakpoints.
After that one precompute, every query is a lookup:

* :meth:`Snapshot.densest_subgraph` merges each component's last
  non-empty cut -- its maximal densest subgraph -- into the answer of
  :func:`repro.core.exact.exact_densest`'s whole-graph walk,
  bit-identical to the cold path (see :meth:`Snapshot._merge`);
* :meth:`Snapshot.query_density` binary-searches the breakpoint family
  (right-continuous: the applicable cut at ``α`` is the last entry with
  breakpoint ``α_i <= α``, the same convention the parametric tests
  pin against cold solves);
* :meth:`Snapshot.density_profile` and :meth:`Snapshot.top_k` read the
  whole piecewise structure.

None of the query methods touches a flow network: the ``flow.solves``
counter stays at zero across any number of warm queries (asserted in
``tests/test_serve.py`` and ``benchmarks/bench_serve_cache.py``).

Densities are never stored as bare floats to be trusted blindly --
every cut is stored with its exact instance count, and each served
density is the single correctly-rounded division ``count / size``.
Equal rationals round identically, which is the whole bit-identity
argument.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from math import isfinite
from typing import NamedTuple, Optional

from .. import guard, obs
from ..cliques.index import CliqueIndex
from ..core.exact import DensestSubgraphResult
from ..flow.builders import build_cds_parametric, build_eds_parametric
from ..flow.network import EPS
from ..graph.graph import Graph, Vertex

__all__ = [
    "ComponentArtifact",
    "CutInfo",
    "DensityAnswer",
    "Snapshot",
    "snapshot_key",
]


def snapshot_key(graph: Graph, h: int) -> str:
    """Content-hash key of a ``(graph, h)`` snapshot.

    SHA-256 over the format version, ``h``, :data:`EPS`, the vertex
    count/labels (in graph iteration order) and the edge id pairs
    (sorted, so neighbour-set iteration order cannot leak in).  Two
    graphs with the same labels inserted in the same order and the same
    edge set collide; anything else -- including a different EPS after
    a flow-layer retune -- misses.
    """
    hasher = hashlib.sha256()
    hasher.update(
        f"serve-snapshot-v1|h={h}|eps={EPS!r}|n={graph.num_vertices}"
        f"|m={graph.num_edges}".encode()
    )
    labels = list(graph)
    id_of = {v: i for i, v in enumerate(labels)}
    for v in labels:
        hasher.update(repr(v).encode())
        hasher.update(b"\x00")
    pairs = sorted(
        (id_of[u], id_of[v]) if id_of[u] < id_of[v] else (id_of[v], id_of[u])
        for u, v in graph.edges()
    )
    for a, b in pairs:
        hasher.update(a.to_bytes(8, "little"))
        hasher.update(b.to_bytes(8, "little"))
    return hasher.hexdigest()


@dataclass
class DensityAnswer:
    """Answer to one ``query_density(alpha)`` lookup.

    ``vertices`` is the minimal source-side min cut at ``alpha`` -- the
    minimal vertex set inducing a subgraph of Ψ-density > ``alpha``
    (empty when none exists); ``count`` its exact instance count.
    """

    alpha: float
    vertices: set
    density: float
    count: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.vertices)


class CutInfo(NamedTuple):
    """One distinct cut of the breakpoint family (``top_k`` rows)."""

    vertices: frozenset
    density: float
    component: int


@dataclass
class ComponentArtifact:
    """One connected component's share of a snapshot, in prefix form.

    ``labels`` lists the component's vertices innermost cut first, in
    graph-iteration order within each layer.  ``fam_*`` hold the
    breakpoint family sorted by α: the minimal min cut on
    ``[fam_alphas[i], fam_alphas[i+1])`` is the prefix
    ``labels[:fam_sizes[i]]`` and ``fam_counts[i]`` its exact instance
    count.  ``fam_sizes`` never grows with ``i``.
    """

    cid: int
    labels: list
    fam_alphas: list[float]
    fam_sizes: list[int]
    fam_counts: list[int]

    def lookup(self, alpha: float) -> int:
        """Family index applicable at ``alpha`` (right-continuous)."""
        return max(0, bisect_right(self.fam_alphas, alpha) - 1)

    def densest(self) -> int:
        """Family index of the last non-empty cut, ``-1`` if there is none.

        For α just below the optimum ρ*, the minimal maximiser of
        μ(S) − α|S| is the union of all densest sets, so this cut is the
        component's maximal densest subgraph -- the cut the Newton walk
        of :func:`repro.core.exact.exact_densest` ends on (the
        precompute certifies it, see :func:`_certify_top`).
        """
        return _last_nonempty(self.fam_sizes)


def _last_nonempty(sizes) -> int:
    i = len(sizes) - 1
    while i >= 0 and not sizes[i]:
        i -= 1
    return i


def _certify_top(net, family: list, count_of) -> list:
    """``family`` with its last non-empty cut certified densest.

    ``solve_breakpoints`` decides adjacency exactly, but it skips an
    α interval narrower than its ``tol`` without probing it, so it
    could in principle go from a cut ``S`` straight to the empty cut,
    past a denser ``D ⊂ S``.  The Newton walk from ρ(S) compares exact
    densities instead: one solve when ``S`` is densest (the certificate
    a cold walk ends on), else it ends on the maximal densest subgraph
    ``D``, which is spliced in between ``S`` and the empty cut at the
    exact crossings of their lines.
    """
    i = _last_nonempty([len(cut) for _, cut in family])
    if i < 0:
        return family
    alpha_s, cut_s = family[i]
    count_s = count_of(cut_s)
    rho_s = count_s / len(cut_s)
    cut_d, rho_d, _ = net.max_density(lambda s: count_of(s) / len(s), low=rho_s)
    if cut_d is None or rho_d <= rho_s:
        return family
    # the one α where μ(S) − α|S| = μ(D) − α|D|; above alpha_s exactly,
    # the max only guards its rounding
    cross = (count_s - count_of(cut_d)) / (len(cut_s) - len(cut_d))
    return family[: i + 1] + [(max(cross, alpha_s), cut_d), (rho_d, set())]


def _prefix_form(cid: int, labels: list, family, count_of) -> ComponentArtifact:
    """Fold one component's breakpoint family into one vertex order.

    ``family`` is ``solve_breakpoints``' ``[(α_i, S_i), ...]``.  Each
    vertex's depth is the number of cuts holding it; ordering by depth,
    deepest first, makes every ``S_i`` the prefix of its size.  Raises
    ``RuntimeError`` when a cut is not inside the one before it, since
    no prefix order can then represent the family.
    """
    depth = dict.fromkeys(labels, 0)
    outer = None
    for alpha, cut in family:
        if outer is not None and not cut <= outer:
            raise RuntimeError(
                f"component {cid}: the min cut at alpha={alpha!r} is not inside "
                f"the cut before it ({len(cut - outer)} vertices outside)"
            )
        for v in cut:
            depth[v] += 1
        outer = cut
    return ComponentArtifact(
        cid,
        sorted(labels, key=lambda v: -depth[v]),  # stable: graph order within a layer
        [float(alpha) for alpha, _ in family],
        [len(cut) for _, cut in family],
        [int(count_of(cut)) if cut else 0 for _, cut in family],
    )


class Snapshot:
    """Immutable query artifact for one ``(graph, h)`` pair.

    Building one runs the full exact precompute (clique enumeration,
    then per component one breakpoint sweep and the Newton solve that
    certifies its densest cut -- every flow solve ticks the active
    :class:`repro.guard.Budget`, so a deadline degrades the *build*,
    never a warm query).  Every method after that is
    flow-free.  Instances are restored from the persistence tier via
    :meth:`restore` without re-running anything.
    """

    __slots__ = (
        "key", "h", "eps", "n", "num_edges", "components",
        "env", "loaded", "_densest",
    )

    def __init__(
        self,
        graph: Graph,
        h: int = 2,
        *,
        index: Optional[CliqueIndex] = None,
        key: Optional[str] = None,
    ):
        if h < 2:
            raise ValueError("h must be >= 2")
        self.h = h
        self.eps = EPS
        self.key = key if key is not None else snapshot_key(graph, h)
        self.n = graph.num_vertices
        self.num_edges = graph.num_edges
        self.components: list[ComponentArtifact] = []
        self.env = obs.env_fingerprint()
        self.loaded = False
        self._densest: Optional[DensestSubgraphResult] = None
        with obs.span("serve.precompute", h=h, n=self.n):
            self._precompute(graph, index)
            obs.counter("serve.precomputes")

    # --- precompute ----------------------------------------------------

    def _precompute(self, graph: Graph, index: Optional[CliqueIndex]) -> None:
        if self.n == 0:
            return
        if self.h >= 3 and index is None:
            index = CliqueIndex(graph, self.h)
        for cid, cc in enumerate(graph.connected_components()):
            sub = graph.subgraph(cc)
            labels = list(sub)
            if self.h == 2:
                m_inst = sub.num_edges
                dmax = sub.max_degree()
                count_of = lambda s: sub.subgraph(s).num_edges
            else:
                subidx = index.subindex(sub)
                m_inst = subidx.m
                dmax = max(subidx.initial_degrees().values(), default=0)
                count_of = subidx.count_within
            if m_inst == 0:
                # no Ψ instance: the cut is empty at every α >= 0, so
                # the component needs no network and no solves at all
                self.components.append(ComponentArtifact(cid, labels, [0.0], [0], [0]))
                continue
            if self.h == 2:
                net = build_eds_parametric(sub)
            else:
                net = build_cds_parametric(sub, self.h, index=subidx)
            # ρ* <= dmax/h (h·μ(S) = Σ_{v∈S} deg_Ψ,S(v) <= |S|·dmax), so
            # the family on [0, dmax/h] covers the whole α axis: beyond
            # its last breakpoint the cut is empty forever
            family = net.solve_breakpoints(0.0, float(dmax) / float(self.h))
            family = _certify_top(net, family, count_of)
            self.components.append(_prefix_form(cid, labels, family, count_of))

    @classmethod
    def restore(
        cls,
        *,
        key: str,
        h: int,
        eps: float,
        num_edges: int,
        components: list[ComponentArtifact],
        env: Optional[dict] = None,
    ) -> "Snapshot":
        """Rebuild a snapshot from persisted artifacts -- no solving.

        Used by :class:`repro.serve.store.SnapshotStore`: the stored
        vertex orders and prefix size/count arrays are the whole family,
        so a restored snapshot answers the same queries with the same
        bits as the instance that was saved.
        """
        snap = cls.__new__(cls)
        snap.key = key
        snap.h = h
        snap.eps = eps
        snap.n = sum(len(art.labels) for art in components)
        snap.num_edges = num_edges
        snap.components = components
        snap.env = env if env is not None else {}
        snap.loaded = True
        snap._densest = None
        return snap

    # --- queries (all flow-free) ----------------------------------------

    def matches(self, graph: Graph) -> bool:
        """Whether this snapshot was built from exactly ``graph``."""
        return self.key == snapshot_key(graph, self.h)

    def densest_subgraph(self) -> DensestSubgraphResult:
        """The Ψ-densest subgraph -- the stored per-component merge.

        Bit-identical to :func:`repro.core.exact.exact_densest` (see
        :meth:`_merge`).  Zero flow solves, so ``iterations`` is 0.
        """
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("serve.query")
        if self._densest is None:
            self._densest = self._merge()
        res = self._densest
        return DensestSubgraphResult(
            vertices=set(res.vertices),
            density=res.density,
            method=res.method,
            iterations=res.iterations,
            stats=dict(res.stats),
        )

    def _merge(self) -> DensestSubgraphResult:
        """Merge the per-component densest cuts into the whole-graph answer.

        Flow never crosses components, so the whole graph's minimal min
        cut at the optimum is the union of the last non-empty cuts of
        every component tied at the maximum density: the densest
        component wins and exact-float ties union.  Testing ties on
        floats is sound because equal rationals round identically.  The
        density is recomputed as the one division ``Σ counts / |union|``,
        the same correctly-rounded float the cold whole-graph walk
        produces.
        """
        maxrho = 0.0
        union: set[Vertex] = set()
        count = 0
        for art in self.components:
            i = art.densest()
            if i < 0:
                continue
            size, cut_count = art.fam_sizes[i], art.fam_counts[i]
            rho = cut_count / size
            if rho > maxrho:
                maxrho = rho
                union = set(art.labels[:size])
                count = cut_count
            elif rho == maxrho:
                union.update(art.labels[:size])
                count += cut_count
        if union:
            vertices, density = union, count / len(union)
        else:
            # no component holds a Ψ instance: degenerate optimum, the
            # whole vertex set at density 0 (matches exact_densest)
            vertices = {v for art in self.components for v in art.labels}
            density = 0.0
        return DensestSubgraphResult(
            vertices=vertices,
            density=density,
            method="Exact",
            iterations=0,
            stats={
                "snapshot": self.key,
                "served": True,
                "flow_solves": 0,
                "components": len(self.components),
            },
        )

    def query_density(self, alpha: float) -> DensityAnswer:
        """Minimal subgraph with Ψ-density > ``alpha`` (empty if none).

        A binary search per component over the stored breakpoint
        family; the union of the applicable cuts is exactly the
        whole-graph minimal min cut a cold parametric solve at
        ``alpha`` returns (flow never crosses components).
        """
        if not isfinite(alpha) or alpha < 0.0:
            raise ValueError(f"alpha must be a finite float >= 0, got {alpha!r}")
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("serve.query")
        vertices: set[Vertex] = set()
        count = 0
        for art in self.components:
            i = art.lookup(alpha)
            size = art.fam_sizes[i]
            if size:
                vertices.update(art.labels[:size])
                count += art.fam_counts[i]
        density = count / len(vertices) if vertices else 0.0
        return DensityAnswer(alpha=alpha, vertices=vertices, density=density, count=count)

    def density_profile(self) -> list[dict]:
        """The whole piecewise density structure, one row per breakpoint.

        Each row is ``{"alpha", "size", "count", "density"}`` -- the
        minimal cut applicable on ``[alpha, next_alpha)`` and its exact
        density.  The final row is always the empty cut (the family is
        computed out to the ``dmax/h`` upper bound, past every
        possible subgraph density).
        """
        alphas = sorted({a for art in self.components for a in art.fam_alphas})
        rows = []
        for alpha in alphas:
            answer = self.query_density(alpha)
            rows.append(
                {
                    "alpha": alpha,
                    "size": answer.size,
                    "count": answer.count,
                    "density": answer.density,
                }
            )
        return rows

    def top_k(self, k: int) -> list[CutInfo]:
        """The ``k`` densest distinct stored cuts, densest first.

        Candidates are every non-empty breakpoint cut (they form the
        nested dense-subgraph family GGT discovered).  A component's
        distinct cuts differ in size, so ``(component, size)`` names
        each one.  Deterministic order: density descending, then size
        and component id.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("serve.query")
        density = {
            (ai, size): count / size
            for ai, art in enumerate(self.components)
            for size, count in zip(art.fam_sizes, art.fam_counts)
            if size
        }
        ranked = sorted(density, key=lambda cut: (-density[cut], cut[1], cut[0]))
        return [
            CutInfo(frozenset(self.components[ai].labels[:size]), density[ai, size], ai)
            for ai, size in ranked[:k]
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Snapshot(key={self.key[:12]}..., h={self.h}, n={self.n}, "
            f"components={len(self.components)}, loaded={self.loaded})"
        )
