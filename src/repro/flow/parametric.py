"""α-parametric flow networks: build the arcs once, re-solve many times.

Every flow construction in the paper (Goldberg EDS, the Algorithm-1 CDS
network, the PDS networks of Algorithms 7/8) shares one shape across all
density guesses α: *only the ``v → t`` sink-arc capacities depend on
α*, and each is an affine function ``base + coeff·α`` with ``coeff >
0``.  The topology, the source arcs and the middle arcs never change.

:class:`ParametricNetwork` exploits that.  It stores the network as flat
paired arc arrays plus a CSR adjacency index (built once, with numpy
when available), remembers which arcs are α-dependent, and re-solves
with Dinic from the cheapest valid starting flow:

* **noop** -- the requested α is the α of the current residual state,
  which is already a max flow there.
* **advance** -- the requested α is above the α of the current
  residual state.  Capacities only grow, so the flow already in the
  network stays feasible; Dinic merely augments the difference.
* **retreat** -- the requested α is below the α of the current residual
  state.  Sink capacities shrink, so the flow on some ``v → t`` arcs may
  exceed the new capacity; each such arc is clamped and the excess is
  drained back to the source along flow-carrying residual paths (the
  decreasing-α half of Gallo–Grigoriadis–Tarjan).  The result is a
  feasible warm flow the solver only needs to augment.
* **cold reset** -- otherwise, capacities are recomputed from
  ``base + coeff·α`` and the flow starts from zero (bit-equal to a
  fresh build at that α).

On top of the warm-start repertoire sit the two breakpoint drivers the
solvers call; neither runs a binary search over α:

* :meth:`ParametricNetwork.max_density` -- a discrete-Newton /
  Dinkelbach walk over the breakpoints of the parametric min-cut
  function (the increasing-α half of Gallo–Grigoriadis–Tarjan).  Every
  iterate is the exact density of a cut it just produced, so the walk
  lands on true breakpoints and terminates at the optimal α with its
  minimal cut after a handful of solves, where the paper's Algorithms
  1 and 4 bisect α down to a ``1/(n(n-1))`` resolution with one min
  cut per guess.
* :meth:`ParametricNetwork.solve_breakpoints` -- the full GGT divide
  and conquer: enumerate *all* breakpoints of the piecewise-linear
  min-cut capacity on an interval by recursively probing cut-line
  intersections, O(#breakpoints) max-flow solves in total.

Monotonicity argument: for α' ≥ α every capacity satisfies
``cap(α') ≥ cap(α)``, so a feasible (in particular a maximum) flow for α
is feasible for α', and augmenting it to a maximum flow yields the same
*minimal* source-side min cut as a cold solve -- the source-reachable
set in the residual graph of a maximum flow is the unique minimal min
cut, independent of which maximum flow was reached.  Sink-arc residuals
are recomputed as ``(base + coeff·α) − flow`` (flow read off the
reverse arc), not accumulated, so no float drift builds up across a
warm chain.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from .. import accel, guard, obs
from ..guard import sanitize
from . import dinic
from .network import EPS, build_csr, np, source_reachable


class ParametricNetwork:
    """CSR arc-array flow network whose sink capacities are affine in α.

    Node ids are dense integers: the graph vertices occupy ``0..nv-1``
    (``vertex_labels[i]`` maps back to the external label), then source,
    sink, and any instance/group nodes.  Use the builders in
    :mod:`repro.flow.builders` (``build_eds_parametric`` and friends)
    rather than constructing directly.

    With numpy importable, the arc arrays (``head``, the CSR index,
    ``base_cap``, the residual ``cap`` and the α-arc tables) are numpy
    arrays -- int32 indices, float64 capacities -- for the network's
    whole life, and the α bookkeeping and cut extraction are array
    expressions with the same IEEE operations, in the same order, as the
    list loops that run without numpy.  Values leaving the network
    (cuts, cut lines) are Python ints and floats either way.
    """

    __slots__ = (
        "num_nodes",
        "source",
        "sink",
        "head",
        "base_cap",
        "cap",
        "adj_start",
        "adj_arcs",
        "alpha_arcs",
        "alpha_coeff",
        "alpha_src",
        "vertex_labels",
        "_alpha",
        "_canceled",
        "_min_coeff",
        "_coeff_by_arc",
    )

    def __init__(
        self,
        num_nodes: int,
        source: int,
        sink: int,
        head,
        base_cap,
        alpha_arcs,
        alpha_coeff,
        vertex_labels: Sequence,
        alpha_src=None,
    ):
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        # alpha_src[i]: arc id of the paired (finite) s -> v arc of the
        # vertex whose sink arc is alpha_arcs[i], or -1 when unknown --
        # enables the pass-through cancellation on cold solves.
        if alpha_src is None:
            alpha_src = [-1] * len(alpha_arcs)
        if np is not None:
            head = np.asarray(head, dtype=np.int32)
            base_cap = np.asarray(base_cap, dtype=np.float64)
            alpha_arcs = np.asarray(alpha_arcs, dtype=np.int32)
            alpha_coeff = np.asarray(alpha_coeff, dtype=np.float64)
            alpha_src = np.asarray(alpha_src, dtype=np.int32)
            self._min_coeff = float(alpha_coeff.min()) if alpha_coeff.size else 0.0
        else:
            self._min_coeff = min(alpha_coeff, default=0.0)
        self.head = head
        self.base_cap = base_cap
        self.alpha_arcs = alpha_arcs
        self.alpha_coeff = alpha_coeff
        self.alpha_src = alpha_src
        self.vertex_labels = list(vertex_labels)
        self.adj_start, self.adj_arcs = build_csr(head, num_nodes)
        self.cap = base_cap.copy()
        self._alpha: Optional[float] = None
        self._canceled = False
        self._coeff_by_arc = None

    @property
    def num_arcs(self) -> int:
        """Number of forward arcs (reverse arcs not counted)."""
        return len(self.head) // 2

    def flow_arrays(self) -> tuple:
        """``(source, sink, head, cap, adj_start, adj_arcs)`` for the solvers."""
        return self.source, self.sink, self.head, self.cap, self.adj_start, self.adj_arcs

    # --- α management -------------------------------------------------

    def set_alpha(self, alpha: float) -> None:
        """Cold reset: capacities for ``alpha``, zero flow (O(E), in place).

        Where the paired source arc is known, the pass-through volume
        ``c_v = min(cap(s→v), cap(v→t))`` is cancelled from both arcs:
        every s-t cut contains exactly one of the two, so all cut values
        shift by the constant ``Σ c_v`` and the min-cut *sets* are
        untouched, while the max-flow volume (the augmenting-path count
        of the saturating probe solves) collapses from ``Σ deg`` to
        ``Σ (deg − coeff·α)⁺``.  :meth:`_uncancel` converts the residual
        state back to the plain network before any warm start.
        """
        cap, base = self.cap, self.base_cap
        cap[:] = base
        if np is not None:
            arcs, src = self.alpha_arcs, self.alpha_src
            sink_cap = base[arcs] + self.alpha_coeff * alpha
            paired = src >= 0
            src = src[paired]
            src_cap = base[src]
            through = np.where(sink_cap[paired] < src_cap, sink_cap[paired], src_cap)
            sink_cap[paired] -= through
            cap[arcs] = sink_cap
            cap[src] = src_cap - through
        else:
            for a, c, s in zip(self.alpha_arcs, self.alpha_coeff, self.alpha_src):
                t = base[a] + c * alpha
                if s >= 0:
                    cv = t if t < base[s] else base[s]
                    cap[a] = t - cv
                    cap[s] = base[s] - cv
                else:
                    cap[a] = t
        self._alpha = alpha
        self._canceled = True

    def _uncancel(self) -> None:
        """Convert a cancelled residual state to the plain network's.

        Adding the pass-through ``c_v`` back as flow on both arcs keeps
        conservation (in and out of ``v`` grow by ``c_v``) and respects
        the plain capacities, so only the two reverse-arc residuals
        change; forward residuals are already identical.  The result is
        a maximum flow of the plain network at the current α, fit to
        warm-start from.
        """
        cap, base = self.cap, self.base_cap
        alpha = self._alpha
        if np is not None:
            paired = self.alpha_src >= 0
            arcs, src = self.alpha_arcs[paired], self.alpha_src[paired]
            sink_cap = base[arcs] + self.alpha_coeff[paired] * alpha
            src_cap = base[src]
            through = np.where(sink_cap < src_cap, sink_cap, src_cap)
            carried = through > 0.0
            through = through[carried]
            cap[arcs[carried] ^ 1] += through
            cap[src[carried] ^ 1] += through
        else:
            for a, c, s in zip(self.alpha_arcs, self.alpha_coeff, self.alpha_src):
                if s >= 0:
                    t = base[a] + c * alpha
                    cv = t if t < base[s] else base[s]
                    if cv > 0.0:
                        cap[a ^ 1] += cv
                        cap[s ^ 1] += cv
        self._canceled = False

    def _advance_alpha(self, alpha: float) -> None:
        """Raise α keeping the current flow (requires ``alpha >= self._alpha``).

        Each α-arc's residual is recomputed exactly as capacity minus the
        flow it carries (read off the reverse arc), so a warm chain
        reproduces the same floats as a single jump from the base state.
        """
        accel.ggt_advance(self.cap, self.base_cap, self.alpha_arcs, self.alpha_coeff, alpha)
        self._alpha = alpha

    def _retreat_alpha(self, alpha: float) -> None:
        """Lower α keeping a feasible warm flow (requires ``alpha <= self._alpha``).

        The decreasing-α half of GGT.  Each α-arc whose flow exceeds its
        shrunken capacity is clamped to saturation; the difference
        becomes an excess at the arc's tail vertex and is drained back to
        the source through residual paths.  Flow decomposition
        guarantees the drain succeeds: every unit that reached ``v``
        came from the source, so the reverse arcs of its path carry
        enough residual.  The state on exit is a *feasible* (not yet
        maximum) flow of the plain network at the new α; the solver's
        next run augments it to a max flow.
        """
        if self._canceled:
            self._uncancel()
        accel.ggt_retreat(
            self.head, self.cap, self.base_cap, self.adj_start, self.adj_arcs,
            self.alpha_arcs, self.alpha_coeff, self.num_nodes, self.source, alpha,
        )
        self._alpha = alpha

    def _warm_step_ok(self, delta: float) -> bool:
        """Whether a warm start is safe for an α step of ``delta``.

        The solvers treat residuals below :data:`~repro.flow.network.EPS`
        as saturated, so a step that opens each sink arc by less than a
        comfortable multiple of EPS could leave true augmenting paths
        invisible and flip the feasibility verdict; such steps take the
        cold reset instead.  Breakpoints of distinct subgraph densities
        lie at least ``1/(n(n-1))`` apart (Lemma 12), far above this
        threshold at any tractable scale.
        """
        return delta * self._min_coeff > 10.0 * EPS

    def solve(self, alpha: float) -> set:
        """Max-flow at ``alpha``; return the source-side cut vertex set.

        Picks the cheapest valid warm start (noop > advance > retreat >
        cold reset), runs Dinic, and returns the graph vertices on the
        source side of the minimal min cut (excluding source/instance
        nodes) -- non-empty iff a subgraph with Ψ-density above
        ``alpha`` exists (Lemma 14).
        """
        self._solve_residual(alpha)
        return self.cut_vertices()

    def _solve_residual(self, alpha: float) -> None:
        """Warm-start to ``alpha`` and run Dinic; no cut extraction.

        When tracing is on (:data:`repro.obs.ENABLED`) each call emits
        one ``flow.solve`` event carrying α, the warm-start mode chosen
        by the decision chain below, the active kernel tier, the network
        size, the wall time, and Dinic's work counters (BFS passes and
        augments) read back from :data:`repro.accel.last_solve`.

        This is also the guard layer's checkpoint: an active
        :class:`repro.guard.Budget` is ticked *before* any warm-start
        mutation, so :class:`~repro.guard.BudgetExceeded` always leaves
        the residual state exactly as the previous solve did.  With
        ``REPRO_CHECK`` on, the full flow-invariant battery
        (:func:`repro.guard.sanitize.check_parametric`) runs on the
        solved state.
        """
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_solve(self.num_arcs)
        t0 = time.perf_counter() if obs.ENABLED else 0.0
        if self._alpha is not None and alpha == self._alpha:
            mode = "noop"  # residual state is already a max flow at this α
        elif (
            self._alpha is not None
            and alpha >= self._alpha
            and self._warm_step_ok(alpha - self._alpha)
        ):
            mode = "advance"
            self._advance_alpha(alpha)
        elif (
            self._alpha is not None
            and alpha < self._alpha
            and self._warm_step_ok(self._alpha - alpha)
        ):
            mode = "retreat"
            self._retreat_alpha(alpha)
        else:
            mode = "cold"
            self.set_alpha(alpha)
        dinic.max_flow(self)
        if self._canceled:
            self._uncancel()
        if guard.CHECK:
            sanitize.check_parametric(self)
        if obs.ENABLED:
            work = dict(accel.last_solve)
            fields = {
                "alpha": alpha,
                "mode": mode,
                "tier": work.pop("tier", accel.TIER),
                "nodes": self.num_nodes,
                "arcs": self.num_arcs,
                "seconds": time.perf_counter() - t0,
            }
            work.pop("kernel", None)
            work.pop("arcs", None)
            work.pop("seconds", None)
            fields.update(work)  # bfs_mode + kernel work counters
            obs.event(obs.FLOW_SOLVE, **fields)
            obs.counter("flow.solves")
            obs.counter(f"flow.solves.{mode}")

    # --- breakpoint drivers (GGT) ------------------------------------

    def cut_line(self, nodes: Optional[set[int]] = None) -> tuple[float, float]:
        """Affine coefficients ``(A, B)`` of a cut's capacity ``A + B·α``.

        ``nodes`` is the source-side node set as *internal* ids; when
        omitted, the current residual min cut is used.  Computed from
        the base capacities, so the line is valid at every α regardless
        of the residual state.
        """
        if nodes is None:
            nodes = self.min_cut_source_side()
        head, base = self.head, self.base_cap
        if np is not None:
            if self._coeff_by_arc is None:
                self._coeff_by_arc = np.zeros(len(head))
                self._coeff_by_arc[self.alpha_arcs] = self.alpha_coeff
            side = np.zeros(self.num_nodes, dtype=bool)
            side[np.fromiter(nodes, dtype=np.int64, count=len(nodes))] = True
            # forward arcs only (reverses carry base 0); cumsum adds left
            # to right, as the loop below does
            crossing = np.flatnonzero(side[head[1::2]] & ~side[head[0::2]]) * 2
            if not crossing.size:
                return 0.0, 0.0
            a_term = 0.0 + float(np.cumsum(base[crossing])[-1])
            b_term = 0.0 + float(np.cumsum(self._coeff_by_arc[crossing])[-1])
            return a_term, b_term
        if self._coeff_by_arc is None:
            self._coeff_by_arc = dict(zip(self.alpha_arcs, self.alpha_coeff))
        coeff_of = self._coeff_by_arc.get
        a_term = 0.0
        b_term = 0.0
        for arc in range(0, len(head), 2):  # forward arcs only; reverses carry base 0
            if head[arc ^ 1] in nodes and head[arc] not in nodes:
                a_term += base[arc]
                b_term += coeff_of(arc, 0.0)
        return a_term, b_term

    def max_density(self, density_of, low: float = 0.0) -> tuple[Optional[set], float, int]:
        """Optimal α and its minimal cut, no binary search (GGT/Newton walk).

        A discrete-Newton (Dinkelbach) iteration on the parametric
        min-cut function: solve at α, read the minimal cut ``S``, jump
        to ``α' = density_of(S)``.  Since ``α'`` is the exact Ψ-density
        of an actual subgraph, every jump lands on a breakpoint of the
        piecewise-linear concave min-cut capacity, and each solve is a
        warm advance of the previous one (α only grows).  Terminates
        when the cut at ``α = ρ(S)`` is trivial -- which certifies
        ``ρ(S)`` optimal -- after at most #breakpoints solves.

        Parameters
        ----------
        density_of:
            Callback mapping a cut vertex set (external labels) to its
            exact Ψ-density ``μ(S)/|S|``; the caller owns the clique or
            instance material, the network does not.
        low:
            Starting guess, a valid lower bound on the optimum (0 is
            always sound).

        Returns
        -------
        ``(cut, alpha, solves)``: the minimal min cut of the optimal α
        (``None`` when even ``low`` is infeasible, i.e. no subgraph has
        density above ``low``), the optimal density, and the number of
        max-flow solves spent.
        """
        best: Optional[set] = None
        best_density = low
        alpha = low
        solves = 0
        while True:
            try:
                cut = self.solve(alpha)
            except guard.BudgetExceeded as exc:
                # hand the walk's incumbent to whoever degrades gracefully
                exc.attach_incumbent(best, best_density)
                raise
            solves += 1
            if not cut:
                break
            density = density_of(cut)
            if best is None or density > best_density:
                best = cut
                best_density = density
            if density <= alpha:
                break  # float-exact optimum: the cut re-certifies itself
            alpha = density
        return best, (best_density if best is not None else low), solves

    def solve_breakpoints(
        self, alpha_lo: float, alpha_hi: float, tol: float = 1e-9
    ) -> list[tuple[float, set]]:
        """All breakpoints of the min-cut function on ``[alpha_lo, alpha_hi]``.

        Gallo–Grigoriadis–Tarjan divide and conquer: solve both
        endpoints, intersect their cut lines, probe the intersection,
        and recurse into any half where the cut still changes.  Because
        the source-side cuts are nested and each probe either certifies
        a breakpoint or splits off a new distinct cut, the total work is
        O(#breakpoints) max-flow solves -- each warm-started from a
        neighbouring α by the advance/retreat machinery.

        Returns ``[(α_0, S_0), (α_1, S_1), ...]`` sorted by α:
        ``S_0`` is the minimal cut at ``alpha_lo`` and each subsequent
        ``(α_i, S_i)`` says the minimal cut changes to ``S_i`` (as
        external vertex labels) at ``α_i``.
        """
        if alpha_hi < alpha_lo:
            raise ValueError("alpha_hi must be >= alpha_lo")
        labels = self.vertex_labels
        nv = len(labels)

        def probe(alpha: float) -> tuple[frozenset, tuple[float, float]]:
            self._solve_residual(alpha)
            nodes = self.min_cut_source_side()
            return frozenset(nodes), self.cut_line(nodes)

        lo_nodes, lo_line = probe(alpha_lo)
        hi_nodes, hi_line = probe(alpha_hi)
        breaks: list[tuple[float, frozenset]] = []

        # explicit work stack: the split tree can be one level per
        # breakpoint, which would blow Python's recursion limit on
        # networks with thousands of breakpoints
        work = [(alpha_lo, lo_nodes, lo_line, alpha_hi, hi_nodes, hi_line)]
        while work:
            a_lo, nodes_lo, line_lo, a_hi, nodes_hi, line_hi = work.pop()
            if nodes_lo == nodes_hi or a_hi - a_lo <= tol:
                continue
            (A_lo, B_lo), (A_hi, B_hi) = line_lo, line_hi
            if B_lo == B_hi:  # parallel lines never cross: no breakpoint between
                continue
            cross = (A_hi - A_lo) / (B_lo - B_hi)
            if not (a_lo - tol <= cross <= a_hi + tol):  # pragma: no cover - numeric guard
                continue
            mid_nodes, mid_line = probe(cross)
            mid_value = mid_line[0] + mid_line[1] * cross
            lo_value_at_cross = A_lo + B_lo * cross
            value_tol = tol * (1.0 + abs(lo_value_at_cross))
            if mid_value >= lo_value_at_cross - value_tol or mid_nodes in (nodes_lo, nodes_hi):
                # the two endpoint lines meet on the lower envelope:
                # cross is the single breakpoint separating their cuts
                breaks.append((cross, nodes_hi))
                continue
            # lower half last so it pops first: probes sweep mostly
            # downward-adjacent α values, keeping warm starts cheap
            work.append((cross, mid_nodes, mid_line, a_hi, nodes_hi, line_hi))
            work.append((a_lo, nodes_lo, line_lo, cross, mid_nodes, mid_line))
        breaks.sort(key=lambda item: item[0])

        def to_labels(nodes: frozenset) -> set:
            return {labels[i] for i in nodes if i < nv}

        out = [(alpha_lo, to_labels(lo_nodes))]
        for alpha, nodes in breaks:
            out.append((alpha, to_labels(nodes)))
        return out

    # --- cut extraction ----------------------------------------------

    def _reachable_ids(self, limit: int) -> list[int]:
        """Residual-reachable node ids below ``limit``, ascending."""
        seen = source_reachable(self.head, self.cap, self.adj_start, self.adj_arcs, self.source)
        if np is not None:
            return np.flatnonzero(seen[:limit]).tolist()
        return [i for i in range(limit) if seen[i]]

    def min_cut_source_side(self) -> set[int]:
        """Source side of the min cut, as internal node ids."""
        with obs.span("flow.cut", nodes=self.num_nodes):
            return set(self._reachable_ids(self.num_nodes))

    def cut_vertices(self) -> set:
        """Graph vertices (external labels) on the source side of the cut."""
        with obs.span("flow.cut", nodes=self.num_nodes):
            labels = self.vertex_labels
            return {labels[i] for i in self._reachable_ids(len(labels))}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ParametricNetwork(nodes={self.num_nodes}, arcs={self.num_arcs}, "
            f"alpha={self._alpha})"
        )
