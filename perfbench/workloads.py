"""The four workloads: their inputs, one pass over their queries, their checks.

A workload seed relabels every surrogate graph of
:mod:`repro.datasets.registry` with a seeded permutation (so the search
orders inside the solvers change while the optimum does not) and, for
``serve``, draws the α probes and the lookup mix.  The program receives
only those graphs and probes.

Each workload keeps the cells of its family that fit a pass of about
two seconds on the reference host (2 vCPUs, Python 3.11, numpy tier), so
that a 15-second run times every query seven to nine times: the
per-query best of that many spread-out passes is what makes a run
repeatable on a host whose speed drifts by up to 1.7x over tens of
seconds.  Each workload's ``reference_pass_s`` (set in :func:`make`)
records that pass time; ``run.py`` turns ``--seconds`` into a fixed
number of passes with it.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

#: A query slower than this counts as timed out (and so as failed).
QUERY_LIMIT_S = 60.0

SMALL = ("Yeast", "Netscience", "As-733", "Ca-HepTh", "As-Caida")
LARGE = ("DBLP", "Cit-Patents", "Friendster", "Enwiki-2017", "UK-2002")
#: Cells left out so that a pass stays near two seconds (each takes 0.1 to
#: 6 s at scale 1.0; see the module docstring).  Every left-out exact cell
#: keeps its CoreExact twin, every left-out PeelApp cell its CoreApp twin,
#: and every left-out CorePExact cell its CoreApp and PeelApp twins, whose
#: optimum the oracle then solves outside the timed region.
LEFT_OUT = {
    ("Cit-Patents", 2, "peel"), ("Cit-Patents", 3, "peel"),
    ("Friendster", 2, "peel"), ("Friendster", 3, "peel"),
    ("Enwiki-2017", 2, "peel"), ("Enwiki-2017", 3, "peel"),
    ("UK-2002", 2, "peel"), ("UK-2002", 3, "peel"),
    ("As-733", 4, "exact"), ("Ca-HepTh", 4, "exact"),
    ("As-Caida", 3, "exact"), ("As-Caida", 4, "exact"),
    ("Netscience", "diamond", "core-exact"), ("Ca-HepTh", "diamond", "core-exact"),
    ("Ca-HepTh", "2-star", "core-exact"), ("Ca-HepTh", "2-star", "core-app"),
    ("Ca-HepTh", "2-star", "peel"),
}
EXACT_METHODS = ("exact", "core-exact")


@dataclass
class Sample:
    """One timed call: what it was, how long it took, what it returned."""

    kind: str  # "<method or op>:<dataset>:<psi>"
    seconds: float
    answer: object = None
    error: str | None = None
    extra: dict = field(default_factory=dict)


def relabel(graph, seed: int):
    """``graph`` with its vertices renamed by a seeded permutation of 0..n-1."""
    from repro.graph.graph import Graph

    old = list(graph.vertices())
    new = list(range(len(old)))
    random.Random(seed).shuffle(new)
    name = dict(zip(old, new))
    return Graph(
        edges=((name[u], name[v]) for u, v in graph.edges()),
        vertices=sorted(new),
    )


def build_graphs(datasets, seed: int, scale: float) -> dict:
    from repro.datasets.registry import load

    return {name: relabel(load(name, scale), seed) for name in datasets}


def timed(fn, *args) -> tuple[object, float, str | None]:
    """``(result, seconds, error)`` of one query; an exception is an error."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a failing query is counted, not fatal
        return None, time.perf_counter() - t0, repr(exc)
    seconds = time.perf_counter() - t0
    if seconds > QUERY_LIMIT_S:
        return out, seconds, f"timed out: {seconds:.1f} s > {QUERY_LIMIT_S:.0f} s"
    return out, seconds, None


class QueryWorkload:
    """Closed-loop ``repro.densest_subgraph`` calls over (dataset, Ψ, method) cells."""

    def __init__(self, name: str, cells: list[tuple[str, object, str]], reference_pass_s: float):
        self.name = name
        self.cells = cells
        self.reference_pass_s = reference_pass_s
        self.datasets = tuple(dict.fromkeys(ds for ds, _, _ in cells))
        self.optimum: dict = {}
        self._recounts: dict = {}

    def prepare(self, graphs: dict, seed: int, workdir: Path) -> None:
        pass

    def run_pass(self, graphs: dict, index: int) -> list[Sample]:
        import repro

        samples = []
        for ds, psi, method in self.cells:
            gc.collect(1)  # earlier queries' young garbage is not this query's cost
            res, seconds, error = timed(lambda: repro.densest_subgraph(graphs[ds], psi, method=method))
            answer = None
            extra = {}
            if res is not None:
                answer = (frozenset(res.vertices), res.density)
                if "located_vertices" in res.stats:
                    extra = {"located": res.stats["located_vertices"], "n": graphs[ds].num_vertices}
            samples.append(Sample(f"{method}:{ds}:{psi}", seconds, answer, error, extra))
        return samples

    def _optimum(self, graphs: dict, ds: str, psi, reference: dict) -> float:
        """A cell's optimum: the warm-up pass's CoreExact answer, or a cold
        CoreExact solve when the workload runs no exact method on it."""
        import repro

        if (ds, psi) not in self.optimum:
            answer = reference.get(f"core-exact:{ds}:{psi}")
            if answer is None:
                answer = (None, repro.densest_subgraph(graphs[ds], psi, method="core-exact").density)
            self.optimum[(ds, psi)] = answer[1]
        return self.optimum[(ds, psi)]

    def _recount(self, graphs: dict, ds: str, psi, answer) -> str | None:
        key = (ds, psi, answer)
        if key not in self._recounts:
            self._recounts[key] = oracle.check_density(graphs[ds], answer[0], psi, answer[1])
        return self._recounts[key]

    def _check_one(self, graphs, ds, psi, method, s: Sample, reference, by_kind) -> str | None:
        err = self._recount(graphs, ds, psi, s.answer)
        if err is not None:
            return err
        if s.answer != reference[s.kind]:
            return "answer differs from the warm-up pass"
        optimum = self._optimum(graphs, ds, psi, reference)
        if method not in EXACT_METHODS:
            return oracle.check_approx(s.answer[1], optimum, psi)
        twin = by_kind.get(f"{'exact' if method == 'core-exact' else 'core-exact'}:{ds}:{psi}")
        if twin is not None and twin.answer is not None and twin.answer != s.answer:
            return "Exact and CoreExact answers differ"
        if s.answer[1] != optimum:
            return f"exact density {s.answer[1]!r} != optimum {optimum!r}"
        return None

    def check(self, graphs: dict, passes: list[list[Sample]]) -> float:
        """Mark wrong answers as errors; return the worst density / optimum.

        ``passes[0]`` is the warm-up pass, whose answers every later pass
        must repeat exactly.
        """
        reference = {s.kind: s.answer for s in passes[0]}
        worst = 1.0
        for samples in passes:
            by_kind = {s.kind: s for s in samples}
            for (ds, psi, method), s in zip(self.cells, samples):
                if s.error is None:
                    s.error = self._check_one(graphs, ds, psi, method, s, reference, by_kind)
                if s.error is None:
                    optimum = self.optimum[(ds, psi)]
                    if optimum > 0:
                        worst = min(worst, s.answer[1] / optimum)
        return worst


class ServeWorkload:
    """Snapshot precompute, save + fresh-connection load, then warm lookups.

    The lookup stream is not measured traffic; it is the plainest mix:
    each lookup is an α probe, a densest-subgraph read or a top-k read
    with equal odds.  α is uniform on [0, 1.1 ρ*): every breakpoint
    interval of the family below the optimum ρ* is probed in proportion
    to its width, and about one probe in eleven lands above ρ* and takes
    the empty-answer path.
    """

    LOOKUPS_PER_CELL = 1000
    LOOKUP_OPS = ("alpha", "densest", "top_k")
    COLD_ALPHA_CHECKS = 3  # first α probes of each cell re-solved cold
    TOP_K = 5

    def __init__(self, name: str, cells: list[tuple[str, int]], reference_pass_s: float):
        self.name = name
        self.cells = cells
        self.reference_pass_s = reference_pass_s
        self.datasets = tuple(dict.fromkeys(ds for ds, _ in cells))
        self.cold: dict = {}
        self.streams: dict = {}
        self.reference: dict = {}
        self.workdir: Path | None = None

    def prepare(self, graphs: dict, seed: int, workdir: Path) -> None:
        """Cold solves and probe streams, before anything is timed."""
        import repro
        from repro.flow.builders import build_cds_parametric, build_eds_parametric

        self.workdir = workdir
        for ds, h in self.cells:
            g = graphs[ds]
            res = repro.densest_subgraph(g, h, method="core-exact")
            rho = res.density
            rng = random.Random(f"{seed}:{ds}:{h}")
            stream = []
            for _ in range(self.LOOKUPS_PER_CELL):
                op = rng.choice(self.LOOKUP_OPS)
                if op == "alpha":
                    stream.append((op, rng.uniform(0.0, 1.1 * rho)))
                else:
                    stream.append((op, self.TOP_K if op == "top_k" else None))
            cold_cuts = {}
            for i, (op, alpha) in enumerate(stream):
                if op == "alpha" and len(cold_cuts) < self.COLD_ALPHA_CHECKS:
                    net = build_eds_parametric(g) if h == 2 else build_cds_parametric(g, h)
                    cold_cuts[i] = frozenset(net.solve(alpha))
            self.cold[(ds, h)] = (frozenset(res.vertices), rho, cold_cuts)
            self.streams[(ds, h)] = stream

    @staticmethod
    def _digest(op: str, answer):
        if op == "alpha":
            return (len(answer.vertices), answer.count, answer.density)
        if op == "densest":
            return (frozenset(answer.vertices), answer.density)
        return tuple(cut.density for cut in answer)

    @staticmethod
    def _precompute(graph, h: int):
        """Build a snapshot and read its densest subgraph (the oracle's
        check of the fresh build), both inside the timed call."""
        from repro.serve.snapshot import Snapshot

        snap = Snapshot(graph, h)
        return snap, snap.densest_subgraph()

    def run_pass(self, graphs: dict, index: int) -> list[Sample]:
        from repro.serve.store import SnapshotStore

        samples = []
        for ds, h in self.cells:
            cell = f"{ds}:{h}"
            gc.collect(1)
            out, seconds, error = timed(self._precompute, graphs[ds], h)
            snap, fresh, breakpoints = None, None, 0
            if out is not None:
                snap, densest = out
                fresh = self._digest("densest", densest)
                breakpoints = sum(len(a.fam_alphas) - 1 for a in snap.components)
            samples.append(Sample(f"precompute:{cell}", seconds, fresh, error, {"breakpoints": breakpoints}))
            if snap is None:
                continue
            root = self.workdir / f"pass{index}" / cell.replace(":", "-")

            def save_and_reload():
                store = SnapshotStore(root)
                try:
                    store.save(snap)
                finally:
                    store.close()
                again = SnapshotStore(root)  # a fresh connection
                try:
                    return again.load(snap.key), again.stats()["bytes"]
                finally:
                    again.close()

            out, seconds, error = timed(save_and_reload)
            loaded, extra = None, {}
            if out is not None:
                loaded, extra["store_bytes"] = out
                if loaded is None:
                    error = "snapshot missing after save"
            samples.append(Sample(f"reload:{cell}", seconds, None, error, extra))
            if loaded is None:
                continue
            calls = {
                "alpha": loaded.query_density,
                "densest": lambda _: loaded.densest_subgraph(),
                "top_k": loaded.top_k,
            }
            stream = self.streams[(ds, h)]
            for i, (op, arg) in enumerate(stream):
                ans, seconds, error = timed(calls[op], arg)
                digest = None if ans is None else self._digest(op, ans)
                extra = {}
                if ans is not None and i in self.cold[(ds, h)][2]:
                    extra["cut"] = frozenset(ans.vertices)
                samples.append(Sample(f"{op}:{cell}", seconds, digest, error, extra))
            if index == 0:  # reference answers of the freshly built snapshot
                fresh_calls = {
                    "alpha": snap.query_density,
                    "densest": lambda _: snap.densest_subgraph(),
                    "top_k": snap.top_k,
                }
                self.reference[(ds, h)] = [
                    self._digest(op, fresh_calls[op](arg)) for op, arg in stream
                ]
        shutil.rmtree(self.workdir / f"pass{index}", ignore_errors=True)
        return samples

    def _check_lookup(self, ds, h, i, s: Sample) -> str | None:
        cold_vertices, rho, cold_cuts = self.cold[(ds, h)]
        op, arg = self.streams[(ds, h)][i]
        if s.answer != self.reference[(ds, h)][i]:
            return "loaded snapshot disagrees with the freshly built one"
        if op == "alpha":
            size, count, density = s.answer
            if (size > 0) != (arg < rho):
                return f"cut at alpha={arg!r} is {'non-' if size else ''}empty; optimum {rho!r}"
            if size and not (density > arg and oracle.density_close(density, count / size)):
                return f"cut at alpha={arg!r} has density {density!r}"
            if i in cold_cuts and s.extra.get("cut") != cold_cuts[i]:
                return f"cut at alpha={arg!r} differs from the cold solve"
        elif op == "densest":
            if s.answer != (cold_vertices, rho):
                return "snapshot densest subgraph differs from the cold solve"
        else:
            if not s.answer or s.answer[0] != rho or list(s.answer) != sorted(s.answer, reverse=True):
                return f"top-k densities {s.answer!r} do not start at the optimum {rho!r}"
        return None

    def check(self, graphs: dict, passes: list[list[Sample]]) -> float:
        for samples in passes:
            lookup_index: dict = {}
            for s in samples:
                op, ds, h = s.kind.split(":")
                cell = (ds, int(h))
                if op in ("precompute", "reload"):
                    if s.error is None and op == "precompute" and s.answer != self.cold[cell][:2]:
                        s.error = "fresh snapshot densest subgraph differs from the cold solve"
                    continue
                i = lookup_index.get(cell, 0)
                lookup_index[cell] = i + 1
                if s.error is None:
                    s.error = self._check_lookup(*cell, i, s)
        return 1.0


def _cells(datasets, motifs, methods) -> list[tuple[str, object, str]]:
    return [
        (ds, psi, m)
        for ds in datasets
        for psi in motifs
        for m in methods
        if (ds, psi, m) not in LEFT_OUT
    ]


def make(name: str) -> QueryWorkload | ServeWorkload:
    if name == "exact":
        return QueryWorkload(name, _cells(SMALL, (2, 3, 4), ("core-exact", "exact")), 2.2)
    if name == "approx":
        return QueryWorkload(name, _cells(LARGE, (2, 3), ("core-app", "peel")), 2.0)
    if name == "pattern":
        return QueryWorkload(
            name,
            _cells(("Yeast", "Netscience", "Ca-HepTh"), ("diamond", "2-star"),
                   ("core-exact", "core-app", "peel")),
            1.7,
        )
    if name == "serve":
        # Left out: As-733 h=3 and Ca-HepTh h=3, whose precompute does not
        # finish within a minute at scale 1.0, and Netscience h=3, whose
        # 1.9-s precompute alone would be most of a pass
        return ServeWorkload(name, [("Yeast", 2), ("Yeast", 3), ("Netscience", 2), ("As-733", 2)], 1.8)
    raise KeyError(name)


WORKLOADS = ("exact", "approx", "pattern", "serve")
