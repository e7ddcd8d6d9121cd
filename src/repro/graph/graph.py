"""Undirected simple graph substrate.

Every algorithm in this package operates on :class:`Graph`, a plain
adjacency-set representation of an undirected, unweighted, simple graph
(no self-loops, no parallel edges), matching the data model of Section 3
of the paper.

Vertices are arbitrary hashable objects (typically ``int``).  The class
is deliberately small and explicit: dense-subgraph algorithms need fast
neighbourhood iteration, induced subgraphs, connected components and a
degeneracy ordering -- nothing more exotic.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Iterator

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


class Graph:
    """An undirected, unweighted, simple graph.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs.  Self-loops are rejected;
        duplicate edges are silently collapsed (the graph is simple).
    vertices:
        Optional iterable of isolated vertices to add up front.

    Examples
    --------
    >>> g = Graph([(0, 1), (1, 2), (2, 0)])
    >>> g.num_vertices, g.num_edges
    (3, 3)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self, edges: Iterable[Edge] = (), vertices: Iterable[Vertex] = ()):
        self._adj: dict[Vertex, set[Vertex]] = {}
        self._num_edges = 0
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = set()

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Raises
        ------
        ValueError
            If ``u == v`` (self-loops violate the simple-graph model).
        """
        if u == v:
            raise ValueError(f"self-loop on vertex {u!r} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n = |V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges ``m = |E|``."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once.

        The orientation of the returned pair is arbitrary but stable for
        a given graph state.
        """
        seen: set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def neighbors(self, v: Vertex) -> set[Vertex]:
        """The neighbour set of ``v`` (do not mutate the returned set)."""
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        """Classical (edge-based) degree of ``v``."""
        return len(self._adj[v])

    def max_degree(self) -> int:
        """The maximum degree ``d``; 0 for the empty graph."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def edge_density(self) -> float:
        """Edge-density ``|E| / |V|`` (Definition 1); 0.0 for the empty graph."""
        if not self._adj:
            return 0.0
        return self._num_edges / len(self._adj)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """An independent deep copy of the graph."""
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """The subgraph induced by ``vertices`` (``G[T]`` in the paper).

        Vertices absent from the graph are ignored.
        """
        keep = {v for v in vertices if v in self._adj}
        g = Graph()
        g._adj = {v: self._adj[v] & keep for v in keep}
        g._num_edges = sum(len(nbrs) for nbrs in g._adj.values()) // 2
        return g

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set[Vertex]]:
        """All connected components as vertex sets (BFS, O(n + m))."""
        components: list[set[Vertex]] = []
        unvisited = set(self._adj)
        while unvisited:
            start = next(iter(unvisited))
            component = {start}
            queue = deque([start])
            unvisited.discard(start)
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w in unvisited:
                        unvisited.discard(w)
                        component.add(w)
                        queue.append(w)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected)."""
        if not self._adj:
            return True
        return len(self.connected_components()) == 1

    def degeneracy_ordering(self) -> tuple[list[Vertex], int]:
        """Compute a degeneracy (smallest-last) ordering.

        Returns
        -------
        (order, degeneracy):
            ``order`` lists vertices in removal order (the i-th vertex has
            the minimum degree in the graph induced by ``order[i:]``), and
            ``degeneracy`` is the maximum of those minimum degrees, which
            equals the classical ``kmax`` of the k-core decomposition.

        Notes
        -----
        Bucket-queue implementation, O(n + m), following Batagelj &
        Zaveršnik [7] / Matula & Beck.
        """
        degree = {v: len(nbrs) for v, nbrs in self._adj.items()}
        max_deg = max(degree.values(), default=0)
        buckets: list[set[Vertex]] = [set() for _ in range(max_deg + 1)]
        for v, d in degree.items():
            buckets[d].add(v)
        order: list[Vertex] = []
        removed: set[Vertex] = set()
        degeneracy = 0
        cursor = 0
        for _ in range(len(self._adj)):
            while cursor <= max_deg and not buckets[cursor]:
                cursor += 1
            # A vertex removal can only lower other degrees by one, so the
            # next minimum is at least cursor - 1.
            v = buckets[cursor].pop()
            degeneracy = max(degeneracy, cursor)
            order.append(v)
            removed.add(v)
            for u in self._adj[v]:
                if u not in removed:
                    d = degree[u]
                    buckets[d].discard(u)
                    degree[u] = d - 1
                    buckets[d - 1].add(u)
            cursor = max(cursor - 1, 0)
        return order, degeneracy

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"


def complete_graph(h: int) -> Graph:
    """The complete graph ``K_h`` on vertices ``0 .. h-1``.

    >>> complete_graph(4).num_edges
    6
    """
    if h < 1:
        raise ValueError("complete graph needs at least one vertex")
    g = Graph(vertices=range(h))
    for i in range(h):
        for j in range(i + 1, h):
            g.add_edge(i, j)
    return g


def cycle_graph(h: int) -> Graph:
    """The cycle ``C_h`` on vertices ``0 .. h-1`` (h >= 3)."""
    if h < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph((i, (i + 1) % h) for i in range(h))


def star_graph(tails: int) -> Graph:
    """A star with centre ``0`` and ``tails`` leaf vertices ``1 .. tails``."""
    if tails < 1:
        raise ValueError("a star needs at least one tail")
    return Graph((0, i) for i in range(1, tails + 1))


def path_graph(h: int) -> Graph:
    """The path ``P_h`` on vertices ``0 .. h-1``."""
    if h < 1:
        raise ValueError("a path needs at least one vertex")
    g = Graph(vertices=range(h))
    for i in range(h - 1):
        g.add_edge(i, i + 1)
    return g
