"""Pattern type and the paper's pattern catalogue (Figure 7).

A *pattern* is a small connected simple graph Ψ (a.k.a. motif /
higher-order structure).  The PDS problem (Section 7) finds the
subgraph with the most pattern instances per vertex.

The catalogue fixes the seven named non-clique patterns of Figure 7.
Figure 7 is a drawing, and four names need interpretation from the
text alone.  The readings below follow the paper's prose (Example 6,
Section 7, Appendix D); they are centralised here so a different
reading is a one-line change:

* ``diamond`` -- the 4-cycle C4 (Example 6 and Appendix D's loop-pattern
  counting identify it as the cycle, drawn diamond-shaped).
* ``2-triangle`` -- K4 minus one edge (two triangles sharing an edge).
* ``3-triangle`` -- the book graph B3 (three triangles sharing an edge).
* ``basket`` -- the house graph (a triangle on top of a 4-cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..graph.graph import Graph, complete_graph, cycle_graph, star_graph


@dataclass(frozen=True)
class Pattern:
    """A named connected pattern graph Ψ(V_Ψ, E_Ψ).

    Attributes
    ----------
    name:
        Human-readable identifier (see :func:`get_pattern`).
    graph:
        The pattern itself, vertices ``0 .. size-1``.
    """

    name: str
    graph: Graph = field(compare=False)

    def __post_init__(self) -> None:
        if self.graph.num_vertices < 2:
            raise ValueError("a pattern needs at least two vertices")
        if not self.graph.is_connected():
            raise ValueError("patterns must be connected")

    @property
    def size(self) -> int:
        """``|V_Ψ|`` -- the denominator of the approximation ratio."""
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """``|E_Ψ|``."""
        return self.graph.num_edges

    def is_clique(self) -> bool:
        """Whether Ψ is the complete graph on its vertices."""
        h = self.size
        return self.graph.num_edges == h * (h - 1) // 2

    def degrees(self) -> list[int]:
        """Sorted degree sequence of the pattern."""
        return sorted(self.graph.degree(v) for v in self.graph)

    def star_tails(self) -> int:
        """``x`` when Ψ is the x-star with ``x >= 2`` tails, else 0.

        Stars and the 4-cycle (:meth:`is_c4`) are the patterns with
        Appendix-D closed-form degree counters.
        """
        size = self.size
        if size >= 3 and self.degrees() == [1] * (size - 1) + [size - 1]:
            return size - 1
        return 0

    def is_c4(self) -> bool:
        """Whether Ψ is the 4-cycle C4 (the catalogue's "diamond")."""
        return self.size == 4 and self.num_edges == 4 and self.degrees() == [2, 2, 2, 2]

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Every automorphism of Ψ as a permutation of vertex positions.

        Position ``i`` is the pattern's ``i``-th vertex in iteration
        order (vertex ``i`` for the catalogue patterns); ``perm[i]`` is
        its image.  A backtracking search, in lexicographic order, that
        keeps adjacency to the positions already mapped: patterns are
        tiny.  Computed on first use and kept, since a pattern is
        immutable.
        """
        vertices = list(self.graph)
        position = {v: i for i, v in enumerate(vertices)}
        adj = [{position[u] for u in self.graph.neighbors(v)} for v in vertices]
        size = len(vertices)
        found: list[tuple[int, ...]] = []
        perm: list[int] = []

        def extend(i: int) -> None:
            if i == size:
                found.append(tuple(perm))
                return
            for image in range(size):
                if image not in perm and len(adj[image]) == len(adj[i]) and all(
                    (perm[j] in adj[image]) == (j in adj[i]) for j in range(i)
                ):
                    perm.append(image)
                    extend(i + 1)
                    perm.pop()

        extend(0)
        return tuple(found)

    def automorphism_count(self) -> int:
        """Number of automorphisms of Ψ, ``|Aut(Ψ)|``."""
        return len(self.automorphisms)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Pattern({self.name!r}, |V|={self.size}, |E|={self.num_edges})"


def clique_pattern(h: int) -> Pattern:
    """The h-clique pattern (``h >= 2``); ``h = 2`` is the single edge."""
    if h < 2:
        raise ValueError("h must be >= 2")
    name = {2: "edge", 3: "triangle"}.get(h, f"{h}-clique")
    return Pattern(name, complete_graph(h))


def star_pattern(tails: int) -> Pattern:
    """The x-star: one centre with ``tails`` leaves (Appendix D fast path)."""
    return Pattern(f"{tails}-star", star_graph(tails))


def _c3_star() -> Graph:
    # triangle 0-1-2 with pendant 3 attached to 0 ("paw")
    return Graph([(0, 1), (1, 2), (2, 0), (0, 3)])


def _two_triangle() -> Graph:
    # K4 minus edge (2, 3): triangles 012 and 013 share edge 0-1
    return Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def _three_triangle() -> Graph:
    # book B3: triangles 012, 013, 014 share the edge 0-1
    return Graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def _basket() -> Graph:
    # house: square 0-1-2-3 with roof apex 4 on edge 2-3
    return Graph([(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)])


_CATALOGUE: dict[str, callable] = {
    "edge": lambda: complete_graph(2),
    "2-star": lambda: star_graph(2),
    "3-star": lambda: star_graph(3),
    "triangle": lambda: complete_graph(3),
    "c3-star": _c3_star,
    "diamond": lambda: cycle_graph(4),
    "2-triangle": _two_triangle,
    "4-clique": lambda: complete_graph(4),
    "3-triangle": _three_triangle,
    "basket": _basket,
    "5-clique": lambda: complete_graph(5),
    "6-clique": lambda: complete_graph(6),
}


def get_pattern(name: str) -> Pattern:
    """Look up a pattern by its Figure-7 name.

    >>> get_pattern("diamond").size
    4

    Raises
    ------
    KeyError
        For an unknown name; :func:`pattern_names` lists valid ones.
    """
    try:
        factory = _CATALOGUE[name]
    except KeyError:
        raise KeyError(f"unknown pattern {name!r}; known: {sorted(_CATALOGUE)}") from None
    return Pattern(name, factory())


def pattern_names() -> list[str]:
    """All catalogue pattern names, in Figure-7 order."""
    return list(_CATALOGUE)
