"""``determinism``: the hazards bit-identical solving cannot survive.

The cross-tier bit-identity suite (and the warm-start checkpoint
machinery it certifies) assumes the solver paths are deterministic
functions of their inputs.  Two syntactic hazards break that silently
and are flagged in the solver-path modules (``core/``, ``flow/``,
``cliques/``, plus ``accel/``):

* **unordered iteration** -- a ``for`` loop (or comprehension clause)
  whose iterable is syntactically a set (set literal, set
  comprehension, ``set()`` / ``frozenset()`` call, or a
  ``.intersection`` / ``.union`` / ``.difference`` /
  ``.symmetric_difference`` result), and ``next(iter(<set>))``-style
  arbitrary-element picks.  Set order depends on hash seeding; when the
  loop body breaks ties (``>`` vs ``>=``), results drift between runs.
  Iterating ``sorted(<set>)`` is fine and not flagged.
* **unseeded randomness** -- calls through the global RNGs
  (``random.<fn>``, ``np.random.<fn>``) and ``np.random.default_rng()``
  / ``random.Random()`` without an explicit seed argument.

Order-insensitive uses (pure reductions over a set) are silenced with a
reasoned suppression, e.g.::

    for v in doomed:  # repro: lint-ok[determinism] -- removal set, order-free
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, Project, Rule, SourceFile, call_name, rule

#: Directory names whose files are solver-path (plus accel itself).
SOLVER_DIRS = frozenset({"core", "flow", "cliques", "accel"})

#: Set-method calls whose result is an unordered set.
SET_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference",
})


def in_scope(source: SourceFile) -> bool:
    return bool(SOLVER_DIRS.intersection(source.path.parts[:-1]))


def _is_set_expr(node: ast.expr) -> bool:
    """Whether ``node`` syntactically produces an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in SET_METHODS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
        # a & b / a | b on sets; only flagged when an operand is
        # syntactically a set, so int bitops stay clean
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, source: SourceFile, rule_id: str):
        self.source = source
        self.rule_id = rule_id
        self.findings: list[Finding] = []

    def emit(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                self.source.rel,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                self.rule_id,
                message,
            )
        )

    # --- unordered iteration -----------------------------------------

    def _check_iter(self, node: ast.expr) -> None:
        if _is_set_expr(node):
            self.emit(
                node,
                "iteration over an unordered set feeds solver results; "
                "iterate sorted(...) or a deterministic rank order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # --- calls: randomness, iter(set) --------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "iter"
            and node.args
            and _is_set_expr(node.args[0])
        ):
            self.emit(
                node,
                "arbitrary element pick from an unordered set; use "
                "min/sorted with an explicit key",
            )
        self._check_random(node)
        self.generic_visit(node)

    def _check_random(self, node: ast.Call) -> None:
        dotted = call_name(node.func)
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random" and node.args:
                return  # explicitly seeded instance
            self.emit(
                node,
                f"{dotted}() uses process-global, unseeded randomness in a "
                f"solver path; thread an explicitly seeded RNG instead",
            )
            return
        if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            if parts[2] == "default_rng" and node.args:
                return  # seeded generator construction
            self.emit(
                node,
                f"{dotted}() draws from numpy's global/unseeded RNG in a "
                f"solver path; construct np.random.default_rng(seed)",
            )


@rule
class Determinism(Rule):
    id = "determinism"
    doc = (
        "no unordered set iteration or unseeded randomness in the "
        "solver-path modules"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project:
            if source.tree is None or not in_scope(source):
                continue
            visitor = _Visitor(source, self.id)
            visitor.visit(source.tree)
            yield from visitor.findings
