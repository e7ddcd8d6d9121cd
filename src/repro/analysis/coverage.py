"""``obs-coverage``: instrumentation is a contract, not a habit.

Two halves:

**Entry-point coverage.**  The public solver entry points (the
functions the serving layer will wrap) must carry both an ``obs.span``
(so every request yields a profile) and a guard budget checkpoint (so
every request can degrade instead of hanging).  The entry-point table
is explicit -- adding a new public solver means adding it here, which
is the point: the linter asks the question "did you instrument it?"
that review otherwise has to.

**Schema drift.**  Every ``obs.event(<name>, ...)`` emission in the
tree must name an event that has a schema in ``obs/validate.py``'s
``EVENT_SCHEMAS`` registry.  Event names are resolved statically:
string literals directly, and ``obs.FLOW_SOLVE`` / module-level
constant names through the module-constant tables of the analyzed
files.  An unresolvable name is itself a finding -- dynamic event names
would make the trace schema unverifiable.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .core import (
    Finding,
    Project,
    Rule,
    SourceFile,
    module_constants,
    rule,
    top_level_functions,
)

#: Public solver entry points: path suffix -> function names that must
#: carry an obs span and a guard budget checkpoint.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "repro/api.py": ("densest_subgraph",),
    "core/exact.py": ("exact_densest",),
    "core/core_exact.py": ("core_exact_densest",),
    "core/peel.py": ("peel_densest",),
    "core/core_app.py": ("core_app_densest",),
    "core/pds.py": (
        "p_exact_densest",
        "core_p_exact_densest",
        "pattern_peel_densest",
        "pattern_inc_app_densest",
        "pattern_core_app_densest",
    ),
    "serve/__init__.py": ("get_snapshot", "batch_densest"),
}

#: ``guard.<attr>`` reads that count as a budget checkpoint hookup.
GUARD_ATTRS = frozenset({"ACTIVE", "current", "BudgetExceeded", "suspended"})

#: Method calls that count as an explicit budget checkpoint.
TICK_METHODS = frozenset({"tick_solve", "tick_round"})


def _has_obs_span(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "obs"
        ):
            return True
    return False


def _has_budget_checkpoint(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "guard"
                and node.attr in GUARD_ATTRS
            ):
                return True
            if node.attr in TICK_METHODS:
                return True
    return False


def _resolve_event_name(
    node: ast.expr, source: SourceFile, project: Project
) -> Optional[str]:
    """Static resolution of an ``obs.event`` first argument."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    local = module_constants(source.tree) if source.tree else {}
    if isinstance(node, ast.Name):
        value = local.get(node.id)
        return value if isinstance(value, str) else None
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        # obs.FLOW_SOLVE style: look the constant up in obs/__init__.py
        if node.value.id == "obs":
            obs_module = project.find("obs/__init__.py")
            if obs_module is not None and obs_module.tree is not None:
                value = module_constants(obs_module.tree).get(node.attr)
                return value if isinstance(value, str) else None
    return None


def _schema_names(project: Project) -> Optional[set[str]]:
    """Keys of ``EVENT_SCHEMAS`` in the tree's ``obs/validate.py``."""
    validate = project.find("obs/validate.py")
    if validate is None or validate.tree is None:
        return None
    for node in validate.tree.body:
        value: Optional[ast.expr] = None
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.target.id == "EVENT_SCHEMAS":
                value = node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "EVENT_SCHEMAS":
                value = node.value
        if isinstance(value, ast.Dict):
            return {
                key.value
                for key in value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    return None


@rule
class ObsCoverage(Rule):
    id = "obs-coverage"
    doc = (
        "public solver entry points carry obs spans + guard checkpoints; "
        "every emitted obs event name has a schema in obs/validate.py"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        yield from self._check_entry_points(project)
        yield from self._check_event_schemas(project)

    def _check_entry_points(self, project: Project) -> Iterator[Finding]:
        for suffix, names in ENTRY_POINTS.items():
            source = project.find(suffix)
            if source is None or source.tree is None:
                continue
            functions = top_level_functions(source.tree)
            for name in names:
                func = functions.get(name)
                if func is None:
                    yield Finding(
                        source.rel, 1, 0, self.id,
                        f"expected public solver entry point {name!r} not found "
                        f"(update the ENTRY_POINTS table if it moved)",
                    )
                    continue
                if not _has_obs_span(func):
                    yield Finding(
                        source.rel, func.lineno, func.col_offset, self.id,
                        f"{name}: public solver entry point has no obs.span "
                        f"(every request must yield a profile)",
                    )
                if not _has_budget_checkpoint(func):
                    yield Finding(
                        source.rel, func.lineno, func.col_offset, self.id,
                        f"{name}: public solver entry point has no guard budget "
                        f"checkpoint (requests could not degrade)",
                    )

    def _check_event_schemas(self, project: Project) -> Iterator[Finding]:
        schemas = _schema_names(project)
        if schemas is None:
            return  # tree has no obs/validate.py: nothing to pin against
        for source in project:
            if source.tree is None or source.endswith("obs/validate.py"):
                continue
            for node in ast.walk(source.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "event"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "obs"
                    and node.args
                ):
                    continue
                name = _resolve_event_name(node.args[0], source, project)
                if name is None:
                    yield Finding(
                        source.rel, node.lineno, node.col_offset, self.id,
                        "obs.event name is not statically resolvable; use a "
                        "string literal or a module-level constant",
                    )
                elif name not in schemas:
                    yield Finding(
                        source.rel, node.lineno, node.col_offset, self.id,
                        f"obs.event {name!r} has no schema in obs/validate.py "
                        f"EVENT_SCHEMAS (declare the event's shape before it "
                        f"ships)",
                    )
