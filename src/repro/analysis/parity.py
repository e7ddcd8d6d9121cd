"""``tier-parity``: the kernel registry's cross-tier contract.

The accel registry promises that every kernel name dispatches through a
failover chain ending at the pure tier, and that the tiers are drop-in
replacements for each other.  Statically that means:

* the ``chains`` table in ``_build_registry`` (``accel/__init__.py``)
  has exactly one entry per name in the registry's ``KERNEL_NAMES``,
  and every chain contains a terminal ``"python"``-tier entry;
* every function named in ``accel/kernels.py``'s ``KERNEL_NAMES`` that
  also exists in ``accel/pure.py`` or ``accel/vector.py`` agrees with
  its siblings on the *required positional* parameter list (name and
  order).  Trailing defaulted extras are allowed -- an optional tuning
  keyword on one tier's implementation, say -- because positional call
  sites never see them.

A signature drift between tiers would not fail until the drifted tier
is actually selected (possibly only in CI's numba job, possibly only
after a failover demotion mid-request); this rule fails it at lint
time.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .core import Finding, Project, Rule, SourceFile, module_constants, rule


def _registry_chains(source: SourceFile) -> Optional[tuple[ast.Dict, int]]:
    """The ``chains = {...}`` dict literal inside ``_build_registry``."""
    if source.tree is None:
        return None
    for node in source.tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "_build_registry":
            for stmt in ast.walk(node):
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "chains"
                    and isinstance(stmt.value, ast.Dict)
                ):
                    return stmt.value, stmt.lineno
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "chains"
                    and isinstance(stmt.value, ast.Dict)
                ):
                    return stmt.value, stmt.lineno
            return None
    return None


def _chain_has_python_tier(value: ast.expr) -> bool:
    """Whether a chain list literal contains a ``("python", ...)`` entry."""
    if not isinstance(value, ast.List):
        return False
    for element in value.elts:
        if (
            isinstance(element, ast.Tuple)
            and element.elts
            and isinstance(element.elts[0], ast.Constant)
            and element.elts[0].value == "python"
        ):
            return True
    return False


def _required_positional(func: ast.FunctionDef) -> list[str]:
    args = func.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    if args.defaults:
        positional = positional[: -len(args.defaults)]
    return positional


@rule
class TierParity(Rule):
    id = "tier-parity"
    doc = (
        "every registry kernel has a failover chain ending at the pure "
        "tier, and tier implementations agree on positional signatures"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        yield from self._check_chains(project)
        yield from self._check_signatures(project)

    def _check_chains(self, project: Project) -> Iterator[Finding]:
        registry = project.find("accel/__init__.py")
        if registry is None or registry.tree is None:
            return
        kernel_names = module_constants(registry.tree).get("KERNEL_NAMES")
        if not isinstance(kernel_names, tuple):
            yield Finding(
                registry.rel, 1, 0, self.id,
                "accel/__init__.py must define KERNEL_NAMES as a tuple literal",
            )
            return
        located = _registry_chains(registry)
        if located is None:
            yield Finding(
                registry.rel, 1, 0, self.id,
                "_build_registry must assign the failover table to a "
                "'chains' dict literal",
            )
            return
        chains, lineno = located
        keys: dict[str, ast.expr] = {}
        for key, value in zip(chains.keys, chains.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys[key.value] = value
            else:
                yield Finding(
                    registry.rel, getattr(key, "lineno", lineno), 0, self.id,
                    "chains keys must be string literals (kernel names)",
                )
        for name in kernel_names:
            if name not in keys:
                yield Finding(
                    registry.rel, lineno, 0, self.id,
                    f"kernel {name!r} is in KERNEL_NAMES but has no failover "
                    f"chain in _build_registry",
                )
            elif not _chain_has_python_tier(keys[name]):
                yield Finding(
                    registry.rel, getattr(keys[name], "lineno", lineno), 0, self.id,
                    f"kernel {name!r}'s failover chain has no terminal "
                    f"'python'-tier entry",
                )
        for name in keys:
            if name not in kernel_names:
                yield Finding(
                    registry.rel, getattr(keys[name], "lineno", lineno), 0, self.id,
                    f"chain registered for {name!r}, which is not in KERNEL_NAMES",
                )

    def _check_signatures(self, project: Project) -> Iterator[Finding]:
        kernels = project.find("accel/kernels.py")
        if kernels is None or kernels.tree is None:
            return
        kernel_names = module_constants(kernels.tree).get("KERNEL_NAMES")
        if not isinstance(kernel_names, tuple):
            yield Finding(
                kernels.rel, 1, 0, self.id,
                "accel/kernels.py must define KERNEL_NAMES as a tuple literal",
            )
            return
        tiers: list[tuple[str, SourceFile]] = [("kernels", kernels)]
        for label, suffix in (("pure", "accel/pure.py"), ("vector", "accel/vector.py")):
            source = project.find(suffix)
            if source is not None and source.tree is not None:
                tiers.append((label, source))
        for name in kernel_names:
            defs: list[tuple[str, SourceFile, ast.FunctionDef]] = []
            for label, source in tiers:
                assert source.tree is not None
                for node in source.tree.body:
                    if isinstance(node, ast.FunctionDef) and node.name == name:
                        defs.append((label, source, node))
            if not defs:
                continue  # absence is the jit rule's concern
            reference_label, reference_source, reference = defs[0]
            expected = _required_positional(reference)
            for label, source, func in defs[1:]:
                got = _required_positional(func)
                if got != expected:
                    yield Finding(
                        source.rel, func.lineno, func.col_offset, self.id,
                        f"{name}: {label} tier positional signature {got} "
                        f"differs from {reference_label} tier "
                        f"({reference_source.rel}) {expected}",
                    )
