"""Framework core of the invariant linter.

The moving parts:

* :class:`SourceFile` -- one parsed python file: source text, AST, and
  the ``lint-ok`` suppressions found in it.
* :class:`Project` -- every file of one lint run.  Rules receive the
  whole project, because the contracts they prove are cross-file (the
  coverage rule checks event emissions in one file against schemas in
  another).
* :class:`Rule` / :func:`rule` -- the registry.  A rule is a class with
  an ``id``, a one-line ``doc``, and a ``check(project)`` generator of
  :class:`Finding` records.
* :func:`run_paths` -- collect files, run the selected rules, apply
  suppressions, and return the sorted findings.

Suppressions.  ``# repro: lint-ok[rule-id] -- reason`` as a trailing
comment suppresses that rule's findings on its line; on a standalone
comment line it suppresses them on the next code line.  The reason is
mandatory: a ``lint-ok`` without one (or naming no rule) is reported
under the ``suppression`` meta-rule.  Files that fail to parse are
reported under ``syntax``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

#: Meta-rule ids (always-on; not in :data:`RULES`).
SUPPRESSION_RULE = "suppression"
SYNTAX_RULE = "syntax"

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ok\[(?P<rules>[^\]]*)\]\s*(?:--\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class SourceFile:
    """A parsed source file plus its suppression table."""

    def __init__(self, path: Path, rel: str, text: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            self.syntax_error = exc
        #: line number -> rule ids suppressed on that line
        self.suppressions: dict[int, set[str]] = {}
        #: malformed lint-ok comments, as (line, message)
        self.bad_suppressions: list[tuple[int, str]] = []
        self._scan_suppressions()

    def _scan_suppressions(self) -> None:
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = {part.strip() for part in match.group("rules").split(",") if part.strip()}
            reason = match.group("reason")
            if not rules:
                self.bad_suppressions.append(
                    (lineno, "lint-ok names no rule (use lint-ok[rule-id])")
                )
                continue
            if not reason:
                self.bad_suppressions.append(
                    (lineno, "lint-ok without a reason (append: -- <why this is safe>)")
                )
                continue
            # a standalone comment shields the next line; a trailing one
            # shields its own
            target = lineno
            if line.split("#", 1)[0].strip() == "":
                target = lineno + 1
            self.suppressions.setdefault(target, set()).update(rules)

    def endswith(self, suffix: str) -> bool:
        """Posix-path suffix match (``flow/network.py`` style)."""
        posix = self.path.as_posix()
        return posix.endswith(suffix) and (
            len(posix) == len(suffix) or posix[-len(suffix) - 1] == "/"
        )


class Project:
    """All files of one lint run, with suffix lookup for cross-file rules."""

    def __init__(self, files: Sequence[SourceFile]):
        self.files = list(files)

    def find(self, suffix: str) -> Optional[SourceFile]:
        for source in self.files:
            if source.endswith(suffix):
                return source
        return None

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)


class Rule:
    """Base class for lint rules; subclasses register via :func:`rule`."""

    id: str = ""
    doc: str = ""

    def check(self, project: Project) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


#: Registered rules by id (populated by the :func:`rule` decorator when
#: the rule modules import).
RULES: dict[str, type[Rule]] = {}


def rule(cls: type[Rule]) -> type[Rule]:
    if not cls.id:
        raise ValueError(f"rule class {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    RULES[cls.id] = cls
    return cls


# --- helpers shared by the rule modules -------------------------------


def module_constants(tree: ast.Module) -> dict[str, object]:
    """Module-level ``NAME = <literal>`` bindings (tuples/strs/numbers)."""
    constants: dict[str, object] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        try:
            literal = ast.literal_eval(value)
        except (ValueError, TypeError, SyntaxError, MemoryError):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                constants[target.id] = literal
    return constants


def top_level_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Module-level function definitions by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def call_name(node: ast.expr) -> str:
    """Dotted rendering of a call target, best effort (``np.empty``)."""
    parts: list[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
        return ".".join(reversed(parts))
    return "<expr>" + ("." + ".".join(reversed(parts)) if parts else "")


# --- run --------------------------------------------------------------


def collect_files(paths: Iterable[str]) -> list[SourceFile]:
    """Expand ``paths`` (files or directories) into parsed sources."""
    seen: set[Path] = set()
    sources: list[SourceFile] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(
                p for p in root.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif root.exists():
            candidates = [root]
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for path in candidates:
            key = path.resolve()
            if key in seen:
                continue
            seen.add(key)
            sources.append(SourceFile(path, path.as_posix(), path.read_text(encoding="utf-8")))
    return sources


def resolve_rules(
    select: Optional[Iterable[str]] = None, ignore: Optional[Iterable[str]] = None
) -> list[str]:
    """The rule ids a run executes, in registry order."""
    selected = list(select) if select else list(RULES)
    unknown = [rid for rid in selected if rid not in RULES]
    ignored = set(ignore or ())
    unknown += [rid for rid in ignored if rid not in RULES and rid not in (
        SUPPRESSION_RULE, SYNTAX_RULE)]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(set(unknown)))}")
    return [rid for rid in RULES if rid in selected and rid not in ignored]


def run_project(
    project: Project,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Run the selected rules over ``project``; returns sorted findings."""
    findings: list[Finding] = []
    ignored = set(ignore or ())
    for source in project:
        if source.syntax_error is not None and SYNTAX_RULE not in ignored:
            err = source.syntax_error
            findings.append(
                Finding(source.rel, err.lineno or 1, (err.offset or 1) - 1,
                        SYNTAX_RULE, f"file does not parse: {err.msg}")
            )
        if SUPPRESSION_RULE not in ignored:
            for lineno, message in source.bad_suppressions:
                findings.append(Finding(source.rel, lineno, 0, SUPPRESSION_RULE, message))
    suppression_index = {source.rel: source.suppressions for source in project}
    for rule_id in resolve_rules(select, ignore):
        for finding in RULES[rule_id]().check(project):
            suppressed = suppression_index.get(finding.path, {}).get(finding.line, ())
            if finding.rule not in suppressed:
                findings.append(finding)
    return sorted(findings)


def run_paths(
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> tuple[list[Finding], int]:
    """Lint ``paths``; returns ``(findings, files_examined)``."""
    sources = collect_files(paths)
    return run_project(Project(sources), select, ignore), len(sources)


def render_text(findings: Sequence[Finding], files: int) -> str:
    lines = [finding.render() for finding in findings]
    noun = "file" if files == 1 else "files"
    if findings:
        lines.append(f"{len(findings)} finding(s) in {files} {noun}")
    else:
        lines.append(f"clean: 0 findings in {files} {noun}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files: int, rules: Sequence[str]) -> str:
    return json.dumps(
        {
            "files": files,
            "rules": list(rules),
            "findings": [finding.as_dict() for finding in findings],
        },
        indent=2,
        sort_keys=True,
    )
