"""``env-discipline``: one place reads the environment.

Every ``REPRO_*`` knob is declared in :mod:`repro.env`
with its type, default and documentation, and read through the typed
accessors there.  Scattered ``os.environ`` reads are how the package
accumulated three different truthiness conventions and an undocumented
knob surface; this rule makes the registry load-bearing by flagging
any direct environment access outside ``repro/env.py``:

* ``os.environ`` attribute access (reads *and* writes -- tests mutate
  the environment through monkeypatching, not module code);
* ``os.getenv(...)`` calls;
* ``from os import environ`` / ``from os import getenv`` imports.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, Project, Rule, rule

#: The single module allowed to touch ``os.environ``.
ALLOWED_SUFFIX = "repro/env.py"

_MESSAGE = (
    "direct environment access outside repro/env.py; declare the "
    "variable in the repro.env registry and read it through the typed "
    "accessors"
)


@rule
class EnvDiscipline(Rule):
    id = "env-discipline"
    doc = "os.environ / os.getenv is read only inside the repro.env registry"

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project:
            if source.tree is None or source.endswith(ALLOWED_SUFFIX):
                continue
            for node in ast.walk(source.tree):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                ):
                    yield Finding(
                        source.rel, node.lineno, node.col_offset, self.id, _MESSAGE
                    )
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    for alias in node.names:
                        if alias.name in ("environ", "getenv"):
                            yield Finding(
                                source.rel, node.lineno, node.col_offset, self.id,
                                _MESSAGE,
                            )
