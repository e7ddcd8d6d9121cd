"""Project-specific static analysis: the invariant linter.

The cross-cutting contracts of this package -- determinism of the
solver paths, obs/guard instrumentation coverage, and the central env
registry -- were historically enforced by convention plus runtime
tests.  This package proves them at lint time instead: an AST-based
rule framework with project-specific rules, run as ``make lint-deep`` /
``python -m repro.analysis src/repro``.

Rules (each documented in its module):

``determinism``
    :mod:`repro.analysis.determinism` -- no unordered set iteration or
    unseeded randomness in the solver paths.
``obs-coverage``
    :mod:`repro.analysis.coverage` -- public solver entry points carry
    obs spans + guard budget checkpoints, and every emitted obs event
    name has a schema in ``obs/validate.py``.
``env-discipline``
    :mod:`repro.analysis.envrule` -- ``os.environ`` is read only inside
    :mod:`repro.env`.

False positives are silenced inline with a reasoned suppression::

    x = frobnicate()  # repro: lint-ok[determinism] -- reduction is order-insensitive

(a suppression without a reason is itself a finding).  See the README
("Static analysis") for the CLI, the rule catalog, and the suppression
policy.
"""

from __future__ import annotations

from .core import RULES, Finding, Project, run_paths

# importing the rule modules registers them in RULES
from . import coverage, determinism, envrule  # noqa: F401, E402

__all__ = ["RULES", "Finding", "Project", "run_paths"]
