"""Experiment modules, one per paper table/figure.

Each module is named after its artefact: ``table2`` .. ``table5`` are
Tables 2-5, ``fig8`` .. ``fig12`` and ``fig20`` the figures of the same
number, ``fig13_14`` the random-graph Figures 13 (exact) and 14
(approximate), and ``fig15_16`` the PDS Figures 15 (exact) and 16
(approximate).  Each module's ``run`` (``run_exact`` / ``run_approx``
for the two-part figures) returns the artefact's rows.
"""

from . import (
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13_14,
    fig15_16,
    fig20,
    table2,
    table3,
    table4,
    table5,
)
from .harness import format_table, print_table, timed

__all__ = [
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13_14",
    "fig15_16",
    "fig20",
    "table2",
    "table3",
    "table4",
    "table5",
    "format_table",
    "print_table",
    "timed",
]
