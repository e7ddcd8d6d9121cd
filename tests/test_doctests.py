"""Execute the doctest examples embedded in the library's docstrings."""

import doctest
from pathlib import Path

import pytest

import repro
import repro.api
import repro.cliques.enumeration
import repro.env
import repro.graph.graph
import repro.patterns.isomorphism
import repro.patterns.pattern

MODULES = [
    repro,
    repro.api,
    repro.cliques.enumeration,
    repro.graph.graph,
    repro.patterns.isomorphism,
    repro.patterns.pattern,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    failures, tests = result.failed, doctest.testmod(module).attempted
    assert failures == 0
    assert tests > 0  # every listed module must actually carry examples


def test_readme_env_table_is_the_generated_registry_table():
    # regenerate with ``python -m repro.env`` when the registry changes
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert repro.env.markdown_table() in readme.read_text(encoding="utf-8")
