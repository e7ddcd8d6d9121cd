"""Golden suite for the :mod:`repro.analysis` invariant linter.

Three layers:

* **fixture goldens** -- each rule runs against a planted-violation
  tree under ``tests/fixtures/analysis/<family>_bad`` and must report
  exactly the lines carrying ``# expect[rule-id]`` markers (right rule,
  right line, nothing else), and a ``<family>_good`` twin that must
  come back clean.  The markers live next to the planted code, so the
  expectations cannot drift from the fixtures;
* **framework semantics** -- suppression comments (trailing /
  standalone / reason required), the ``syntax`` meta-rule, select /
  ignore resolution, and the CLI's exit codes and JSON shape;
* **the real tree** -- ``src/repro`` itself lints clean with every rule
  on, which is the invariant CI's ``lint-deep`` leg enforces.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import RULES, run_paths
from repro.analysis.__main__ import main
from repro.analysis.core import (
    SUPPRESSION_RULE,
    SYNTAX_RULE,
    resolve_rules,
)

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
FIXTURES = TESTS / "fixtures" / "analysis"
SRC_TREE = REPO / "src" / "repro"

#: fixture family -> the rule its trees exercise
FAMILIES = {
    "det": "determinism",
    "cov": "obs-coverage",
    "env": "env-discipline",
}

_EXPECT_RE = re.compile(r"#\s*expect\[(?P<rule>[a-z-]+)\]")


def _planted(tree: Path) -> set[tuple[str, int, str]]:
    """``(path, line, rule)`` triples marked ``# expect[rule]`` in ``tree``."""
    expected = set()
    for path in sorted(tree.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = _EXPECT_RE.search(line)
            if match:
                expected.add((path.as_posix(), lineno, match.group("rule")))
    return expected


# --- fixture goldens --------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bad_fixture_reports_exactly_the_planted_lines(family):
    rule_id = FAMILIES[family]
    tree = FIXTURES / f"{family}_bad"
    expected = _planted(tree)
    assert expected, f"{tree} plants no # expect[...] markers"
    assert {rule for _, _, rule in expected} == {rule_id}
    findings, _ = run_paths([str(tree)], select=[rule_id])
    got = {(f.path, f.line, f.rule) for f in findings}
    assert got == expected


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_good_fixture_is_clean(family):
    tree = FIXTURES / f"{family}_good"
    findings, files = run_paths([str(tree)], select=[FAMILIES[family]])
    assert findings == []
    assert files > 0


def test_det_fixture_suppression_silences_the_order_free_loop():
    # det_bad line "for v in nodes & {best}" carries a reasoned lint-ok
    # and must NOT be reported even though it is a set iteration.
    bad = FIXTURES / "det_bad" / "core" / "mod.py"
    suppressed_lines = [
        lineno
        for lineno, line in enumerate(bad.read_text().splitlines(), start=1)
        if "lint-ok[determinism]" in line
    ]
    assert suppressed_lines, "fixture lost its suppression plant"
    findings, _ = run_paths([str(bad)], select=["determinism"])
    assert not {f.line for f in findings}.intersection(suppressed_lines)


# --- framework semantics ----------------------------------------------


def _lint_snippet(tmp_path, text, select=("determinism",)):
    # determinism only fires inside solver dirs, so park the file there
    path = tmp_path / "core" / "mod.py"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    findings, _ = run_paths([str(path)], select=list(select))
    return findings


HAZARD = "for v in {1, 2, 3}:\n    print(v)\n"


def test_trailing_suppression_with_reason_silences(tmp_path):
    text = "for v in {1, 2, 3}:  # repro: lint-ok[determinism] -- order-free\n    print(v)\n"
    assert _lint_snippet(tmp_path, text) == []


def test_standalone_suppression_shields_the_next_line(tmp_path):
    text = "# repro: lint-ok[determinism] -- order-free\nfor v in {1, 2, 3}:\n    print(v)\n"
    assert _lint_snippet(tmp_path, text) == []


def test_suppression_without_reason_is_itself_a_finding(tmp_path):
    text = "for v in {1, 2, 3}:  # repro: lint-ok[determinism]\n    print(v)\n"
    findings = _lint_snippet(tmp_path, text)
    rules = sorted(f.rule for f in findings)
    # the hazard is NOT silenced and the bad comment is reported
    assert rules == sorted(["determinism", SUPPRESSION_RULE])


def test_suppression_naming_no_rule_is_a_finding(tmp_path):
    text = "x = 1  # repro: lint-ok[] -- because\n"
    findings = _lint_snippet(tmp_path, text)
    assert [f.rule for f in findings] == [SUPPRESSION_RULE]


def test_suppression_for_a_different_rule_does_not_silence(tmp_path):
    text = "for v in {1, 2, 3}:  # repro: lint-ok[env-discipline] -- wrong rule\n    print(v)\n"
    findings = _lint_snippet(tmp_path, text)
    assert [f.rule for f in findings] == ["determinism"]


def test_unparsable_file_reports_the_syntax_meta_rule(tmp_path):
    findings = _lint_snippet(tmp_path, "def broken(:\n")
    assert [f.rule for f in findings] == [SYNTAX_RULE]


def test_ignore_drops_a_rule(tmp_path):
    path = tmp_path / "core" / "mod.py"
    path.parent.mkdir(exist_ok=True)
    path.write_text(HAZARD)
    findings, _ = run_paths([str(path)], ignore=["determinism"])
    assert findings == []


def test_resolve_rules_rejects_unknown_ids():
    with pytest.raises(ValueError, match="no-such-rule"):
        resolve_rules(select=["no-such-rule"])
    with pytest.raises(ValueError, match="no-such-rule"):
        resolve_rules(ignore=["no-such-rule"])


def test_registry_has_the_three_project_rules():
    assert set(RULES) == {
        "determinism",
        "obs-coverage",
        "env-discipline",
    }


# --- CLI --------------------------------------------------------------


def test_cli_findings_exit_one_and_json_shape(capsys):
    code = main([str(FIXTURES / "env_bad"), "--select", "env-discipline",
                 "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == ["env-discipline"]
    assert payload["files"] == 1
    assert len(payload["findings"]) == 4
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "col", "rule", "message"}
    assert first["rule"] == "env-discipline"


def test_cli_clean_exit_zero(capsys):
    code = main([str(FIXTURES / "env_good"), "--select", "env-discipline"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_unknown_rule_exit_two(capsys):
    assert main([str(FIXTURES), "--select", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_missing_path_exit_two(capsys):
    assert main([str(FIXTURES / "does-not-exist")]) == 2
    assert "does-not-exist" in capsys.readouterr().err


def test_cli_list_rules_names_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in list(RULES) + [SUPPRESSION_RULE, SYNTAX_RULE]:
        assert rule_id in out


def test_cli_env_table_prints_the_registry(capsys):
    assert main(["--env-table"]) == 0
    out = capsys.readouterr().out
    assert "REPRO_TRACE" in out and "| Variable |" in out


def test_cli_select_env_default(tmp_path, monkeypatch, capsys):
    path = tmp_path / "core" / "mod.py"
    path.parent.mkdir(exist_ok=True)
    path.write_text(HAZARD)
    monkeypatch.setenv("REPRO_LINT_IGNORE", "determinism")
    assert main([str(path)]) == 0
    monkeypatch.delenv("REPRO_LINT_IGNORE")
    assert main([str(path)]) == 1


# --- the real tree ----------------------------------------------------


def test_repo_tree_lints_clean_with_all_rules():
    findings, files = run_paths([str(SRC_TREE)])
    assert findings == [], "\n".join(f.render() for f in findings)
    assert files > 50  # the whole package was examined, not a sliver


def test_cli_self_run_from_repo_root():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro"],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout
