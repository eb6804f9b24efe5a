"""End-to-end tests of the command-line frontend.

Every test drives ``main(argv)`` directly and asserts on the returned exit
code and the captured stdout/stderr, so the full contract — exit codes,
text lines, JSON payloads, file writes, and the journal — is pinned down.
Two tests import the CLI in a fresh interpreter to check what start-up
loads and compiles; the last two run it as `python -m confkit.cli` and
`python -m confkit`, and the very last checks that its output does not
depend on the hash seed.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import confkit
from confkit import cli
from confkit.cli import main
from confkit.inference import infer
from confkit.lifecycle import parse_journal
from confkit.textfmt import check_config_text, check_spec_text, parse_config, parse_spec, print_spec

from conftest import (
    FIXTURES,
    build_extend_change,
    build_inferred_psy2,
    build_psy1,
    build_psy2,
    build_upgrade_change,
)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _clean_format_env(monkeypatch):
    monkeypatch.delenv("CONFKIT_FORMAT", raising=False)


@pytest.fixture()
def ws(tmp_path):
    """A scratch copy of the shipped fixture files."""
    for name in ("psy1.cg", "psy2.cg", "psycho.csg",
                 "upgrade-to-v2.json", "add-julia-effects.json"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


TWO_ROOTS = (
    'config c {\n'
    '  component a : T ("a", "o", 1) files [];\n'
    '  component b : U ("b", "o", 1) files [];\n'
    '}\n'
)

BAD_SUM_SPEC = (
    'spec s {\n'
    '  node T { total: 1..1; contains { U: 2..3 } }\n'
    '  node U { total: 0..0; }\n'
    '  root T;\n'
    '}\n'
)

# valid on its own, but admits no children at the root
TIGHT_SPEC = (
    'spec tight {\n'
    '  node Psycho { total: 0..0; }\n'
    '  root Psycho;\n'
    '}\n'
)


# --------------------------------------------------------------------------
# validate


class TestValidate:
    def test_valid_spec(self, ws, capsys):
        code, out, err = run(capsys, "validate", "--spec", str(ws / "psycho.csg"))
        assert code == 0
        assert out == f"ok: {ws / 'psycho.csg'} is a well-formed spec\n"
        assert err == ""

    def test_valid_config(self, ws, capsys):
        code, out, _ = run(capsys, "validate", "--config", str(ws / "psy1.cg"))
        assert code == 0
        assert "well-formed configuration" in out

    def test_semantically_invalid_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "two-roots.cg"
        path.write_text(TWO_ROOTS)
        code, out, _ = run(capsys, "validate", "--config", str(path))
        assert code == 1
        assert out.splitlines()[0] == f"invalid configuration: {path}"
        assert any("violation [unique-root]" in line for line in out.splitlines())

    def test_semantically_invalid_spec_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad-sum.csg"
        path.write_text(BAD_SUM_SPEC)
        code, out, _ = run(capsys, "validate", "--spec", str(path))
        assert code == 1
        assert "invalid spec" in out
        assert "violation [interval-sum]" in out
        # the child-sum advisory fires too, but as a warning
        assert "warning [child-sum-advisory]" in out

    def test_a_spec_without_a_root_node_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cycle.csg"
        path.write_text(
            'spec s {\n'
            '  node T { total: 1..1; contains { U: 1..1 } }\n'
            '  node U { total: 1..1; contains { T: 1..1 } }\n'
            '  root T;\n'
            '}\n')
        code, out, _ = run(capsys, "validate", "--spec", str(path))
        assert code == 1
        assert out.splitlines() == [
            f"invalid spec: {path}",
            "  violation [unique-root] no root: every spec node is a child of another"]

    def test_unparseable_text_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.cg"
        path.write_text("config ???")
        code, out, err = run(capsys, "validate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", "--config", str(tmp_path / "nope.cg"))
        assert code == 2
        assert err.startswith("error:")

    def test_json_payload(self, tmp_path, capsys):
        path = tmp_path / "two-roots.cg"
        path.write_text(TWO_ROOTS)
        code, out, _ = run(capsys, "validate", "--config", str(path), "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["command"] == "validate"
        assert payload["kind"] == "configuration"
        assert payload["path"] == str(path)
        assert payload["ok"] is False
        assert payload["violations"]
        v = payload["violations"][0]
        assert set(v) == {"condition", "subjects", "message", "severity"}
        assert v["condition"] == "unique-root"


# --------------------------------------------------------------------------
# check


class TestCheck:
    def test_compliant_pair(self, ws, capsys):
        code, out, _ = run(capsys, "check", str(ws / "psy1.cg"), str(ws / "psycho.csg"))
        assert code == 0
        assert out == f"compliant: {ws / 'psy1.cg'} satisfies {ws / 'psycho.csg'}\n"

    def test_both_fixture_configs_comply(self, ws, capsys):
        for name in ("psy1.cg", "psy2.cg"):
            code, _, _ = run(capsys, "check", str(ws / name), str(ws / "psycho.csg"))
            assert code == 0

    def test_strict_lower_bounds_still_compliant(self, ws, capsys):
        code, _, _ = run(capsys, "check", str(ws / "psy1.cg"), str(ws / "psycho.csg"),
                         "--strict-lower-bounds")
        assert code == 0

    def test_faithful_leaf_rule_breaks_compliance(self, ws, capsys):
        # under the faithful leaf reading, leaf totals infer to 1..1, which
        # the spec's 0..0 leaf totals do not admit
        code, out, _ = run(capsys, "check", str(ws / "psy1.cg"), str(ws / "psycho.csg"),
                           "--faithful-leaf-rule")
        assert code == 1
        assert out.startswith("not compliant:")

    def test_explain_lists_clauses(self, ws, tmp_path, capsys):
        spec_path = tmp_path / "tight.csg"
        spec_path.write_text(TIGHT_SPEC)
        code, out, _ = run(capsys, "check", str(ws / "psy1.cg"), str(spec_path),
                           "--explain")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("not compliant:")
        assert any("[unexpected-child-type]" in line for line in lines[1:])
        assert any("[missing-spec-node]" in line for line in lines[1:])

    def test_without_explain_only_the_verdict_prints(self, ws, tmp_path, capsys):
        spec_path = tmp_path / "tight.csg"
        spec_path.write_text(TIGHT_SPEC)
        code, out, _ = run(capsys, "check", str(ws / "psy1.cg"), str(spec_path))
        assert code == 1
        assert len(out.splitlines()) == 1

    def test_json_payload(self, ws, tmp_path, capsys):
        spec_path = tmp_path / "tight.csg"
        spec_path.write_text(TIGHT_SPEC)
        code, out, _ = run(capsys, "check", str(ws / "psy1.cg"), str(spec_path),
                           "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["command"] == "check"
        assert payload["compliant"] is False
        assert all(set(f) == {"subject", "clause", "detail"} for f in payload["failures"])
        clauses = {f["clause"] for f in payload["failures"]}
        assert "unexpected-child-type" in clauses


class TestInvalidInputs:
    """`check` and `compat` on a file that parses but is not a valid
    configuration or spec: exit 2, an `error:` line, then one line per
    violation of the report, warnings included, each marked `violation` or
    `warning` as `validate` marks it."""

    @staticmethod
    def assert_report_on_stderr(err, report):
        assert report.violations
        lines = err.splitlines()
        assert lines[0].startswith("error: not a valid configuration")
        marks = {"error": "violation", "warning": "warning"}
        assert lines[1:] == [f"  {marks[v.severity]} [{v.condition}] {v.message}"
                             for v in report.violations]

    def test_check_refuses_an_invalid_configuration(self, ws, tmp_path, capsys):
        path = tmp_path / "two-roots.cg"
        path.write_text(TWO_ROOTS)
        code, out, err = run(capsys, "check", str(path), str(ws / "psycho.csg"))
        assert (code, out) == (2, "")
        self.assert_report_on_stderr(err, check_config_text(TWO_ROOTS)[1])

    def test_check_refuses_an_invalid_spec(self, ws, tmp_path, capsys):
        path = tmp_path / "bad-sum.csg"
        path.write_text(BAD_SUM_SPEC)
        code, out, err = run(capsys, "check", str(ws / "psy1.cg"), str(path))
        assert (code, out) == (2, "")
        report = check_spec_text(BAD_SUM_SPEC)[1]
        assert {v.severity for v in report.violations} == {"error", "warning"}
        self.assert_report_on_stderr(err, report)

    def test_compat_refuses_an_invalid_configuration_or_spec(self, ws, tmp_path, capsys):
        config, spec = tmp_path / "two-roots.cg", tmp_path / "bad-sum.csg"
        config.write_text(TWO_ROOTS)
        spec.write_text(BAD_SUM_SPEC)
        code, out, err = run(capsys, "compat", str(ws / "psy1.cg"), str(config),
                             "--spec", str(ws / "psycho.csg"))
        assert (code, out) == (2, "")
        self.assert_report_on_stderr(err, check_config_text(TWO_ROOTS)[1])
        code, out, err = run(capsys, "compat", str(ws / "psy1.cg"), str(ws / "psy2.cg"),
                             "--spec", str(spec))
        assert (code, out) == (2, "")
        self.assert_report_on_stderr(err, check_spec_text(BAD_SUM_SPEC)[1])


# --------------------------------------------------------------------------
# infer


class TestInfer:
    def test_inferred_spec_round_trips(self, ws, capsys):
        code, out, _ = run(capsys, "infer", str(ws / "psy2.cg"))
        assert code == 0
        assert out.startswith("# inferred minimal specification (not validated)\n")
        reparsed = parse_spec(out)
        assert reparsed.specs == build_inferred_psy2().specs

    def test_faithful_flag_changes_totals(self, ws, capsys):
        _, default_out, _ = run(capsys, "infer", str(ws / "psy2.cg"))
        _, out, _ = run(capsys, "infer", str(ws / "psy2.cg"), "--faithful-leaf-rule")
        assert out != default_out
        assert "total: 0..0;" in default_out
        # merged PScr node now counts its two leaf components
        assert "total: 2..2;" in out
        # the faithful variant is a study artifact: its leaf totals violate
        # the children-sum condition, so the validating parser refuses it
        obj, report = check_spec_text(out)
        assert obj is None
        assert "interval-sum" in {v.condition for v in report.violations}

    def test_deterministic_output(self, ws, capsys):
        _, out1, _ = run(capsys, "infer", str(ws / "psy2.cg"))
        _, out2, _ = run(capsys, "infer", str(ws / "psy2.cg"))
        assert out1 == out2

    def test_json_payload(self, ws, capsys):
        code, out, _ = run(capsys, "infer", str(ws / "psy2.cg"), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "infer"
        assert parse_spec(payload["spec"]).specs == build_inferred_psy2().specs


# The 8-component reproduction of ROADMAP's first known defect: n1 depends on
# n3 and n4, two components of one ctype.
EIGHT = (
    'config n0 {\n'
    '  component n0 : L0 ("n0", "o", 1) contains [n1];\n'
    '  component n1 : L1 ("n1", "o", 1) contains [n2, n6] depends [n3, n4];\n'
    '  component n2 : L2 ("n2", "o", 1) contains [n3, n4, n5];\n'
    '  component n3 : L3 ("n3", "o", 1) files [];\n'
    '  component n4 : L3 ("n4", "o", 1) files [];\n'
    '  component n5 : L3 ("n5", "o", 1) files [];\n'
    '  component n6 : L2 ("n6", "o", 1) contains [n7];\n'
    '  component n7 : L3 ("n7", "o", 1) files [];\n'
    '}\n'
)


class TestInferReproduction:
    @pytest.fixture()
    def inferred(self, tmp_path, capsys):
        config = tmp_path / "c.cg"
        config.write_text(EIGHT)
        code, out, _ = run(capsys, "infer", str(config))
        assert code == 0
        spec = tmp_path / "s.csg"
        spec.write_text(out)
        return config, spec, out

    def test_infer_prints_one_dependency_entry_per_ctype(self, inferred):
        _, _, out = inferred
        depends = [line for line in out.splitlines() if "depends" in line]
        assert depends == ['    depends { L3(name: "n3" | "n4";) }']

    def test_check_of_the_inferred_spec_reports_its_validation(self, inferred, capsys):
        # the text reads back; its slot counts still do not fit its total
        config, spec, _ = inferred
        code, out, err = run(capsys, "check", str(config), str(spec))
        assert (code, out) == (2, "")
        assert err.splitlines()[:2] == [
            "error: not a valid configuration spec: "
            "L2: children counts sum to 1..3, not included in total 4..4",
            "  violation [interval-sum] L2: children counts sum to 1..3, not included in total 4..4"]

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 1: infer does not yet widen "
                                           "its result to the least valid spec")
    def test_check_accepts_the_inferred_spec(self, inferred, capsys):
        config, spec, _ = inferred
        assert run(capsys, "check", str(config), str(spec))[0] == 0


# --------------------------------------------------------------------------
# compat


class TestCompat:
    def test_upgrade_is_a_valid_stand_in(self, ws, capsys):
        code, out, _ = run(capsys, "compat", str(ws / "psy1.cg"), str(ws / "psy2.cg"),
                           "--spec", str(ws / "psycho.csg"))
        assert code == 0
        assert out == (f"compatible: {ws / 'psy2.cg'} can stand in for"
                       f" {ws / 'psy1.cg'}\n")

    def test_downgrade_is_rejected_with_reasons(self, ws, capsys):
        code, out, _ = run(capsys, "compat", str(ws / "psy2.cg"), str(ws / "psy1.cg"),
                           "--spec", str(ws / "psycho.csg"))
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("not compatible:")
        assert "  [no-counterpart] CGLib(julib.so, Jack, v1)" in lines
        assert "  [no-counterpart] PScr(my.psc, Jane, v2)" in lines

    def test_strict_names_reject_renamed_composites(self, ws, capsys):
        code, out, _ = run(capsys, "compat", str(ws / "psy1.cg"), str(ws / "psy2.cg"),
                           "--spec", str(ws / "psycho.csg"), "--strict-names")
        assert code == 1
        assert "  [no-counterpart] Bin(bin1, IMsk, v1)" in out.splitlines()
        assert "  [no-counterpart] Psycho(psy1, IMsk, v1)" in out.splitlines()

    def test_json_payload(self, ws, capsys):
        code, out, _ = run(capsys, "compat", str(ws / "psy2.cg"), str(ws / "psy1.cg"),
                           "--spec", str(ws / "psycho.csg"), "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["command"] == "compat"
        assert payload["compatible"] is False
        # the two v2-only components have no counterpart; every surviving
        # counterpart pair runs backwards in version
        causes = {r["cause"] for r in payload["reasons"]}
        assert causes == {"no-counterpart", "version-regression"}
        dropped = {r["subject"] for r in payload["reasons"]
                   if r["cause"] == "no-counterpart"}
        assert dropped == {"CGLib(julib.so, Jack, v1)", "PScr(my.psc, Jane, v2)"}


# --------------------------------------------------------------------------
# apply / undo


class TestApplyUndo:
    def test_worked_upgrade_and_full_rollback(self, ws, capsys):
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        spec = str(ws / "psycho.csg")
        journal = ws / "app.cg.journal"

        code, out, _ = run(capsys, "apply", str(app), str(ws / "upgrade-to-v2.json"),
                           "--spec", spec)
        assert code == 0
        assert out == f"applied: {app} rewritten (journal seq 0)\n"
        assert journal.exists()
        assert len(parse_journal(journal.read_text())) == 1

        code, out, _ = run(capsys, "apply", str(app), str(ws / "add-julia-effects.json"),
                           "--spec", spec)
        assert code == 0
        assert out == f"applied: {app} rewritten (journal seq 1)\n"
        assert app.read_bytes() == (FIXTURES / "psy2.cg").read_bytes()

        entries = parse_journal(journal.read_text())
        assert [e.seq for e in entries] == [0, 1]
        assert entries[0].change == build_upgrade_change()
        assert entries[1].change == build_extend_change()
        assert all(e.undoes is None for e in entries)

        code, out, _ = run(capsys, "undo", str(app))
        assert code == 0
        assert out == f"undid entry 1: {app} restored (journal seq 2)\n"

        code, out, _ = run(capsys, "undo", str(app))
        assert code == 0
        assert out == f"undid entry 0: {app} restored (journal seq 3)\n"
        assert app.read_bytes() == (FIXTURES / "psy1.cg").read_bytes()

        entries = parse_journal(journal.read_text())
        assert [(e.seq, e.undoes) for e in entries] == [
            (0, None), (1, None), (2, 1), (3, 0)]

        before = app.read_bytes()
        code, _, err = run(capsys, "undo", str(app))
        assert code == 1
        assert err.startswith("rejected:")
        assert "nothing left to undo" in err
        assert app.read_bytes() == before
        assert len(parse_journal(journal.read_text())) == 4

    def test_dry_run_writes_nothing(self, ws, capsys):
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        before = app.read_bytes()
        code, out, _ = run(capsys, "apply", str(app), str(ws / "upgrade-to-v2.json"),
                           "--spec", str(ws / "psycho.csg"), "--dry-run")
        assert code == 0
        assert app.read_bytes() == before
        assert not (ws / "app.cg.journal").exists()
        # stdout carries the would-be result, which must itself parse
        result = parse_config(out)
        by_name = {c.id.name: c.id.version for c in result}
        assert by_name == {"psy2": 2, "bin2": 2, "psycho": 2,
                           "glib.so": 2, "mlib.so": 3, "def.psc": 1}

    def test_custom_journal_path(self, ws, capsys):
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        journal = ws / "history.jsonl"
        code, _, _ = run(capsys, "apply", str(app), str(ws / "upgrade-to-v2.json"),
                         "--spec", str(ws / "psycho.csg"), "--journal", str(journal))
        assert code == 0
        assert journal.exists()
        assert not (ws / "app.cg.journal").exists()
        code, _, _ = run(capsys, "undo", str(app), "--journal", str(journal))
        assert code == 0
        assert app.read_bytes() == (FIXTURES / "psy1.cg").read_bytes()

    def test_spec_violation_is_rejected(self, ws, capsys):
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        before = app.read_bytes()
        change = ws / "second-bin.json"
        change.write_text(json.dumps({
            "op": "extend",
            "components": [{"id": ["Bin", "bin9", "acme", 1], "files": ["bin/x"]}],
            "attachments": [[["Bin", "bin9", "acme", 1],
                             ["Psycho", "psy1", "IMsk", 1]]],
        }))
        code, out, err = run(capsys, "apply", str(app), str(change),
                             "--spec", str(ws / "psycho.csg"))
        assert code == 1
        assert out == ""
        assert err.startswith("rejected:")
        assert app.read_bytes() == before
        assert not (ws / "app.cg.journal").exists()

    def test_dependency_guard_names_the_dependent(self, ws, capsys):
        change = ws / "drop-julib.json"
        change.write_text(json.dumps({
            "op": "remove", "ids": [["CGLib", "julib.so", "Jack", 1]]}))
        code, _, err = run(capsys, "apply", str(ws / "psy2.cg"), str(change),
                           "--spec", str(ws / "psycho.csg"))
        assert code == 1
        assert err.startswith("rejected:")
        assert "my.psc" in err

    def test_type_change_is_rejected_by_a_guard(self, ws, capsys):
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        before = app.read_bytes()
        change = ws / "glib-to-mlib.json"
        change.write_text(json.dumps({
            "op": "update",
            "replacements": [[["GLib", "glib.so", "IMsk", 1],
                              {"id": ["MLib", "glib.so", "IMsk", 2], "files": []}]]}))
        code, out, err = run(capsys, "apply", str(app), str(change),
                             "--spec", str(ws / "psycho.csg"))
        assert code == 1
        assert out == ""
        assert err.startswith("rejected:")
        assert app.read_bytes() == before
        assert not (ws / "app.cg.journal").exists()

    def test_changeset_that_does_not_fit_the_file_exits_2(self, ws, capsys):
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        before = app.read_bytes()
        change = ws / "drop-ghost.json"
        change.write_text(json.dumps({
            "op": "remove", "ids": [["GLib", "ghost.so", "IMsk", 1]]}))
        code, _, err = run(capsys, "apply", str(app), str(change),
                           "--spec", str(ws / "psycho.csg"))
        assert code == 2
        assert err.startswith("error:")
        assert app.read_bytes() == before

    def test_a_result_with_no_written_form_exits_2_and_writes_nothing(self, tmp_path, capsys):
        app = tmp_path / "app.cg"
        app.write_text('config c {\n  component a : App ("a", "o", 1) files [];\n}\n')
        spec = tmp_path / "app.csg"
        spec.write_text("spec s {\n  node App { total: 0..0; }\n  root App;\n}\n")
        change = tmp_path / "newline.json"
        change.write_text(json.dumps({
            "op": "update",
            "replacements": [[["App", "a", "o", 1],
                              {"id": ["App", "a\nb", "o", 2], "files": []}]]}))
        before = app.read_bytes()
        code, out, err = run(capsys, "apply", str(app), str(change), "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "has no written form" in err
        assert app.read_bytes() == before
        assert not (tmp_path / "app.cg.journal").exists()
        assert run(capsys, "check", str(app), str(spec))[0] == 0

    def test_malformed_changeset_exits_2(self, ws, capsys):
        change = ws / "broken.json"
        change.write_text("{")
        code, _, err = run(capsys, "apply", str(ws / "psy1.cg"), str(change),
                           "--spec", str(ws / "psycho.csg"))
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_changeset_error_is_short(self, ws, capsys):
        change = ws / "long.json"
        change.write_text("[" + "1," * 100_000 + "1]")
        code, _, err = run(capsys, "apply", str(ws / "psy1.cg"), str(change),
                           "--spec", str(ws / "psycho.csg"))
        assert code == 2
        assert err.startswith("error:")
        assert len(err) < 300 + len(str(change))

    def test_corrupted_journal_exits_2(self, ws, capsys):
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        (ws / "app.cg.journal").write_text("not json\n")
        before = app.read_bytes()
        code, _, err = run(capsys, "apply", str(app), str(ws / "upgrade-to-v2.json"),
                           "--spec", str(ws / "psycho.csg"))
        assert code == 2
        assert err.startswith("error:")
        assert app.read_bytes() == before

        code, _, err = run(capsys, "undo", str(app))
        assert code == 2
        assert err.startswith("error:")

    def test_undo_refuses_a_file_edited_where_the_entry_wrote(self, ws, capsys):
        # The upgrade replaced three of the four leaves; an outside edit of
        # all four cannot be undone without losing part of it.
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        journal = ws / "app.cg.journal"
        code, _, _ = run(capsys, "apply", str(app), str(ws / "upgrade-to-v2.json"),
                         "--spec", str(ws / "psycho.csg"))
        assert code == 0
        text = app.read_text()
        assert text.count("files [];") == 4
        app.write_text(text.replace("files [];", 'files ["x"];'))
        before, journal_before = app.read_bytes(), journal.read_bytes()
        code, out, err = run(capsys, "undo", str(app))
        assert (code, out) == (1, "")
        assert err.startswith("rejected:")
        assert app.read_bytes() == before
        assert journal.read_bytes() == journal_before

    def test_undo_refuses_a_kept_component_that_depends_on_an_added_one(self, ws, capsys):
        # Undoing the extend would remove julib.so, which def.psc now needs.
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        journal = ws / "app.cg.journal"
        for change in ("upgrade-to-v2.json", "add-julia-effects.json"):
            code, _, _ = run(capsys, "apply", str(app), str(ws / change),
                             "--spec", str(ws / "psycho.csg"))
            assert code == 0
        kept = 'component def_psc : PScr ("def.psc", "IMsk", 1) files [];'
        text = app.read_text()
        assert kept in text
        app.write_text(text.replace(kept, kept[:-1] + " depends [julib_so];"))
        assert run(capsys, "check", str(app), str(ws / "psycho.csg"))[0] == 0
        before, journal_before = app.read_bytes(), journal.read_bytes()
        code, out, err = run(capsys, "undo", str(app))
        assert (code, out) == (1, "")
        assert err.startswith("rejected:")
        assert app.read_bytes() == before
        assert journal.read_bytes() == journal_before

    def test_undo_refuses_a_journal_entry_whose_change_does_not_redo(self, ws, capsys):
        # The inverse still fits, but the change it records names an App
        # version the file never had, so it cannot give the file back.
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        journal = ws / "app.cg.journal"
        code, _, _ = run(capsys, "apply", str(app), str(ws / "upgrade-to-v2.json"),
                         "--spec", str(ws / "psycho.csg"))
        assert code == 0
        obj = json.loads(journal.read_text())
        first_old_id = obj["change"]["replacements"][0][0]
        assert first_old_id == ["App", "psycho", "IMsk", 1]
        first_old_id[3] = 9
        journal.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
        before, journal_before = app.read_bytes(), journal.read_bytes()
        code, out, err = run(capsys, "undo", str(app))
        assert (code, out) == (1, "")
        assert err == "rejected: configuration differs from what the entry produced\n"
        assert app.read_bytes() == before
        assert journal.read_bytes() == journal_before

    def test_undo_keeps_an_outside_edit_the_entry_did_not_touch(self, ws, capsys):
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        code, _, _ = run(capsys, "apply", str(app), str(ws / "upgrade-to-v2.json"),
                         "--spec", str(ws / "psycho.csg"))
        assert code == 0
        untouched = 'component def_psc : PScr ("def.psc", "IMsk", 1) files [];'
        edited = untouched.replace("files []", 'files ["x"]')
        app.write_text(app.read_text().replace(untouched, edited))
        code, _, _ = run(capsys, "undo", str(app))
        assert code == 0
        expected = (FIXTURES / "psy1.cg").read_text().replace(untouched, edited)
        assert app.read_text() == expected
        assert len(parse_journal((ws / "app.cg.journal").read_text())) == 2
        assert run(capsys, "check", str(app), str(ws / "psycho.csg"))[0] == 0

    def test_an_unwritable_journal_leaves_the_file_untouched(self, ws, capsys):
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        before = app.read_bytes()
        journal = ws / "missing" / "dir" / "j"
        code, out, err = run(capsys, "apply", str(app), str(ws / "upgrade-to-v2.json"),
                             "--spec", str(ws / "psycho.csg"), "--journal", str(journal))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert app.read_bytes() == before
        assert not journal.exists() and not (ws / "missing").exists()

    def test_undo_with_an_unwritable_journal_leaves_both_files_untouched(
            self, ws, capsys, monkeypatch):
        app = ws / "app.cg"
        shutil.copy(ws / "psy1.cg", app)
        journal = ws / "app.cg.journal"
        assert run(capsys, "apply", str(app), str(ws / "upgrade-to-v2.json"),
                   "--spec", str(ws / "psycho.csg"))[0] == 0
        before, journal_before = app.read_bytes(), journal.read_bytes()

        def read_only(path, mode="r", *args, **kwargs):
            if path == str(journal) and mode != "r":
                raise PermissionError(13, "Permission denied", path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", read_only, raising=False)
        code, out, err = run(capsys, "undo", str(app))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert app.read_bytes() == before
        assert journal.read_bytes() == journal_before

    def test_undo_without_a_journal_has_nothing_to_undo(self, ws, capsys):
        # a journal not yet written is an empty one, as `apply` reads it
        config = ws / "psy1.cg"
        before = config.read_bytes()
        code, out, err = run(capsys, "undo", str(config))
        assert (code, out) == (1, "")
        assert err == f"rejected: journal {config}.journal has nothing left to undo\n"
        assert config.read_bytes() == before
        assert not (ws / "psy1.cg.journal").exists()


# --------------------------------------------------------------------------
# dot


class TestDotCommand:
    def test_config_dot(self, ws, capsys):
        code, out, _ = run(capsys, "dot", str(ws / "psy1.cg"))
        assert code == 0
        assert out.startswith("digraph config {\n")
        assert out.rstrip("\n").endswith("}")

    def test_spec_dot(self, ws, capsys):
        code, out, _ = run(capsys, "dot", str(ws / "psycho.csg"))
        assert code == 0
        assert out.startswith("digraph spec {\n")

    def test_deterministic(self, ws, capsys):
        _, out1, _ = run(capsys, "dot", str(ws / "psy2.cg"))
        _, out2, _ = run(capsys, "dot", str(ws / "psy2.cg"))
        assert out1 == out2

    @pytest.mark.parametrize("name, text, error", [
        ("bad.cg", 'config c {\n  component a : T ("a", "o", 1) files [] % ;\n}\n',
         "2:42: expected a token, found '%'"),
        ("bad.csg", "spec s {\n  node T { total: 0 . 0; }\n  root T;\n}\n",
         "2:21: expected '..', found '.'"),
    ], ids=["config", "spec"])
    def test_a_lexical_error_after_the_keyword_exits_2(self, tmp_path, capsys, name, text, error):
        # the kind is judged by the leading keyword alone; the parse that
        # follows reports the later lexical error
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "dot", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{error}\n"

    def test_json_payload(self, ws, capsys):
        code, out, _ = run(capsys, "dot", str(ws / "psy1.cg"), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "dot"
        assert payload["dot"].startswith("digraph config {")


# --------------------------------------------------------------------------
# output format selection


class TestFormatSelection:
    def test_env_var_overrides_the_flag(self, ws, capsys, monkeypatch):
        monkeypatch.setenv("CONFKIT_FORMAT", "json")
        code, out, _ = run(capsys, "validate", "--config", str(ws / "psy1.cg"),
                           "--format", "text")
        assert code == 0
        assert json.loads(out)["command"] == "validate"

    def test_env_var_can_force_text(self, ws, capsys, monkeypatch):
        monkeypatch.setenv("CONFKIT_FORMAT", "text")
        code, out, _ = run(capsys, "validate", "--config", str(ws / "psy1.cg"),
                           "--format", "json")
        assert code == 0
        assert out.startswith("ok:")

    def test_invalid_env_value_exits_2(self, ws, capsys, monkeypatch):
        monkeypatch.setenv("CONFKIT_FORMAT", "yaml")
        code, _, err = run(capsys, "validate", "--config", str(ws / "psy1.cg"))
        assert code == 2
        assert "CONFKIT_FORMAT" in err

    def test_json_output_is_one_line(self, ws, capsys):
        _, out, _ = run(capsys, "check", str(ws / "psy1.cg"), str(ws / "psycho.csg"),
                        "--format", "json")
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)


# --------------------------------------------------------------------------
# input order


def _shuffled_config(text: str, rng: random.Random) -> str:
    """The `.cg` text with its component lines, one per line, in another order."""
    first, *components, last = text.splitlines(keepends=True)
    rng.shuffle(components)
    return "".join([first, *components, last])


def _shuffled_spec(text: str, rng: random.Random) -> str:
    """The `.csg` text with its node blocks in another order."""
    head, *nodes = text.split("\n  node ")
    nodes[-1], tail = nodes[-1].split("\n  root ")
    rng.shuffle(nodes)
    return "".join([head, *(f"\n  node {node}" for node in nodes), "\n  root ", tail])


# each file argument names a file of the directory the command runs on
ORDER_COMMANDS = (
    ("check", "--explain", "psy1.cg", "psycho.csg"),
    ("check", "--explain", "psy2.cg", "psy1-inferred.csg"),
    ("infer", "psy1.cg"),
    ("infer", "psy2.cg"),
    ("compat", "psy1.cg", "psy2.cg", "--spec", "psycho.csg"),
    ("compat", "psy2.cg", "psy1.cg", "--spec", "psycho.csg"),
    ("dot", "psy1.cg"),
    ("dot", "psycho.csg"),
)


def test_output_does_not_depend_on_the_order_of_the_input(tmp_path, capsys):
    """Shuffling the component lines of a `.cg` and the node blocks of a
    `.csg` changes no command's stdout or exit code.  `validate` of invalid
    input is left out: it reports in input order."""
    texts = {name: (FIXTURES / name).read_text() for name in ("psy1.cg", "psy2.cg", "psycho.csg")}
    texts["psy1-inferred.csg"] = print_spec(infer(parse_config(texts["psy1.cg"])))

    def outputs(directory: Path) -> list[tuple[int, str]]:
        results = []
        for argv in ORDER_COMMANDS:
            for fmt in ("text", "json"):
                paths = [str(directory / a) if "." in a else a for a in argv]
                code, out, _ = run(capsys, *paths, "--format", fmt)
                results.append((code, out.replace(str(directory), "<dir>")))
        return results

    base = tmp_path / "base"
    base.mkdir()
    for name, text in texts.items():
        (base / name).write_text(text)
    expected = outputs(base)
    assert [code for code, _ in expected] == [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0]
    rng = random.Random(12)
    for k in range(5):
        shuffled = tmp_path / f"shuffled{k}"
        shuffled.mkdir()
        for name, text in texts.items():
            shuffle = _shuffled_config if name.endswith(".cg") else _shuffled_spec
            moved = shuffle(text, rng)
            assert sorted(moved.splitlines()) == sorted(text.splitlines())
            (shuffled / name).write_text(moved)
        assert outputs(shuffled) == expected, k


# --------------------------------------------------------------------------
# usage errors


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_validate_requires_exactly_one_input(self, ws, capsys):
        assert run(capsys, "validate")[0] == 2
        assert run(capsys, "validate", "--spec", str(ws / "psycho.csg"),
                   "--config", str(ws / "psy1.cg"))[0] == 2

    def test_check_requires_both_paths(self, ws, capsys):
        assert run(capsys, "check", str(ws / "psy1.cg"))[0] == 2

    def test_compat_requires_spec(self, ws, capsys):
        assert run(capsys, "compat", str(ws / "psy1.cg"), str(ws / "psy2.cg"))[0] == 2


def test_cli_import_generates_no_code():
    """A fresh `import confkit.cli`, without `site`, pulls in neither
    `dataclasses` nor `inspect`: the value classes are written out, so no
    class source is generated and compiled at start-up."""
    src = str(Path(confkit.__file__).resolve().parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import confkit.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_the_production_reader_uncompiled():
    """The production reader's patterns are compiled on the first
    configuration read, not at start-up: a command that reads none does
    not pay for them."""
    src = str(Path(confkit.__file__).resolve().parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import confkit.cli, confkit.textfmt as t; "
             "print(t._productions.cache_info().currsize); "
             "t.parse_config('config c { component a : T (\"a\", \"o\", 1) files []; }'); "
             "print(t._productions.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


@pytest.mark.parametrize("module", ["confkit.cli", "confkit"])
def test_python_m_runs_the_cli(module):
    """`python -m confkit.cli` and `python -m confkit` run the same CLI as
    the `confkit` script: its exit codes and its `error:` line."""
    env = {**os.environ, "PYTHONPATH": str(Path(confkit.__file__).resolve().parent.parent)}
    env.pop("CONFKIT_FORMAT", None)

    def cli(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", module, *argv], cwd=FIXTURES, env=env,
                              capture_output=True, text=True, timeout=60)

    ok = cli("check", "psy1.cg", "psycho.csg")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("compliant:")
    missing = cli("check", "psy1.cg", "nonexistent.csg")
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:")


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    """Output walks sets of ids, slots and nodes; under PYTHONHASHSEED 0, 1
    and 2 each command prints the same bytes and exits with the same code."""
    env = {**os.environ, "PYTHONPATH": str(Path(confkit.__file__).resolve().parent.parent)}
    env.pop("CONFKIT_FORMAT", None)
    inferred = tmp_path / "psy1-inferred.csg"
    inferred.write_text(print_spec(infer(parse_config((FIXTURES / "psy1.cg").read_text()))))
    commands = {
        ("infer", "psy1.cg"): 0,
        ("infer", "psy2.cg", "--format", "json"): 0,
        ("check", "psy2.cg", str(inferred), "--explain"): 1,
        ("compat", "psy2.cg", "psy1.cg", "--spec", "psycho.csg"): 1,
        ("dot", "psycho.csg"): 0,
        ("dot", "psy1.cg"): 0,
    }
    for argv, code in commands.items():
        runs = {(proc.returncode, proc.stdout) for proc in (
            subprocess.run([sys.executable, "-m", "confkit", *argv], cwd=FIXTURES,
                           env={**env, "PYTHONHASHSEED": seed}, capture_output=True, timeout=60)
            for seed in ("0", "1", "2"))}
        assert len(runs) == 1, argv
        (returncode, stdout), = runs
        assert returncode == code, argv
        if argv[0] == "check":  # every failure, in depth-first order
            assert len(stdout.splitlines()) == 1 + 7
