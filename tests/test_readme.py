"""The README's examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

from confkit import parse_spec

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(lang: str, after: str) -> str:
    """The first fenced block of `lang` after the heading `after`."""
    section = README[README.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_block_runs_from_the_repo_root(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(fenced("python", "## Library"), "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "True"
    assert out[1].startswith("spec ")
    assert out[-1] == "True"


def test_the_constrained_dependency_form_parses():
    # The README's spec block abbreviates the fixture; its comment's form
    # goes into the fixture's PScr node.
    example = re.search(r"# bare type, or (PScr\(.*\))$",
                        fenced("text", "## Text formats"), re.M).group(1)
    bare = "depends { CGLib, PScr }"
    fixture = (ROOT / "fixtures" / "psycho.csg").read_text(encoding="utf-8")
    assert fixture.count(bare) == 1
    spec = parse_spec(fixture.replace(bare, f"depends {{ CGLib, {example} }}"))
    [dep] = [d for d in spec.spec_for("PScr").dependencies if d.ctype == "PScr"]
    assert "my.psc" in dep.names and 2 in dep.versions and 3 not in dep.versions
