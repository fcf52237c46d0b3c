"""README's examples run as written: the Python quick start gives the
results its comments state, and the JSON config simulates."""

import ast
import re
from pathlib import Path

import numpy as np

from latcf import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(lang):
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert len(blocks) == 1, f"README has {len(blocks)} {lang} blocks"
    return blocks[0]


def test_quick_start_results_match_their_comments():
    source = _block("python")
    lines = source.splitlines()
    scope, checked = {}, []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, "README.md", "exec"), scope)
            continue
        value = eval(compile(code, "README.md", "eval"), scope)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        # a comment is a result's repr, "attr=literal and ...", or prose
        try:
            want = eval(comment, {"array": np.array})
        except SyntaxError:
            field = re.match(r"(\w+)=(\(.*?\))", comment)
            if field:
                assert getattr(value, field[1]) == ast.literal_eval(field[2]), (code, comment)
                checked.append(comment)
            continue
        assert repr(value) == repr(want), (code, comment)
        checked.append(comment)
    assert checked == ["True", "array([2, 2])", "a=(1, 1) and its rate"]


def test_config_simulates(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_block("json"))
    out = tmp_path / "trials.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--trials", "2"]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()
    assert rows[0].startswith("trial,relay,a,") and len(rows) == 1 + 2 * 2  # trials x relays
