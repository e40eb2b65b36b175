"""The README's examples run as written.

A public name the README uses stays public: the library quick start is
executed, each commented result checked, and every `psdb` line of the
command-line block runs through `cli.main` and exits 0.
"""

import ast
import re
import shlex
from pathlib import Path

from psdbounds import cli
from psdbounds.cones import coordinate_family, write_conefam
from psdbounds.linalg import sample_standard_gaussian_sym, write_symmat

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# what each commented result of the quick start promises
QUICK_START_RESULTS = {
    "True": lambda value: value is True,
    "8.0": lambda value: value == 8.0,
    "~0.95": lambda value: 0.9 <= value <= 1.0,
    "~0.1362": lambda value: abs(value - 0.1362) < 5e-5,
}


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the heading line."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_gives_its_commented_results():
    source = fenced_block("## Library quick start", "python")
    lines = source.splitlines()
    namespace = {}
    checked = []
    for statement in ast.parse(source).body:
        code = ast.Module([statement], type_ignores=[])
        if not isinstance(statement, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        if comment:
            assert QUICK_START_RESULTS[comment](value), (comment, value)
            checked.append(comment)
    assert checked == list(QUICK_START_RESULTS)


def test_every_command_line_example_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_conefam(coordinate_family(10, 2), "family.conefam")  # the witness of n = 10
    write_symmat(sample_standard_gaussian_sym(12, 0), "big.symmat")  # --sparse-k 11 needs n >= 12
    commands = [line for line in fenced_block("## Command line", "sh").splitlines() if line.startswith("psdb ")]
    assert len(commands) == 18
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
