"""Source hygiene of the package, checked with the stdlib ast module: every
name a module exports in __all__ is defined there, and every module-level
import is used, except on lines marked ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "psdbounds").glob("*.py"))


def parsed(path):
    text = path.read_text(encoding="utf-8")
    return text.splitlines(), ast.parse(text, str(path))


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def bound_at_module_level(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    _, tree = parsed(path)
    assert sorted(set(exported(tree)) - bound_at_module_level(tree)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    lines, tree = parsed(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported(tree))
    unused = [
        f"{path.name}:{node.lineno}: {name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        and "# noqa: F401" not in lines[node.end_lineno - 1]
        for name in ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        if name not in used
    ]
    assert unused == []
