"""Rules about the shape of the source: each module in src/survnet is parsed once.

- every file survnet reads or writes goes through one ``open`` call
  (``dataset._open``);
- records assign their attributes plainly: no ``object.__setattr__`` writes
  past a frozen guard;
- ``dataset._naming`` puts ``<path>: `` before an error, so no other raise
  words a path.

A failure lists the offending sites as ``module:line``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "survnet").glob("*.py"))


@pytest.fixture(scope="module")
def trees():
    assert SOURCES, "no modules found under src/survnet"
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def sites(trees, predicate):
    return [f"{name}:{node.lineno}" for name, tree in trees.items()
            for node in ast.walk(tree) if predicate(node)]


def name_of(node):
    return getattr(node, "id", None) or getattr(node, "attr", None) or ""


def test_one_open_call(trees):
    opens = sites(trees, lambda node: isinstance(node, ast.Call) and name_of(node.func) == "open")
    assert len(opens) == 1, opens


def test_no_object_setattr(trees):
    def is_object_setattr(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "object")

    assert sites(trees, is_object_setattr) == []


def test_only_naming_words_a_path(trees):
    helper = {id(node) for tree in trees.values() for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == "_naming"
              for node in ast.walk(func)}
    assert helper, "dataset._naming is gone"

    def words_a_path(node):
        return isinstance(node, ast.Raise) and id(node) not in helper and any(
            isinstance(part, ast.FormattedValue)
            and any(name_of(name).endswith("path") for name in ast.walk(part))
            for part in ast.walk(node))

    assert sites(trees, words_a_path) == []
