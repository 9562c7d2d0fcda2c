"""Every function and class name is defined once per module and class body
of the package and of the tests' reference modules: a second definition
silently shadows the first."""

import ast
from pathlib import Path

import pytest

import mdatrack

MODULES = sorted(Path(mdatrack.__file__).parent.glob("*.py"))
REFERENCES = sorted(Path(__file__).parent.glob("*_reference.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def repeated_names(body, scope):
    """``scope.name`` for each name defined more than once in ``body`` or
    in the body of a class defined there."""
    seen, repeated = set(), []
    for node in body:
        if not isinstance(node, DEFINITIONS):
            continue
        if node.name in seen:
            repeated.append(f"{scope}.{node.name}")
        seen.add(node.name)
        if isinstance(node, ast.ClassDef):
            repeated += repeated_names(node.body, f"{scope}.{node.name}")
    return repeated


@pytest.mark.parametrize(
    "path",
    MODULES + REFERENCES,
    ids=[path.stem for path in MODULES]
    + [f"tests.{path.stem}" for path in REFERENCES])
def test_no_name_is_defined_twice(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert repeated_names(tree.body, path.stem) == []
