"""Guards on the package surface and its module layout."""

import ast
import pathlib

import pytest

import shnr

SRC = pathlib.Path(shnr.__file__).resolve().parent


def test_every_public_name_resolves():
    missing = [name for name in shnr.__all__ if not hasattr(shnr, name)]
    assert missing == []
    assert len(set(shnr.__all__)) == len(shnr.__all__)


def test_omega_a_is_the_level_set_radius():
    assert shnr.omega_a is shnr.radius.omega_a_fast


def _function_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found.extend(
                f"{path.name}:{node.lineno} in {getattr(fn, 'name', 'lambda')}"
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_import(path):
    # every module imports at its top, so the import graph is the one
    # the module headers show
    assert _function_level_imports(path) == []
