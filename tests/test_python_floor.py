"""The syntax of the package and of its tests stays within the Python floor
that pyproject.toml declares."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a module by its file name, a test file by its path from the root
SOURCES = ({p.name: p for p in sorted((ROOT / "src" / "superbrauer").glob("*.py"))}
           | {f"tests/{p.name}": p for p in sorted((ROOT / "tests").glob("*.py"))})


def test_declared_floor_is_3_10():
    """The floor the parse below holds the sources to is the declared one."""
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert declared and tuple(map(int, declared.groups())) == (3, 10)


@pytest.mark.parametrize("path", SOURCES.values(), ids=list(SOURCES))
def test_source_parses_as_python_3_10(path):
    """ast.parse with feature_version=(3, 10) rejects syntax newer than 3.10
    (except*, PEP 695 type parameters, ...); it does not check the standard
    library names a module imports."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
