"""The example scripts use only the package's public names."""

import ast
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_imports_no_private_name(script):
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("visthresh")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
