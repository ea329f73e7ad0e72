"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isotree

SOURCES = sorted(Path(isotree.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    outside = {name for name in names if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps out the modules that site .pth files import.
    code = (
        "import sys, isotree.cli; "
        "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(isotree.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
