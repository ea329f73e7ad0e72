"""The runtime imports nothing outside the standard library, and a build loads only its path."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
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


def run_bare(code: str) -> str:
    """Stdout of ``code`` in a fresh interpreter; -S keeps out what site .pth files import."""
    env = {**os.environ, "PYTHONPATH": str(Path(isotree.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def modules_after(code: str) -> set[str]:
    """Every module loaded once ``code`` has run in a fresh interpreter."""
    code += "\nimport json, sys; print(json.dumps(list(sys.modules)))"
    return set(json.loads(run_bare(code).splitlines()[-1]))


def loaded_by(code: str) -> set[str]:
    """The package's modules that ``code`` loads in a fresh interpreter."""
    return {m for m in modules_after(code) if m.startswith("isotree")}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, isotree.cli; "
        "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    )
    assert run_bare(code).strip() == "[]"


# What `isotree build --format pgm` runs, and so all that it loads.
BUILD_PATH = {
    "isotree",
    "isotree.cli",
    "isotree.errors",
    "isotree.graph",
    "isotree.grid",
    "isotree.pipeline",
    "isotree.tree",
}


def test_import_loads_no_submodule():
    assert loaded_by("import isotree") == {"isotree"}


def build_code(path: Path, fmt: str) -> str:
    argv = ["build", "--input", str(path), "--format", fmt, "--output", str(path) + ".tree"]
    return f"from isotree.cli import main\nassert main({argv!r}) == 0"


def test_pgm_build_loads_only_the_build_path(tmp_path):
    image = tmp_path / "two.pgm"
    image.write_bytes(b"P2\n2 2\n255\n0 1\n2 3\n")
    modules = modules_after(build_code(image, "pgm"))
    loaded = {m for m in modules if m.startswith("isotree")}
    assert loaded == BUILD_PATH
    off_path = {"io", "mono", "oracle", "_bitgraph", "axioms", "commands", "stages"}
    assert not loaded & {f"isotree.{name}" for name in off_path}
    assert "typing" not in modules


def test_the_process_entry_adds_no_import(tmp_path):
    # What `python -m isotree` runs: the collector is off and the heap
    # frozen when the build exits 0.
    image = tmp_path / "two.pgm"
    image.write_bytes(b"P2\n2 2\n255\n0 1\n2 3\n")
    argv = ["isotree", "build", "--input", str(image), "--format", "pgm",
            "--output", str(image) + ".tree"]
    code = (
        f"import gc, runpy, sys\nsys.argv = {argv!r}\n"
        "try:\n    runpy.run_module('isotree', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
        "else:\n    raise AssertionError('no exit')\n"
        "assert not gc.isenabled() and gc.get_freeze_count() > 0"
    )
    modules = modules_after(code)
    assert {m for m in modules if m.startswith("isotree")} == BUILD_PATH
    assert "typing" not in modules


def test_the_script_and_python_m_run_one_entry():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    script = re.search(r'^\[project\.scripts\]\nisotree = "isotree\.cli:(\w+)"$', pyproject, re.M)
    assert script, "pyproject.toml names no isotree script"
    package = Path(isotree.__file__).parent
    main_body = ast.parse((package / "__main__.py").read_text(encoding="utf-8")).body
    assert [ast.unparse(node) for node in main_body] == [
        f"from .cli import {script[1]}", f"{script[1]}()"
    ]
    cli_tail = ast.parse((package / "cli.py").read_text(encoding="utf-8")).body[-1]
    assert ast.unparse(cli_tail) == f"if __name__ == '__main__':\n    {script[1]}()"


def test_json_build_adds_only_the_reader(tmp_path):
    doc = tmp_path / "two.json"
    doc.write_text('{"sites": [{"id": "a", "value": 0}, {"id": "b", "value": 1}], '
                   '"adjacency": [["a", "b"]]}')
    reader = loaded_by("import isotree.io")
    assert reader == {f"isotree{name}" for name in ("", ".errors", ".graph", ".io", ".tree")}
    assert loaded_by(build_code(doc, "json")) == BUILD_PATH - {"isotree.grid"} | reader


def test_every_export_is_its_defining_modules_object():
    for name in isotree.__all__:
        module = importlib.import_module(f"isotree.{isotree._EXPORTS[name]}")
        obj = getattr(isotree, name)
        assert obj is getattr(module, name), name
        if getattr(obj, "__module__", "").startswith("isotree"):
            assert obj.__module__ == module.__name__, name
    assert set(isotree.__all__) <= set(dir(isotree))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        isotree.nonesuch  # noqa: B018
    assert not hasattr(isotree, "nonesuch")


# Import paths that callers, the bench among them, use, each with the
# module that defines the name.
OLD_PATHS = {
    "io.parse_pgm": "grid",
    "io.load_pgm_tri_grid": "grid",
    "io.tree_to_json": "tree",
    "io.load_graph_json": "io",
    "io.parse_tree_json": "io",
    "mono.gen_tri_grid": "grid",
    "tree.reconstruct_rt": "tree",
    "oracle.brute_force_iso_tree": "oracle",
    "pipeline.build_iso_tree": "pipeline",
    **{
        f"pipeline.{name}": "stages"
        for name in (
            "perturb_rank", "sublevel_merge_tree", "superlevel_merge_tree",
            "merge_to_augmented_ct", "ct_to_iso_tree", "reduce_by_f",
            "MergeTree", "AugmentedContourTree",
        )
    },
}


@pytest.mark.parametrize("path", OLD_PATHS)
def test_old_import_path_is_the_defining_object(path):
    module, name = path.split(".")
    obj = getattr(importlib.import_module(f"isotree.{module}"), name)
    home = importlib.import_module(f"isotree.{OLD_PATHS[path]}")
    assert obj is getattr(home, name)
    assert obj.__module__ == home.__name__


# The names that left the build modules, by the module that now defines them.
MOVED = {
    "axioms": """Surfel complement components_of is_region_connected immediate_interior
        is_j_cut boundary_surfels inverse_surfels""",
    "stages": """MergeTree AugmentedContourTree perturb_rank sublevel_merge_tree
        superlevel_merge_tree merge_to_augmented_ct ct_to_iso_tree reduce_by_f""",
}


@pytest.mark.parametrize("module", MOVED)
def test_moved_names_resolve_on_their_module_and_the_package(module):
    home = importlib.import_module(f"isotree.{module}")
    graph = importlib.import_module("isotree.graph")
    for name in MOVED[module].split():
        obj = getattr(home, name)
        assert obj.__module__ == home.__name__, name
        if name != "is_region_connected":  # not a package name
            assert getattr(isotree, name) is obj, name
        assert not hasattr(graph, name), name


def test_the_shims_resolve_only_their_own_names():
    from isotree import grid, io, pipeline, stages

    assert pipeline.MergeTree is stages.MergeTree
    assert io.parse_pgm is grid.parse_pgm
    assert io.load_pgm_tri_grid is grid.load_pgm_tri_grid
    for module, name in ((pipeline, "Surfel"), (pipeline, "nonesuch"), (io, "gen_tri_grid")):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(module, name)
