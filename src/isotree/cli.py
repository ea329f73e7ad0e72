"""Command-line interface tying the library together.

Exit codes: 0 success / verdict true, 1 verdict false or validation
failure (counterexample printed), 2 I/O or parse error, 3 precondition
violation (size cap, disconnected graph), 4 out of memory, 5 internal error.

This module holds only what ``build`` runs, and imports only that: the
other commands and the ``--show-intermediate`` printout are in
:mod:`isotree.commands`, imported when they run, and ``_iso_tree`` (every
command's one engine switch), each reader and each output import their
modules where they run.  So a PGM build loads neither the JSON readers,
the exhaustive scans, the staged API nor the axiom checks, and a JSON
build loads the JSON reader in place of the PGM one.

:func:`run` is the process entry (``python -m isotree`` and the installed
``isotree`` script); :func:`main` is the in-process call, which leaves the
cyclic garbage collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import partial

from .errors import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_ORACLE_CAP,
    InternalInconsistencyError,
    IsoTreeError,
    PreconditionError,
    SizeLimitError,
    ValidationError,
)
from .graph import ScalarGraph
from .pipeline import build_iso_tree
from .tree import IsoTree, tree_to_json


def _load_scalar_graph(path: str, fmt: str) -> ScalarGraph:
    with open(path, "rb") as f:
        data = f.read()
    if fmt == "pgm":
        from .grid import load_pgm_tri_grid

        return load_pgm_tri_grid(data)
    from .io import load_graph_json

    return load_graph_json(data)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)


def _iso_tree(sg: ScalarGraph, engine: str, cap: int, reduce: bool = True) -> IsoTree:
    """The tree of ``sg`` from ``engine``: the oracle, capped at ``cap`` sites, or the pipeline."""
    if engine == "oracle":
        from .oracle import brute_force_iso_tree

        return brute_force_iso_tree(sg, cap=cap)
    return build_iso_tree(sg, reduce=reduce)


def _cmd_build(args: argparse.Namespace) -> int:
    if args.engine == "oracle" and (args.show_intermediate or not args.reduce):
        flag = "--show-intermediate" if args.show_intermediate else "--no-reduce"
        raise ValidationError(f"--engine oracle does not take {flag}")
    sg = _load_scalar_graph(args.input, args.format)
    if args.show_intermediate:
        from .commands import show_intermediate

        show_intermediate(sg)
    tree = _iso_tree(sg, args.engine, args.max_sites, args.reduce)
    _emit(tree_to_json(tree), args.output)
    if args.dot:
        from .io import export_dot

        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(export_dot(tree))
    return 0


def _run(name: str, args: argparse.Namespace) -> int:
    """Run the command :mod:`isotree.commands` defines as ``name``, importing it only now."""
    from . import commands

    return getattr(commands, name)(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotree", description="Discrete contour trees on mono-connected scalar graphs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="input file")
        p.add_argument("--format", choices=("json", "pgm"), default="json")

    p = sub.add_parser("build", help="build the iso-tree of a scalar graph")
    add_input(p)
    p.add_argument("--engine", choices=("pipeline", "oracle"), default="pipeline")
    p.add_argument("--reduce", action=argparse.BooleanOptionalAction, default=True,
                   help="contract equal-value edges of the ranked tree (default on)")
    p.add_argument("--output", help="write the tree document here instead of stdout")
    p.add_argument("--dot", help="also write a DOT rendering to this path")
    p.add_argument("--show-intermediate", action="store_true",
                   help="print merge trees and the unreduced tree (pipeline engine)")
    p.add_argument("--max-sites", type=int, default=DEFAULT_ORACLE_CAP,
                   help="site cap for the oracle engine")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check-mono", help="decide mono-connectivity exhaustively")
    add_input(p)
    p.add_argument("--max-sites", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="enumeration site cap")
    p.set_defaults(func=partial(_run, "_cmd_check_mono"))

    p = sub.add_parser("roundtrip", help="build a tree, reconstruct, compare exactly")
    add_input(p)
    p.add_argument("--engine", choices=("pipeline", "oracle"), default="pipeline")
    p.add_argument("--max-sites", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=partial(_run, "_cmd_roundtrip"))

    p = sub.add_parser("oracle-diff", help="compare the pipeline against the brute-force oracle")
    add_input(p)
    p.add_argument("--max-sites", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=partial(_run, "_cmd_oracle_diff"))

    p = sub.add_parser("validate", help="check a division or tree against the axioms")
    p.add_argument("--input", required=True, help="division or tree document")
    p.add_argument("--graph", help="graph document (required for tree input)")
    p.set_defaults(func=partial(_run, "_cmd_validate"))

    p = sub.add_parser("gen", help="generate a graph document")
    p.add_argument("--kind", choices=("tri-grid", "path"), default="tri-grid")
    p.add_argument("--width", type=int, default=3, help="grid width, or path length")
    p.add_argument("--height", type=int, default=3)
    p.add_argument("--values", choices=("ramp", "constant", "random"), default="ramp")
    p.add_argument("--constant", type=float, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--low", type=int, default=0)
    p.add_argument("--high", type=int, default=5)
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=partial(_run, "_cmd_gen"))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except InternalInconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (SizeLimitError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, IsoTreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run one command as the whole process, then exit with its status.

    The process ends when the command does, and the operating system takes
    its memory back, so the cyclic collector is off while the command runs
    (reference counting still frees what the command drops), and the heap is
    frozen before exit, so the interpreter's exit-time collection does not
    walk every object the imports and the command made.  The exit is the
    normal one: stdout, stderr and open files are still flushed.
    """
    gc.disable()
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
