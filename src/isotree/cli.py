"""Command-line interface tying the library together.

Exit codes: 0 success / verdict true, 1 verdict false or validation
failure (counterexample printed), 2 I/O or parse error, 3 precondition
violation (size cap, disconnected graph), 4 out of memory, 5 internal error.

This module holds only what ``build`` runs, and imports only that: the
other commands and ``--show-intermediate`` are in :mod:`isotree.commands`,
imported when they run, and every other engine, reader and output
imports its modules where it runs.  So a PGM build loads neither the JSON
readers, the exhaustive scans, the staged API nor the axiom checks, and
a JSON build loads the JSON reader in place of the PGM one.
"""

from __future__ import annotations

import argparse
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
from .tree import tree_to_json


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


def _cmd_build(args: argparse.Namespace) -> int:
    if args.engine == "oracle" and (args.show_intermediate or not args.reduce):
        flag = "--show-intermediate" if args.show_intermediate else "--no-reduce"
        raise ValidationError(f"--engine oracle does not take {flag}")
    sg = _load_scalar_graph(args.input, args.format)
    if args.engine == "oracle":
        from .oracle import brute_force_iso_tree

        tree = brute_force_iso_tree(sg, cap=args.max_sites)
    elif args.show_intermediate:
        from .commands import show_intermediate

        tree = show_intermediate(sg, args.reduce)
    else:
        tree = build_iso_tree(sg, reduce=args.reduce)
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


if __name__ == "__main__":
    sys.exit(main())
