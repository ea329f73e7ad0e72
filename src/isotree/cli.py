"""Command-line interface tying the library together.

Exit codes: 0 success / verdict true, 1 verdict false or validation
failure (counterexample printed), 2 I/O or parse error, 3 precondition
violation (size cap, disconnected graph), 4 out of memory, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as tio
from . import mono
from .errors import (
    InternalInconsistencyError,
    IsoTreeError,
    PreconditionError,
    SizeLimitError,
    ValidationError,
)
from .graph import Graph, JCut, ScalarGraph
from .mono import constant, gen_path, gen_tri_grid, is_mono_connected, ramp, seeded_random
from .oracle import DEFAULT_ORACLE_CAP, brute_force_iso_tree
from .pipeline import (
    build_iso_tree,
    ct_to_iso_tree,
    merge_to_augmented_ct,
    perturb_rank,
    ranks,
    reduce_by_f,
    sublevel_merge_tree,
    superlevel_merge_tree,
)
from .tree import ValuedJDivision, reconstruct_rt, validate_regular_division


def _load_scalar_graph(path: str, fmt: str) -> ScalarGraph:
    with open(path, "rb") as f:
        data = f.read()
    if fmt == "pgm":
        return tio.load_pgm_tri_grid(data)
    return tio.load_graph_json(data)


def _format_region(sites) -> str:
    return "{%s}" % ",".join(sorted(sites))


def _format_cut(g: Graph, cut: JCut) -> str:
    return "(%s, %s)" % (_format_region(cut.low), _format_region(g.sites - cut.low))


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
        tree = brute_force_iso_tree(sg, cap=args.max_sites)
    elif args.show_intermediate:
        order = perturb_rank(sg)
        jt, st = sublevel_merge_tree(sg, order), superlevel_merge_tree(sg, order)
        ct = merge_to_augmented_ct(jt, st)
        tree_h = ct_to_iso_tree(sg, order, ct)
        ids, name = jt.sites, (*jt.sites, None)  # by site number; a root's parent is n
        print(json.dumps({
            "ranks": dict(zip(ids, ranks(order))),
            "sublevel": dict(zip(ids, map(name.__getitem__, jt.parent))),
            "superlevel": dict(zip(ids, map(name.__getitem__, st.parent))),
            "contourEdges": [[ids[a], ids[b]] for a, b in ct.edges],
            "rankedTree": json.loads(tio.tree_to_json(tree_h)),
        }, indent=2))
        tree = reduce_by_f(sg, tree_h) if args.reduce else tree_h
    else:
        tree = build_iso_tree(sg, reduce=args.reduce)
    _emit(tio.tree_to_json(tree), args.output)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(tio.export_dot(tree))
    return 0


def _cmd_check_mono(args: argparse.Namespace) -> int:
    sg = _load_scalar_graph(args.input, args.format)
    witness = is_mono_connected(sg.graph, cap=args.max_sites)
    if witness.verdict:
        print("mono-connected")
        return 0
    print("not mono-connected")
    if witness.counterexample is None:
        print("graph is disconnected")
    else:
        print("counterexample: %s" % _format_cut(sg.graph, witness.counterexample))
        print("disconnected immediate interior: %s side" % witness.failing_side)
    return 1


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    sg = _load_scalar_graph(args.input, args.format)
    if args.engine == "oracle":
        tree = brute_force_iso_tree(sg, cap=args.max_sites)
    else:
        tree = build_iso_tree(sg)
    recovered = reconstruct_rt(sg.graph, tree)
    for p, got, want in zip(sg.graph.site_list, recovered._value, sg._value):
        if got != want:
            print(f"FAIL: RT∘ITT differs at {p}: {got!r} != {want!r}")
            return 1
    print("PASS: RT∘ITT identity")
    return 0


def _cmd_oracle_diff(args: argparse.Namespace) -> int:
    sg = _load_scalar_graph(args.input, args.format)
    fast = build_iso_tree(sg)
    slow = brute_force_iso_tree(sg, cap=args.max_sites)
    if fast == slow:
        print("identical: pipeline matches oracle")
        return 0
    print("DIVERGENCE")
    for label, tree in (("pipeline", fast), ("oracle", slow)):
        print(f"{label} zones: %s" % "; ".join(
            f"{_format_region(z.sites)}={tio._num(z.value)}" for z in tree.zones
        ))
        print(f"{label} edges: %s" % "; ".join(
            f"{e.low}->{e.up} gap={tio._num(e.gap)} cut={_format_region(e.cut.low)}"
            for e in tree.edges
        ))
    return 1


def _cmd_validate(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as f:
        doc = tio._loads(f.read(), "input")
    if isinstance(doc, dict) and "cuts" in doc:
        sg, division = tio._division_of(doc)
        g = sg.graph
    elif isinstance(doc, dict) and "zones" in doc:
        if not args.graph:
            raise ValidationError("validating a tree document requires --graph")
        tree = tio._tree_of(doc)
        g = _load_scalar_graph(args.graph, "json").graph
        reconstruct_rt(g, tree)  # rejects zones that do not partition g's sites
        division = ValuedJDivision.of_tree(tree)
    else:
        raise ValidationError("input is neither a division nor a tree document")
    report = validate_regular_division(g, division)
    if report.valid:
        print("valid: nesting and tangent axioms hold")
        return 0
    for v in report.violations:
        print(f"{v.axiom} violation: {_format_cut(g, v.first)} vs {_format_cut(g, v.second)}")
    return 1


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.values == "ramp":
        policy = ramp()
    elif args.values == "constant":
        policy = constant(args.constant)
    else:
        policy = seeded_random(args.seed, low=args.low, high=args.high)
    if args.kind == "path":
        sg = gen_path(args.width, policy)
    else:
        sg = gen_tri_grid(args.width, args.height, policy)
    _emit(tio.graph_to_json(sg), args.output)
    return 0


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
    p.add_argument("--max-sites", type=int, default=mono.DEFAULT_ENUMERATION_CAP,
                   help="enumeration site cap")
    p.set_defaults(func=_cmd_check_mono)

    p = sub.add_parser("roundtrip", help="build a tree, reconstruct, compare exactly")
    add_input(p)
    p.add_argument("--engine", choices=("pipeline", "oracle"), default="pipeline")
    p.add_argument("--max-sites", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("oracle-diff", help="compare the pipeline against the brute-force oracle")
    add_input(p)
    p.add_argument("--max-sites", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=_cmd_oracle_diff)

    p = sub.add_parser("validate", help="check a division or tree against the axioms")
    p.add_argument("--input", required=True, help="division or tree document")
    p.add_argument("--graph", help="graph document (required for tree input)")
    p.set_defaults(func=_cmd_validate)

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
    p.set_defaults(func=_cmd_gen)

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
