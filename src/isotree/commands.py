"""The CLI's commands other than ``build``, and the ``build --show-intermediate`` printout.

:mod:`isotree.cli` imports this module only when one of them runs.  The
printout only prints: ``build`` writes its tree, and each command here
that builds trees takes them from the CLI's one engine switch, ``_iso_tree``.
"""

from __future__ import annotations

import argparse
import json

from .cli import _emit, _iso_tree, _load_scalar_graph
from .errors import ValidationError
from .graph import Graph, JCut, ScalarGraph
from .tree import _num, reconstruct_rt, tree_to_json


def show_intermediate(sg: ScalarGraph) -> None:
    """Print the staged pipeline's results as JSON: ranks, both merge trees, the ranked tree."""
    from . import stages

    order = stages.perturb_rank(sg)
    jt, st = stages.sublevel_merge_tree(sg, order), stages.superlevel_merge_tree(sg, order)
    ct = stages.merge_to_augmented_ct(jt, st)
    ids, name = jt.sites, (*jt.sites, None)  # by site number; a root's parent is n
    print(json.dumps({
        "ranks": dict(zip(ids, stages.ranks(order))),
        "sublevel": dict(zip(ids, map(name.__getitem__, jt.parent))),
        "superlevel": dict(zip(ids, map(name.__getitem__, st.parent))),
        "contourEdges": [[ids[a], ids[b]] for a, b in ct.edges],
        "rankedTree": json.loads(tree_to_json(stages.ct_to_iso_tree(sg, order, ct))),
    }, indent=2))


def _format_region(sites) -> str:
    return "{%s}" % ",".join(sorted(sites))


def _format_cut(g: Graph, cut: JCut) -> str:
    return "(%s, %s)" % (_format_region(cut.low), _format_region(g.sites - cut.low))


def _cmd_check_mono(args: argparse.Namespace) -> int:
    from .mono import is_mono_connected

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
    tree = _iso_tree(sg, args.engine, args.max_sites)
    recovered = reconstruct_rt(sg.graph, tree)
    for p, got, want in zip(sg.graph.site_list, recovered._value, sg._value):
        if got != want:
            print(f"FAIL: RT∘ITT differs at {p}: {got!r} != {want!r}")
            return 1
    print("PASS: RT∘ITT identity")
    return 0


def _cmd_oracle_diff(args: argparse.Namespace) -> int:
    sg = _load_scalar_graph(args.input, args.format)
    fast, slow = _iso_tree(sg, "pipeline", args.max_sites), _iso_tree(sg, "oracle", args.max_sites)
    if fast == slow:
        print("identical: pipeline matches oracle")
        return 0
    print("DIVERGENCE")
    for label, tree in (("pipeline", fast), ("oracle", slow)):
        print(f"{label} zones: %s" % "; ".join(
            f"{_format_region(z.sites)}={_num(z.value)}" for z in tree.zones
        ))
        print(f"{label} edges: %s" % "; ".join(
            f"{e.low}->{e.up} gap={_num(e.gap)} cut={_format_region(e.cut.low)}"
            for e in tree.edges
        ))
    return 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from .axioms import ValuedJDivision, validate_regular_division
    from .io import _division_of, _loads, _tree_of

    with open(args.input, "rb") as f:
        doc = _loads(f.read(), "input")
    if isinstance(doc, dict) and "cuts" in doc:
        sg, division = _division_of(doc)
        g = sg.graph
    elif isinstance(doc, dict) and "zones" in doc:
        if not args.graph:
            raise ValidationError("validating a tree document requires --graph")
        tree = _tree_of(doc)
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
    from .io import graph_to_json
    from .mono import constant, gen_path, gen_tri_grid, ramp, seeded_random

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
    _emit(graph_to_json(sg), args.output)
    return 0
