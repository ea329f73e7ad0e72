"""Documents: graph, tree and division JSON, and DOT output.

JSON is the canonical interchange format.  Serialization is fully
deterministic (sorted sites, sorted pairs, fixed key order, integral
reals written without a fraction) so serialize-parse-serialize is
byte-identical.  The readers check the entries of each document array
in document order, and the fields of an entry in a fixed order; the
first fault raises a ``ValidationError`` that names it as
``array[i].field``.  The tree writer lives next to ``IsoTree`` and the
PGM reader in :mod:`isotree.grid`, so that ``isotree build --format
pgm`` does not load this module; both are re-exported here, the reader
on first use.  The division reader imports the division types where it
runs, so that a JSON build loads neither :mod:`isotree.axioms` nor
:mod:`isotree.grid`.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from typing import Any

from .errors import NotATreeError, ParseError, ValidationError
from .graph import Graph, JCut, ScalarGraph
from .tree import IsoTree, _check_edges, _num
from .tree import tree_to_json  # noqa: F401  (re-exported)


def __getattr__(name: str):
    """``parse_pgm`` and ``load_pgm_tri_grid`` on their old path, from :mod:`isotree.grid`."""
    if name not in ("parse_pgm", "load_pgm_tri_grid"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import grid

    globals()[name] = value = getattr(grid, name)
    return value


def _require_number(x: Any, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {x!r}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValidationError(f"{where}: expected a finite number, got {x!r}")
    return x


def _require_str(x: Any, where: str) -> str:
    if not isinstance(x, str):
        raise ValidationError(f"{where}: expected a string, got {x!r}")
    return x


def _require_strs(items: Any, where: str) -> frozenset[str]:
    """A non-empty array of strings, as a set."""
    if not isinstance(items, list) or not items:
        raise ValidationError(f"{where}: expected a non-empty array")
    for x in items:
        _require_str(x, where)
    return frozenset(items)


def _loads(data: bytes | str, what: str) -> Any:
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8 and JSON
        raise ParseError(f"malformed {what} document: {exc}") from None


# ---------------------------------------------------------------------------
# Graph documents
# ---------------------------------------------------------------------------


def load_graph_json(data: bytes | str) -> ScalarGraph:
    """Parse and validate a graph document into a scalar graph."""
    return _graph_of(_loads(data, "graph"))


def _graph_of(doc: Any) -> ScalarGraph:
    """The scalar graph of a parsed graph document, checked entry by entry."""
    if not isinstance(doc, dict):
        raise ValidationError("graph document must be a JSON object")
    sites = doc.get("sites")
    if not isinstance(sites, list) or not sites:
        raise ValidationError("sites: expected a non-empty array")
    values: dict[str, float] = {}
    for i, entry in enumerate(sites):
        if type(entry) is not dict:
            raise ValidationError(f"sites[{i}]: expected an object")
        p, v = entry.get("id"), entry.get("value")
        if type(p) is not str:
            _require_str(p, f"sites[{i}].id")
        if p in values:
            raise ValidationError(f"sites[{i}]: duplicate id {p!r}")
        if type(v) is not int and not (type(v) is float and math.isfinite(v)):
            _require_number(v, f"sites[{i}].value")
        values[p] = v

    adjacency = doc.get("adjacency", [])
    if not isinstance(adjacency, list):
        raise ValidationError("adjacency: expected an array")
    ids = tuple(sorted(values))
    number = dict(zip(ids, range(len(ids))))  # for the pairs only; the graph derives its own
    n, rows, seen = len(ids), [[] for _ in ids], set()
    for k, pair in enumerate(adjacency):
        if type(pair) is not list or len(pair) != 2:
            raise ValidationError(f"adjacency[{k}]: expected a pair of ids")
        p, q = pair
        if type(p) is not str or type(q) is not str:
            _require_strs(pair, f"adjacency[{k}]")
        if p == q:
            raise ValidationError(f"adjacency[{k}]: self-loop on {p!r}")
        i, j = number.get(p), number.get(q)
        if i is None or j is None:
            raise ValidationError(f"adjacency[{k}]: unknown id {q if i is not None else p!r}")
        key = i * n + j if i < j else j * n + i
        if key in seen:
            raise ValidationError(f"adjacency[{k}]: duplicate pair ({p!r}, {q!r})")
        seen.add(key)
        rows[i].append(j)
        rows[j].append(i)

    reference = doc.get("reference")
    if reference is not None:
        reference = _require_str(reference, "reference")
        if reference not in values:
            raise ValidationError(f"reference: unknown id {reference!r}")
    value = tuple(map(values.__getitem__, ids))
    return ScalarGraph._by_number(Graph._from_rows(ids, rows), value, reference)


def _graph_doc(sg: ScalarGraph) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "sites": [{"id": p, "value": _num(v)} for p, v in zip(sg.graph.site_list, sg._value)],
        "adjacency": [list(pair) for pair in sg.graph.pairs],
    }
    if sg.reference is not None:
        doc["reference"] = sg.reference
    return doc


def graph_to_json(sg: ScalarGraph) -> str:
    return json.dumps(_graph_doc(sg), indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# Tree documents
# ---------------------------------------------------------------------------


def parse_tree_json(data: bytes | str) -> IsoTree:
    return _tree_of(_loads(data, "tree"))


def _tree_of(doc: Any) -> IsoTree:
    """The iso-tree of a parsed tree document, checked entry by entry."""
    if not isinstance(doc, dict):
        raise ValidationError("tree document must be a JSON object")
    zones_doc = doc.get("zones")
    if not isinstance(zones_doc, list) or not zones_doc:
        raise ValidationError("zones: expected a non-empty array")
    zone_sites, values = [], []
    for i, entry in enumerate(zones_doc):
        if type(entry) is not dict:
            raise ValidationError(f"zones[{i}]: expected an object")
        sites, rep, value = entry.get("sites"), entry.get("id"), entry.get("value")
        if type(sites) is not list or not sites:
            _require_strs(sites, f"zones[{i}].sites")
        for p in sites:
            if type(p) is not str:
                _require_strs(sites, f"zones[{i}].sites")
        if type(rep) is not str:
            _require_str(rep, f"zones[{i}].id")
        sites.sort()
        if sites[0] != rep:
            raise ValidationError(f"zones[{i}]: id {rep!r} is not the least site of the zone")
        if type(value) is not int and not (type(value) is float and math.isfinite(value)):
            _require_number(value, f"zones[{i}].value")
        zone_sites.append(sites)
        values.append(value)

    edges_doc = doc.get("edges", [])
    if not isinstance(edges_doc, list):
        raise ValidationError("edges: expected an array")
    lows, ups, gaps, sides = [], [], [], {}
    for i, entry in enumerate(edges_doc):
        if type(entry) is not dict:
            raise ValidationError(f"edges[{i}]: expected an object")
        low, up, gap = entry.get("low"), entry.get("up"), entry.get("gap")
        # cutLow, which earlier versions wrote, is optional: the tree
        # derives every edge's side, and a side given must be that one.
        cut = entry.get("cutLow")
        given = "cutLow" in entry
        if given and (type(cut) is not list or not cut):
            _require_strs(cut, f"edges[{i}].cutLow")
        if type(low) is not str:
            _require_str(low, f"edges[{i}].low")
        if type(up) is not str:
            _require_str(up, f"edges[{i}].up")
        if given:
            if not all(type(p) is str for p in cut):
                _require_strs(cut, f"edges[{i}].cutLow")
            sides[low, up] = frozenset(cut)
        if type(gap) is not int and not (type(gap) is float and math.isfinite(gap)):
            _require_number(gap, f"edges[{i}].gap")
        lows.append(low)
        ups.append(up)
        gaps.append(gap)

    reference = _require_str(doc.get("reference"), "reference")
    reference_value = _require_number(doc.get("referenceValue"), "referenceValue")
    # The sites are numbered in id order; a site's root is its zone's id.
    owner = {p: sites[0] for sites in zone_sites for p in sites}
    ids = tuple(sorted(owner))
    rep_number = {p: i for i, p in enumerate(ids) if owner[p] == p}
    zone_values = [v for _, v in sorted(zip((sites[0] for sites in zone_sites), values))]
    low, up = list(map(rep_number.get, lows)), list(map(rep_number.get, ups))
    if len(owner) != sum(map(len, zone_sites)) or None in low or None in up:
        _check_zones_and_ends(zone_sites, zone_values, lows, ups, gaps)
    # Past the checks each zone holds its own id, so every owner has a number.
    root = [rep_number[owner[p]] for p in ids]
    tree = IsoTree(ids, root, zone_values, low, up, gaps, reference)
    if sides:
        for e in tree.edges:
            side = sides.get((e.low, e.up))
            if side is not None and side != e.cut.low:
                raise NotATreeError(
                    f"edge {e.low!r}->{e.up!r}: stored cut differs from its subtree split"
                )
    # The tree reconstructs values from the reference's zone, so a
    # reference outside every zone, or a value that is not its zone's,
    # would give back another function.
    if reference not in owner:
        raise ValidationError(f"reference: unknown id {reference!r}")
    if tree.reference_value != reference_value:
        raise ValidationError(
            f"referenceValue: {reference_value!r} is not the value {tree.reference_value!r} "
            f"of the reference's zone {owner[reference]!r}"
        )
    return tree


def _check_zones_and_ends(zone_sites, values, lows, ups, gaps) -> None:
    """Raise on a fault that only a document can have: in its zones, then in its edge ends.

    Zones go in id order, a zone's repeats counting once, and edges in (low, up) order; an
    edge ahead of the first unknown end gets the tree's edge checks, so it raises first.
    ``values`` holds the zone values in id order.
    """
    seen: set[str] = set()
    reps: list[str] = []
    for sites in sorted(zone_sites, key=itemgetter(0)):
        if reps and sites[0] == reps[-1]:
            raise NotATreeError(f"duplicate zone representative {reps[-1]!r}")
        shared = seen.intersection(sites)
        if shared:
            raise NotATreeError(f"site {min(shared)!r} belongs to more than one zone")
        seen.update(sites)
        reps.append(sites[0])
    zone = dict(zip(reps, range(len(reps))))
    for k in sorted(range(len(lows)), key=lambda k: (lows[k], ups[k])):
        a, b = zone.get(lows[k]), zone.get(ups[k])
        if a is None or b is None:
            raise NotATreeError(f"edge {lows[k]!r}->{ups[k]!r} references an unknown zone")
        _check_edges(values, [a], [b], [gaps[k]], reps.__getitem__)


# ---------------------------------------------------------------------------
# Division documents
# ---------------------------------------------------------------------------


def parse_division_json(data: bytes | str) -> tuple[ScalarGraph, ValuedJDivision]:
    """Parse ``{"graph": ..., "cuts": [{"low": [...], "gap": g}, ...]}``.

    Cut regions must be non-empty proper subsets of the site set; they
    are deliberately not required to be Jordan cuts, so that candidate
    divisions with crossing or disconnected sides can be validated.
    """
    return _division_of(_loads(data, "division"))


def _division_of(doc: Any) -> tuple[ScalarGraph, ValuedJDivision]:
    """The graph and division of a parsed division document."""
    from .axioms import LCut, ValuedJDivision

    if not isinstance(doc, dict) or "graph" not in doc:
        raise ValidationError("division document needs a graph field")
    sg = _graph_of(doc["graph"])
    cuts_doc = doc.get("cuts")
    if not isinstance(cuts_doc, list):
        raise ValidationError("cuts: expected an array")
    cuts = []
    for i, entry in enumerate(cuts_doc):
        where = f"cuts[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        low = _require_strs(entry.get("low"), f"{where}.low")
        unknown = low - sg.graph.sites
        if unknown:
            raise ValidationError(f"{where}.low: unknown ids {sorted(unknown)}")
        if low == sg.graph.sites:
            raise ValidationError(f"{where}.low: a cut side cannot be the whole site set")
        gap = _require_number(entry.get("gap"), f"{where}.gap")
        if not gap > 0:
            raise ValidationError(f"{where}.gap: must be positive, got {gap!r}")
        cuts.append(LCut(JCut(low), gap))
    return sg, ValuedJDivision(cuts)


def division_to_json(sg: ScalarGraph, division: ValuedJDivision) -> str:
    doc = {
        "graph": _graph_doc(sg),
        "cuts": [{"low": sorted(lc.cut.low), "gap": _num(lc.gap)} for lc in division.cuts],
    }
    return json.dumps(doc, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# DOT output
# ---------------------------------------------------------------------------


def _dot_quote(s: str) -> str:
    return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(tree: IsoTree) -> str:
    """Directed DOT rendering: one node per zone, edges low to up."""
    lines = ["digraph isotree {"]
    for rep, sites, value in tree.zone_rows():
        label = f"value={_num(value)} |sites|={len(sites)}"
        lines.append(f"  {_dot_quote(rep)} [label={_dot_quote(label)}];")
    for low, up, gap in tree.edge_rows():
        lines.append(
            f"  {_dot_quote(low)} -> {_dot_quote(up)} [label={_dot_quote(str(_num(gap)))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
