"""File formats: graph/tree/division JSON documents, PGM grids, DOT output.

JSON is the canonical interchange format.  Serialization is fully
deterministic (sorted sites, sorted pairs, fixed key order, integral
reals written without a fraction) so serialize-parse-serialize is
byte-identical.  The readers check the entries of each document array
in document order, and the fields of an entry in a fixed order; the
first fault raises a ``ValidationError`` that names it as
``array[i].field``.  PGM images (ASCII ``P2`` and binary ``P5``) load
as triangulated grids, one site per pixel.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

from .errors import NotATreeError, ParseError, ValidationError
from .graph import Graph, JCut, ScalarGraph
from .mono import gen_tri_grid
from .tree import IsoTree, LCut, ValuedJDivision

_MAX_PGM_VALUE = 65535


def _num(x: float) -> float:
    """Integral reals as ints so integer fixtures round-trip byte-exactly."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    number = dict(zip(ids, range(len(ids))))
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
    return ScalarGraph(Graph._from_rows(ids, number, rows), values, reference=reference)


def _graph_doc(sg: ScalarGraph) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "sites": [{"id": p, "value": _num(sg.value_of(p))} for p in sg.graph.site_list],
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


def tree_to_json(tree: IsoTree) -> str:
    """The document ``json.dumps(doc, indent=2)`` writes, byte for byte.

    That encoder runs in pure Python whenever ``indent`` is set, so the
    zone and edge records are filled into its layout here instead.
    """
    zones, edges = list(tree.zone_rows()), list(tree.edge_rows())
    # The C encoder writes each number exactly as json.dumps would, and
    # refuses non-finite ones; the reference value is a zone's value.
    values = chain([v for _, _, v in zones], [gap for _, _, gap in edges], [tree.reference_value])
    numbers = json.dumps(list(map(_num, values)), allow_nan=False)[1:-1].split(", ")
    gaps = numbers[len(zones) : -1]
    q = encode_basestring_ascii
    site_list = ",\n        ".join
    zone_records = ",\n".join(
        [
            f'    {{\n      "id": {q(rep)},\n      "sites": [\n'
            f"        {site_list(map(q, sites))}\n"
            f'      ],\n      "value": {value}\n    }}'
            for (rep, sites, _), value in zip(zones, numbers)
        ]
    )
    edge_records = ",\n".join(
        [
            f'    {{\n      "low": {q(low)},\n      "up": {q(up)},\n      "gap": {gap}\n    }}'
            for (low, up, _), gap in zip(edges, gaps)
        ]
    )
    edge_array = f"[\n{edge_records}\n  ]" if edges else "[]"
    return (
        f'{{\n  "zones": [\n{zone_records}\n  ],\n  "edges": {edge_array},\n'
        f'  "reference": {q(tree.reference)},\n'
        f'  "referenceValue": {numbers[-1]}\n}}'
    )


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
    tree = IsoTree(zone_sites, values, lows, ups, gaps, reference)
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
    ref_zone = tree.zone_of(reference)
    if ref_zone is None:
        raise ValidationError(f"reference: unknown id {reference!r}")
    if ref_zone.value != reference_value:
        raise ValidationError(
            f"referenceValue: {reference_value!r} is not the value {ref_zone.value!r} "
            f"of the reference's zone {ref_zone.rep!r}"
        )
    return tree


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
# PGM images
# ---------------------------------------------------------------------------


# Separators and "#" comments (to the end of the line) skipped, then one
# token: the bytes up to the next separator.  It is empty only at the end.
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]+|#[^\n]*)*([^ \t\r\n\v\f#]*)")


class _PgmScanner:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def token(self, what: str) -> bytes:
        m = _PGM_TOKEN.match(self.data, self.pos)
        if not m[1]:
            raise ParseError(f"unexpected end of PGM data at byte {m.end()} (reading {what})")
        self.pos = m.end()
        return m[1]

    def int_token(self, what: str) -> int:
        start_pos = self.pos
        tok = self.token(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"bad PGM {what} {tok!r} at byte {start_pos}") from None


def parse_pgm(data: bytes) -> tuple[int, int, list[int]]:
    """Decode a P2/P5 PGM into (width, height, row-major pixel values)."""
    scan = _PgmScanner(data)
    magic = scan.token("magic number")
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"unsupported PGM magic {magic!r} at byte 0")
    width = scan.int_token("width")
    height = scan.int_token("height")
    maxval = scan.int_token("maxval")
    if width < 1 or height < 1:
        raise ParseError(f"bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= _MAX_PGM_VALUE:
        raise ParseError(f"PGM maxval {maxval} out of range 1..{_MAX_PGM_VALUE}")
    count = width * height
    pixels: list[int]
    if magic == b"P2":
        pixels = [scan.int_token("pixel") for _ in range(count)]
    else:
        # Exactly one whitespace byte separates the header from the payload.
        if scan.pos >= len(data) or data[scan.pos] not in b" \t\r\n\v\f":
            raise ParseError(f"missing separator after PGM header at byte {scan.pos}")
        pos = scan.pos + 1
        step = 2 if maxval > 255 else 1
        need = count * step
        if len(data) - pos < need:
            raise ParseError(
                f"truncated PGM payload at byte {len(data)}: need {need} bytes from {pos}"
            )
        raw = data[pos : pos + need]
        if step == 1:
            pixels = list(raw)
        else:
            pixels = [(raw[2 * i] << 8) | raw[2 * i + 1] for i in range(count)]
    for i, v in enumerate(pixels):
        if not 0 <= v <= maxval:
            raise ParseError(f"pixel {i} value {v} exceeds maxval {maxval}")
    return width, height, pixels


def load_pgm_tri_grid(data: bytes) -> ScalarGraph:
    """One site per pixel on a triangulated grid; value = pixel intensity."""
    width, height, pixels = parse_pgm(data)
    return gen_tri_grid(width, height, pixels)


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
