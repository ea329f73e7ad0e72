"""File formats: graph/tree/division JSON documents, PGM grids, DOT output.

JSON is the canonical interchange format.  Serialization is fully
deterministic (sorted sites, sorted pairs, fixed key order, integral
reals written without a fraction) so serialize-parse-serialize is
byte-identical.  PGM images (ASCII ``P2`` and binary ``P5``) load as
triangulated grids, one site per pixel.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import ParseError, ValidationError
from .graph import Graph, JCut, ScalarGraph, SiteId
from .mono import gen_tri_grid
from .tree import IsoTree, IsoZone, LCut, TreeEdge, ValuedJDivision

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


def _require_strs(items: list, where: str) -> frozenset[str]:
    """The items as a set; type-checked in bulk, since cut lists are long."""
    if set(map(type, items)) != {str}:
        for x in items:
            _require_str(x, where)
    return frozenset(items)


def _loads(data: bytes | str, what: str) -> Any:
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {what} document: {exc}") from None


# ---------------------------------------------------------------------------
# Graph documents
# ---------------------------------------------------------------------------


def load_graph_json(data: bytes | str) -> ScalarGraph:
    """Parse and validate a graph document into a scalar graph."""
    doc = _loads(data, "graph")
    if not isinstance(doc, dict):
        raise ValidationError("graph document must be a JSON object")
    sites = doc.get("sites")
    if not isinstance(sites, list) or not sites:
        raise ValidationError("sites: expected a non-empty array")
    values: dict[SiteId, float] = {}
    for i, entry in enumerate(sites):
        where = f"sites[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        sid = _require_str(entry.get("id"), f"{where}.id")
        if sid in values:
            raise ValidationError(f"{where}: duplicate id {sid!r}")
        values[sid] = _require_number(entry.get("value"), f"{where}.value")
    adjacency = doc.get("adjacency", [])
    if not isinstance(adjacency, list):
        raise ValidationError("adjacency: expected an array")
    pairs: list[tuple[SiteId, SiteId]] = []
    seen: set[frozenset[SiteId]] = set()
    for i, entry in enumerate(adjacency):
        where = f"adjacency[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValidationError(f"{where}: expected a pair of ids")
        p, q = (_require_str(x, where) for x in entry)
        if p == q:
            raise ValidationError(f"{where}: self-loop on {p!r}")
        for sid in (p, q):
            if sid not in values:
                raise ValidationError(f"{where}: unknown id {sid!r}")
        key = frozenset((p, q))
        if key in seen:
            raise ValidationError(f"{where}: duplicate pair ({p!r}, {q!r})")
        seen.add(key)
        pairs.append((p, q))
    reference = doc.get("reference")
    if reference is not None:
        reference = _require_str(reference, "reference")
        if reference not in values:
            raise ValidationError(f"reference: unknown id {reference!r}")
    return ScalarGraph(Graph(values.keys(), pairs), values, reference=reference)


def graph_to_json(sg: ScalarGraph) -> str:
    doc: dict[str, Any] = {
        "sites": [{"id": p, "value": _num(sg.value_of(p))} for p in sg.graph.site_list],
        "adjacency": [list(pair) for pair in sg.graph.pairs],
    }
    if sg.reference is not None:
        doc["reference"] = sg.reference
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Tree documents
# ---------------------------------------------------------------------------


def tree_to_json(tree: IsoTree) -> str:
    doc = {
        "zones": [
            {"id": z.rep, "sites": sorted(z.sites), "value": _num(z.value)} for z in tree.zones
        ],
        "edges": [{"low": e.low, "up": e.up, "gap": _num(e.gap)} for e in tree.edges],
        "reference": tree.reference,
        "referenceValue": _num(tree.reference_value),
    }
    return json.dumps(doc, indent=2)


def parse_tree_json(data: bytes | str) -> IsoTree:
    doc = _loads(data, "tree")
    if not isinstance(doc, dict):
        raise ValidationError("tree document must be a JSON object")
    zones_doc = doc.get("zones")
    if not isinstance(zones_doc, list) or not zones_doc:
        raise ValidationError("zones: expected a non-empty array")
    zones = []
    for i, entry in enumerate(zones_doc):
        where = f"zones[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        sites_doc = entry.get("sites")
        if not isinstance(sites_doc, list) or not sites_doc:
            raise ValidationError(f"{where}.sites: expected a non-empty array")
        sites = _require_strs(sites_doc, f"{where}.sites")
        zid = _require_str(entry.get("id"), f"{where}.id")
        if zid != min(sites):
            raise ValidationError(f"{where}: id {zid!r} is not the least site of the zone")
        zones.append(IsoZone(sites, _require_number(entry.get("value"), f"{where}.value")))
    edges_doc = doc.get("edges", [])
    if not isinstance(edges_doc, list):
        raise ValidationError("edges: expected an array")
    edges = []
    for i, entry in enumerate(edges_doc):
        where = f"edges[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        # cutLow is optional: the tree derives it, and checks it when given.
        cut_doc = entry.get("cutLow")
        if "cutLow" in entry and (not isinstance(cut_doc, list) or not cut_doc):
            raise ValidationError(f"{where}.cutLow: expected a non-empty array")
        edges.append(
            TreeEdge(
                _require_str(entry.get("low"), f"{where}.low"),
                _require_str(entry.get("up"), f"{where}.up"),
                JCut(_require_strs(cut_doc, f"{where}.cutLow")) if cut_doc else None,
                _require_number(entry.get("gap"), f"{where}.gap"),
            )
        )
    reference = _require_str(doc.get("reference"), "reference")
    reference_value = _require_number(doc.get("referenceValue"), "referenceValue")
    return IsoTree(zones, edges, reference, reference_value)


# ---------------------------------------------------------------------------
# Division documents
# ---------------------------------------------------------------------------


def parse_division_json(data: bytes | str) -> tuple[ScalarGraph, ValuedJDivision]:
    """Parse ``{"graph": ..., "cuts": [{"low": [...], "gap": g}, ...]}``.

    Cut regions must be non-empty proper subsets of the site set; they
    are deliberately not required to be Jordan cuts, so that candidate
    divisions with crossing or disconnected sides can be validated.
    """
    doc = _loads(data, "division")
    if not isinstance(doc, dict) or "graph" not in doc:
        raise ValidationError("division document needs a graph field")
    sg = load_graph_json(json.dumps(doc["graph"]))
    cuts_doc = doc.get("cuts")
    if not isinstance(cuts_doc, list):
        raise ValidationError("cuts: expected an array")
    cuts = []
    for i, entry in enumerate(cuts_doc):
        where = f"cuts[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        low_doc = entry.get("low")
        if not isinstance(low_doc, list) or not low_doc:
            raise ValidationError(f"{where}.low: expected a non-empty array")
        low = _require_strs(low_doc, f"{where}.low")
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
        "graph": json.loads(graph_to_json(sg)),
        "cuts": [{"low": sorted(lc.cut.low), "gap": _num(lc.gap)} for lc in division.cuts],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------


class _PgmScanner:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _skip_separators(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            byte = data[self.pos]
            if byte in b" \t\r\n\v\f":
                self.pos += 1
            elif byte in b"#":
                while self.pos < n and data[self.pos] not in b"\n":
                    self.pos += 1
            else:
                return

    def token(self, what: str) -> bytes:
        self._skip_separators()
        if self.pos >= len(self.data):
            raise ParseError(f"unexpected end of PGM data at byte {self.pos} (reading {what})")
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] not in b" \t\r\n\v\f#":
            self.pos += 1
        return self.data[start : self.pos]

    def int_token(self, what: str) -> int:
        start_pos = self.pos
        tok = self.token(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(
                f"bad PGM {what} {tok!r} at byte {start_pos}"
            ) from None


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
    for z in tree.zones:
        label = f"value={_num(z.value)} |sites|={len(z.sites)}"
        lines.append(f"  {_dot_quote(z.rep)} [label={_dot_quote(label)}];")
    for e in tree.edges:
        lines.append(
            f"  {_dot_quote(e.low)} -> {_dot_quote(e.up)} [label={_dot_quote(str(_num(e.gap)))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
