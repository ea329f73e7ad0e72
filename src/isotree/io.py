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
from collections.abc import Callable, Iterable
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, eq, is_not, itemgetter
from typing import Any

from .errors import ParseError, ValidationError
from .graph import Graph, JCut, ScalarGraph
from .mono import gen_tri_grid
from .tree import IsoTree, IsoZone, LCut, TreeEdge, ValuedJDivision

_MAX_PGM_VALUE = 65535
_ABSENT = object()  # a field not in an entry, unlike one given as null


def _num(x: float) -> float:
    """Integral reals as ints so integer fixtures round-trip byte-exactly."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


def _number_fault(x: Any) -> str | None:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return f"expected a number, got {x!r}"
    if isinstance(x, float) and not math.isfinite(x):
        return f"expected a finite number, got {x!r}"
    return None


def _str_fault(x: Any) -> str | None:
    return None if isinstance(x, str) else f"expected a string, got {x!r}"


def _strs_fault(items: list) -> str | None:
    """The fault of the first item that is not a string."""
    return next(filter(None, map(_str_fault, items)), None)


def _require_number(x: Any, where: str) -> float:
    fault = _number_fault(x)
    if fault is not None:
        raise ValidationError(f"{where}: {fault}")
    return x


def _require_str(x: Any, where: str) -> str:
    fault = _str_fault(x)
    if fault is not None:
        raise ValidationError(f"{where}: {fault}")
    return x


def _require_strs(items: list, where: str) -> frozenset[str]:
    """The items as a set; type-checked in bulk, since cut lists are long."""
    if not _all_of(str, items):
        raise ValidationError(f"{where}: {_strs_fault(items)}")
    return frozenset(items)


def _all_of(kind: type, items: Iterable[Any]) -> bool:
    """Whether every item is exactly of type ``kind``, as JSON values are."""
    return set(map(type, items)) <= {kind}


def _all_numbers(items: list) -> bool:
    """Whether every item is an int or a finite float; only floats can be infinite."""
    kinds = set(map(type, items))
    if not kinds <= {int, float}:
        return False
    return float not in kinds or all(map(math.isfinite, filter(float.__instancecheck__, items)))


def _non_empty_list(x: Any) -> bool:
    return isinstance(x, list) and len(x) > 0


class _Checks:
    """Field-by-field checks of a document array that fail where a loop would.

    A loop over the entries checks the fields of one entry in turn and
    raises at its first fault.  Here each field is checked over the whole
    array at once, in the same order, and the offending entry is searched
    for only when a check fails.  Every later check sees only the entries
    before it (``head``), so ``done`` raises the loop's error: the one of
    the earliest faulty entry, for the first field it fails.
    """

    def __init__(self, name: str, entries: list):
        self.name = name
        self.stop = len(entries)
        self.error: ValidationError | None = None

    def head(self, column: list) -> list:
        """The items of ``column`` before the earliest fault found so far."""
        return column if len(column) == self.stop else column[: self.stop]

    def check(self, ok: bool, fault: Callable[[int], str | None], field: str = "") -> None:
        """Unless ``ok``, keep the error of the first entry with a fault.

        ``fault(i)`` is called for i = 0, 1, ... in turn and says what is
        wrong with ``field`` of entry i, or returns None.
        """
        if ok:
            return
        for i in range(self.stop):
            message = fault(i)
            if message is not None:
                self.stop = i
                self.error = ValidationError(f"{self.name}[{i}]{field}: {message}")
                return

    def done(self) -> None:
        if self.error is not None:
            raise self.error

    def objects(self, entries: list) -> list[dict]:
        self.check(
            _all_of(dict, entries),
            lambda i: None if isinstance(entries[i], dict) else "expected an object",
        )
        return self.head(entries)

    def column(self, entries: list[dict], key: str, default: Any = None) -> list:
        """Field ``key`` of every entry, or ``default`` where it is missing."""
        return self.head(list(map(dict.get, entries, repeat(key), repeat(default))))

    def strs(self, column: list, field: str) -> list[str]:
        self.check(_all_of(str, column), lambda i: _str_fault(column[i]), field)
        return self.head(column)

    def numbers(self, column: list, field: str) -> list[float]:
        self.check(_all_numbers(column), lambda i: _number_fault(column[i]), field)
        return self.head(column)

    def unique(self, keys: list, fault: Callable[[int], str]) -> None:
        first: dict = {}
        self.check(
            len(set(keys)) == len(keys),
            lambda i: None if first.setdefault(keys[i], i) == i else fault(i),
        )


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
    checks = _Checks("sites", sites)
    sites = checks.objects(sites)
    ids = checks.strs(checks.column(sites, "id"), ".id")
    checks.unique(ids, lambda i: f"duplicate id {ids[i]!r}")
    values = checks.numbers(checks.column(sites, "value"), ".value")
    checks.done()

    adjacency = doc.get("adjacency", [])
    if not isinstance(adjacency, list):
        raise ValidationError("adjacency: expected an array")
    checks = _Checks("adjacency", adjacency)
    checks.check(
        _all_of(list, adjacency) and set(map(len, adjacency)) <= {2},
        lambda i: None if isinstance(adjacency[i], list) and len(adjacency[i]) == 2
        else "expected a pair of ids",
    )
    pairs = checks.head(adjacency)
    ps, qs = list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))
    checks.check(_all_of(str, ps) and _all_of(str, qs), lambda i: _strs_fault(pairs[i]))
    ps, qs = checks.head(ps), checks.head(qs)
    checks.check(
        not any(map(eq, ps, qs)),
        lambda i: f"self-loop on {ps[i]!r}" if ps[i] == qs[i] else None,
    )
    known = set(ids)
    checks.check(
        known.issuperset(ps) and known.issuperset(qs),
        lambda i: next((f"unknown id {s!r}" for s in (ps[i], qs[i]) if s not in known), None),
    )
    checks.unique(
        list(map(frozenset, zip(checks.head(ps), checks.head(qs)))),
        lambda i: f"duplicate pair ({ps[i]!r}, {qs[i]!r})",
    )
    checks.done()

    reference = doc.get("reference")
    if reference is not None:
        reference = _require_str(reference, "reference")
        if reference not in known:
            raise ValidationError(f"reference: unknown id {reference!r}")
    return ScalarGraph(Graph(ids, pairs), dict(zip(ids, values)), reference=reference)


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
    """The document ``json.dumps(doc, indent=2)`` writes, byte for byte.

    That encoder runs in pure Python whenever ``indent`` is set, so the
    zone and edge records are filled into its layout here instead.
    """
    zones, edges = tree.zones, tree.edges
    # The C encoder writes each number exactly as json.dumps would.
    values = chain(map(attrgetter("value"), zones), map(attrgetter("gap"), edges))
    numbers = json.dumps(list(map(_num, values)))[1:-1].split(", ")
    gaps = numbers[len(zones) :]
    q = encode_basestring_ascii
    site_list = ",\n        ".join
    zone_records = ",\n".join(
        [
            f'    {{\n      "id": {q(z.rep)},\n      "sites": [\n'
            f"        {site_list(map(q, sorted(z.sites)))}\n"
            f'      ],\n      "value": {value}\n    }}'
            for z, value in zip(zones, numbers)
        ]
    )
    edge_records = ",\n".join(
        [
            f'    {{\n      "low": {q(e.low)},\n      "up": {q(e.up)},\n      "gap": {gap}\n    }}'
            for e, gap in zip(edges, gaps)
        ]
    )
    edge_array = f"[\n{edge_records}\n  ]" if edges else "[]"
    return (
        f'{{\n  "zones": [\n{zone_records}\n  ],\n  "edges": {edge_array},\n'
        f'  "reference": {q(tree.reference)},\n'
        f'  "referenceValue": {json.dumps(_num(tree.reference_value))}\n}}'
    )


def parse_tree_json(data: bytes | str) -> IsoTree:
    doc = _loads(data, "tree")
    if not isinstance(doc, dict):
        raise ValidationError("tree document must be a JSON object")
    zones_doc = doc.get("zones")
    if not isinstance(zones_doc, list) or not zones_doc:
        raise ValidationError("zones: expected a non-empty array")
    checks = _Checks("zones", zones_doc)
    zones_doc = checks.objects(zones_doc)
    site_lists = checks.column(zones_doc, "sites")
    checks.check(
        _all_of(list, site_lists) and all(site_lists),
        lambda i: None if _non_empty_list(site_lists[i]) else "expected a non-empty array",
        ".sites",
    )
    site_lists = checks.head(site_lists)
    checks.check(
        _all_of(str, chain.from_iterable(site_lists)),
        lambda i: _strs_fault(site_lists[i]),
        ".sites",
    )
    ids = checks.strs(checks.column(zones_doc, "id"), ".id")
    site_sets = list(map(frozenset, checks.head(site_lists)))
    checks.check(
        ids == list(map(min, site_sets)),
        lambda i: None if ids[i] == min(site_sets[i])
        else f"id {ids[i]!r} is not the least site of the zone",
    )
    values = checks.numbers(checks.column(zones_doc, "value"), ".value")
    checks.done()
    zones = list(map(IsoZone, site_sets, values))

    edges_doc = doc.get("edges", [])
    if not isinstance(edges_doc, list):
        raise ValidationError("edges: expected an array")
    checks = _Checks("edges", edges_doc)
    edges_doc = checks.objects(edges_doc)
    # cutLow is optional: the tree derives it, and checks it when given.
    cut_docs = checks.column(edges_doc, "cutLow", _ABSENT)
    given = list(map(is_not, cut_docs, repeat(_ABSENT)))
    checks.check(
        _all_of(list, compress(cut_docs, given)) and all(compress(cut_docs, given)),
        lambda i: None if not given[i] or _non_empty_list(cut_docs[i])
        else "expected a non-empty array",
        ".cutLow",
    )
    lows = checks.strs(checks.column(edges_doc, "low"), ".low")
    ups = checks.strs(checks.column(edges_doc, "up"), ".up")
    cut_docs = checks.head(cut_docs)
    checks.check(
        _all_of(str, chain.from_iterable(compress(cut_docs, given))),
        lambda i: _strs_fault(cut_docs[i]) if given[i] else None,
        ".cutLow",
    )
    gaps = checks.numbers(checks.column(edges_doc, "gap"), ".gap")
    checks.done()
    cuts = [JCut(frozenset(c)) if g else None for c, g in zip(cut_docs, given)]
    edges = list(map(TreeEdge, lows, ups, cuts, gaps))

    reference = _require_str(doc.get("reference"), "reference")
    reference_value = _require_number(doc.get("referenceValue"), "referenceValue")
    tree = IsoTree(zones, edges, reference, reference_value)
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
