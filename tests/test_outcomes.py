"""Outcome corpus: what the graph, division and tree readers, ``build`` and ``validate`` do.

A seeded generator makes small graph documents (paths of 1-8 sites and
tri-grids up to 4x4, values 0-3), division documents over them, and the
tree documents that ``build`` writes for them, each with 0-3 faults.  A
document's outcome is what the reader writes back (``graph_to_json`` /
``division_to_json`` / ``tree_to_json``) or the exception type and
message it raises, plus the exit code, output file and stderr of the
CLI command that reads it: ``build`` for a graph document, ``validate``
for a division document, and ``validate --graph`` for a tree document.
``outcome_digests.txt`` holds a short hash of each outcome; the test
names the first document whose outcome moved.

Regenerate the digest file only for a deliberate contract change:

    PYTHONPATH=src python tests/test_outcomes.py --write
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from isotree import build_iso_tree, cli
from isotree.io import (
    division_to_json,
    graph_to_json,
    load_graph_json,
    parse_division_json,
    parse_tree_json,
    tree_to_json,
)

DIGESTS = Path(__file__).with_name("outcome_digests.txt")
GRAPH_DOCS = 2000
DIVISION_DOCS = 1000
TREE_DOCS = 1000
# Written in place of a quoted marker, since json.dumps cannot spell it.
OVERFLOW = "__overflow__"


def _shape(rng: random.Random) -> tuple[list[str], list[list[str]], list[list[str]]]:
    """Ids in row-major order, adjacency pairs, and the rows (one row for a path)."""
    if rng.random() < 0.4:
        ids = list("abcdefgh"[: rng.randint(1, 8)])
        return ids, [[p, q] for p, q in zip(ids, ids[1:])], [ids]
    w, h = rng.randint(1, 4), rng.randint(1, 4)
    rows = [[f"r{r}c{c}" for c in range(w)] for r in range(h)]
    pairs = []
    for r in range(h):
        for c in range(w):
            if c + 1 < w:
                pairs.append([rows[r][c], rows[r][c + 1]])
            if r + 1 < h:
                pairs.append([rows[r][c], rows[r + 1][c]])
            if c + 1 < w and r + 1 < h:
                pairs.append([rows[r][c], rows[r + 1][c + 1]])
    return [p for row in rows for p in row], pairs, rows


def _graph_fault(rng: random.Random, doc: dict, ids: list[str]) -> None:
    """Damage a graph document in place, or (for some kinds) only reorder it."""
    sites, pairs = doc.get("sites"), doc.get("adjacency")
    has_sites = isinstance(sites, list) and sites and all(isinstance(s, dict) for s in sites)
    has_pairs = isinstance(pairs, list) and pairs and all(isinstance(p, list) for p in pairs)
    kind = rng.choice([
        "drop-sites", "drop-adjacency", "sites-type", "adjacency-type", "entry-type",
        "drop-id", "drop-value", "id-type", "value-type", "duplicate-id", "shuffle-sites",
        "non-finite", "pair-type", "pair-length", "pair-id-type", "unknown-id", "self-loop",
        "duplicate-pair", "reversed-duplicate", "reverse-pair", "shuffle-pairs", "drop-pair",
        "extra-pair", "reference", "reference-unknown", "reference-type",
        # Faults that leave a readable document, weighted up.
        "shuffle-sites", "reverse-pair", "shuffle-pairs", "extra-pair", "extra-pair", "reference",
        # Two faults in one entry, so that the order of the checks shows.
        "duplicate-bad-value", "unknown-self-loop",
    ])
    if kind == "drop-sites":
        doc.pop("sites", None)
    elif kind == "drop-adjacency":
        doc.pop("adjacency", None)
    elif kind == "sites-type":
        doc["sites"] = rng.choice([{}, "a", [], None, 3])
    elif kind == "adjacency-type":
        doc["adjacency"] = rng.choice([{}, "ab", None, 3])
    elif kind == "reference":
        doc["reference"] = rng.choice(ids)
    elif kind == "reference-unknown":
        doc["reference"] = "zz"
    elif kind == "reference-type":
        doc["reference"] = rng.choice([1, [], True])
    elif kind in ("entry-type", "drop-id", "drop-value", "id-type", "value-type",
                  "duplicate-id", "shuffle-sites", "non-finite", "duplicate-bad-value") and has_sites:
        k = rng.randrange(len(sites))
        if kind == "entry-type":
            sites[k] = rng.choice([["a", 0], "a", None, 7])
        elif kind == "drop-id":
            sites[k].pop("id", None)
        elif kind == "drop-value":
            sites[k].pop("value", None)
        elif kind == "id-type":
            sites[k]["id"] = rng.choice([1, None, ["a"], True])
        elif kind == "value-type":
            sites[k]["value"] = rng.choice(["1", None, True, [1], {}])
        elif kind == "duplicate-id":
            sites.insert(rng.randrange(len(sites) + 1), dict(sites[k]))
        elif kind == "duplicate-bad-value":
            sites.insert(k + 1, dict(sites[k], value=rng.choice(["1", float("nan")])))
        elif kind == "shuffle-sites":
            rng.shuffle(sites)
        else:
            sites[k]["value"] = rng.choice([float("nan"), float("inf"), float("-inf"), OVERFLOW])
    elif kind in ("pair-type", "pair-length", "pair-id-type", "unknown-id", "self-loop",
                  "duplicate-pair", "reversed-duplicate", "reverse-pair", "shuffle-pairs",
                  "drop-pair", "unknown-self-loop") and has_pairs:
        k = rng.randrange(len(pairs))
        if kind == "pair-type":
            pairs[k] = rng.choice(["ab", {"a": "b"}, None, 3])
        elif kind == "pair-length":
            pairs[k] = pairs[k][:1] if rng.random() < 0.5 else pairs[k] + [ids[0]]
        elif kind == "pair-id-type":
            pairs[k][rng.randrange(len(pairs[k]))] = rng.choice([1, None, ["a"]])
        elif kind == "unknown-id":
            pairs[k][rng.randrange(len(pairs[k]))] = "zz"
        elif kind == "self-loop":
            pairs[k] = [pairs[k][0], pairs[k][0]]
        elif kind == "unknown-self-loop":
            pairs[k] = ["zz", "zz"]
        elif kind == "duplicate-pair":
            pairs.insert(rng.randrange(len(pairs) + 1), list(pairs[k]))
        elif kind == "reversed-duplicate":
            pairs.insert(rng.randrange(len(pairs) + 1), pairs[k][::-1])
        elif kind == "reverse-pair":
            pairs[k] = pairs[k][::-1]
        elif kind == "shuffle-pairs":
            rng.shuffle(pairs)
        else:
            del pairs[k]
    elif kind == "extra-pair" and has_pairs and len(ids) > 2:
        pairs.append(rng.sample(ids, 2))


def _faults(rng: random.Random) -> range:
    return range(rng.choice((0, 0, 1, 1, 2, 3)))


def graph_document(seed: int, faults: bool = True) -> tuple[dict, list[list[str]]]:
    """Graph document ``seed`` of the corpus, and the rows of its shape."""
    rng = random.Random(seed)
    ids, pairs, rows = _shape(rng)
    doc = {"sites": [{"id": p, "value": rng.randint(0, 3)} for p in ids], "adjacency": pairs}
    for _ in _faults(rng) if faults else ():
        _graph_fault(rng, doc, ids)
    return doc, rows


def division_document(seed: int) -> dict:
    """Division document ``seed``: prefix cuts of the shape's rows, or of a path."""
    rng = random.Random(10_000_000 + seed)
    graph, rows = graph_document(rng.randrange(10**6), faults=False)
    if len(rows) == 1:
        lows = [rows[0][:k] for k in range(1, len(rows[0]))]
    else:
        lows = [[p for row in rows[:k] for p in row] for k in range(1, len(rows))]
    cuts = [{"low": low, "gap": rng.randint(1, 3)} for low in lows if rng.random() < 0.8]
    doc = {"graph": graph, "cuts": cuts}
    for _ in _faults(rng):
        kind = rng.choice(["graph", "graph", "drop-graph", "cuts-type", "drop-cuts", "entry-type",
                           "low-type", "low-unknown", "low-empty", "low-all", "gap-type",
                           "gap-zero", "gap-negative", "gap-non-finite", "duplicate-cut",
                           "low-random", "low-random"])
        if kind == "graph":
            _graph_fault(rng, graph, [p for row in rows for p in row])
        elif kind == "drop-graph":
            doc.pop("graph", None)
        elif kind == "cuts-type":
            doc["cuts"] = rng.choice([{}, "x", None])
        elif kind == "drop-cuts":
            doc.pop("cuts", None)
        elif isinstance(doc.get("cuts"), list) and doc["cuts"]:
            cuts = doc["cuts"]
            k = rng.randrange(len(cuts))
            entry = cuts[k] if isinstance(cuts[k], dict) else {}
            if kind == "entry-type":
                cuts[k] = rng.choice([["a"], "a", 3])
            elif kind == "low-type":
                entry["low"] = rng.choice(["a", [1], None, {}])
            elif kind == "low-unknown":
                entry["low"] = list(entry.get("low") or []) + ["zz"]
            elif kind == "low-empty":
                entry["low"] = []
            elif kind == "low-random":
                every = [p for row in rows for p in row]
                entry["low"] = rng.sample(every, rng.randint(1, len(every)))
            elif kind == "low-all":
                entry["low"] = [p for row in rows for p in row]
            elif kind == "gap-type":
                entry["gap"] = rng.choice(["1", None, True])
            elif kind == "gap-zero":
                entry["gap"] = 0
            elif kind == "gap-negative":
                entry["gap"] = -rng.randint(1, 3)
            elif kind == "gap-non-finite":
                entry["gap"] = rng.choice([float("nan"), float("inf"), OVERFLOW])
            else:
                cuts.insert(rng.randrange(len(cuts) + 1), dict(entry, gap=rng.randint(1, 3)))
    return doc


def _tree_fault(rng: random.Random, doc: dict, ids: list[str]) -> None:
    """Damage a tree document in place, or (for some kinds) only reorder it."""
    zones, edges = doc.get("zones"), doc.get("edges")
    zone_list = [z for z in zones if isinstance(z, dict)] if isinstance(zones, list) else []
    edge_list = [e for e in edges if isinstance(e, dict)] if isinstance(edges, list) else []
    kind = rng.choice([
        "drop-field", "field-type", "zone-entry-type", "zone-drop", "zone-type",
        "edge-entry-type", "edge-drop", "edge-type", "unknown-end", "non-least-id",
        "site-in-two-zones", "duplicate-zone", "wrong-gap", "non-positive-gap", "non-finite",
        "wrong-cut-low", "cut-low-type", "reference-outside", "wrong-reference-value",
        "reference-moved", "swap-ends", "drop-edge", "drop-zone",
        # Faults that leave a readable document, weighted up.
        "shuffle-zones", "shuffle-edges", "shuffle-sites", "reference-moved",
        # Two faults in one entry, so that the order of the checks shows.
        "non-least-id-bad-value", "unknown-end-bad-gap",
    ])
    if kind == "drop-field":
        doc.pop(rng.choice(["zones", "edges", "reference", "referenceValue"]), None)
    elif kind == "field-type":
        key = rng.choice(["zones", "edges", "reference", "referenceValue"])
        doc[key] = rng.choice([{}, "a", [], None, 3, True])
    elif kind == "reference-outside":
        doc["reference"] = "zz"
    elif kind == "wrong-reference-value" and "referenceValue" in doc:
        value = doc["referenceValue"]
        doc["referenceValue"] = value + rng.choice([1, -1, 0.5]) if type(value) is int else 0
    elif kind == "reference-moved":
        doc["reference"] = rng.choice(ids)
    elif kind == "shuffle-zones" and isinstance(zones, list):
        rng.shuffle(zones)
    elif kind == "shuffle-edges" and isinstance(edges, list):
        rng.shuffle(edges)
    elif kind in ("zone-entry-type", "duplicate-zone", "drop-zone") and zones:
        k = rng.randrange(len(zones))
        if kind == "zone-entry-type":
            zones[k] = rng.choice([["a"], "a", None, 3])
        elif kind == "duplicate-zone":
            zones.insert(rng.randrange(len(zones) + 1), json.loads(json.dumps(zones[k])))
        else:
            del zones[k]
    elif kind in ("zone-drop", "zone-type", "non-least-id", "site-in-two-zones",
                  "shuffle-sites", "non-least-id-bad-value") and zone_list:
        zone = rng.choice(zone_list)
        sites = zone.get("sites") if isinstance(zone.get("sites"), list) else []
        if kind == "zone-drop":
            zone.pop(rng.choice(["sites", "id", "value"]), None)
        elif kind == "zone-type":
            key = rng.choice(["sites", "id", "value"])
            zone[key] = rng.choice({
                "sites": ["a", [], [1], None, {}], "id": [1, None, ["a"]],
                "value": ["1", None, True, [1]],
            }[key])
        elif kind in ("non-least-id", "non-least-id-bad-value"):
            others = [p for p in sites if p != zone.get("id")]
            zone["id"] = rng.choice(others) if others else rng.choice(ids + ["zz"])
            if kind == "non-least-id-bad-value":
                zone["value"] = rng.choice(["1", float("nan")])
        elif kind == "site-in-two-zones":
            zone.setdefault("sites", []).append(rng.choice(ids))
        else:
            rng.shuffle(sites)
    elif kind in ("edge-entry-type", "drop-edge") and edges:
        k = rng.randrange(len(edges))
        if kind == "edge-entry-type":
            edges[k] = rng.choice([["a", "b"], "a", None, 3])
        else:
            del edges[k]
    elif kind == "non-finite" and (zone_list or edge_list):
        entry, key = rng.choice([(z, "value") for z in zone_list] + [(e, "gap") for e in edge_list]
                                + [(doc, "referenceValue")])
        entry[key] = rng.choice([float("nan"), float("inf"), float("-inf"), OVERFLOW])
    elif edge_list:
        edge = rng.choice(edge_list)
        if kind == "edge-drop":
            edge.pop(rng.choice(["low", "up", "gap"]), None)
        elif kind == "edge-type":
            key = rng.choice(["low", "up", "gap"])
            edge[key] = rng.choice(["1", None, True, [1]] if key == "gap" else [1, None, ["a"]])
        elif kind in ("unknown-end", "unknown-end-bad-gap"):
            edge[rng.choice(["low", "up"])] = rng.choice(ids + ["zz"])
            if kind == "unknown-end-bad-gap":
                edge["gap"] = rng.choice(["1", float("inf"), 0])
        elif kind == "wrong-gap" and type(edge.get("gap")) is int:
            edge["gap"] += rng.choice([1, -1, 0.5])
        elif kind == "non-positive-gap":
            edge["gap"] = rng.choice([0, -1, -edge["gap"] if type(edge.get("gap")) is int else 0])
        elif kind == "wrong-cut-low":
            low = edge.get("cutLow") or []
            edge["cutLow"] = rng.choice([
                sorted(set(ids) - set(low)) or ["zz"], rng.sample(ids, rng.randint(1, len(ids))),
                low + ["zz"],
            ])
        elif kind == "cut-low-type":
            edge["cutLow"] = rng.choice(["a", [], [1], None, {}])
        elif kind == "swap-ends":
            edge["low"], edge["up"] = edge.get("up"), edge.get("low")


def tree_document(seed: int) -> tuple[dict, dict]:
    """Tree document ``seed``, built from a corpus graph, and that graph's document.

    Some documents list every edge's ``cutLow``, as earlier versions wrote
    them; some are checked against another graph of the corpus.
    """
    rng = random.Random(20_000_000 + seed)
    graph, _ = graph_document(rng.randrange(10**6), faults=False)
    ids = [site["id"] for site in graph["sites"]]
    if rng.random() < 0.3:
        graph["reference"] = rng.choice(ids)
    tree = build_iso_tree(load_graph_json(json.dumps(graph)))
    doc = json.loads(tree_to_json(tree))
    if rng.random() < 0.3:
        for entry, e in zip(doc["edges"], tree.edges):
            entry["cutLow"] = sorted(e.cut.low)
    for _ in _faults(rng):
        _tree_fault(rng, doc, ids)
    if rng.random() < 0.05:
        graph, _ = graph_document(rng.randrange(10**6), faults=False)
    return doc, graph


def _text(doc: dict) -> str:
    return json.dumps(doc).replace(f'"{OVERFLOW}"', "1e400")


def _read(reader, writer, text: str) -> str:
    try:
        return "wrote " + writer(*reader(text))
    except Exception as exc:  # the reader's failure is the outcome here
        return f"raised {type(exc).__name__}: {exc}"


def _run(argv: list[str], out: Path) -> str:
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaping exception is an outcome too
            code = f"uncaught {type(exc).__name__}: {exc}"
    written = out.read_text() if out.exists() else ""
    return f"exit {code}\n{written}\n{stdout.getvalue()}{stderr.getvalue()}"


def outcomes(work: Path):
    """(name, outcome) for every document of the corpus, in corpus order."""
    src, out = work / "doc.json", work / "out.json"
    for i in range(GRAPH_DOCS):
        text = _text(graph_document(i)[0])
        src.write_text(text)
        read = _read(lambda t: (load_graph_json(t),), graph_to_json, text)
        yield f"graph-{i:04d}", read + "\n" + _run(
            ["build", "--input", str(src), "--output", str(out)], out
        )
    for i in range(DIVISION_DOCS):
        text = _text(division_document(i))
        src.write_text(text)
        read = _read(parse_division_json, division_to_json, text)
        yield f"division-{i:04d}", read + "\n" + _run(["validate", "--input", str(src)], out)
    graph = work / "graph.json"
    for i in range(TREE_DOCS):
        doc, graph_doc = tree_document(i)
        text = _text(doc)
        src.write_text(text)
        graph.write_text(_text(graph_doc))
        read = _read(lambda t: (parse_tree_json(t),), tree_to_json, text)
        yield f"tree-{i:04d}", read + "\n" + _run(
            ["validate", "--input", str(src), "--graph", str(graph)], out
        )


def digest(outcome: str) -> str:
    return hashlib.sha256(outcome.encode()).hexdigest()[:16]


def test_outcomes_are_unchanged(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
    want = dict(line.split() for line in DIGESTS.read_text().splitlines())
    got = 0
    for name, outcome in outcomes(tmp_path):
        assert digest(outcome) == want.get(name), f"{name} now gives:\n{outcome}"
        got += 1
    assert got == len(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        cli._build_parser = functools.cache(cli._build_parser)
        lines = [f"{name} {digest(outcome)}\n" for name, outcome in outcomes(Path(tmp))]
    DIGESTS.write_text("".join(lines))
