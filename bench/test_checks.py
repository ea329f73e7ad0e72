"""The benchmark's checkers accept real trees and reject tampered ones.

    python3 -m pytest bench/test_checks.py

Valid documents come from ``isotree`` itself; each tampered case edits
one of them the way a faulty program could.
"""

from __future__ import annotations

import ast
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from isotree import build_iso_tree, gen_path, gen_tri_grid  # noqa: E402
from isotree.io import tree_to_json  # noqa: E402

CHECKERS = [checks.check_level_tree, checks.check_exact_tree]


def grid(w: int, h: int, values):
    ids = [f"r{r}c{c}" for r in range(h) for c in range(w)]
    return checks.Graph.tri_grid(ids, w, h, values), gen_tri_grid(w, h, values)


def path(values):
    g = checks.Graph.tri_grid([chr(ord("a") + i) for i in range(len(values))], len(values), 1, values)
    return g, gen_path(len(values), values)


def built(sg) -> dict:
    return json.loads(tree_to_json(build_iso_tree(sg)))


def cases():
    rng = random.Random(7)
    for _ in range(12):
        w, h = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3), (4, 3)])
        yield grid(w, h, [rng.randint(0, 3) for _ in range(w * h)])
    for n in (1, 2, 5, 9):
        yield path([rng.randint(0, 3) for _ in range(n)])


@pytest.mark.parametrize("check", CHECKERS)
def test_trees_built_by_the_program_pass(check):
    for g, sg in cases():
        check(g, tree_to_json(build_iso_tree(sg)))


@pytest.mark.parametrize("check", CHECKERS)
def test_changed_gap_is_rejected(check):
    g, sg = grid(3, 3, [0, 1, 2, 1, 2, 3, 2, 3, 4])
    doc = built(sg)
    doc["edges"][0]["gap"] += 1
    with pytest.raises(checks.CheckError, match="gap sums"):
        check(g, json.dumps(doc))


@pytest.mark.parametrize("check", CHECKERS)
def test_two_zones_merged_into_one_are_rejected(check):
    # Path a-b-c valued 0, 5, 0: the zones {a} and {c} share a value but not
    # a side; merged, the walk still reproduces every value.
    g, _ = path([0, 5, 0])
    doc = {
        "zones": [{"id": "a", "sites": ["a", "c"], "value": 0}, {"id": "b", "sites": ["b"], "value": 5}],
        "edges": [{"low": "a", "up": "b", "gap": 5}],
        "reference": "a",
        "referenceValue": 0,
    }
    with pytest.raises(checks.CheckError):
        check(g, json.dumps(doc))


@pytest.mark.parametrize("check", CHECKERS)
def test_merging_the_ends_of_an_edge_is_rejected(check):
    g, sg = grid(3, 2, [0, 1, 2, 3, 4, 5])
    doc = built(sg)
    edge = doc["edges"].pop(0)
    zones = {z["id"]: z for z in doc["zones"]}
    zones[edge["low"]]["sites"] += zones.pop(edge["up"])["sites"]
    doc["zones"] = list(zones.values())
    for e in doc["edges"]:
        for end in ("low", "up"):
            if e[end] == edge["up"]:
                e[end] = edge["low"]
    with pytest.raises(checks.CheckError):
        check(g, json.dumps(doc))


@pytest.mark.parametrize("check", CHECKERS)
def test_swapped_edge_orientation_is_rejected(check):
    g, sg = grid(3, 3, [0, 1, 2, 1, 2, 3, 2, 3, 4])
    doc = built(sg)
    e = doc["edges"][0]
    e["low"], e["up"] = e["up"], e["low"]
    with pytest.raises(checks.CheckError):
        check(g, json.dumps(doc))


@pytest.mark.parametrize("check", CHECKERS)
def test_edge_that_is_not_a_level_cut_is_rejected(check):
    # 2x2 grid valued 3, 3 / 0, 2.  Hanging r1c1 off the top zone keeps the
    # gap sums and both sides connected, but r1c1 (2) borders r1c0 (0).
    g, sg = grid(2, 2, [3, 3, 0, 2])
    doc = {
        "zones": [
            {"id": "r0c0", "sites": ["r0c0", "r0c1"], "value": 3},
            {"id": "r1c0", "sites": ["r1c0"], "value": 0},
            {"id": "r1c1", "sites": ["r1c1"], "value": 2},
        ],
        "edges": [{"low": "r1c1", "up": "r0c0", "gap": 1}, {"low": "r1c0", "up": "r0c0", "gap": 3}],
        "reference": "r0c0",
        "referenceValue": 3,
    }
    checks.read_tree(g, json.dumps(doc))  # values alone do not give it away
    assert doc != built(sg)
    with pytest.raises(checks.CheckError, match="level cut"):
        check(g, json.dumps(doc))


def test_cut_low_must_match_the_tree():
    g, sg = grid(3, 2, [0, 1, 2, 3, 4, 5])
    doc = built(sg)
    doc["edges"][0]["cutLow"] = doc["edges"][1]["cutLow"]
    with pytest.raises(checks.CheckError, match="cutLow"):
        checks.check_level_tree(g, json.dumps(doc))


def test_non_finite_values_are_rejected():
    g, sg = path([0, 1])
    text = tree_to_json(build_iso_tree(sg)).replace('"gap": 1', '"gap": Infinity')
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_level_tree(g, text)


def test_decimal_values_are_read_exactly():
    from fractions import Fraction

    g, _ = path([Fraction("0.1"), Fraction("0.3")])
    doc = {
        "zones": [{"id": "a", "sites": ["a"], "value": 0.1}, {"id": "b", "sites": ["b"], "value": 0.3}],
        "edges": [{"low": "a", "up": "b", "gap": 0.19999999999999998}],
        "reference": "a",
        "referenceValue": 0.1,
    }
    with pytest.raises(checks.CheckError, match="gap sums"):
        checks.check_level_tree(g, json.dumps(doc))
    doc["edges"][0]["gap"] = 0.2
    checks.check_level_tree(g, json.dumps(doc))


def test_brute_force_mono_verdicts():
    ids = ["a", "b", "c", "d"]
    cycle = checks.Graph.from_pairs(ids, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], [0, 1, 0, 1])
    assert checks.brute_force(cycle)[0] is False
    assert checks.brute_force(grid(3, 3, [0] * 9)[0])[0] is True


def test_checkers_share_no_code_with_isotree():
    tree = ast.parse((HERE / "checks.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "isotree" not in imported
