from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_SIZE, corpus_graph
from isotree import (
    Graph,
    NotATreeError,
    ParseError,
    ScalarGraph,
    ValidationError,
    build_iso_tree,
    gen_path,
    gen_tri_grid,
)
from isotree.io import (
    division_to_json,
    export_dot,
    graph_to_json,
    load_graph_json,
    load_pgm_tri_grid,
    parse_division_json,
    parse_pgm,
    parse_tree_json,
    tree_to_json,
)
from isotree.cli import main
from isotree.oracle import brute_force_iso_tree
from isotree.axioms import ValuedJDivision
from isotree.tree import IsoTree


class TestGraphJson:
    def test_path_document(self):
        doc = {
            "sites": [{"id": "a", "value": 0}, {"id": "b", "value": 1}, {"id": "c", "value": 2}],
            "adjacency": [["a", "b"], ["b", "c"]],
        }
        sg = load_graph_json(json.dumps(doc))
        assert sg == gen_path(3, [0, 1, 2])

    def test_document_must_be_an_object(self):
        with pytest.raises(ValidationError, match=r"^graph document must be a JSON object$"):
            load_graph_json("[]")

    def test_roundtrip(self, peak, ramp3, plateau, disconnected_zone_grid):
        for sg in (peak, ramp3, plateau, disconnected_zone_grid):
            assert load_graph_json(graph_to_json(sg)) == sg

    def test_roundtrip_with_reference(self):
        sg = load_graph_json(
            '{"sites": [{"id": "a", "value": 1}, {"id": "b", "value": 2}],'
            ' "adjacency": [["a", "b"]], "reference": "b"}'
        )
        assert sg.reference == "b"
        assert load_graph_json(graph_to_json(sg)) == sg

    def test_duplicate_id(self):
        doc = {"sites": [{"id": "a", "value": 0}, {"id": "a", "value": 1}], "adjacency": []}
        with pytest.raises(ValidationError, match=r"sites\[1\]"):
            load_graph_json(json.dumps(doc))

    def test_empty_sites(self):
        with pytest.raises(ValidationError, match="non-empty"):
            load_graph_json('{"sites": [], "adjacency": []}')

    def test_self_loop(self):
        doc = {"sites": [{"id": "a", "value": 0}], "adjacency": [["a", "a"]]}
        with pytest.raises(ValidationError, match="self-loop"):
            load_graph_json(json.dumps(doc))

    def test_duplicate_pair(self):
        doc = {
            "sites": [{"id": "a", "value": 0}, {"id": "b", "value": 0}],
            "adjacency": [["a", "b"], ["b", "a"]],
        }
        with pytest.raises(ValidationError, match=r"adjacency\[1\]"):
            load_graph_json(json.dumps(doc))

    def test_unknown_adjacency_id(self):
        doc = {"sites": [{"id": "a", "value": 0}], "adjacency": [["a", "z"]]}
        with pytest.raises(ValidationError, match="unknown id"):
            load_graph_json(json.dumps(doc))

    def test_unknown_reference(self):
        doc = {"sites": [{"id": "a", "value": 0}], "adjacency": [], "reference": "z"}
        with pytest.raises(ValidationError, match="reference"):
            load_graph_json(json.dumps(doc))

    def test_boolean_value_rejected(self):
        doc = {"sites": [{"id": "a", "value": True}], "adjacency": []}
        with pytest.raises(ValidationError, match="number"):
            load_graph_json(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load_graph_json(b"{not json")

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_value_rejected(self, bad):
        doc = {"sites": [{"id": "a", "value": 0}, {"id": "b", "value": bad}], "adjacency": []}
        with pytest.raises(ValidationError, match=r"sites\[1\]\.value: expected a finite number"):
            load_graph_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_writers_refuse_non_finite_values(self, bad):
        sg = gen_path(2, [0, bad])
        with pytest.raises(ValueError, match="not JSON compliant"):
            graph_to_json(sg)
        with pytest.raises(ValueError, match="not JSON compliant"):
            division_to_json(sg, ValuedJDivision([]))

    def test_sites_out_of_id_order(self):
        # "r10c0" sorts before "r1c0": site numbers follow the ids, not the document.
        rng = random.Random(7)
        sg = gen_tri_grid(11, 11, [rng.randint(0, 3) for _ in range(121)])
        doc = json.loads(graph_to_json(sg))
        rng.shuffle(doc["sites"])
        rng.shuffle(doc["adjacency"])
        doc["adjacency"] = [pair[::-1] if rng.random() < 0.5 else pair for pair in doc["adjacency"]]
        loaded = load_graph_json(json.dumps(doc))
        assert loaded.graph == Graph(sg.graph.site_list[::-1], sg.graph.pairs)
        assert hash(loaded.graph) == hash(sg.graph)
        assert loaded == sg
        assert graph_to_json(loaded) == graph_to_json(sg)
        assert build_iso_tree(loaded, reduce=False) == build_iso_tree(sg, reduce=False)

    def test_loaded_graph_is_the_api_graph_on_the_corpus(self):
        for i in range(CORPUS_SIZE):
            _check_loaded_graph(corpus_graph(i))


def _check_loaded_graph(sg: ScalarGraph) -> None:
    """The loader's graph equals ``Graph(site_list, pairs)`` in every observable way."""
    text = graph_to_json(sg)
    want = Graph(sg.graph.site_list, sg.graph.pairs)
    want_pairs = want.pairs
    # Fresh loads whose pairs are first read by ==, by the reflected ==, and by hash.
    first, second, third = (load_graph_json(text).graph for _ in range(3))
    assert first == want
    assert want == second
    assert hash(third) == hash(want)
    assert first == sg.graph
    assert repr(first) == repr(want)
    assert first.site_list == want.site_list
    assert first.pairs == want_pairs
    for p in want.site_list:
        assert first.neighbors(p) == want.neighbors(p)
    assert graph_to_json(ScalarGraph(first, sg.values, sg.reference)) == text


@st.composite
def any_scalar_graphs(draw) -> ScalarGraph:
    """1-10 sites with any ids, any pairs in either orientation and any order, any reference."""
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=10, unique=True))
    every_pair = [(p, q) for i, p in enumerate(ids) for q in ids[i + 1 :]]
    pairs = draw(st.lists(st.sampled_from(every_pair), unique=True)) if every_pair else []
    pairs = [(q, p) if draw(st.booleans()) else (p, q) for p, q in pairs]
    values = draw(st.lists(st.integers(-3, 3), min_size=len(ids), max_size=len(ids)))
    reference = draw(st.none() | st.sampled_from(ids))
    return ScalarGraph(Graph(ids, pairs), dict(zip(ids, values)), reference)


@settings(max_examples=200, deadline=None)
@given(sg=any_scalar_graphs())
def test_loaded_graph_is_the_api_graph(sg):
    _check_loaded_graph(sg)


class TestTreeJson:
    def test_peak_document_shape(self, peak):
        doc = json.loads(tree_to_json(brute_force_iso_tree(peak)))
        assert len(doc["zones"]) == 3
        assert len(doc["edges"]) == 2
        assert doc["reference"] == "a"
        assert doc["referenceValue"] == 1

    def test_document_must_be_an_object(self):
        with pytest.raises(ValidationError, match=r"^tree document must be a JSON object$"):
            parse_tree_json("[]")

    def test_single_zone_document(self):
        doc = json.loads(tree_to_json(brute_force_iso_tree(gen_path(2, [4, 4]))))
        assert len(doc["zones"]) == 1
        assert doc["edges"] == []

    def test_parse_inverts_serialize(self, peak, plateau, disconnected_zone_grid):
        for sg in (peak, plateau, disconnected_zone_grid):
            tree = brute_force_iso_tree(sg)
            assert parse_tree_json(tree_to_json(tree)) == tree

    def test_serialize_is_byte_deterministic(self, disconnected_zone_grid):
        tree = brute_force_iso_tree(disconnected_zone_grid)
        text = tree_to_json(tree)
        assert tree_to_json(parse_tree_json(text)) == text

    @pytest.mark.parametrize("reduce", [True, False])
    def test_document_without_cut_low_reads_back(self, disconnected_zone_grid, reduce):
        tree = build_iso_tree(disconnected_zone_grid, reduce=reduce)
        text = tree_to_json(tree)
        assert "cutLow" not in text
        assert parse_tree_json(text) == tree

    @pytest.mark.parametrize("reduce", [True, False])
    def test_document_with_every_cut_low_still_reads(self, disconnected_zone_grid, reduce):
        tree = build_iso_tree(disconnected_zone_grid, reduce=reduce)
        doc = json.loads(tree_to_json(tree))
        for entry, e in zip(doc["edges"], tree.edges):
            entry["cutLow"] = sorted(e.cut.low)
        assert parse_tree_json(json.dumps(doc)) == tree

    def test_zone_id_must_be_least_site(self):
        doc = {
            "zones": [{"id": "b", "sites": ["a", "b"], "value": 0}],
            "edges": [],
            "reference": "a",
            "referenceValue": 0,
        }
        with pytest.raises(ValidationError, match="least site"):
            parse_tree_json(json.dumps(doc))

    def test_cut_low_must_be_the_side_the_tree_gives(self):
        doc = {
            "zones": [
                {"id": "a", "sites": ["a"], "value": 0},
                {"id": "b", "sites": ["b"], "value": 1},
            ],
            "edges": [{"low": "a", "up": "b", "gap": 1, "cutLow": ["b"]}],
            "reference": "a",
            "referenceValue": 0,
        }
        with pytest.raises(NotATreeError, match="edge 'a'->'b'"):
            parse_tree_json(json.dumps(doc))
        doc["edges"][0]["cutLow"] = ["a"]
        assert parse_tree_json(json.dumps(doc)).edges[0].cut.low == {"a"}

    @staticmethod
    def _chain_doc() -> dict:
        """The a->b->c->d chain of ``gen_path(4, [0, 1, 2, 3])``, each edge with its side."""
        doc = json.loads(tree_to_json(build_iso_tree(gen_path(4, [0, 1, 2, 3]))))
        for entry, side in zip(doc["edges"], ["a", "ab", "abc"]):
            entry["cutLow"] = list(side)
        return doc

    def test_wrong_cut_low_named_in_edge_order_not_document_order(self):
        doc = self._chain_doc()
        doc["edges"].reverse()
        doc["edges"][0]["cutLow"] = ["d"]  # c->d
        doc["edges"][1]["cutLow"] = ["c", "d"]  # b->c
        with pytest.raises(NotATreeError) as info:
            parse_tree_json(json.dumps(doc))
        assert str(info.value) == "edge 'b'->'c': stored cut differs from its subtree split"

    def test_wrong_cut_low_raised_before_the_reference_checks(self):
        doc = self._chain_doc()
        doc["edges"][0]["cutLow"] = ["b", "c", "d"]
        doc["referenceValue"] = 5
        with pytest.raises(NotATreeError) as info:
            parse_tree_json(json.dumps(doc))
        assert str(info.value) == "edge 'a'->'b': stored cut differs from its subtree split"

    def test_structural_fault_raised_before_a_wrong_cut_low(self):
        doc = self._chain_doc()
        doc["edges"][0]["cutLow"] = ["b", "c", "d"]
        doc["edges"][1]["gap"] = 7
        with pytest.raises(NotATreeError) as info:
            parse_tree_json(json.dumps(doc))
        assert str(info.value) == "edge 'b'->'c': gap 7 does not bridge zone values 1 and 2"

    def test_cut_low_entries_must_be_strings(self, peak):
        doc = json.loads(tree_to_json(brute_force_iso_tree(peak)))
        doc["edges"][0]["cutLow"] = ["a", 1]
        with pytest.raises(ValidationError, match=r"edges\[0\]\.cutLow: expected a string"):
            parse_tree_json(json.dumps(doc))

    def test_non_finite_gap_rejected(self, peak):
        doc = json.loads(tree_to_json(brute_force_iso_tree(peak)))
        doc["edges"][0]["gap"] = float("inf")
        with pytest.raises(ValidationError, match=r"edges\[0\]\.gap: expected a finite number"):
            parse_tree_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "values, gaps", [([0.0, math.inf], [math.inf]), ([-math.inf], []), ([math.nan], [])]
    )
    def test_writer_refuses_non_finite_values(self, values, gaps):
        # The reader rejects such a document, so the writer must not write it.
        ids = ("a", "b")[: len(values)]
        tree = IsoTree(ids, range(len(ids)), values, [0] * len(gaps), [1] * len(gaps), gaps, "a")
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            tree_to_json(tree)

    def test_integral_floats_written_as_ints(self, peak):
        text = tree_to_json(brute_force_iso_tree(peak))
        assert '"value": 1' in text and '"value": 1.0' not in text

    def test_reference_must_be_a_site(self):
        doc = json.loads(tree_to_json(build_iso_tree(gen_path(3, [0, 2, 5]))))
        doc["reference"] = "z"
        with pytest.raises(ValidationError, match=r"^reference: unknown id 'z'$"):
            parse_tree_json(json.dumps(doc))

    def test_reference_value_must_be_its_zones(self):
        # Read as given, it would reconstruct a=1, b=3, c=6 from a=0, b=2, c=5.
        doc = json.loads(tree_to_json(build_iso_tree(gen_path(3, [0, 2, 5]))))
        doc["referenceValue"] = 1
        with pytest.raises(ValidationError, match=r"^referenceValue: 1 is not the value 0 "):
            parse_tree_json(json.dumps(doc))

    def test_overlap_names_the_same_site_under_every_hash_seed(self):
        # Zones r0c0 and r0c1 both list r1c0 and r1c2: the least shared
        # site of the second zone is named, whatever order sets iterate in.
        doc = {
            "zones": [
                {"id": "r0c0", "sites": ["r0c0", "r1c0", "r1c2"], "value": 0},
                {"id": "r0c1", "sites": ["r0c1", "r1c2", "r1c0"], "value": 1},
            ],
            "edges": [{"low": "r0c0", "up": "r0c1", "gap": 1}],
            "reference": "r0c0",
            "referenceValue": 0,
        }
        code = (
            "import sys\n"
            "from isotree.io import parse_tree_json\n"
            "try:\n"
            "    parse_tree_json(sys.stdin.read())\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        for seed in ("1", "4"):
            run = subprocess.run(
                [sys.executable, "-c", code],
                input=json.dumps(doc),
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert run.stdout == "NotATreeError site 'r1c0' belongs to more than one zone\n", seed


def _json_number(x):
    return int(x) if isinstance(x, float) and x.is_integer() else x


def reference_tree_json(tree: IsoTree) -> str:
    """The tree writer as it was: a dict written by ``json.dumps(indent=2)``."""
    doc = {
        "zones": [
            {"id": z.rep, "sites": sorted(z.sites), "value": _json_number(z.value)}
            for z in tree.zones
        ],
        "edges": [{"low": e.low, "up": e.up, "gap": _json_number(e.gap)} for e in tree.edges],
        "reference": tree.reference,
        "referenceValue": _json_number(tree.reference_value),
    }
    return json.dumps(doc, indent=2)


class TestTreeJsonBytes:
    @pytest.mark.parametrize("reduce", [True, False])
    def test_acceptance_corpus(self, reduce):
        for i in range(CORPUS_SIZE):
            tree = build_iso_tree(corpus_graph(i), reduce=reduce)
            assert tree_to_json(tree) == reference_tree_json(tree), i

    def test_single_zone(self):
        tree = build_iso_tree(gen_path(3, [7, 7, 7]))
        assert len(tree.zones) == 1
        assert tree_to_json(tree) == reference_tree_json(tree)
        assert '"edges": []' in tree_to_json(tree)

    def test_float_values_and_escaped_ids(self):
        # Star around zone "a" (value 0); every gap is exact in binary.
        values = {"a": 0, "b": 0.5, "c\u00e9": 1e-07, "d\"q": 1e16, "e\\s": -0.25, "f": -2.5}
        edges = [
            ("a", "b", 0.5),
            ("a", "c\u00e9", 1e-07),
            ("a", "d\"q", 1e16),
            ("e\\s", "a", 0.25),
            ("f", "e\\s", 2.25),
        ]
        lows, ups, gaps = map(list, zip(*edges))
        # Zone rep holds rep and rep + "2".
        ids = tuple(sorted(p for rep in values for p in (rep, rep + "2")))
        root = [ids.index(p if p in values else p[:-1]) for p in ids]
        lows, ups = list(map(ids.index, lows)), list(map(ids.index, ups))
        tree = IsoTree(ids, root, list(values.values()), lows, ups, gaps, "f2")
        text = tree_to_json(tree)
        assert text == reference_tree_json(tree)
        assert "1e-07" in text and "10000000000000000" in text and "\\u00e9" in text
        assert parse_tree_json(text) == tree


def _smooth_pgm(width: int, height: int, seed: int) -> bytes:
    """A seeded P5 image of one smooth wave, quantized to 24 grey levels."""
    rng = random.Random(seed)
    fx, fy = rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)
    px, py = rng.uniform(0, 6), rng.uniform(0, 6)
    pixels = [
        round(11.5 + 11.5 * math.sin(fx * c + px) * math.cos(fy * r + py)) * 10
        for r in range(height)
        for c in range(width)
    ]
    return f"P5\n{width} {height}\n255\n".encode() + bytes(pixels)


def _byte_identity_inputs(tmp_path) -> list[list[str]]:
    """CLI input arguments: 40 corpus graphs, three near-distinct grids, one PGM."""
    graphs = [corpus_graph(i) for i in range(40)]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        graphs.append(gen_tri_grid(24, 24, [rng.randrange(5760) for _ in range(576)]))
    inputs = []
    for i, sg in enumerate(graphs):
        path = tmp_path / f"g{i}.json"
        path.write_text(graph_to_json(sg))
        inputs.append(["--input", str(path)])
    image = tmp_path / "smooth.pgm"
    image.write_bytes(_smooth_pgm(40, 36, 5))
    assert len(load_pgm_tri_grid(image.read_bytes()).graph) == 40 * 36
    return inputs + [["--input", str(image), "--format", "pgm"]]


class TestBuildBytes:
    """SHA-256 of everything ``isotree build`` prints, one digest per output type."""

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "4ab77ac314f98cb341d154278628fc024c2f6f2aebbc9a2ab9bc0171c6c95d01"),
            (["--no-reduce"], "3246e73f05acee1cfc6e7c0250163c33d8947cd1339c7fe5708dc9aba351aea4"),
            (["--show-intermediate"], "0a32de86b5a01eeea0e36cff2d84175944ffbb7b0ca0803aa135cdbfe65e3257"),
            (
                ["--show-intermediate", "--no-reduce"],
                "fe51010202ba3d3da6a95ee7c6ad068ef4d489c98ef3117f4329caca35225180",
            ),
        ],
    )
    def test_outputs_are_unchanged(self, tmp_path, capsys, flags, digest):
        h = hashlib.sha256()
        for argv in _byte_identity_inputs(tmp_path):
            assert main(["build", *argv, *flags]) == 0
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == digest


tie_heavy_grids = st.tuples(st.integers(1, 10), st.integers(1, 10)).flatmap(
    lambda wh: st.lists(
        st.integers(0, 3), min_size=wh[0] * wh[1], max_size=wh[0] * wh[1]
    ).map(lambda values: gen_tri_grid(wh[0], wh[1], values))
)


@settings(max_examples=60, deadline=None)
@given(sg=tie_heavy_grids)
def test_parsed_tree_answers_like_the_built_one(sg):
    tree = build_iso_tree(sg)
    text = tree_to_json(tree)
    back = parse_tree_json(text)
    assert back == tree
    assert tree_to_json(back) == text
    assert [e.cut for e in back.edges] == [e.cut for e in tree.edges]
    for p in sg.graph.site_list:
        assert back.zone_of(p) == tree.zone_of(p)


@pytest.fixture(scope="module")
def big_graph_doc() -> dict:
    """A 48x48 tri-grid with distinct values, as a graph document."""
    rng = random.Random(48)
    values = list(range(48 * 48))
    rng.shuffle(values)
    return json.loads(graph_to_json(gen_tri_grid(48, 48, values)))


@pytest.fixture(scope="module")
def big_tree_doc(big_graph_doc) -> dict:
    return json.loads(tree_to_json(build_iso_tree(load_graph_json(json.dumps(big_graph_doc)))))


def _with_last(doc: dict, array: str, field: str, value) -> str:
    doc = json.loads(json.dumps(doc))
    doc[array][-1][field] = value
    return json.dumps(doc)


class TestFaultInLastEntry:
    """A fault in the last of thousands of entries is named at its index."""

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "expected a number, got True"),
            (float("nan"), "expected a finite number, got nan"),
            ("x", "expected a number, got 'x'"),
        ],
    )
    def test_site_value(self, big_graph_doc, value, message):
        text = _with_last(big_graph_doc, "sites", "value", value)
        with pytest.raises(ValidationError) as info:
            load_graph_json(text)
        assert str(info.value) == f"sites[2303].value: {message}"

    def test_site_id(self, big_graph_doc):
        with pytest.raises(ValidationError) as info:
            load_graph_json(_with_last(big_graph_doc, "sites", "id", 7))
        assert str(info.value) == "sites[2303].id: expected a string, got 7"

    def test_duplicate_site_id(self, big_graph_doc):
        with pytest.raises(ValidationError) as info:
            load_graph_json(_with_last(big_graph_doc, "sites", "id", "r0c0"))
        assert str(info.value) == "sites[2303]: duplicate id 'r0c0'"

    @pytest.mark.parametrize(
        "pair, message",
        [
            (["r0c0"], "expected a pair of ids"),
            (["r0c0", "r0c0"], "self-loop on 'r0c0'"),
            # The first pair of the document, reversed.
            (["r0c1", "r0c0"], "duplicate pair ('r0c1', 'r0c0')"),
            (["r0c0", "zz"], "unknown id 'zz'"),
            # The self-loop check comes before the id lookup.
            (["zz", "zz"], "self-loop on 'zz'"),
        ],
    )
    def test_adjacency_entry(self, big_graph_doc, pair, message):
        doc = json.loads(json.dumps(big_graph_doc))
        doc["adjacency"][-1] = pair
        last = len(doc["adjacency"]) - 1
        with pytest.raises(ValidationError) as info:
            load_graph_json(json.dumps(doc))
        assert str(info.value) == f"adjacency[{last}]: {message}"

    def test_duplicate_pair(self, big_graph_doc):
        doc = json.loads(json.dumps(big_graph_doc))
        p, q = doc["adjacency"][0]
        doc["adjacency"][-1] = [q, p]
        last = len(doc["adjacency"]) - 1
        with pytest.raises(ValidationError) as info:
            load_graph_json(json.dumps(doc))
        assert str(info.value) == f"adjacency[{last}]: duplicate pair ({q!r}, {p!r})"

    def test_unknown_id_in_pair(self, big_graph_doc):
        doc = json.loads(json.dumps(big_graph_doc))
        doc["adjacency"][-1][1] = "zz"
        last = len(doc["adjacency"]) - 1
        with pytest.raises(ValidationError) as info:
            load_graph_json(json.dumps(doc))
        assert str(info.value) == f"adjacency[{last}]: unknown id 'zz'"

    @pytest.mark.parametrize(
        "array, field, value, message",
        [
            ("zones", "value", True, "expected a number, got True"),
            ("zones", "value", float("nan"), "expected a finite number, got nan"),
            ("zones", "value", "x", "expected a number, got 'x'"),
            ("zones", "id", 7, "expected a string, got 7"),
            ("zones", "sites", "x", "expected a non-empty array"),
            ("zones", "sites", [], "expected a non-empty array"),
            ("zones", "sites", ["r0c0", 7], "expected a string, got 7"),
            ("edges", "gap", True, "expected a number, got True"),
            ("edges", "gap", float("nan"), "expected a finite number, got nan"),
            ("edges", "gap", "x", "expected a number, got 'x'"),
            ("edges", "low", 7, "expected a string, got 7"),
            ("edges", "up", 7, "expected a string, got 7"),
            ("edges", "cutLow", [], "expected a non-empty array"),
            ("edges", "cutLow", [7], "expected a string, got 7"),
        ],
    )
    def test_tree_entry(self, big_tree_doc, array, field, value, message):
        last = len(big_tree_doc[array]) - 1
        with pytest.raises(ValidationError) as info:
            parse_tree_json(_with_last(big_tree_doc, array, field, value))
        assert str(info.value) == f"{array}[{last}].{field}: {message}"

    def test_earliest_entry_is_named_first(self, big_graph_doc, big_tree_doc):
        # Ids are checked before values, but entry 5 comes before the last.
        doc = json.loads(_with_last(big_graph_doc, "sites", "id", 7))
        doc["sites"][5]["value"] = None
        with pytest.raises(ValidationError, match=r"^sites\[5\]\.value: expected a number"):
            load_graph_json(json.dumps(doc))
        doc = json.loads(_with_last(big_tree_doc, "edges", "low", 7))
        doc["edges"][5]["gap"] = "x"
        with pytest.raises(ValidationError, match=r"^edges\[5\]\.gap: expected a number"):
            parse_tree_json(json.dumps(doc))


class TestDivisionJson:
    def test_roundtrip(self, peak):
        division = ValuedJDivision.of_tree(brute_force_iso_tree(peak))
        text = division_to_json(peak, division)
        sg, parsed = parse_division_json(text)
        assert sg == peak
        assert parsed == division

    def test_non_positive_gap(self, peak):
        division = ValuedJDivision.of_tree(brute_force_iso_tree(peak))
        doc = json.loads(division_to_json(peak, division))
        doc["cuts"][0]["gap"] = 0
        with pytest.raises(ValidationError, match="positive"):
            parse_division_json(json.dumps(doc))

    def test_cut_cannot_cover_every_site(self, peak):
        doc = json.loads(division_to_json(peak, ValuedJDivision([])))
        doc["cuts"] = [{"low": ["a", "b", "c"], "gap": 1}]
        with pytest.raises(ValidationError, match="whole site set"):
            parse_division_json(json.dumps(doc))

    def test_unknown_cut_site(self, peak):
        doc = json.loads(division_to_json(peak, ValuedJDivision([])))
        doc["cuts"] = [{"low": ["z"], "gap": 1}]
        with pytest.raises(ValidationError, match="unknown ids"):
            parse_division_json(json.dumps(doc))


class TestPgm:
    def test_ascii_2x2(self):
        sg = load_pgm_tri_grid(b"P2\n2 2\n255\n0 0 0 1\n")
        assert sg.values == {"r0c0": 0, "r0c1": 0, "r1c0": 0, "r1c1": 1}
        assert len(sg.graph.pairs) == 5

    def test_1x3_ramp_matches_generated_path_shape(self):
        sg = load_pgm_tri_grid(b"P2\n3 1\n255\n0 1 2\n")
        assert len(sg.graph) == 3
        assert len(sg.graph.pairs) == 2
        assert sorted(sg.values.values()) == [0, 1, 2]
        tree = brute_force_iso_tree(sg)
        assert [z.value for z in tree.zones] == [0, 1, 2]

    def test_binary_equals_ascii(self):
        ascii_bytes = b"P2\n2 3\n255\n0 10 20 30 40 50\n"
        binary_bytes = b"P5\n2 3\n255\n" + bytes([0, 10, 20, 30, 40, 50])
        assert load_pgm_tri_grid(ascii_bytes) == load_pgm_tri_grid(binary_bytes)

    def test_sixteen_bit_binary(self):
        payload = bytes([0x01, 0x00, 0x00, 0x02])  # 256, 2
        sg = load_pgm_tri_grid(b"P5\n2 1\n65535\n" + payload)
        assert sg.values == {"r0c0": 256, "r0c1": 2}

    def test_header_comments(self):
        sg = load_pgm_tri_grid(b"P2\n# a comment\n2 1\n# another\n10\n3 7\n")
        assert sg.values == {"r0c0": 3, "r0c1": 7}

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            parse_pgm(b"P6\n1 1\n255\n\x00")

    def test_truncated_binary_payload_reports_offset(self):
        data = b"P5\n2 2\n255\n" + bytes([1, 2])
        with pytest.raises(ParseError, match="byte"):
            parse_pgm(data)

    def test_truncated_ascii(self):
        with pytest.raises(ParseError, match="pixel"):
            parse_pgm(b"P2\n2 2\n255\n0 1\n")

    def test_zero_dimension(self):
        with pytest.raises(ParseError, match=r"^bad PGM dimensions 0x3$"):
            parse_pgm(b"P2\n0 3\n255\n")

    def test_missing_separator_after_header(self):
        with pytest.raises(
            ParseError, match=r"^missing separator after PGM header at byte 10$"
        ):
            parse_pgm(b"P5 1 1 255")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2\n%s 1\n255\n0\n", "bad PGM width b'%s' at byte 2"),
            (b"P2\n1 %s\n255\n0\n", "bad PGM height b'%s' at byte 4"),
            (b"P2\n1 1\n%s\n0\n", "bad PGM maxval b'%s' at byte 6"),
            (b"P2\n1 1\n255\n%s\n", "bad PGM pixel b'%s' at byte 10"),
        ],
        ids=["width", "height", "maxval", "pixel"],
    )
    def test_integer_token_too_long_for_int(self, data, message):
        # int() refuses strings of more than 4,300 digits; the message shows 20.
        with pytest.raises(ParseError, match="^" + re.escape(message % ("1" * 20)) + "$"):
            parse_pgm(data % (b"1" * 5001))

    def test_maxval_out_of_range(self):
        with pytest.raises(ParseError, match="maxval"):
            parse_pgm(b"P2\n1 1\n65536\n0\n")
        with pytest.raises(ParseError, match="maxval"):
            parse_pgm(b"P2\n1 1\n0\n0\n")

    def test_pixel_above_maxval(self):
        with pytest.raises(ParseError, match="exceeds maxval"):
            parse_pgm(b"P2\n1 1\n10\n11\n")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2\n+2 0_1\n2_55\n7 8\n", "bad PGM width b'+2' at byte 2"),
            (b"P2\n2 0_1\n255\n7\n", "bad PGM height b'0_1' at byte 4"),
            (b"P2\n2 1\n2_55\n7 8\n", "bad PGM maxval b'2_55' at byte 6"),
            (b"P2\n2 1\n255\n1_0 8\n", "bad PGM pixel b'1_0' at byte 10"),
            (b"P2\n2 1\n255\n-1 8\n", "bad PGM pixel b'-1' at byte 10"),
            # UTF-8 for the Arabic-Indic digit one, which int() takes once decoded.
            (b"P5\n2 1\n255\xd9\xa1\n\x00\x00", "bad PGM maxval b'255\\xd9\\xa1' at byte 6"),
        ],
        ids=["signed-width", "underscore-height", "underscore-maxval", "underscore-pixel",
             "negative-pixel", "non-ascii-digit"],
    )
    def test_integer_tokens_are_ascii_digits(self, data, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_pgm(data)

    def test_constant_image_yields_single_zone(self):
        sg = load_pgm_tri_grid(b"P2\n3 2\n9\n4 4 4 4 4 4\n")
        tree = brute_force_iso_tree(sg)
        assert len(tree.zones) == 1
        assert tree.zones[0].value == 4


class TestDot:
    def test_peak_rendering(self, peak):
        dot = export_dot(brute_force_iso_tree(peak))
        lines = dot.strip().splitlines()
        assert lines[0] == "digraph isotree {"
        assert lines[-1] == "}"
        assert '"a" [label="value=1 |sites|=1"];' in dot
        assert '"b" [label="value=3 |sites|=1"];' in dot
        assert '"a" -> "b" [label="2"];' in dot
        assert '"c" -> "b" [label="3"];' in dot

    def test_single_zone(self):
        dot = export_dot(brute_force_iso_tree(gen_path(2, [1, 1])))
        assert dot.count("->") == 0
        assert dot.count("[label=") == 1

    def test_deterministic(self, disconnected_zone_grid):
        tree = brute_force_iso_tree(disconnected_zone_grid)
        assert export_dot(tree) == export_dot(tree)

    def test_zone_size_in_label(self, plateau):
        dot = export_dot(brute_force_iso_tree(plateau))
        assert '"a" [label="value=0 |sites|=2"];' in dot
