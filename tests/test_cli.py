from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from isotree import ScalarGraph, build_iso_tree, cli, gen_path, gen_tri_grid
from isotree.axioms import LCut, ValuedJDivision
from isotree.io import (
    division_to_json, export_dot, graph_to_json, load_graph_json, tree_to_json,
)
from isotree.oracle import brute_force_iso_tree
from isotree.graph import JCut

from conftest import cycle_graph


def run_cli(*argv: str):
    return subprocess.run(
        [sys.executable, "-m", "isotree", *argv], capture_output=True, text=True
    )


@pytest.fixture
def ramp_file(tmp_path: Path) -> Path:
    p = tmp_path / "ramp.json"
    p.write_text(graph_to_json(gen_path(3, [0, 1, 2])))
    return p


@pytest.fixture
def peak_file(tmp_path: Path) -> Path:
    p = tmp_path / "peak.json"
    p.write_text(graph_to_json(gen_path(3, [1, 3, 0])))
    return p


@pytest.fixture
def c4_file(tmp_path: Path) -> Path:
    doc = {
        "sites": [{"id": s, "value": 0} for s in "abcd"],
        "adjacency": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    }
    p = tmp_path / "c4.json"
    p.write_text(json.dumps(doc))
    return p


class TestBuild:
    def test_writes_three_zone_chain(self, ramp_file, tmp_path):
        out = tmp_path / "t.json"
        res = run_cli("build", "--input", str(ramp_file), "--output", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert [z["id"] for z in doc["zones"]] == ["a", "b", "c"]
        assert [(e["low"], e["up"]) for e in doc["edges"]] == [("a", "b"), ("b", "c")]

    def test_engines_agree(self, peak_file, tmp_path):
        fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
        assert run_cli("build", "--input", str(peak_file), "--output", str(fast)).returncode == 0
        assert (
            run_cli(
                "build", "--input", str(peak_file), "--engine", "oracle", "--output", str(slow)
            ).returncode
            == 0
        )
        assert fast.read_bytes() == slow.read_bytes()

    def test_no_reduce_emits_rank_tree(self, tmp_path):
        p = tmp_path / "plateau.json"
        p.write_text(graph_to_json(gen_path(3, [0, 0, 1])))
        res = run_cli("build", "--input", str(p), "--no-reduce")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert len(doc["zones"]) == 3  # singleton rank zones, ties unmerged
        assert [z["value"] for z in doc["zones"]] == [0, 1, 2]

    def test_dot_output(self, peak_file, tmp_path):
        out, dot = tmp_path / "t.json", tmp_path / "t.dot"
        res = run_cli(
            "build", "--input", str(peak_file), "--output", str(out), "--dot", str(dot)
        )
        assert res.returncode == 0
        assert dot.read_text().startswith("digraph isotree {")

    def test_show_intermediate(self, peak_file, tmp_path):
        out = tmp_path / "t.json"
        res = run_cli(
            "build", "--input", str(peak_file), "--output", str(out), "--show-intermediate"
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert set(doc) == {"ranks", "sublevel", "superlevel", "contourEdges", "rankedTree"}
        assert doc["sublevel"] == {"a": "b", "b": None, "c": "b"}

    def test_pgm_input(self, tmp_path):
        img = tmp_path / "img.pgm"
        img.write_bytes(b"P2\n3 1\n9\n0 1 2\n")
        res = run_cli("build", "--input", str(img), "--format", "pgm")
        assert res.returncode == 0
        assert len(json.loads(res.stdout)["zones"]) == 3

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "72a48201ec7881b0ea8975794232c3e91ca994801a4f177aad3f74c9fa6a11d4"),
            (["--no-reduce"], "a83bc03be51d46e5bdc3068b3b031087789d51f502cec78349943a59483b59ec"),
        ],
    )
    def test_grid_of_eleven_columns_listed_out_of_order(self, tmp_path, capsys, flags, digest):
        # Ids "r10c0" sort before "r1c0"; the document lists sites and
        # pairs shuffled, and half the pairs reversed.
        rng = random.Random(11)
        doc = json.loads(graph_to_json(gen_tri_grid(11, 12, [rng.randint(0, 3) for _ in range(132)])))
        rng.shuffle(doc["sites"])
        rng.shuffle(doc["adjacency"])
        doc["adjacency"] = [p[::-1] if rng.random() < 0.5 else p for p in doc["adjacency"]]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["build", "--input", str(path), *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flags",
        [["--no-reduce"], ["--show-intermediate"], ["--show-intermediate", "--no-reduce"]],
        ids=["no-reduce", "show-intermediate", "both"],
    )
    def test_oracle_engine_rejects_pipeline_only_flags(self, tmp_path, capsys, flags):
        # The input does not exist: the flags are rejected before it is read.
        argv = ["build", "--input", str(tmp_path / "absent.json"), "--engine", "oracle", *flags]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: --engine oracle does not take {flags[0]}\n"

    def test_oracle_cap_exceeded_is_exit_3(self, tmp_path):
        p = tmp_path / "big.json"
        p.write_text(graph_to_json(gen_tri_grid(4, 4, [0] * 16)))
        res = run_cli("build", "--input", str(p), "--engine", "oracle")
        assert res.returncode == 3

    def test_disconnected_graph_is_exit_3(self, tmp_path):
        p = tmp_path / "disc.json"
        p.write_text(
            json.dumps(
                {
                    "sites": [{"id": "a", "value": 0}, {"id": "b", "value": 1}],
                    "adjacency": [],
                }
            )
        )
        res = run_cli("build", "--input", str(p))
        assert res.returncode == 3


    @pytest.mark.parametrize("reduce", [[], ["--no-reduce"]], ids=["reduce", "no-reduce"])
    @pytest.mark.parametrize(
        "values, code", [([0, 1], 3), ([0, 5, 3, 5, 3], 5)], ids=["disconnected", "stalled-c5"]
    )
    def test_show_intermediate_fails_like_the_plain_build(
        self, tmp_path, capsys, values, code, reduce
    ):
        # Two sites with no pair fail the sweeps; the C5 cycle stalls the merge.
        ids = [f"c{i}" for i in range(len(values))]
        pairs = [[ids[i], ids[(i + 1) % len(ids)]] for i in range(len(ids))] if len(ids) > 2 else []
        p = tmp_path / "g.json"
        p.write_text(json.dumps({
            "sites": [{"id": s, "value": v} for s, v in zip(ids, values)], "adjacency": pairs,
        }))
        outcomes = []
        for flags in ([], ["--show-intermediate"]):
            status = cli.main(["build", "--input", str(p), *reduce, *flags])
            outcomes.append((status, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (code, "")


def _seeded_graphs() -> list:
    """Tri-grids with many ties, and paths, from fixed seeds; at most 14 sites for the oracle."""
    graphs = []
    for seed, (w, h) in enumerate([(3, 4), (2, 7), (4, 3), (1, 5), (5, 2)]):
        rng = random.Random(seed)
        graphs.append(gen_tri_grid(w, h, [rng.randint(0, 2) for _ in range(w * h)]))
    for seed, n in enumerate([1, 2, 6, 14]):
        rng = random.Random(100 + seed)
        graphs.append(gen_path(n, [rng.randint(0, 3) for _ in range(n)]))
    return graphs


@pytest.fixture
def seeded_files(tmp_path: Path) -> list[str]:
    paths = []
    for i, sg in enumerate(_seeded_graphs()):
        p = tmp_path / f"g{i}.json"
        p.write_text(graph_to_json(sg))
        paths.append(str(p))
    return paths


class TestShowIntermediateOnlyPrints:
    @pytest.mark.parametrize("reduce", [[], ["--no-reduce"]], ids=["reduce", "no-reduce"])
    def test_the_written_tree_is_the_plain_build(self, tmp_path, capsys, seeded_files, reduce):
        plain, shown = tmp_path / "plain.json", tmp_path / "shown.json"
        for path in seeded_files:
            assert cli.main(["build", "--input", path, *reduce, "--output", str(plain)]) == 0
            assert capsys.readouterr() == ("", "")
            argv = ["build", "--input", path, *reduce, "--output", str(shown)]
            assert cli.main([*argv, "--show-intermediate"]) == 0
            assert shown.read_bytes() == plain.read_bytes()
            printout = json.loads(capsys.readouterr().out)
            edges = [tuple(e) for e in printout["contourEdges"]]
            assert edges == sorted(edges)
            ranked = build_iso_tree(load_graph_json(Path(path).read_text()), reduce=False)
            assert printout["rankedTree"] == json.loads(tree_to_json(ranked))

    def test_the_printout_returns_nothing(self, capsys):
        from isotree.commands import show_intermediate

        assert show_intermediate(gen_path(3, [1, 3, 0])) is None
        assert json.loads(capsys.readouterr().out)["sublevel"] == {"a": "b", "b": None, "c": "b"}


class TestCheckMono:
    def test_grid_passes(self, tmp_path):
        p = tmp_path / "grid.json"
        p.write_text(graph_to_json(gen_tri_grid(3, 3, [0] * 9)))
        res = run_cli("check-mono", "--input", str(p))
        assert res.returncode == 0
        assert res.stdout.strip() == "mono-connected"

    def test_c4_witness(self, c4_file):
        res = run_cli("check-mono", "--input", str(c4_file))
        assert res.returncode == 1
        assert "counterexample: ({a}, {b,c,d})" in res.stdout

    def test_disconnected_graph_has_no_counterexample(self, capsys, tmp_path):
        p = tmp_path / "apart.json"
        sites = [{"id": "a", "value": 0}, {"id": "b", "value": 1}]
        p.write_text(json.dumps({"sites": sites, "adjacency": []}))
        assert cli.main(["check-mono", "--input", str(p)]) == 1
        assert capsys.readouterr() == ("not mono-connected\ngraph is disconnected\n", "")

    def test_cap_is_exit_3(self, c4_file):
        res = run_cli("check-mono", "--input", str(c4_file), "--max-sites", "2")
        assert res.returncode == 3

    def test_default_cap_is_16_sites(self, tmp_path):
        grid, path = tmp_path / "grid16.json", tmp_path / "path17.json"
        grid.write_text(graph_to_json(gen_tri_grid(4, 4, [0] * 16)))
        path.write_text(graph_to_json(gen_path(17, [0] * 17)))
        res = run_cli("check-mono", "--input", str(grid))
        assert (res.returncode, res.stdout.strip()) == (0, "mono-connected")
        res = run_cli("check-mono", "--input", str(path))
        assert res.returncode == 3
        assert "17 sites exceeds the enumeration cap of 16" in res.stderr


class TestRoundtrip:
    def test_peak_passes(self, peak_file):
        res = run_cli("roundtrip", "--input", str(peak_file))
        assert res.returncode == 0
        assert res.stdout.strip() == "PASS: RT∘ITT identity"

    def test_oracle_engine(self, peak_file):
        res = run_cli("roundtrip", "--input", str(peak_file), "--engine", "oracle")
        assert res.returncode == 0

    def test_both_engines_pass_in_process(self, capsys, seeded_files):
        for path in seeded_files:
            for engine in ("pipeline", "oracle"):
                assert cli.main(["roundtrip", "--input", path, "--engine", engine]) == 0
                assert capsys.readouterr() == ("PASS: RT∘ITT identity\n", "")

    def test_a_value_the_tree_misses_fails(self, capsys, tmp_path):
        # 0.05 - 0.07 is not -0.02 in floats.  Exact decimals (ROADMAP
        # item 4) will make this round trip pass.
        p = tmp_path / "decimal.json"
        p.write_text(graph_to_json(gen_path(2, [0.05, -0.02])))
        assert cli.main(["roundtrip", "--input", str(p)]) == 1
        assert capsys.readouterr() == (
            "FAIL: RT∘ITT differs at b: -0.020000000000000004 != -0.02\n", ""
        )

    def test_oracle_engine_keeps_its_cap(self, capsys, peak_file):
        argv = ["roundtrip", "--input", str(peak_file), "--engine", "oracle", "--max-sites", "2"]
        assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", "error: 3 sites exceeds the oracle cap of 2\n")


class TestOracleDiff:
    def test_identical(self, peak_file):
        res = run_cli("oracle-diff", "--input", str(peak_file))
        assert res.returncode == 0
        assert "identical" in res.stdout

    def test_identical_in_process(self, capsys, seeded_files):
        for path in seeded_files:
            assert cli.main(["oracle-diff", "--input", path]) == 0
            assert capsys.readouterr() == ("identical: pipeline matches oracle\n", "")

    def test_the_pipeline_runs_before_the_capped_oracle(self, capsys, tmp_path, peak_file):
        assert cli.main(["oracle-diff", "--input", str(peak_file), "--max-sites", "2"]) == 3
        assert capsys.readouterr() == ("", "error: 3 sites exceeds the oracle cap of 2\n")
        p = tmp_path / "disconnected.json"
        p.write_text(json.dumps({"sites": [{"id": s, "value": 0} for s in "ab"]}))
        assert cli.main(["oracle-diff", "--input", str(p), "--max-sites", "1"]) == 3
        assert capsys.readouterr().err == (
            "error: merge-tree sweeps require a connected graph: 'a' and 'b' are in different"
            " components\n"
        )

    def test_divergence_lists_both_trees(self, capsys, monkeypatch, peak_file):
        monkeypatch.setattr(cli, "build_iso_tree", lambda sg, reduce: build_iso_tree(
            gen_path(3, [0, 1, 2]), reduce
        ))
        assert cli.main(["oracle-diff", "--input", str(peak_file)]) == 1
        assert capsys.readouterr().out == (
            "DIVERGENCE\n"
            "pipeline zones: {a}=0; {b}=1; {c}=2\n"
            "pipeline edges: a->b gap=1 cut={a}; b->c gap=1 cut={a,b}\n"
            "oracle zones: {a}=1; {b}=3; {c}=0\n"
            "oracle edges: a->b gap=2 cut={a}; c->b gap=3 cut={c}\n"
        )


class TestValidate:
    def test_valid_division(self, tmp_path, peak_file):
        peak = gen_path(3, [1, 3, 0])
        division = ValuedJDivision.of_tree(brute_force_iso_tree(peak))
        p = tmp_path / "division.json"
        p.write_text(division_to_json(peak, division))
        res = run_cli("validate", "--input", str(p))
        assert res.returncode == 0
        assert "valid" in res.stdout

    def test_crossing_cuts_reported(self, tmp_path):
        sg = gen_path(4, [0, 1, 2, 3])
        division = ValuedJDivision(
            [LCut(JCut(frozenset("ab")), 1), LCut(JCut(frozenset("bc")), 1)]
        )
        p = tmp_path / "division.json"
        p.write_text(division_to_json(sg, division))
        res = run_cli("validate", "--input", str(p))
        assert res.returncode == 1
        assert "nesting violation" in res.stdout

    def test_tree_document_with_graph(self, tmp_path, peak_file):
        peak = gen_path(3, [1, 3, 0])
        tree_path = tmp_path / "tree.json"
        from isotree.io import tree_to_json

        tree_path.write_text(tree_to_json(brute_force_iso_tree(peak)))
        assert "cutLow" not in tree_path.read_text()
        res = run_cli("validate", "--input", str(tree_path), "--graph", str(peak_file))
        assert res.returncode == 0

    def test_wrong_cut_low_is_exit_2(self, tmp_path):
        graph_path = tmp_path / "g.json"
        graph_path.write_text(graph_to_json(gen_path(2, [0, 1])))
        doc = {
            "zones": [
                {"id": "a", "sites": ["a"], "value": 0},
                {"id": "b", "sites": ["b"], "value": 1},
            ],
            "edges": [{"low": "a", "up": "b", "gap": 1, "cutLow": ["b"]}],
            "reference": "a",
            "referenceValue": 0,
        }
        tree_path = tmp_path / "t.json"
        tree_path.write_text(json.dumps(doc))
        res = run_cli("validate", "--input", str(tree_path), "--graph", str(graph_path))
        assert res.returncode == 2
        assert "edge 'a'->'b'" in res.stderr
        assert "valid" not in res.stdout

    def test_tree_missing_a_site_is_exit_2(self, tmp_path, peak_file):
        doc = {
            "zones": [
                {"id": "a", "sites": ["a"], "value": 1},
                {"id": "b", "sites": ["b"], "value": 3},
            ],
            "edges": [{"low": "a", "up": "b", "gap": 2}],
            "reference": "a",
            "referenceValue": 1,
        }
        tree_path = tmp_path / "t.json"
        tree_path.write_text(json.dumps(doc))
        res = run_cli("validate", "--input", str(tree_path), "--graph", str(peak_file))
        assert res.returncode == 2
        assert "tree zones do not partition the graph's sites" in res.stderr
        assert "valid" not in res.stdout

    def test_wrong_reference_value_is_exit_2(self, tmp_path):
        sg = gen_path(3, [0, 2, 5])
        graph_path = tmp_path / "g.json"
        graph_path.write_text(graph_to_json(sg))
        doc = json.loads(tree_to_json(build_iso_tree(sg)))
        doc["referenceValue"] = 1
        tree_path = tmp_path / "t.json"
        tree_path.write_text(json.dumps(doc))
        res = run_cli("validate", "--input", str(tree_path), "--graph", str(graph_path))
        assert res.returncode == 2
        assert "referenceValue" in res.stderr
        assert "valid" not in res.stdout

    def test_tree_document_without_graph_is_exit_2(self, tmp_path, peak_file):
        peak = gen_path(3, [1, 3, 0])
        tree_path = tmp_path / "tree.json"
        from isotree.io import tree_to_json

        tree_path.write_text(tree_to_json(brute_force_iso_tree(peak)))
        res = run_cli("validate", "--input", str(tree_path))
        assert res.returncode == 2

    @pytest.mark.parametrize("kind", ["division", "tree"])
    def test_input_document_is_parsed_once(self, tmp_path, peak_file, monkeypatch, capsys, kind):
        peak = gen_path(3, [1, 3, 0])
        tree = brute_force_iso_tree(peak)
        if kind == "division":
            text = division_to_json(peak, ValuedJDivision.of_tree(tree))
        else:
            text = tree_to_json(tree)
        p = tmp_path / f"{kind}.json"
        p.write_text(text)
        parsed = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: parsed.append(s) or loads(s, **kw))
        assert cli.main(["validate", "--input", str(p), "--graph", str(peak_file)]) == 0
        assert "valid" in capsys.readouterr().out
        assert sum(s in (text, text.encode()) for s in parsed) == 1


class TestGen:
    def test_gen_build_pipeline(self, tmp_path):
        g = tmp_path / "g.json"
        res = run_cli(
            "gen", "--kind", "tri-grid", "--width", "3", "--height", "2",
            "--values", "random", "--seed", "11", "--output", str(g),
        )
        assert res.returncode == 0
        res = run_cli("roundtrip", "--input", str(g))
        assert res.returncode == 0

    def test_gen_is_deterministic(self):
        a = run_cli("gen", "--kind", "path", "--width", "5", "--values", "random", "--seed", "3")
        b = run_cli("gen", "--kind", "path", "--width", "5", "--values", "random", "--seed", "3")
        assert a.stdout == b.stdout

    def test_gen_constant(self):
        res = run_cli("gen", "--kind", "path", "--width", "2", "--values", "constant",
                      "--constant", "7")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert [s["value"] for s in doc["sites"]] == [7, 7]

    def test_gen_empty_value_range_is_exit_3(self):
        res = run_cli("gen", "--values", "random", "--low", "5", "--high", "0")
        assert res.returncode == 3
        assert "low 5 exceeds high 0" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_gen_non_finite_constant_is_exit_3(self, tmp_path, capsys, value):
        out = tmp_path / "g.json"
        argv = ["gen", "--kind", "path", "--width", "2", "--values", "constant"]
        assert cli.main([*argv, f"--constant={value}", "--output", str(out)]) == 3
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main([*argv, f"--constant={value}"]) == 3
        assert capsys.readouterr().out == ""


# sha256 of the --help text of isotree and of each subcommand, in this
# order, at 80 columns.  argparse lays help out differently from one
# Python version to the next, so the digest is pinned per version.
HELP_COMMANDS = ([], ["build"], ["check-mono"], ["roundtrip"], ["oracle-diff"], ["validate"], ["gen"])
HELP_SHA256 = {(3, 11): "67bbbe14c95d235a71ae07040f05d1458e9cf95dcd5839664651adc842afecb0"}


def test_help_text_is_unchanged(monkeypatch, capsys):
    digest = HELP_SHA256.get(sys.version_info[:2])
    if digest is None:
        pytest.skip(f"no help digest pinned for Python {sys.version_info[0]}.{sys.version_info[1]}")
    monkeypatch.setenv("COLUMNS", "80")
    text = []
    for argv in HELP_COMMANDS:
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--help"])
        assert exc.value.code == 0
        text.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(text).encode()).hexdigest() == digest


class TestErrorPaths:
    def test_missing_file_is_exit_2(self):
        res = run_cli("build", "--input", "/nonexistent/g.json")
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_malformed_json_is_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        res = run_cli("build", "--input", str(p))
        assert res.returncode == 2

    @pytest.mark.parametrize("command", ["build", "validate"])
    def test_document_not_in_utf8_is_exit_2(self, tmp_path, capsys, command):
        p = tmp_path / "g.json"
        p.write_bytes(graph_to_json(gen_path(2, [0, 1])).encode("utf-16"))
        assert cli.main([command, "--input", str(p)]) == 2
        assert "codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build", "validate"])
    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[" * 200_000, "maximum recursion depth exceeded"),
            (
                '{"sites": [{"id": "a", "value": %s}], "adjacency": []}' % ("1" * 5001),
                "Exceeds the limit (4300 digits) for integer string conversion",
            ),
        ],
        ids=["deep-nesting", "long-integer"],
    )
    def test_json_the_reader_cannot_decode_is_exit_2(self, tmp_path, capsys, command, text, reason):
        p = tmp_path / "g.json"
        p.write_text(text)
        assert cli.main([command, "--input", str(p)]) == 2
        err = capsys.readouterr().err
        what = "graph" if command == "build" else "input"
        assert err.startswith(f"error: malformed {what} document: ")
        assert reason in err and "Traceback" not in err

    def test_pgm_integer_too_long_for_int_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P2\n" + b"1" * 5001 + b" 1\n255\n0\n")
        assert cli.main(["build", "--format", "pgm", "--input", str(p)]) == 2
        assert capsys.readouterr().err == f"error: bad PGM width {b'1' * 20!r} at byte 2\n"

    def test_unknown_flag_is_exit_2(self, ramp_file):
        res = run_cli("build", "--input", str(ramp_file), "--bogus")
        assert res.returncode == 2
        assert "usage" in res.stderr.lower()

    @pytest.mark.parametrize("bad", ["Infinity", "NaN"])
    def test_non_finite_value_is_exit_2(self, tmp_path, bad):
        p = tmp_path / "g.json"
        p.write_text(
            '{"sites": [{"id": "a", "value": 0}, {"id": "b", "value": %s}],'
            ' "adjacency": [["a", "b"]]}' % bad
        )
        out = tmp_path / "t.json"
        res = run_cli("build", "--input", str(p), "--output", str(out))
        assert res.returncode == 2
        assert "sites[1].value" in res.stderr
        assert not out.exists()

    def test_validation_error_is_exit_2(self, tmp_path):
        p = tmp_path / "dup.json"
        p.write_text(
            json.dumps(
                {"sites": [{"id": "a", "value": 0}, {"id": "a", "value": 1}], "adjacency": []}
            )
        )
        res = run_cli("build", "--input", str(p))
        assert res.returncode == 2

    def test_out_of_memory_is_exit_4(self, ramp_file, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "build_iso_tree", exhausted)
        assert cli.main(["build", "--input", str(ramp_file)]) == 4
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_internal_error_is_exit_5(self, tmp_path):
        # The C5 cycle is not mono-connected; its merge trees cannot be merged.
        g = cycle_graph(5)
        p = tmp_path / "c5.json"
        p.write_text(graph_to_json(ScalarGraph(g, dict(zip(g.site_list, [0, 5, 3, 5, 3])))))
        res = run_cli("build", "--input", str(p))
        assert res.returncode == 5
        assert "merge stalled" in res.stderr

    # Float arithmetic cannot bridge these two values: the pipeline's own
    # tree check fails, which is the program's fault (5), not the document's.
    UNBRIDGED = "edge 'a'->'b': gap 6.0600000000000005 does not bridge zone values -8.08 and -2.02"

    @pytest.mark.parametrize("command", ["build", "roundtrip"])
    def test_tree_check_failing_in_the_pipeline_is_exit_5(self, tmp_path, capsys, command):
        p = tmp_path / "g.json"
        p.write_text('{"sites": [{"id": "a", "value": -8.08}, {"id": "b", "value": -2.02}], '
                     '"adjacency": [["a", "b"]]}')
        assert cli.main([command, "--input", str(p)]) == 5
        assert capsys.readouterr() == ("", f"error: {self.UNBRIDGED}\n")

    def test_the_same_fault_in_a_tree_document_is_exit_2(self, tmp_path, capsys):
        graph, tree = tmp_path / "g.json", tmp_path / "t.json"
        graph.write_text(graph_to_json(gen_path(2, [-8.08, -2.02])))
        tree.write_text(json.dumps({
            "zones": [{"id": "a", "sites": ["a"], "value": -8.08},
                      {"id": "b", "sites": ["b"], "value": -2.02}],
            "edges": [{"low": "a", "up": "b", "gap": -2.02 - -8.08}],
            "reference": "a", "referenceValue": -8.08,
        }))
        assert cli.main(["validate", "--input", str(tree), "--graph", str(graph)]) == 2
        assert capsys.readouterr().err == f"error: {self.UNBRIDGED}\n"


def _smooth_pgm(width: int, height: int) -> bytes:
    """P5 image of a smooth field of hills and valleys, grey levels 1 to 23."""
    pixels = bytes(
        int(12 + 11 * math.sin(x / 9) * math.cos(y / 7))
        for y in range(height)
        for x in range(width)
    )
    return b"P5\n%d %d\n255\n" % (width, height) + pixels


class TestLinearDocuments:
    def test_128_square_image_builds_in_256_mb(self, tmp_path):
        # The document must stay linear in the sites: listing every
        # edge's cut in it would need more than the cap allows.
        img, out = tmp_path / "img.pgm", tmp_path / "t.json"
        img.write_bytes(_smooth_pgm(128, 128))
        limit = 256 << 20

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        res = subprocess.run(
            [sys.executable, "-m", "isotree", "build", "--format", "pgm",
             "--input", str(img), "--output", str(out)],
            capture_output=True, text=True, preexec_fn=cap_address_space,
        )
        assert res.returncode == 0, res.stderr
        assert out.stat().st_size < 1e6

    def test_distinct_valued_grid_document_is_small(self):
        values = list(range(48 * 48))
        random.Random(5).shuffle(values)
        text = tree_to_json(build_iso_tree(gen_tri_grid(48, 48, values)))
        assert '"cutLow"' not in text
        assert len(text.encode()) < 1e6


def _collector_state() -> tuple[bool, int]:
    return gc.isenabled(), gc.get_freeze_count()


class TestProcessEntry:
    # One document per exit code: a tree, a malformed document, two sites
    # with no pair, and the C5 cycle whose merge stalls.
    C5 = cycle_graph(5)
    DOCUMENTS = {
        0: graph_to_json(gen_path(3, [0, 1, 2])),
        2: "{nope",
        3: '{"sites": [{"id": "a", "value": 0}, {"id": "b", "value": 1}], "adjacency": []}',
        5: graph_to_json(ScalarGraph(C5, dict(zip(C5.site_list, [0, 5, 3, 5, 3])))),
    }

    @pytest.mark.parametrize("code", DOCUMENTS, ids=lambda c: f"exit-{c}")
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, code):
        p = tmp_path / "g.json"
        p.write_text(self.DOCUMENTS[code])
        argv = ["build", "--input", str(p), "--output", str(tmp_path / "t.json")]
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                before = _collector_state()
                assert cli.main(argv) == code
                assert _collector_state() == before
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_a_frozen_exit_loses_no_output(self, tmp_path):
        # The document is several times a pipe's 64 KiB buffer: the child
        # blocks on the pipe as it writes, and its last bytes leave its
        # buffers only at exit.
        rng = random.Random(5)
        sg = gen_tri_grid(64, 64, [rng.randint(0, 5) for _ in range(64 * 64)])
        graph, out, dot = tmp_path / "g.json", tmp_path / "t.json", tmp_path / "t.dot"
        graph.write_text(graph_to_json(sg))
        argv = [sys.executable, "-m", "isotree", "build", "--input", str(graph)]
        piped = subprocess.run([*argv, "--dot", str(dot)], capture_output=True)
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert len(piped.stdout) > 4 * 65536
        assert subprocess.run([*argv, "--output", str(out)]).returncode == 0
        assert piped.stdout == out.read_bytes()
        assert dot.read_text(encoding="utf-8") == export_dot(build_iso_tree(sg))
