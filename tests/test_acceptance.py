"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from isotree import (
    Graph,
    JCut,
    LCut,
    ScalarGraph,
    ValuedJDivision,
    build_iso_tree,
    components_of,
    ct_to_iso_tree,
    gen_path,
    gen_tri_grid,
    is_mono_connected,
    merge_to_augmented_ct,
    perturb_rank,
    reconstruct_rt,
    sublevel_merge_tree,
    superlevel_merge_tree,
    validate_regular_division,
)
from isotree.io import graph_to_json
from isotree.oracle import brute_force_iso_tree

from conftest import CORPUS_SIZE, corpus_graph, cycle_graph


@pytest.fixture(scope="module")
def corpus() -> list[ScalarGraph]:
    return [corpus_graph(i) for i in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def pipeline_trees(corpus):
    return [build_iso_tree(sg) for sg in corpus]


@pytest.fixture(scope="module")
def oracle_trees(corpus):
    # Generated grids and paths are mono-connected by construction
    # (criterion 7 spot-checks the same families explicitly).
    return [brute_force_iso_tree(sg, cap=16, trust_mono=True) for sg in corpus]


def _report(criterion: int, text: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS - {text}")


def test_criterion_1_roundtrip_identity(corpus):
    started = time.perf_counter()
    for sg in corpus:
        tree = build_iso_tree(sg)
        assert reconstruct_rt(sg.graph, tree).values == sg.values
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, f"round-trip exact on {len(corpus)} graphs in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence(corpus, pipeline_trees, oracle_trees):
    divergences = [
        i for i, (fast, slow) in enumerate(zip(pipeline_trees, oracle_trees)) if fast != slow
    ]
    assert divergences == []
    _report(2, f"pipeline matches oracle on {len(corpus)} graphs, 0 divergences")


def test_criterion_3_axioms_on_every_tree(corpus, pipeline_trees, oracle_trees):
    checked = 0
    for sg, tree in zip(corpus + corpus, pipeline_trees + oracle_trees):
        report = validate_regular_division(sg.graph, ValuedJDivision.of_tree(tree))
        assert report.valid
        checked += 1
    _report(3, f"nesting and tangent axioms hold for all cut pairs of {checked} trees")


def test_criterion_4_zone_partition(corpus, pipeline_trees, oracle_trees):
    for sg, tree in zip(corpus + corpus, pipeline_trees + oracle_trees):
        union: set[str] = set()
        for z in tree.zones:
            assert z.sites, "empty zone"
            assert not (z.sites & union), "overlapping zones"
            union |= z.sites
            assert {sg.value_of(p) for p in z.sites} == {z.value}
        assert union == sg.graph.sites

    # A fixture whose middle zone is disconnected: 2x2 grid, values
    # 0/1/1/2 with the two 1-sites non-adjacent.  The tree must still
    # satisfy every invariant.
    sg = gen_tri_grid(2, 2, [0, 1, 1, 2])
    tree = brute_force_iso_tree(sg)
    assert tree == build_iso_tree(sg)
    disconnected = [z for z in tree.zones if len(components_of(sg.graph, z.sites)) > 1]
    assert disconnected, "expected a disconnected zone in the fixture"
    assert validate_regular_division(sg.graph, ValuedJDivision.of_tree(tree)).valid
    _report(4, "zones partition every tree; disconnected-zone fixture validates")


def _injective_graph(i: int) -> ScalarGraph:
    rng = random.Random(50_000 + i)
    if i % 2 == 0:
        w, h = rng.randint(1, 4), rng.randint(1, 3)
        n = w * h
        return gen_tri_grid(w, h, rng.sample(range(n), n))
    n = rng.randint(1, 12)
    return gen_path(n, rng.sample(range(n), n))


def test_criterion_5_contour_tree_isomorphism():
    for i in range(50):
        sg = _injective_graph(i)
        rp = perturb_rank(sg)
        jt = sublevel_merge_tree(sg, rp)
        st = superlevel_merge_tree(sg, rp)
        tree = ct_to_iso_tree(sg, rp, merge_to_augmented_ct(jt, st))
        assert all(len(z.sites) == 1 for z in tree.zones)
        assert {z.rep for z in tree.zones} == sg.graph.sites
        # Values are a permutation of 0..n-1, so ranks coincide with the
        # input and the rank tree must equal the oracle tree outright.
        assert tree == brute_force_iso_tree(sg, trust_mono=True)
    _report(5, "singleton zones and exact oracle match on 50 injective graphs")


def _tied_graph(i: int) -> ScalarGraph:
    rng = random.Random(60_000 + i)
    if i % 2 == 0:
        w, h = rng.randint(1, 4), rng.randint(1, 3)
        return gen_tri_grid(w, h, [rng.choice([0, 1, 2]) for _ in range(w * h)])
    n = rng.randint(2, 12)
    return gen_path(n, [rng.choice([0, 1, 2]) for _ in range(n)])


def test_criterion_6_reduction_clauses():
    for i in range(50):
        sg = _tied_graph(i)
        rp = perturb_rank(sg)
        tree_h = build_iso_tree(sg, reduce=False)
        ranked = ScalarGraph(sg.graph, dict(zip(sg.graph.site_list, rp.ranks())))
        cuts_h = {e.cut for e in brute_force_iso_tree(ranked, trust_mono=True).edges}
        oracle_f = brute_force_iso_tree(sg, trust_mono=True)
        cuts_f = {e.cut for e in oracle_f.edges}

        tied_edges = [
            e
            for e in tree_h.edges
            if sg.value_of(e.low) == sg.value_of(e.up)
        ]

        # (1) the input's cuts are among the ranked graph's cuts
        assert cuts_f <= cuts_h
        # (2) the surplus is exactly the equal-value edges
        assert cuts_h - cuts_f == {e.cut for e in tied_edges}
        # (3) within any reduced zone, the singletons are connected by
        #     equal-value edges alone
        ties = Graph(sg.graph.sites, [(e.low, e.up) for e in tied_edges])
        part = {p: k for k, c in enumerate(components_of(ties, ties.sites)) for p in c}
        for z in oracle_f.zones:
            assert len({part[p] for p in z.sites}) == 1
        # (4) every equal-value edge lands inside one reduced zone
        zone_of = {p: z.rep for z in oracle_f.zones for p in z.sites}
        for e in tied_edges:
            assert zone_of[e.low] == zone_of[e.up]
    _report(6, "all four reduction clauses hold on 50 graphs with ties")


def test_criterion_7_mono_connectivity_instances():
    started = time.perf_counter()
    sizes = [(w, h) for w in range(1, 13) for h in range(1, 13) if w * h <= 12]
    for w, h in sizes:
        witness = is_mono_connected(gen_tri_grid(w, h, [0] * (w * h)).graph)
        assert witness.verdict, f"{w}x{h} grid should be mono-connected"
    witness_lines = []
    for n in range(4, 9):
        witness = is_mono_connected(cycle_graph(n))
        assert not witness.verdict
        assert witness.counterexample is not None
        low = ",".join(sorted(witness.counterexample.low))
        witness_lines.append(f"C{n}: ({{{low}}}) fails on {witness.failing_side} side")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    for line in witness_lines:
        print(f"[acceptance]   {line}")
    _report(7, f"{len(sizes)} grids mono-connected, C4-C8 rejected, in {elapsed:.2f}s")


def _divisions_for_mutation():
    """Seeded valid divisions paired with their scalar graphs."""
    seed = 0
    while True:
        rng = random.Random(70_000 + seed)
        seed += 1
        if seed % 2 == 0:
            w, h = rng.randint(2, 4), rng.randint(2, 3)
            sg = gen_tri_grid(w, h, [rng.randint(0, 5) for _ in range(w * h)])
        else:
            n = rng.randint(4, 10)
            sg = gen_path(n, [rng.randint(0, 5) for _ in range(n)])
        division = ValuedJDivision.of_tree(build_iso_tree(sg))
        if len(division) == 0:
            continue
        yield sg, division


def test_criterion_8_fault_detection():
    detected_nesting = 0
    detected_tangent = 0
    source = _divisions_for_mutation()
    guard = 0
    while (detected_nesting < 25 or detected_tangent < 25) and guard < 500:
        guard += 1
        sg, division = next(source)
        g = sg.graph
        if detected_nesting < 25:
            # Crossing mutation: pick a cut with two sites on each side
            # and cross it with a pair straddling the boundary.
            target = next(
                (
                    lc.cut
                    for lc in division.cuts
                    if len(lc.cut.low) >= 2 and len(g.sites - lc.cut.low) >= 2
                ),
                None,
            )
            if target is not None:
                crossing = JCut(
                    frozenset({min(target.low), min(g.sites - target.low)})
                )
                mutated = ValuedJDivision(list(division.cuts) + [LCut(crossing, 1)])
                report = validate_regular_division(g, mutated)
                assert not report.valid
                assert any(
                    v.axiom == "nesting" and crossing in (v.first, v.second)
                    for v in report.violations
                ), "crossing cut not detected"
                detected_nesting += 1
        if detected_tangent < 25:
            original = division.cuts[0].cut
            inverted = JCut(g.sites - original.low)
            mutated = ValuedJDivision(list(division.cuts) + [LCut(inverted, 1)])
            report = validate_regular_division(g, mutated)
            assert not report.valid
            assert any(
                v.axiom == "tangent" and inverted in (v.first, v.second)
                for v in report.violations
            ), "inverted duplicate not detected"
            detected_tangent += 1
    assert detected_nesting == 25 and detected_tangent == 25
    _report(8, "50/50 seeded mutations detected (25 nesting, 25 tangent)")


def _run_cli(*argv: str):
    return subprocess.run(
        [sys.executable, "-m", "isotree", *argv], capture_output=True
    )


def test_criterion_9_cli_determinism(tmp_path: Path):
    ramp_file = tmp_path / "ramp.json"
    ramp_file.write_text(graph_to_json(gen_path(3, [0, 1, 2])))
    peak_file = tmp_path / "peak.json"
    peak_file.write_text(graph_to_json(gen_path(3, [1, 3, 0])))
    c4_file = tmp_path / "c4.json"
    c4 = cycle_graph(4)
    c4_file.write_text(graph_to_json(ScalarGraph(c4, {p: 0 for p in c4.sites})))

    out = tmp_path / "t.json"
    commands = [
        (("build", "--input", str(ramp_file), "--output", str(out)), 0),
        (("check-mono", "--input", str(c4_file)), 1),
        (("roundtrip", "--input", str(peak_file)), 0),
    ]
    for argv, expected_code in commands:
        first = _run_cli(*argv)
        first_out_file = out.read_bytes() if out.exists() else b""
        second = _run_cli(*argv)
        second_out_file = out.read_bytes() if out.exists() else b""
        assert first.returncode == expected_code
        assert second.returncode == first.returncode
        assert second.stdout == first.stdout
        assert second.stderr == first.stderr
        assert second_out_file == first_out_file

    built = json.loads(out.read_text())
    assert [z["id"] for z in built["zones"]] == ["a", "b", "c"]
    check = _run_cli("check-mono", "--input", str(c4_file))
    assert b"({a}, {b,c,d})" in check.stdout
    rt = _run_cli("roundtrip", "--input", str(peak_file))
    assert rt.stdout.decode().strip() == "PASS: RT∘ITT identity"
    _report(9, "three CLI commands byte-identical across consecutive runs")
