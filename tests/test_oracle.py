from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotree import (
    Graph,
    IsoTreeError,
    JCut,
    PreconditionError,
    ScalarGraph,
    SizeLimitError,
    ValuedJDivision,
    enumerate_j_cuts,
    gen_path,
    is_l_cut,
    is_mono_connected,
    validate_regular_division,
)
from isotree import axioms
from isotree.mono import path_site_ids
from isotree.oracle import _oriented_l_cut_masks, brute_force_iso_tree, brute_force_l_cuts

from conftest import cycle_graph, mono_scalar_graphs


def as_pairs(cuts):
    return {(tuple(sorted(lc.cut.low)), lc.gap) for lc in cuts}


class TestBruteForceLCuts:
    def test_ramp(self, ramp3):
        assert as_pairs(brute_force_l_cuts(ramp3)) == {(("a",), 1), (("a", "b"), 1)}

    def test_peak(self, peak):
        assert as_pairs(brute_force_l_cuts(peak)) == {(("a",), 2), (("c",), 3)}

    def test_constant_has_none(self):
        assert brute_force_l_cuts(gen_path(3, [5, 5, 5])) == ()

    def test_cap(self):
        sg = gen_path(15, [0] * 15)
        with pytest.raises(SizeLimitError):
            brute_force_l_cuts(sg)
        assert brute_force_l_cuts(sg, cap=15) == ()

    def test_non_mono_rejected(self):
        g = cycle_graph(4)
        sg = ScalarGraph(g, {p: 0 for p in g.sites})
        with pytest.raises(PreconditionError) as info:
            brute_force_l_cuts(sg)
        assert str(info.value) == "graph is not mono-connected (counterexample: JCut({a}))"

    @pytest.mark.parametrize("oracle", [brute_force_l_cuts, brute_force_iso_tree])
    def test_disconnected_rejected(self, oracle):
        # a-b plus an isolated c: it must not reach the scan.
        sg = ScalarGraph(Graph("abc", [("a", "b")]), {"a": 0, "b": 1, "c": 2})
        with pytest.raises(PreconditionError, match="^the oracle requires a connected graph$"):
            oracle(sg)


class TestBruteForceIsoTree:
    def test_ramp_chain_of_singletons(self, ramp3):
        tree = brute_force_iso_tree(ramp3)
        assert [(sorted(z.sites), z.value) for z in tree.zones] == [
            (["a"], 0),
            (["b"], 1),
            (["c"], 2),
        ]
        assert [(e.low, e.up) for e in tree.edges] == [("a", "b"), ("b", "c")]

    def test_plateau_two_zones(self, plateau):
        tree = brute_force_iso_tree(plateau)
        assert [(sorted(z.sites), z.value) for z in tree.zones] == [(["a", "b"], 0), (["c"], 1)]

    def test_single_site(self):
        tree = brute_force_iso_tree(gen_path(1, [3]))
        assert len(tree.zones) == 1
        assert tree.edges == ()
        assert tree.reference_value == 3

    def test_decimal_values_are_checked_zone_by_zone(self):
        # Walking the gap down from 'a' gives 0.68 - 0.57 = 0.10999999999999999 for 'b'.
        tree = brute_force_iso_tree(gen_path(2, [0.68, 0.11]))
        assert [(sorted(z.sites), z.value) for z in tree.zones] == [(["a"], 0.68), (["b"], 0.11)]
        assert [(e.low, e.up, e.gap) for e in tree.edges] == [("b", "a", 0.68 - 0.11)]

    def test_output_is_always_regular(self, peak, plateau, disconnected_zone_grid):
        for sg in (peak, plateau, disconnected_zone_grid):
            tree = brute_force_iso_tree(sg)
            report = validate_regular_division(sg.graph, ValuedJDivision.of_tree(tree))
            assert report.valid

    def test_reference_defaults_to_least_site(self, peak):
        tree = brute_force_iso_tree(peak)
        assert tree.reference == "a"
        assert tree.reference_value == 1

    def test_explicit_reference_is_kept(self):
        base = gen_path(3, [1, 3, 0])
        sg = ScalarGraph(base.graph, base.values, reference="c")
        tree = brute_force_iso_tree(sg)
        assert tree.reference == "c"
        assert tree.reference_value == 0

    def test_zones_are_assembled_once(self, monkeypatch, disconnected_zone_grid):
        calls = []
        partition = axioms._signature_partition

        def counted(*args):
            calls.append(args)
            return partition(*args)

        monkeypatch.setattr(axioms, "_signature_partition", counted)
        tree = brute_force_iso_tree(disconnected_zone_grid)
        assert len(tree.edges) == 2
        assert len(calls) == 1


def _cycle(values: list[int]) -> ScalarGraph:
    g = cycle_graph(len(values))
    return ScalarGraph(g, dict(zip(path_site_ids(len(values)), values)))


cycles = st.integers(min_value=4, max_value=8).flatmap(
    lambda n: st.lists(st.integers(0, 9), min_size=n, max_size=n).map(_cycle)
)

EXHAUSTIVE = {
    "mono": lambda sg: is_mono_connected(sg.graph),
    "j-cuts": lambda sg: enumerate_j_cuts(sg.graph),
    "oracle": brute_force_iso_tree,
}


def _outcome(call, sg):
    try:
        return call(sg)
    except (IsoTreeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(sg=st.one_of(mono_scalar_graphs, cycles), order=st.permutations(sorted(EXHAUSTIVE)))
def test_warm_graph_answers_like_a_fresh_copy(sg, order):
    """Whatever ran first on a graph, every exhaustive answer matches a new copy's."""
    for name in order:
        _outcome(EXHAUSTIVE[name], sg)
    for name, call in EXHAUSTIVE.items():
        g = sg.graph
        fresh = ScalarGraph(Graph(g.sites, g.pairs), sg.values, sg.reference)
        assert _outcome(call, sg) == _outcome(call, fresh), name


@settings(max_examples=60, deadline=None)
@given(
    sg=mono_scalar_graphs,
    kind=st.sampled_from([int, float, lambda v: Fraction(v, 3)]),
)
def test_table_scan_finds_the_literal_l_cuts(sg, kind):
    """The half-table scan keeps exactly the J-cuts whose string-level L-cut test holds."""
    sg = ScalarGraph(sg.graph, {p: kind(v) for p, v in sg.values.items()}, sg.reference)
    g = sg.graph
    bg = g._bits
    scanned = {bg.set_of(m) for m in _oriented_l_cut_masks(sg, bg)}
    literal = set()
    for c in enumerate_j_cuts(g):
        for side in (c, JCut(axioms.complement(g, c.low))):
            if is_l_cut(sg, side):
                literal.add(side.low)
    assert scanned == literal
