from __future__ import annotations

import math
import random

import pytest

from isotree import (
    Graph,
    JCut,
    PreconditionError,
    ScalarGraph,
    SizeLimitError,
    constant,
    enumerate_j_cuts,
    gen_path,
    gen_tri_grid,
    is_mono_connected,
    ramp,
    seeded_random,
)
from isotree import mono
from isotree import _bitgraph
from isotree.oracle import brute_force_iso_tree

from conftest import cycle_graph


def path_graph(n: int) -> Graph:
    return gen_path(n, constant(0)).graph


def triangle() -> Graph:
    return Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])


class TestEnumerateJCuts:
    def test_path3_exact_order(self):
        got = enumerate_j_cuts(path_graph(3))
        assert got == [JCut(frozenset("a")), JCut(frozenset("ab"))]

    def test_single_site(self):
        assert enumerate_j_cuts(path_graph(1)) == []

    def test_triangle_singletons_vs_rest(self):
        got = enumerate_j_cuts(triangle())
        assert got == [
            JCut(frozenset("a")),
            JCut(frozenset("ab")),
            JCut(frozenset("ac")),
        ]
        # Three unordered bipartitions: each singleton against the rest.
        smaller_sides = {min((c.low, triangle().sites - c.low), key=len) for c in got}
        assert smaller_sides == {frozenset("a"), frozenset("b"), frozenset("c")}

    def test_each_bipartition_once(self):
        g = gen_tri_grid(3, 2, constant(0)).graph
        cuts = enumerate_j_cuts(g)
        unordered = {frozenset((c.low, g.sites - c.low)) for c in cuts}
        assert len(unordered) == len(cuts)
        # canonical side always contains the least site
        least = g.least_site()
        assert all(least in c.low for c in cuts)

    def test_cap_exceeded(self):
        with pytest.raises(SizeLimitError):
            enumerate_j_cuts(path_graph(5), cap=4)

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            enumerate_j_cuts(Graph("ab"))


class TestIsMonoConnected:
    def test_path3(self):
        assert is_mono_connected(path_graph(3)).verdict

    def test_triangle(self):
        assert is_mono_connected(triangle()).verdict

    def test_four_cycle_witness(self):
        w = is_mono_connected(cycle_graph(4))
        assert not w.verdict
        assert w.counterexample == JCut(frozenset("a"))
        assert w.failing_side == "up"

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_cycles_fail(self, n):
        w = is_mono_connected(cycle_graph(n))
        assert not w.verdict
        assert w.counterexample is not None

    def test_disconnected_graph_has_no_cut_witness(self):
        w = is_mono_connected(Graph("ab"))
        assert not w.verdict
        assert w.counterexample is None
        assert w.failing_side is None

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            is_mono_connected(cycle_graph(9), cap=8)

    @pytest.mark.parametrize("w,h", [(w, h) for w in range(1, 5) for h in range(1, 5) if w * h <= 12])
    def test_small_tri_grids_are_mono(self, w, h):
        assert is_mono_connected(gen_tri_grid(w, h, constant(0)).graph).verdict

    @pytest.mark.parametrize("n", range(1, 13))
    def test_paths_are_mono(self, n):
        assert is_mono_connected(path_graph(n)).verdict


class TestMonoWitnessValue:
    """The check's outcome is an immutable value with optional witness fields."""

    def test_a_true_verdict_has_no_witness(self):
        w = mono.MonoWitness(True)
        assert (w.verdict, w.counterexample, w.failing_side) == (True, None, None)
        assert repr(w) == "MonoWitness(verdict=True, counterexample=None, failing_side=None)"

    def test_repr_and_hash_of_a_witness(self):
        w = mono.MonoWitness(False, JCut(frozenset("ba")), "up")
        assert repr(w) == "MonoWitness(verdict=False, counterexample=JCut({a,b}), failing_side='up')"
        twin = mono.MonoWitness(False, JCut(frozenset("ab")), "up")
        assert w == twin and hash(w) == hash(twin)
        assert w != mono.MonoWitness(False, JCut(frozenset("ab")), "low")

    @pytest.mark.parametrize("name", ["verdict", "failing_side", "other"])
    def test_attributes_cannot_be_set(self, name):
        with pytest.raises(AttributeError):
            setattr(mono.MonoWitness(True), name, False)


class TestSharedScan:
    """Each graph's bipartitions are scanned once, and only for that graph."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = _bitgraph._enumerate_cut_masks

        def counted(bg):
            calls.append(bg)
            return scan(bg)

        monkeypatch.setattr(_bitgraph, "_enumerate_cut_masks", counted)
        return calls

    def test_mono_check_and_oracle_share_one_scan(self, scans):
        sg = gen_tri_grid(3, 3, seeded_random(3))
        assert is_mono_connected(sg.graph).verdict
        tree = brute_force_iso_tree(sg)
        assert brute_force_iso_tree(sg) == tree
        assert enumerate_j_cuts(sg.graph)
        assert len(scans) == 1

    def test_equal_graphs_scan_separately(self, scans):
        first, second = gen_tri_grid(2, 3, constant(0)).graph, gen_tri_grid(2, 3, constant(0)).graph
        warm = is_mono_connected(first)
        # A warm graph still equals, hashes and prints like a cold one.
        assert (first == second, hash(first), repr(first)) == (True, hash(second), repr(second))
        assert is_mono_connected(second) == warm
        assert len(scans) == 2

    def test_warm_graph_keeps_its_caps(self):
        g = path_graph(15)
        assert is_mono_connected(g).verdict
        assert len(enumerate_j_cuts(g)) == 14
        with pytest.raises(SizeLimitError):
            is_mono_connected(g, cap=14)
        with pytest.raises(SizeLimitError):
            enumerate_j_cuts(g, cap=14)
        with pytest.raises(SizeLimitError, match="oracle cap of 14"):
            brute_force_iso_tree(ScalarGraph(g, {p: 0 for p in g.sites}))

    def test_each_scan_names_its_cap(self):
        g = path_graph(3)
        for scan in (enumerate_j_cuts, is_mono_connected):
            with pytest.raises(SizeLimitError, match=r"^3 sites exceeds the enumeration cap of 2$"):
                scan(g, cap=2)
        with pytest.raises(SizeLimitError, match=r"^3 sites exceeds the oracle cap of 2$"):
            brute_force_iso_tree(ScalarGraph(g, {p: 0 for p in g.sites}), cap=2)

    def test_warm_disconnected_graph_is_still_rejected(self, scans):
        g = Graph("abc", [("a", "b")])
        # Fill the table of the disconnected graph as a trusted oracle call would.
        assert g._bits.cut_masks == (0b011,)
        assert len(scans) == 1
        with pytest.raises(PreconditionError):
            enumerate_j_cuts(g)
        assert is_mono_connected(g) == mono.MonoWitness(verdict=False)

    def test_failing_scan_fills_the_table(self, scans):
        g = cycle_graph(6)
        witness = is_mono_connected(g)
        assert not witness.verdict
        assert is_mono_connected(g) is witness
        # The mono check read the whole mask table before its first
        # failing cut, so listing g's J-cuts scans nothing more.
        assert enumerate_j_cuts(g) == enumerate_j_cuts(cycle_graph(6))
        assert len(scans) == 2


class TestGenerators:
    def test_tri_grid_2x2_counts(self):
        sg = gen_tri_grid(2, 2, constant(0))
        assert len(sg.graph) == 4
        assert len(sg.graph.pairs) == 5

    def test_tri_grid_3x3_counts(self):
        sg = gen_tri_grid(3, 3, ramp())
        assert len(sg.graph) == 9
        assert len(sg.graph.pairs) == 16

    def test_tri_grid_1xn_is_a_path(self):
        sg = gen_tri_grid(1, 4, constant(0))
        assert len(sg.graph.pairs) == 3
        degrees = sorted(len(sg.graph.neighbors(p)) for p in sg.graph.sites)
        assert degrees == [1, 1, 2, 2]

    def test_tri_grid_rejects_zero_dimension(self):
        with pytest.raises(PreconditionError):
            gen_tri_grid(0, 3, constant(0))

    def test_path_ramp_values(self):
        sg = gen_path(3, ramp())
        assert [sg.value_of(p) for p in sg.graph.site_list] == [0, 1, 2]

    @pytest.mark.parametrize("n", [26, 27, 100, 101])
    def test_path_values_follow_the_path(self, n):
        # Letter ids up to 26 sites, then s-ids that widen at 101: gen_path
        # hands its values over by site number, so path order is id order.
        values = list(range(n))
        random.Random(n).shuffle(values)
        sg = gen_path(n, values)
        ids = mono.path_site_ids(n)
        assert [sg.value_of(p) for p in ids] == values
        assert sg.values == dict(zip(ids, values))
        assert [sg.graph.neighbors(p) for p in ids[1:-1]] == list(zip(ids, ids[2:]))

    @pytest.mark.parametrize("n", [1, 2, 26, 27, 100])
    def test_path_equals_the_graph_of_its_pairs(self, n):
        # gen_path writes its rows in path order, which is id order, and lists no pairs.
        ids = mono.path_site_ids(n)
        g = gen_path(n, constant(0)).graph
        other = Graph(ids, list(zip(ids, ids[1:])))
        assert g == other and hash(g) == hash(other)
        assert g.site_list == tuple(ids)

    def test_path_single_site(self):
        sg = gen_path(1, constant(5))
        assert len(sg.graph) == 1
        assert sg.graph.pairs == ()
        assert sg.value_of(sg.graph.least_site()) == 5

    def test_path_explicit_peak(self):
        sg = gen_path(3, [1, 3, 0])
        assert sg.values == {"a": 1, "b": 3, "c": 0}

    def test_path_rejects_zero_length(self):
        with pytest.raises(PreconditionError):
            gen_path(0, constant(0))

    def test_value_length_mismatch(self):
        with pytest.raises(ValueError):
            gen_path(3, [1, 2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_are_rejected_at_their_index(self, bad):
        message = rf"^index 1: value {bad!r} is not finite$"
        with pytest.raises(ValueError, match=message):
            gen_path(3, [0, bad, 1])
        with pytest.raises(ValueError, match=message):
            gen_tri_grid(3, 1, [0, bad, 1])
        with pytest.raises(ValueError, match=rf"^index 3: value {bad!r} is not finite$"):
            gen_tri_grid(2, 2, lambda n: [0, 1, 2, bad])

    def test_seeded_random_is_reproducible(self):
        a = gen_tri_grid(3, 3, seeded_random(42))
        b = gen_tri_grid(3, 3, seeded_random(42))
        assert a.values == b.values
        assert all(0 <= v <= 5 for v in a.values.values())

    def test_seeded_random_range(self):
        sg = gen_path(20, seeded_random(1, low=2, high=3))
        assert set(sg.values.values()) <= {2, 3}
