from __future__ import annotations

import copy
import json
import pickle

import pytest
from hypothesis import given, settings

from isotree import (
    Graph,
    InconsistentZoneError,
    InvalidRegionError,
    InvariantViolationError,
    IsoTree,
    IsoZone,
    JCut,
    LCut,
    MissingReferenceError,
    NotAnLCutError,
    NotATreeError,
    ScalarGraph,
    TreeEdge,
    ValuedJDivision,
    build_iso_tree,
    build_iso_tree_from_cuts,
    check_iso_tree,
    components_of,
    division_to_tree,
    gen_path,
    gen_tri_grid,
    immediate_interior,
    is_l_cut,
    reconstruct_rt,
    validate_regular_division,
    value_gap_of,
    zones_from_cuts,
)
from isotree import axioms
from isotree.io import parse_tree_json
from isotree.oracle import brute_force_iso_tree, brute_force_l_cuts

from conftest import CORPUS_SIZE, corpus_graph, mono_scalar_graphs, random_mono_scalar_graph


def cut(*sites: str) -> JCut:
    return JCut(frozenset(sites))


class TestIsLCut:
    def test_ramp_singleton(self, ramp3):
        assert is_l_cut(ramp3, cut("a"))

    def test_wrong_orientation(self, ramp3):
        assert not is_l_cut(ramp3, cut("b", "c"))

    def test_peak_high_side(self, peak):
        assert is_l_cut(peak, cut("c"))


class TestZonesFromCuts:
    def test_no_cuts_constant(self):
        sg = gen_path(3, [7, 7, 7])
        zones = zones_from_cuts(sg, [])
        assert [(sorted(z.sites), z.value) for z in zones] == [(["a", "b", "c"], 7)]

    def test_peak_cuts(self, peak):
        zones = zones_from_cuts(peak, [cut("a"), cut("c")])
        assert [(sorted(z.sites), z.value) for z in zones] == [
            (["a"], 1),
            (["b"], 3),
            (["c"], 0),
        ]

    def test_plateau(self, plateau):
        zones = zones_from_cuts(plateau, [cut("a", "b")])
        assert [(sorted(z.sites), z.value) for z in zones] == [(["a", "b"], 0), (["c"], 1)]

    def test_inconsistent_zone(self, ramp3):
        with pytest.raises(InconsistentZoneError):
            zones_from_cuts(ramp3, [])


class TestBuildFromCuts:
    def test_constant_single_zone(self):
        sg = gen_path(3, [4, 4, 4])
        tree = build_iso_tree_from_cuts(sg, [])
        assert len(tree.zones) == 1
        assert tree.edges == ()

    def test_peak_edges(self, peak):
        tree = build_iso_tree_from_cuts(peak, [LCut(cut("a"), 2), LCut(cut("c"), 3)])
        assert [(e.low, e.up, e.gap) for e in tree.edges] == [("a", "b", 2), ("c", "b", 3)]

    def test_ramp_chain(self, ramp3):
        tree = build_iso_tree_from_cuts(ramp3, [LCut(cut("a"), 1), LCut(cut("a", "b"), 1)])
        assert [(e.low, e.up, e.gap) for e in tree.edges] == [("a", "b", 1), ("b", "c", 1)]

    def test_wrong_gap_rejected(self, peak):
        with pytest.raises(NotATreeError, match="does not bridge zone values"):
            build_iso_tree_from_cuts(peak, [LCut(cut("a"), 1), LCut(cut("c"), 3)])

    def test_incomplete_cut_set_rejected(self, peak):
        # Only one of the two L-cuts: the remaining signature class mixes values.
        with pytest.raises(InconsistentZoneError):
            build_iso_tree_from_cuts(peak, [LCut(cut("a"), 2)])

    def test_conflicting_gaps_rejected_by_the_division(self, peak):
        cuts = [LCut(cut("a"), 2), LCut(cut("a"), 1), LCut(cut("c"), 3)]
        with pytest.raises(ValueError, match="conflicting gaps for cut"):
            build_iso_tree_from_cuts(peak, cuts)


@pytest.mark.parametrize(
    "assemble",
    [
        lambda sg, cuts: zones_from_cuts(sg, [lc.cut for lc in cuts]),
        build_iso_tree_from_cuts,
        lambda sg, cuts: division_to_tree(sg.graph, ValuedJDivision(cuts)),
    ],
    ids=["zones_from_cuts", "build_iso_tree_from_cuts", "division_to_tree"],
)
def test_cut_site_outside_the_graph_rejected(peak, assemble):
    cuts = [LCut(cut("a", "zz"), 2), LCut(cut("c"), 3)]
    with pytest.raises(InvalidRegionError, match=r"region references unknown sites \['zz'\]"):
        assemble(peak, cuts)


class TestValueTypes:
    """L-cuts, zones and axiom reports are immutable values.

    Reprs are pinned on one-site zones only: a frozenset's repr order
    follows the hash seed.
    """

    def test_reprs(self):
        assert repr(LCut(cut("b", "a"), 2)) == "LCut(cut=JCut({a,b}), gap=2)"
        assert repr(IsoZone(frozenset("a"), 1)) == "IsoZone(sites=frozenset({'a'}), value=1)"
        v = axioms.AxiomViolation("nesting", cut("a"), cut("b", "a"))
        assert repr(v) == "AxiomViolation(axiom='nesting', first=JCut({a}), second=JCut({a,b}))"
        assert repr(axioms.AxiomReport((v,))) == f"AxiomReport(violations=({v!r},))"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LCut(cut("a", "b"), 1.5),
            lambda: IsoZone(frozenset("abc"), 0),
            lambda: axioms.AxiomViolation("tangent", cut("a"), cut("c")),
            lambda: axioms.AxiomReport((axioms.AxiomViolation("nesting", cut("a"), cut("b")),)),
        ],
        ids=["LCut", "IsoZone", "AxiomViolation", "AxiomReport"],
    )
    def test_equal_values_hash_alike_and_cannot_be_set(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        for name in ("gap", "sites", "value", "rep", "axiom", "violations", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)

    def test_unequal_values(self):
        assert LCut(cut("a"), 1) != LCut(cut("a"), 2)
        assert IsoZone(frozenset("a"), 0) != IsoZone(frozenset("ab"), 0)

    def test_gap_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^value gap must be positive, got 0$"):
            LCut(cut("a"), 0)

    def test_zone_must_not_be_empty(self):
        with pytest.raises(ValueError, match=r"^an iso-zone cannot be empty$"):
            IsoZone(frozenset(), 1)

    def test_zone_rep_is_the_least_site(self):
        zone = IsoZone(frozenset(["r1c0", "r0c2", "r0c10"]), 3)
        assert zone.rep == "r0c10"
        assert IsoZone(frozenset("a"), 3).rep == "a"

    def test_report_is_valid_without_violations(self):
        assert axioms.AxiomReport(()).valid
        assert not axioms.AxiomReport((axioms.AxiomViolation("nesting", cut("a"), cut("b")),)).valid


class TestEdgeValues:
    """Tree edges are named tuples of zones and gap; the cut is derived."""

    def test_repr_names_the_zones_and_gap(self):
        (edge,) = build_iso_tree(gen_path(2, [0, 2])).edges
        assert repr(edge) == "TreeEdge(low='a', up='b', gap=2)"

    def test_compare_and_hash_by_zones_and_gap(self, peak):
        edges = build_iso_tree(peak).edges
        assert edges == brute_force_iso_tree(peak).edges
        for e in edges:
            low, up, gap = e
            assert e == (low, up, gap) == (e.low, e.up, e.gap) == (e[0], e[1], e[2])
            assert hash(e) == hash((e.low, e.up, e.gap))

    def test_fields_are_read_only(self, peak):
        edge = build_iso_tree(peak).edges[0]
        with pytest.raises(AttributeError):
            edge.low = "c"

    def test_copy_and_pickle_keep_the_cut(self, ramp3):
        for edge in build_iso_tree(ramp3).edges:
            assert copy.copy(edge).cut == pickle.loads(pickle.dumps(edge)).cut == edge.cut

    def test_a_replaced_edge_has_no_cut(self, ramp3):
        edge = build_iso_tree(ramp3).edges[0]._replace(gap=5)
        assert isinstance(edge, TreeEdge) and edge.gap == 5
        with pytest.raises(AttributeError):
            edge.cut


class TestDivisionValues:
    """A valued J-division is the tuple of its L-cuts in cut order."""

    CUTS = [LCut(cut("a", "b"), 1), LCut(cut("a"), 2), LCut(cut("c"), 3)]

    def test_equal_whatever_the_input_order(self):
        assert ValuedJDivision(self.CUTS) == ValuedJDivision(reversed(self.CUTS))

    def test_length_and_iteration_follow_cut_order(self):
        division = ValuedJDivision(self.CUTS + self.CUTS[:1])
        ordered = sorted(self.CUTS, key=lambda lc: JCut.sort_key(lc.cut))
        assert len(division) == 3
        assert list(division) == ordered
        assert division.cuts is division
        assert division == tuple(ordered)
        assert repr(division) == repr(tuple(ordered))

    def test_hashable(self):
        a, b = ValuedJDivision(self.CUTS), ValuedJDivision(reversed(self.CUTS))
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_conflicting_gaps_name_the_cut(self):
        with pytest.raises(ValueError, match=r"^conflicting gaps for cut JCut\(\{a\}\)$"):
            ValuedJDivision([LCut(cut("a"), 1), LCut(cut("a"), 2)])


def tree_document(zones, edges, reference="a", reference_value=0):
    """A tree document: zones as (id, sites, value), edges as (low, up, gap)."""
    return json.dumps(
        {
            "zones": [{"id": rep, "sites": sites, "value": v} for rep, sites, v in zones],
            "edges": [{"low": lo, "up": up, "gap": gap} for lo, up, gap in edges],
            "reference": reference,
            "referenceValue": reference_value,
        }
    )


class TestIsoTreeStructure:
    """The constructor's checks on site numbers, and the reader's on ids.

    Overlapping zones, a shared representative and an edge end that
    names no zone can only come from a document, so the reader checks
    them.
    """

    def test_overlapping_zones_rejected(self):
        doc = tree_document([("a", ["a", "b"], 0), ("b", ["b"], 1)], [("a", "b", 1)])
        with pytest.raises(NotATreeError, match="site 'b' belongs to more than one zone"):
            parse_tree_json(doc)

    def test_overlap_on_a_later_zones_id_rejected(self):
        # Zone b comes first; zone a, with a smaller id, also lists b,
        # so b's own zone has lost its id before c is numbered.
        doc = tree_document([("b", ["b", "c"], 1), ("a", ["a", "b"], 0)], [("a", "b", 1)])
        with pytest.raises(NotATreeError) as info:
            parse_tree_json(doc)
        assert str(info.value) == "site 'b' belongs to more than one zone"

    def test_site_repeated_within_a_zone_counts_once(self):
        doc = tree_document([("b", ["b", "c", "b"], 1), ("a", ["a", "a"], 0)], [("a", "b", 1)])
        assert [sorted(z.sites) for z in parse_tree_json(doc).zones] == [["a"], ["b", "c"]]

    def test_duplicate_representative_rejected(self):
        doc = tree_document([("a", ["a", "b"], 0), ("a", ["a", "c"], 1)], [])
        with pytest.raises(NotATreeError, match="duplicate zone representative 'a'"):
            parse_tree_json(doc)

    def test_overlap_in_the_last_of_many_zones_is_named(self):
        # Zone k holds a<k> and b<k>; the last zone takes b0005 instead of
        # its own b, so only the zone-by-zone scan can say which site.
        n = 2000
        zones = [(f"a{k:04d}", [f"a{k:04d}", f"b{k:04d}"], k) for k in range(n - 1)]
        zones.append((f"a{n - 1:04d}", [f"a{n - 1:04d}", "b0005"], n - 1))
        edges = [(f"a{k:04d}", f"a{k + 1:04d}", 1) for k in range(n - 1)]
        doc = tree_document(zones, edges, "a0000")
        with pytest.raises(NotATreeError, match="^site 'b0005' belongs to more than one zone$"):
            parse_tree_json(doc)

    def test_edge_count_must_match(self):
        with pytest.raises(NotATreeError):
            IsoTree(("a", "b"), [0, 1], [0, 1], [], [], [], "a")

    def test_gap_must_bridge_values(self):
        with pytest.raises(NotATreeError):
            IsoTree(("a", "b"), [0, 1], [0, 5], [0], [1], [1], "a")

    def test_non_positive_gap_rejected(self):
        with pytest.raises(NotATreeError):
            IsoTree(("a", "b"), [0, 1], [0, 0], [0], [1], [0], "a")

    def test_empty_zone_rejected(self):
        with pytest.raises(ValueError):
            IsoZone(frozenset(), 0)

    @pytest.mark.parametrize(
        "values, edges, message",
        [
            ({"a": 0, "b": 1}, [("a", "z", 1)], "edge 'a'->'z' references an unknown zone"),
            ({"a": 0, "b": 1}, [("a", "a", 1)], "self-edge on zone 'a'"),
            ({"a": 0, "b": 0}, [("a", "b", 0)], "edge 'a'->'b' has non-positive gap 0"),
            # Three edges over four zones: a cycle, and d left out.
            (
                {"a": 0, "b": 1, "c": 2, "d": 5},
                [("a", "b", 1), ("b", "c", 1), ("a", "c", 2)],
                "zone graph is not connected",
            ),
        ],
    )
    def test_constructor_names_the_fault(self, values, edges, message):
        # Through the reader, which numbers the ids and checks the ends.
        doc = tree_document([(rep, [rep], v) for rep, v in values.items()], edges)
        with pytest.raises(NotATreeError) as info:
            parse_tree_json(doc)
        assert str(info.value) == message

    def test_sites_of_a_zone_in_any_order(self):
        # Zone a holds a and c, zone b holds b and d; an edge may name any site of its ends.
        tree = IsoTree(("a", "b", "c", "d"), [0, 1, 0, 1], [0, 2], [2], [3], [2], "d")
        assert [(z.rep, sorted(z.sites), z.value) for z in tree.zones] == [
            ("a", ["a", "c"], 0),
            ("b", ["b", "d"], 2),
        ]
        assert list(tree.edge_rows()) == [("a", "b", 2)]
        assert tree.reference_value == 2

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([("a", "z", 1)], "edge 'a'->'z' references an unknown zone"),
            # "b" is a site, but not a zone's id.
            ([("b", "c", 1)], "edge 'b'->'c' references an unknown zone"),
            # The edges are checked in (low, up) order, whatever their faults.
            ([("a", "z", 1), ("a", "a", 1)], "self-edge on zone 'a'"),
            ([("c", "a", 1), ("a", "c", 0)], "edge 'a'->'c' has non-positive gap 0"),
            ([("c", "c", 1), ("a", "z", 1)], "edge 'a'->'z' references an unknown zone"),
            (
                [("a", "c", 2), ("c", "z", 1)],
                "edge 'a'->'c': gap 2 does not bridge zone values 0 and 1",
            ),
        ],
    )
    def test_reader_names_the_first_faulty_edge(self, edges, message):
        doc = tree_document([("a", ["a", "b"], 0), ("c", ["c"], 1)], edges)
        with pytest.raises(NotATreeError) as info:
            parse_tree_json(doc)
        assert str(info.value) == message


class TestIsoTreeEquality:
    """Trees read from documents differ when any part of the tree does."""

    ZONES = [("a", ["a", "d"], 0), ("c", ["c", "e"], 1)]

    def tree(self, zones=ZONES, edges=(("a", "c", 1),), reference="a", reference_value=0):
        return parse_tree_json(tree_document(zones, edges, reference, reference_value))

    def test_equal_documents_give_equal_trees(self):
        assert self.tree() == self.tree()
        assert not self.tree() != self.tree()

    def test_a_site_moved_between_zones(self):
        # Same representatives, values and edges; e has moved from c to a.
        moved = self.tree(zones=[("a", ["a", "d", "e"], 0), ("c", ["c"], 1)])
        assert self.tree() != moved

    def test_only_the_reference_differs(self):
        assert self.tree() != self.tree(reference="d")

    def test_only_one_gap_differs(self):
        # Near 2**53 floats are 2 apart, so gaps 2 and 1.5 both bridge the values.
        big = float(2**53)
        zones = [("a", ["a", "d"], big), ("c", ["c", "e"], big + 2)]
        one = self.tree(zones=zones, edges=[("a", "c", 2.0)], reference_value=big)
        other = self.tree(zones=zones, edges=[("a", "c", 1.5)], reference_value=big)
        assert [z.value for z in one.zones] == [z.value for z in other.zones]
        assert one != other

    def test_one_tree_has_an_extra_site(self):
        extra = self.tree(zones=[("a", ["a", "d"], 0), ("c", ["c", "e", "f"], 1)])
        assert self.tree() != extra
        assert extra != self.tree()


class TestValidateRegularDivision:
    def test_oracle_tree_is_valid(self, peak):
        division = ValuedJDivision.of_tree(brute_force_iso_tree(peak))
        assert validate_regular_division(peak.graph, division).valid

    def test_crossing_cuts_violate_nesting(self):
        g = gen_path(4, [0, 0, 0, 0]).graph
        division = ValuedJDivision([LCut(cut("a", "b"), 1), LCut(cut("b", "c"), 1)])
        report = validate_regular_division(g, division)
        assert not report.valid
        assert [v.axiom for v in report.violations] == ["nesting"]

    def test_inverted_duplicate_violates_tangency(self, ramp3):
        division = ValuedJDivision([LCut(cut("a"), 1), LCut(cut("b", "c"), 1)])
        report = validate_regular_division(ramp3.graph, division)
        assert not report.valid
        assert [v.axiom for v in report.violations] == ["tangent"]

    def test_all_pairs_reported(self):
        g = gen_path(4, [0, 0, 0, 0]).graph
        division = ValuedJDivision(
            [LCut(cut("a", "b"), 1), LCut(cut("b", "c"), 1), LCut(cut("c", "d"), 1)]
        )
        report = validate_regular_division(g, division)
        nesting_pairs = {
            (v.first, v.second) for v in report.violations if v.axiom == "nesting"
        }
        assert (cut("a", "b"), cut("b", "c")) in nesting_pairs
        assert (cut("b", "c"), cut("c", "d")) in nesting_pairs

    def test_each_boundary_is_inverted_once(self, monkeypatch):
        sg = gen_tri_grid(5, 5, list(range(25)))
        tree = build_iso_tree(sg)
        calls = []
        inverse = axioms.inverse_surfels

        def counted(surfels):
            calls.append(surfels)
            return inverse(surfels)

        monkeypatch.setattr(axioms, "inverse_surfels", counted)
        assert validate_regular_division(sg.graph, ValuedJDivision.of_tree(tree)).valid
        assert len(tree.edges) == 24
        assert len(calls) == len(tree.edges)


class TestReconstruct:
    def test_peak_roundtrip(self, peak):
        tree = brute_force_iso_tree(peak)
        assert reconstruct_rt(peak.graph, tree).values == peak.values

    def test_single_zone_constant(self):
        sg = gen_path(4, [7, 7, 7, 7])
        tree = brute_force_iso_tree(sg)
        assert reconstruct_rt(sg.graph, tree).values == {p: 7 for p in sg.graph.sites}

    def test_signed_sum_with_backward_edge(self):
        # Chain of zones a -> b -> c with gaps 1 and 2, then a backward
        # edge d -> c of gap 0.5: the reconstructed value of d is
        # 0 + 1 + 2 - 0.5 = 2.5.
        sg = gen_path(4, [0, 1, 3, 2.5])
        tree = brute_force_iso_tree(sg)
        gaps = {(e.low, e.up): e.gap for e in tree.edges}
        assert gaps == {("a", "b"): 1, ("b", "c"): 2, ("d", "c"): 0.5}
        recovered = reconstruct_rt(sg.graph, tree)
        assert recovered.value_of("d") == 2.5
        assert recovered.values == sg.values

    def test_missing_reference(self):
        tree = IsoTree(("a",), [0], [0], [], [], [], "z")
        with pytest.raises(MissingReferenceError):
            reconstruct_rt(Graph("a"), tree)

    @pytest.mark.parametrize("absent", ["0", "b", "z"], ids=["before", "between", "after"])
    def test_absent_sites_have_no_zone(self, absent):
        # Ids that sort before, between and after the tree's own a and c.
        tree = IsoTree(("a", "c"), [0, 1], [0, 1], [0], [1], [1], absent)
        assert tree.zone_of(absent) is None
        assert tree.zone_of("c") == IsoZone(frozenset("c"), 1)
        message = f"^reference '{absent}' is not in any zone$"
        with pytest.raises(MissingReferenceError, match=message):
            tree.reference_value

    def test_zone_cover_mismatch(self):
        tree = IsoTree(("a",), [0], [0], [], [], [], "a")
        with pytest.raises(NotATreeError):
            reconstruct_rt(Graph("ab", [("a", "b")]), tree)


class TestValueGap:
    def test_ramp(self, ramp3):
        assert value_gap_of(ramp3, cut("a")) == 1

    def test_peak(self, peak):
        assert value_gap_of(peak, cut("c")) == 3

    def test_plateau(self, plateau):
        assert value_gap_of(plateau, cut("a", "b")) == 1

    def test_not_an_l_cut(self, peak):
        with pytest.raises(NotAnLCutError):
            value_gap_of(peak, cut("a", "b"))

    def test_equals_the_built_gap_on_the_corpus(self):
        for i in range(CORPUS_SIZE):
            sg = corpus_graph(i)
            for e in build_iso_tree(sg).edges:
                assert value_gap_of(sg, e.cut) == e.gap, (i, e)


class TestEdgeToJCut:
    def test_peak_low_edge(self, peak):
        tree = brute_force_iso_tree(peak)
        edge = next(e for e in tree.edges if e.low == "a")
        assert edge.cut == cut("a")

    def test_ramp_upper_edge(self, ramp3):
        tree = brute_force_iso_tree(ramp3)
        edge = next(e for e in tree.edges if e.up == "c")
        assert edge.cut == cut("a", "b")

    def test_two_zone_tree(self, plateau):
        tree = brute_force_iso_tree(plateau)
        (edge,) = tree.edges
        assert edge.cut == cut("a", "b")


class TestCheckIsoTree:
    def test_tree_that_misses_a_site(self, ramp3):
        tree = build_iso_tree(gen_path(2, [0, 1]))
        with pytest.raises(NotATreeError, match="do not partition the graph's sites"):
            check_iso_tree(ramp3, tree)

    def test_zone_with_a_wrong_value(self, ramp3):
        tree = build_iso_tree(ramp3)
        raised = ScalarGraph(ramp3.graph, {"a": 0, "b": 1, "c": 5})
        with pytest.raises(InvariantViolationError, match="site 'c' has value 5, its zone 2"):
            check_iso_tree(raised, tree)


    def test_edge_cut_that_is_not_a_jordan_cut(self):
        # Zone a holds both ends of the path a-b-c, so its side is disconnected.
        sg = ScalarGraph(Graph("abc", [("a", "b"), ("b", "c")]), {"a": 0, "b": 1, "c": 0})
        tree = IsoTree(("a", "b", "c"), [0, 1, 0], [0, 1], [0], [1], [1], "a")
        with pytest.raises(
            InvariantViolationError, match=r"^edge cut JCut\(\{a,c\}\) is not a Jordan cut$"
        ):
            check_iso_tree(sg, tree)

    def test_edge_cut_that_is_not_a_level_cut(self):
        # The star at a on the triangle a, b, c with values 0, 1, 2.
        triangle = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        sg = ScalarGraph(triangle, {"a": 0, "b": 1, "c": 2})
        tree = IsoTree(("a", "b", "c"), [0, 1, 2], [0, 1, 2], [0, 0], [1, 2], [1, 2], "a")
        with pytest.raises(
            InvariantViolationError, match=r"^edge cut JCut\(\{a,c\}\) is not a level cut$"
        ):
            check_iso_tree(sg, tree)


class TestDisconnectedZone:
    def test_zone_has_two_components(self, disconnected_zone_grid):
        tree = brute_force_iso_tree(disconnected_zone_grid)
        comps = {
            z.rep: len(components_of(disconnected_zone_grid.graph, z.sites))
            for z in tree.zones
        }
        assert max(comps.values()) == 2
        check_iso_tree(disconnected_zone_grid, tree)

    def test_interior_values_need_not_be_constant(self, disconnected_zone_grid):
        # The cut separating the top zone has a low-side immediate
        # interior that mixes values 0 and 1: "the interior of an L-cut
        # side carries one value" does not hold in general.  The gap
        # still equals min over the up interior minus max over the low.
        sg = disconnected_zone_grid
        (top_cut,) = [lc for lc in brute_force_l_cuts(sg) if len(lc.cut.low) == 3]
        low_ii = immediate_interior(sg.graph, top_cut.cut.low)
        assert {sg.value_of(p) for p in low_ii} == {0, 1}


class TestDivisionToTree:
    def test_rebuilds_the_oracle_tree(self, peak):
        tree = brute_force_iso_tree(peak)
        division = ValuedJDivision.of_tree(tree)
        rebuilt = division_to_tree(peak.graph, division, reference="a", reference_value=1)
        assert rebuilt == tree

    def test_empty_division_single_zone(self):
        g = gen_path(3, [0, 0, 0]).graph
        tree = division_to_tree(g, ValuedJDivision([]), reference_value=9)
        assert len(tree.zones) == 1
        assert tree.zones[0].value == 9

    @pytest.mark.parametrize("seed", range(12))
    def test_regular_divisions_are_iso_trees(self, seed):
        # Re-gap the cut set of a real tree, rebuild, reconstruct: the
        # level cuts of the reconstructed graph are exactly the division.
        import random

        sg = random_mono_scalar_graph(seed, max_sites=8)
        base = ValuedJDivision.of_tree(brute_force_iso_tree(sg))
        rng = random.Random(seed)
        division = ValuedJDivision(LCut(lc.cut, rng.randint(1, 5)) for lc in base.cuts)
        assert validate_regular_division(sg.graph, division).valid
        tree = division_to_tree(sg.graph, division)
        recovered = reconstruct_rt(sg.graph, tree)
        assert set(brute_force_l_cuts(recovered)) == set(division.cuts)

    def test_conflicting_gaps_rejected(self):
        with pytest.raises(ValueError):
            ValuedJDivision([LCut(cut("a"), 1), LCut(cut("a"), 2)])

    def test_cut_that_joins_no_single_zone_pair(self):
        division = ValuedJDivision([LCut(cut("a", "b"), 1), LCut(cut("b", "c"), 1)])
        with pytest.raises(
            NotATreeError, match=r"^cut JCut\(\{a,b\}\) does not join exactly one pair of zones$"
        ):
            division_to_tree(gen_path(5, [0] * 5).graph, division)

    def test_division_that_leaves_a_zone_unreached(self):
        division = ValuedJDivision(
            [LCut(cut("a", "c", "d"), 3), LCut(cut("a", "b", "c"), 1), LCut(cut("c", "e"), 1)]
        )
        with pytest.raises(NotATreeError, match=r"^division does not connect all zones$"):
            division_to_tree(gen_path(5, [0] * 5).graph, division)

    def test_reference_outside_the_graph(self):
        with pytest.raises(
            MissingReferenceError, match=r"^reference 'zz' not covered by any zone$"
        ):
            division_to_tree(gen_path(5, [0] * 5).graph, ValuedJDivision([]), reference="zz")


@settings(max_examples=60, deadline=None)
@given(sg=mono_scalar_graphs)
def test_oracle_trees_satisfy_every_invariant(sg):
    tree = brute_force_iso_tree(sg)
    check_iso_tree(sg, tree)
    assert validate_regular_division(sg.graph, ValuedJDivision.of_tree(tree)).valid
    assert reconstruct_rt(sg.graph, tree).values == sg.values


@settings(max_examples=60, deadline=None)
@given(sg=mono_scalar_graphs)
def test_cut_sets_and_trees_map_both_ways(sg):
    # Trees assembled from a cut set are handed no cut to check, so each
    # edge's split must come out as the very cut the edge was made from.
    tree = brute_force_iso_tree(sg)
    division = ValuedJDivision.of_tree(tree)
    assert division.cuts == brute_force_l_cuts(sg)
    assert build_iso_tree_from_cuts(sg, division) == tree
    assert division_to_tree(sg.graph, division, tree.reference, tree.reference_value) == tree


@settings(max_examples=60, deadline=None)
@given(sg=mono_scalar_graphs)
def test_gap_equals_interior_value_difference(sg):
    # Conjectured equivalence: the gap read from the zone pair matches
    # min over the up-side interior minus max over the low-side interior.
    g = sg.graph
    for lc in brute_force_l_cuts(sg):
        low_ii = immediate_interior(g, lc.cut.low)
        up_ii = immediate_interior(g, g.sites - lc.cut.low)
        expected = min(sg.value_of(p) for p in up_ii) - max(sg.value_of(p) for p in low_ii)
        assert lc.gap == expected


@settings(max_examples=40, deadline=None)
@given(sg=mono_scalar_graphs)
def test_at_most_one_orientation_wins(sg):
    g = sg.graph
    seen: set[frozenset[frozenset[str]]] = set()
    for lc in brute_force_l_cuts(sg):
        key = frozenset((lc.cut.low, g.sites - lc.cut.low))
        assert key not in seen
        seen.add(key)
