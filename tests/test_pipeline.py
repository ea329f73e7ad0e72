from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotree import (
    Graph,
    InternalInconsistencyError,
    PreconditionError,
    ScalarGraph,
    build_iso_tree,
    check_iso_tree,
    ct_to_iso_tree,
    gen_path,
    gen_tri_grid,
    is_j_cut,
    is_l_cut,
    merge_to_augmented_ct,
    perturb_rank,
    ranks,
    reconstruct_rt,
    reduce_by_f,
    sublevel_merge_tree,
    superlevel_merge_tree,
)
from isotree.io import graph_to_json, load_graph_json, load_pgm_tri_grid, tree_to_json
from isotree.mono import grid_site_id
from isotree.oracle import brute_force_iso_tree
from isotree.pipeline import _tree
from isotree.stages import AugmentedContourTree, MergeTree

from conftest import mono_scalar_graphs


def ranks_by_id(sg: ScalarGraph) -> dict:
    return dict(zip(sg.graph.site_list, ranks(perturb_rank(sg))))


def parents_by_id(mt: MergeTree) -> dict:
    """A merge tree's parent of each site, by id; None for the root."""
    name = (*mt.sites, None)
    return {p: name[q] for p, q in zip(mt.sites, mt.parent)}


def merge_tree(flavor: str, parents: dict) -> MergeTree:
    """The merge tree of ``parents``, a parent id (None for the root) per site id."""
    ids = tuple(sorted(parents))
    number = {p: i for i, p in enumerate((*ids, None))}
    return MergeTree(flavor, [number[parents[p]] for p in ids], ids)


def edges_by_id(sg: ScalarGraph, ct: AugmentedContourTree) -> tuple:
    ids = sg.graph.site_list
    return tuple((ids[lo], ids[hi]) for lo, hi in ct.edges)


class TestPerturbRank:
    def test_plateau_breaks_ties_by_site(self, plateau):
        assert ranks_by_id(plateau) == {"a": 0, "b": 1, "c": 2}

    def test_injective_keeps_relative_order(self, peak):
        assert ranks_by_id(peak) == {"a": 1, "b": 2, "c": 0}

    def test_constant(self):
        sg = gen_path(3, [5, 5, 5])
        assert ranks_by_id(sg) == {"a": 0, "b": 1, "c": 2}
        assert [sg.graph.site_list[x] for x in perturb_rank(sg)] == ["a", "b", "c"]


class TestSweeps:
    def test_sublevel_ramp(self, ramp3):
        mt = sublevel_merge_tree(ramp3, perturb_rank(ramp3))
        assert parents_by_id(mt) == {"a": "b", "b": "c", "c": None}

    def test_sublevel_peak(self, peak):
        mt = sublevel_merge_tree(peak, perturb_rank(peak))
        assert parents_by_id(mt) == {"a": "b", "c": "b", "b": None}

    def test_superlevel_ramp(self, ramp3):
        mt = superlevel_merge_tree(ramp3, perturb_rank(ramp3))
        assert parents_by_id(mt) == {"c": "b", "b": "a", "a": None}

    def test_superlevel_peak(self, peak):
        mt = superlevel_merge_tree(peak, perturb_rank(peak))
        assert parents_by_id(mt) == {"b": "a", "a": "c", "c": None}

    def test_single_site(self):
        sg = gen_path(1, [0])
        assert parents_by_id(sublevel_merge_tree(sg, perturb_rank(sg))) == {"a": None}

    def test_disconnected_rejected(self):
        g = Graph("ab")
        sg = ScalarGraph(g, {"a": 0, "b": 1})
        with pytest.raises(PreconditionError):
            sublevel_merge_tree(sg, perturb_rank(sg))

    def test_disconnected_rejected_sweeping_down(self):
        sg = ScalarGraph(Graph("abc", [("a", "b")]), {"a": 0, "b": 1, "c": 2})
        with pytest.raises(PreconditionError, match="require a connected graph"):
            superlevel_merge_tree(sg, perturb_rank(sg))

    @settings(max_examples=50, deadline=None)
    @given(sg=mono_scalar_graphs)
    def test_parent_rank_direction(self, sg):
        rp = perturb_rank(sg)
        sub = sublevel_merge_tree(sg, rp)
        sup = superlevel_merge_tree(sg, rp)
        rank, n = ranks(rp), len(sg.graph)
        for p, q in enumerate(sub.parent):
            assert q == n or rank[q] > rank[p]
        for p, q in enumerate(sup.parent):
            assert q == n or rank[q] < rank[p]
        # exactly one root each
        assert sub.parent.count(n) == 1
        assert sup.parent.count(n) == 1


class TestMerge:
    def test_peak(self, peak):
        rp = perturb_rank(peak)
        ct = merge_to_augmented_ct(sublevel_merge_tree(peak, rp), superlevel_merge_tree(peak, rp))
        assert set(edges_by_id(peak, ct)) == {("a", "b"), ("c", "b")}

    def test_ramp_chain(self, ramp3):
        rp = perturb_rank(ramp3)
        ct = merge_to_augmented_ct(
            sublevel_merge_tree(ramp3, rp), superlevel_merge_tree(ramp3, rp)
        )
        assert set(edges_by_id(ramp3, ct)) == {("a", "b"), ("b", "c")}

    def test_single_site(self):
        sg = gen_path(1, [0])
        rp = perturb_rank(sg)
        ct = merge_to_augmented_ct(sublevel_merge_tree(sg, rp), superlevel_merge_tree(sg, rp))
        assert ct.edges == ()

    def test_mismatched_site_sets_rejected(self):
        jt = merge_tree("sublevel", {"a": None})
        st = merge_tree("superlevel", {"b": None})
        with pytest.raises(PreconditionError):
            merge_to_augmented_ct(jt, st)

    def test_malformed_trees_stall(self):
        jt = merge_tree("sublevel", {"a": "b", "b": None})
        st = merge_tree("superlevel", {"a": "b", "b": None})
        with pytest.raises(InternalInconsistencyError):
            merge_to_augmented_ct(jt, st)

    def test_cycle_through_pruned_sites(self):
        # Once every other site on the sublevel cycle f-b-c-e-b is pruned,
        # a lookup that skips pruned sites would circle forever.
        jt = merge_tree("sublevel", {"a": "b", "b": "c", "c": "e", "d": "a", "e": "b", "f": "b"})
        st = merge_tree("superlevel", {"a": "f", "b": None, "c": "e", "d": "b", "e": "d", "f": "a"})
        with pytest.raises(InternalInconsistencyError, match="merge trees hold a cycle through 'f'"):
            merge_to_augmented_ct(jt, st)

    def test_parent_outside_the_sites(self):
        # Two sites: parents 0 and 1 are sites, 2 marks the root.
        st = MergeTree("superlevel", [2, 0], ("a", "b"))
        for q in (3, -1):
            jt = MergeTree("sublevel", [q, 2], ("a", "b"))
            with pytest.raises(
                InternalInconsistencyError, match=f"sublevel parent {q} is not a site number"
            ):
                merge_to_augmented_ct(jt, st)

    def test_merge_leaves_its_inputs_unchanged(self, peak):
        rp = perturb_rank(peak)
        jt, st = sublevel_merge_tree(peak, rp), superlevel_merge_tree(peak, rp)
        before = list(jt.parent), list(st.parent)
        merge_to_augmented_ct(jt, st)
        assert (jt.parent, st.parent) == before

    def test_random_parent_maps_give_a_tree_or_an_error(self):
        rng = random.Random(19)
        for _ in range(3000):
            sites = "abcdef"[: rng.randint(2, 6)]
            jt, st = ({p: rng.choice([*sites, None]) for p in sites} for _ in range(2))
            try:
                ct = merge_to_augmented_ct(merge_tree("sublevel", jt), merge_tree("superlevel", st))
            except InternalInconsistencyError:
                continue
            assert len(ct.edges) == len(sites) - 1, (jt, st)


# Cycles are not mono-connected, and the pipeline does not reject them
# yet: it returns edges that are not level cuts, or its merge stalls.
# Pin each outcome so that it changes only on purpose.  Sites c0, c1, ...
# take the values in order around the cycle.
STALLED = "leaf-pruning merge stalled; malformed merge trees"
NON_MONO_CYCLES = [
    ([6, 9, 0, 9], [("c0", "c1", 3), ("c0", "c3", 3), ("c2", "c1", 9)]),
    ([0, 5, 3, 5, 3], STALLED),
    (
        [5, 3, 2, 8, 7, 8],
        [("c0", "c3", 3), ("c1", "c0", 2), ("c2", "c1", 1), ("c4", "c3", 1), ("c4", "c5", 1)],
    ),
    ([2, 9, 8, 2, 7, 9, 8], STALLED),
    (
        [6, 2, 1, 3, 9, 5, 0, 3],
        [
            ("c1", "c0", 4),
            ("c2", "c1", 1),
            ("c2", "c3", 2),
            ("c3", "c5", 2),
            ("c5", "c4", 4),
            ("c6", "c7", 3),
            ("c7", "c0", 3),
        ],
    ),
    ([0, 2, 7, 7, 2, 8, 3, 2], STALLED),
]


@pytest.mark.parametrize(
    "values, expected", NON_MONO_CYCLES, ids=["-".join(map(str, v)) for v, _ in NON_MONO_CYCLES]
)
def test_non_mono_cycles_keep_their_outcome(values, expected):
    n = len(values)
    ids = [f"c{i}" for i in range(n)]
    g = Graph(ids, [(ids[i], ids[(i + 1) % n]) for i in range(n)])
    sg = ScalarGraph(g, dict(zip(ids, values)))
    rp = perturb_rank(sg)

    def merge():
        return merge_to_augmented_ct(sublevel_merge_tree(sg, rp), superlevel_merge_tree(sg, rp))

    if isinstance(expected, str):
        for call in (merge, lambda: build_iso_tree(sg)):
            with pytest.raises(InternalInconsistencyError) as info:
                call()
            assert str(info.value) == expected
    else:
        assert edges_by_id(sg, merge()) == tuple((lo, hi) for lo, hi, _ in expected)
        assert [(e.low, e.up, e.gap) for e in build_iso_tree(sg).edges] == expected


def _staged(sg: ScalarGraph, reduce: bool):
    """``build_iso_tree`` composed from the public stage functions."""
    rp = perturb_rank(sg)
    ct = merge_to_augmented_ct(sublevel_merge_tree(sg, rp), superlevel_merge_tree(sg, rp))
    ranked = ct_to_iso_tree(sg, rp, ct)
    return reduce_by_f(sg, ranked) if reduce else ranked


def _outcome(build, sg: ScalarGraph, reduce: bool):
    try:
        return build(sg, reduce)
    except Exception as exc:  # the failure is the outcome compared
        return type(exc), str(exc)


def _random_graph(rng: random.Random) -> ScalarGraph:
    """A random connected graph (a tree plus a few chords), not always mono-connected.

    Ids of one and two digits make id order differ from creation order.
    """
    n = rng.randint(2, 14)
    ids = [f"s{i}" for i in rng.sample(range(40), n)]
    pairs = {tuple(sorted((ids[rng.randrange(i)], ids[i]))) for i in range(1, n)}
    for _ in range(rng.randint(0, 3)):
        p, q = rng.sample(ids, 2)
        pairs.add(tuple(sorted((p, q))))
    return ScalarGraph(Graph(ids, pairs), {p: rng.randint(0, 4) for p in ids})


def _stage_inputs():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 30)
        yield gen_path(n, [rng.randint(0, 3) for _ in range(n)])
    for high in (3, None):  # tie-heavy, then near-distinct values
        for _ in range(30):
            w, h = rng.randint(1, 12), rng.randint(1, 12)
            top = high if high is not None else 10 * w * h
            yield gen_tri_grid(w, h, [rng.randint(0, top) for _ in range(w * h)])
    for _ in range(80):
        yield _random_graph(rng)


@pytest.mark.parametrize("reduce", [False, True])
def test_stage_functions_equal_the_build(reduce):
    for sg in _stage_inputs():
        assert _outcome(_staged, sg, reduce) == _outcome(build_iso_tree, sg, reduce), sg.values


@pytest.mark.parametrize("reduce", [False, True])
def test_stage_functions_fail_like_the_build(reduce):
    graphs = [ScalarGraph(Graph("abc", [("a", "b")]), {"a": 0, "b": 1, "c": 2})]
    for values, _ in NON_MONO_CYCLES:
        ids = [f"c{i}" for i in range(len(values))]
        g = Graph(ids, [(ids[i], ids[(i + 1) % len(ids)]) for i in range(len(ids))])
        graphs.append(ScalarGraph(g, dict(zip(ids, values))))
    raised = 0
    for sg in graphs:
        staged = _outcome(_staged, sg, reduce)
        assert staged == _outcome(build_iso_tree, sg, reduce)
        raised += isinstance(staged, tuple)
    assert raised == 4  # the disconnected graph and the three stalled cycles


class TestCtToIsoTree:
    def test_peak_rank_tree(self, peak):
        rp = perturb_rank(peak)
        ct = merge_to_augmented_ct(sublevel_merge_tree(peak, rp), superlevel_merge_tree(peak, rp))
        tree = ct_to_iso_tree(peak, rp, ct)
        assert [(sorted(z.sites), z.value) for z in tree.zones] == [
            (["a"], 1),
            (["b"], 2),
            (["c"], 0),
        ]
        assert {(e.low, e.up, e.gap, tuple(sorted(e.cut.low))) for e in tree.edges} == {
            ("a", "b", 1, ("a",)),
            ("c", "b", 2, ("c",)),
        }

    def test_plateau_rank_chain(self, plateau):
        tree = build_iso_tree(plateau, reduce=False)
        assert [(e.low, e.up, e.gap) for e in tree.edges] == [("a", "b", 1), ("b", "c", 1)]

    def test_single_site(self):
        tree = build_iso_tree(gen_path(1, [9]), reduce=False)
        assert len(tree.zones) == 1

    def test_zones_are_singletons(self, disconnected_zone_grid):
        tree = build_iso_tree(disconnected_zone_grid, reduce=False)
        assert all(len(z.sites) == 1 for z in tree.zones)


class TestReduce:
    def test_plateau_contracts_the_tied_edge(self, plateau):
        tree_h = build_iso_tree(plateau, reduce=False)
        tree = reduce_by_f(plateau, tree_h)
        assert [(sorted(z.sites), z.value) for z in tree.zones] == [(["a", "b"], 0), (["c"], 1)]
        assert [(e.low, e.up, e.gap) for e in tree.edges] == [("a", "c", 1)]

    def test_injective_only_rescales_gaps(self, peak):
        tree_h = build_iso_tree(peak, reduce=False)
        tree = reduce_by_f(peak, tree_h)
        assert {frozenset(z.sites) for z in tree.zones} == {
            frozenset(z.sites) for z in tree_h.zones
        }
        assert {e.cut for e in tree.edges} == {e.cut for e in tree_h.edges}
        assert {(e.low, e.up, e.gap) for e in tree.edges} == {("a", "b", 2), ("c", "b", 3)}

    def test_constant_collapses_to_one_zone(self):
        sg = gen_path(3, [5, 5, 5])
        tree = build_iso_tree(sg)
        assert [(sorted(z.sites), z.value) for z in tree.zones] == [(["a", "b", "c"], 5)]
        assert tree.edges == ()

    def test_reduced_tree_is_rejected(self, plateau):
        with pytest.raises(InternalInconsistencyError, match="1 edges over 3 nodes"):
            reduce_by_f(plateau, build_iso_tree(plateau))


class TestContractTies:
    """The contraction checks the contour tree it is given, edge by edge."""

    @staticmethod
    def contract(values, edges):
        """``ct_to_iso_tree`` of a path, given contour edges by site number."""
        sg = gen_path(len(values), values)
        ct = AugmentedContourTree(range(len(values)), tuple(edges))
        return ct_to_iso_tree(sg, perturb_rank(sg), ct)

    def test_edge_pointing_down_in_rank(self):
        with pytest.raises(InternalInconsistencyError, match="'b'->'a' points down in rank"):
            self.contract([0, 1, 2], [(1, 0), (1, 2)])
        # reduce_by_f checks the ranked tree it is given, by id.
        with pytest.raises(InternalInconsistencyError, match="'b'->'a' points down in rank"):
            reduce_by_f(gen_path(3, [0, 1, 2]), build_iso_tree(gen_path(3, [2, 1, 0]), reduce=False))

    def test_cycle_of_equal_valued_edges(self):
        # Ranks never tie, so only the input values reach this check.
        sg = gen_path(4, [0, 0, 0, 1])
        with pytest.raises(InternalInconsistencyError, match="tie edge 'a'->'c' closes a cycle"):
            _tree(sg, [(0, 1), (1, 2), (0, 2)], [0, 0, 0, 1])

    def test_edge_naming_an_unknown_site(self):
        for q in (7, -1):
            with pytest.raises(InternalInconsistencyError, match=f"0->{q} names an unknown site"):
                self.contract([0, 1, 2], [(0, 1), (0, q)])
        other = ScalarGraph(Graph("abz", [("a", "b"), ("a", "z")]), {"a": 0, "b": 1, "z": 2})
        with pytest.raises(InternalInconsistencyError, match="'a'->'z' names an unknown site"):
            reduce_by_f(gen_path(3, [0, 1, 2]), build_iso_tree(other, reduce=False))

    def test_edge_count_must_make_a_tree(self):
        with pytest.raises(InternalInconsistencyError, match="1 edges over 3 nodes"):
            self.contract([0, 1, 2], [(0, 1)])

    def test_a_failing_tree_check_is_an_internal_error(self):
        # -2.02 - -8.08 is 6.0600000000000005, and -8.08 + that is not -2.02.
        with pytest.raises(InternalInconsistencyError) as info:
            build_iso_tree(gen_path(2, [-8.08, -2.02]))
        assert str(info.value) == (
            "edge 'a'->'b': gap 6.0600000000000005 does not bridge zone values -8.08 and -2.02"
        )
        assert info.value.__cause__ is None and info.value.__suppress_context__


class TestPipelineAgainstOracle:
    def test_fixtures(self, peak, ramp3, plateau, disconnected_zone_grid):
        for sg in (peak, ramp3, plateau, disconnected_zone_grid):
            assert build_iso_tree(sg) == brute_force_iso_tree(sg)

    @settings(max_examples=80, deadline=None)
    @given(sg=mono_scalar_graphs)
    def test_random_graphs(self, sg):
        fast = build_iso_tree(sg)
        slow = brute_force_iso_tree(sg)
        assert fast == slow
        check_iso_tree(sg, fast)
        assert reconstruct_rt(sg.graph, fast).values == sg.values

    @settings(max_examples=40, deadline=None)
    @given(sg=mono_scalar_graphs)
    def test_rank_tree_matches_oracle_of_ranked_graph(self, sg):
        rp = perturb_rank(sg)
        ranked = ScalarGraph(
            sg.graph, dict(zip(sg.graph.site_list, ranks(rp))), reference=sg.reference
        )
        assert build_iso_tree(sg, reduce=False) == brute_force_iso_tree(ranked)

    SHAPES = [(3, 4), (2, 7), (8, 8), (12, 9)]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("w,h", SHAPES, ids=[f"{w}x{h}" for w, h in SHAPES])
    def test_fraction_values_stay_exact(self, w, h, seed):
        # The value store keeps each value as given, so decimal steps held
        # as fractions come back exactly through the gap sums.
        rng = random.Random(seed)
        sg = gen_tri_grid(w, h, [Fraction(rng.randint(-1000, 1000), 100) for _ in range(w * h)])
        tree = build_iso_tree(sg)
        recovered = reconstruct_rt(sg.graph, tree).values
        assert recovered == sg.values
        assert all(type(v) is Fraction for v in recovered.values())
        assert all(type(z.value) is Fraction for z in tree.zones)
        if w * h <= 14:
            assert tree == brute_force_iso_tree(sg)


class TestTiesReduction:
    @settings(max_examples=40, deadline=None)
    @given(sg=mono_scalar_graphs)
    def test_reduced_cuts_are_a_subset_of_rank_cuts(self, sg):
        tree_h = build_iso_tree(sg, reduce=False)
        tree_f = reduce_by_f(sg, tree_h)
        assert build_iso_tree(sg) == tree_f
        rank_cuts = {e.cut for e in tree_h.edges}
        kept_cuts = {e.cut for e in tree_f.edges}
        assert kept_cuts <= rank_cuts
        # dropped edges are exactly the equal-value ones
        dropped = rank_cuts - kept_cuts
        tied = {
            e.cut
            for e in tree_h.edges
            if sg.value_of(e.low) == sg.value_of(e.up)
        }
        assert dropped == tied


@st.composite
def large_tie_heavy_grids(draw):
    """Tri-grids of up to 40x40 sites drawing from 2-8 distinct values."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    levels = draw(st.integers(2, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return gen_tri_grid(w, h, [rng.randrange(levels) for _ in range(w * h)]), rng


def tree_shape(tree, site=lambda p: p):
    """Zones as site sets with values, and edges between those sets with gaps."""
    zone = {rep: (frozenset(map(site, sites)), value) for rep, sites, value in tree.zone_rows()}
    edges = {(zone[lo][0], zone[up][0], gap) for lo, up, gap in tree.edge_rows()}
    return set(zone.values()), edges, tree.reference_value


def grid_values(sg):
    """Width, height and row-major values of a ``gen_tri_grid`` graph."""
    h = len({p[: p.index("c")] for p in sg.graph.sites})
    w = len(sg.graph) // h
    return w, h, [sg.value_of(grid_site_id(r, c)) for r in range(h) for c in range(w)]


class TestMetamorphic:
    """Relations the iso-tree keeps beyond the oracle's size cap."""

    @settings(max_examples=30, deadline=None)
    @given(case=large_tie_heavy_grids())
    def test_negation_and_relabelling(self, case):
        sg, rng = case
        zones, edges, ref_value = tree_shape(build_iso_tree(sg))

        negated = ScalarGraph(sg.graph, {p: -v for p, v in sg.values.items()})
        n_zones, n_edges, n_ref = tree_shape(build_iso_tree(negated))
        assert n_zones == {(sites, -v) for sites, v in zones}
        assert n_edges == {(up, lo, gap) for lo, up, gap in edges}
        assert n_ref == -ref_value

        sites = sorted(sg.graph.sites)
        shuffled = sites[:]
        rng.shuffle(shuffled)
        to = dict(zip(sites, shuffled))
        g = Graph(shuffled, [(to[p], to[q]) for p, q in sg.graph.pairs])
        relabelled = ScalarGraph(
            g, {to[p]: v for p, v in sg.values.items()}, reference=to[sg.reference_site()]
        )
        back = dict(zip(shuffled, sites))
        assert tree_shape(build_iso_tree(relabelled), back.__getitem__) == (zones, edges, ref_value)

    @settings(max_examples=20, deadline=None)
    @given(case=large_tie_heavy_grids())
    def test_increasing_map_and_grid_automorphisms(self, case):
        sg, rng = case
        zones, edges, ref_value = tree_shape(build_iso_tree(sg))

        phi, level = {}, rng.randint(-100, 100)
        for v in sorted(set(sg.values.values())):
            level += rng.randint(1, 1000)
            phi[v] = level
        mapped = ScalarGraph(sg.graph, {p: phi[v] for p, v in sg.values.items()})
        value = dict(zones)
        assert tree_shape(build_iso_tree(mapped)) == (
            {(sites, phi[v]) for sites, v in zones},
            {(lo, up, phi[value[up]] - phi[value[lo]]) for lo, up, _ in edges},
            phi[ref_value],
        )

        # The 180-degree rotation reverses the row-major values.
        w, h, values = grid_values(sg)
        turn = {
            grid_site_id(r, c): grid_site_id(h - 1 - r, w - 1 - c) for r in range(h) for c in range(w)
        }
        turned = gen_tri_grid(w, h, values[::-1])
        turned = ScalarGraph(turned.graph, turned.values, reference=turn[sg.reference_site()])
        assert tree_shape(build_iso_tree(turned), turn.__getitem__) == (zones, edges, ref_value)

        # The transpose of the largest top-left square block.
        s = min(w, h)
        flip = {grid_site_id(r, c): grid_site_id(c, r) for r in range(s) for c in range(s)}
        square = gen_tri_grid(s, s, [values[r * w + c] for r in range(s) for c in range(s)])
        transposed = gen_tri_grid(s, s, [values[c * w + r] for r in range(s) for c in range(s)])
        assert tree_shape(build_iso_tree(transposed), flip.__getitem__) == tree_shape(
            build_iso_tree(square)
        )


def smooth_image(side, seed):
    """Row-major grey levels 0-15 of smooth hills with seeded phases.

    The formula is the CI workflow's 512x512 hills at a quarter of the
    scale, so a 128x128 image holds about as many hills and plateaus.
    """
    rng = random.Random(seed)
    pr, pc, pd = (rng.uniform(0, 2 * math.pi) for _ in range(3))

    def level(r, c):
        v = math.sin(r / 10 + pr) * math.cos(c / 14 + pc) + 0.5 * math.sin((r + c) / 22 + pd)
        return int((v + 1.5) / 3 * 15)

    return [level(r, c) for r in range(side) for c in range(side)]


SMOOTH_SIDE = 128


@pytest.fixture(scope="module", params=[1, 2])
def smooth(request):
    """A seeded 128x128 smooth image's values and the shape of its iso-tree."""
    values = smooth_image(SMOOTH_SIDE, request.param)
    return values, tree_shape(build_iso_tree(gen_tri_grid(SMOOTH_SIDE, SMOOTH_SIDE, values)))


class TestMetamorphicSmoothImages:
    """``TestMetamorphic``'s relations on smooth 128x128 images, far beyond the oracle cap."""

    def test_negation(self, smooth):
        values, (zones, edges, ref_value) = smooth
        negated = gen_tri_grid(SMOOTH_SIDE, SMOOTH_SIDE, [-v for v in values])
        assert tree_shape(build_iso_tree(negated)) == (
            {(sites, -v) for sites, v in zones},
            {(up, lo, gap) for lo, up, gap in edges},
            -ref_value,
        )

    def test_increasing_map(self, smooth):
        values, (zones, edges, ref_value) = smooth
        mapped = gen_tri_grid(SMOOTH_SIDE, SMOOTH_SIDE, [3**v for v in values])
        value = dict(zones)
        assert tree_shape(build_iso_tree(mapped)) == (
            {(sites, 3**v) for sites, v in zones},
            {(lo, up, 3 ** value[up] - 3 ** value[lo]) for lo, up, _ in edges},
            3**ref_value,
        )

    def test_rotation_by_180_degrees(self, smooth):
        values, shape = smooth
        s = SMOOTH_SIDE
        turn = {
            grid_site_id(r, c): grid_site_id(s - 1 - r, s - 1 - c) for r in range(s) for c in range(s)
        }
        turned = gen_tri_grid(s, s, values[::-1])
        turned = ScalarGraph(turned.graph, turned.values, reference=turn["r0c0"])
        assert tree_shape(build_iso_tree(turned), turn.__getitem__) == shape

    def test_transpose(self, smooth):
        values, shape = smooth
        s = SMOOTH_SIDE
        flip = {grid_site_id(r, c): grid_site_id(c, r) for r in range(s) for c in range(s)}
        transposed = gen_tri_grid(s, s, [values[c * s + r] for r in range(s) for c in range(s)])
        assert tree_shape(build_iso_tree(transposed), flip.__getitem__) == shape

    def test_relabelling_against_the_pixel_order(self, smooth):
        # The new ids sort in reverse pixel order, so site numbers run
        # against the grid, and the graph is built from its pairs.
        values, shape = smooth
        s = SMOOTH_SIDE
        pixels = [grid_site_id(r, c) for r in range(s) for c in range(s)]
        renamed = [f"p{s * s - 1 - k:05d}" for k in range(s * s)]
        to = dict(zip(pixels, renamed))
        sg = gen_tri_grid(s, s, values)
        g = Graph(renamed, [(to[p], to[q]) for p, q in sg.graph.pairs])
        relabelled = ScalarGraph(g, dict(zip(renamed, values)), reference=to[sg.reference_site()])
        back = dict(zip(renamed, pixels))
        assert tree_shape(build_iso_tree(relabelled), back.__getitem__) == shape


class TestRankedTreeAtScale:
    """Beyond the oracle cap, the ranked tree's edges are still the literal L-cuts."""

    @pytest.mark.parametrize("side, seed", [(16, 3), (24, 11)])
    def test_every_edge_is_a_literal_l_cut_of_the_ranks(self, side, seed):
        rng = random.Random(seed)
        sg = gen_tri_grid(side, side, [rng.randint(0, 3) for _ in range(side * side)])
        g = sg.graph
        ranked = ScalarGraph(g, ranks_by_id(sg))
        tree = build_iso_tree(sg, reduce=False)
        assert all(len(z.sites) == 1 for z in tree.zones)
        assert len(tree.edges) == len(g) - 1
        for e in tree.edges:
            assert is_j_cut(g, e.cut.low), e
            assert is_l_cut(ranked, e.cut), e


class TestMemory:
    def test_distinct_valued_grid_stores_no_cuts(self):
        # Every ranked edge's cut is a different site set; keeping them
        # all would take over a hundred megabytes at this size.
        values = list(range(48 * 48))
        random.Random(5).shuffle(values)
        sg = gen_tri_grid(48, 48, values)
        tracemalloc.start()
        try:
            tree = build_iso_tree(sg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tree.zones) == 48 * 48
        assert peak < 40e6

    def test_grid_keeps_one_value_store(self):
        # One value tuple by site number, no value dict and no id-to-number
        # dict: 6.8 MB at 256x256 (Python 3.11), 12.2 MB with the dicts.
        values = [v % 7 for v in range(256 * 256)]
        tracemalloc.start()
        try:
            sg = gen_tri_grid(256, 256, values)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(sg.graph) == 256 * 256
        assert kept < 9e6

    def test_builds_derive_no_id_to_number_dict(self):
        pgm = b"P5\n7 6\n255\n" + bytes(v * 37 % 5 * 60 for v in range(7 * 6))
        doc = graph_to_json(load_pgm_tri_grid(pgm))
        for sg in (load_pgm_tri_grid(pgm), load_graph_json(doc)):
            for reduce in (True, False):
                tree_to_json(build_iso_tree(sg, reduce=reduce))
            assert "_number" not in vars(sg.graph)
        assert sg.value_of("r1c0") == sg.values["r1c0"]  # reading by id derives the dict
        assert "_number" in vars(sg.graph)

    def test_tree_shares_the_graphs_id_tuple(self):
        sg = gen_tri_grid(5, 4, [v % 3 for v in range(20)])
        assert build_iso_tree(sg)._ids is sg.graph.site_list
        assert build_iso_tree(sg, reduce=False)._ids is sg.graph.site_list
