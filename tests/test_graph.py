from __future__ import annotations

import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isotree import (
    Graph,
    InvalidRegionError,
    JCut,
    ScalarGraph,
    Surfel,
    boundary_surfels,
    build_iso_tree,
    complement,
    components_of,
    immediate_interior,
    inverse_surfels,
    is_j_cut,
)
from isotree.axioms import is_region_connected
from isotree.mono import gen_tri_grid, grid_site_id, seeded_random

from conftest import cycle_graph, mono_scalar_graphs


def path3() -> Graph:
    return Graph("abc", [("a", "b"), ("b", "c")])


def triangle() -> Graph:
    return Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])


class TestConstruction:
    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="self-pair"):
            Graph("ab", [("a", "a")])

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown site"):
            Graph("ab", [("a", "z")])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            Graph([])

    def test_neighbors_of_an_unknown_site_rejected(self):
        with pytest.raises(InvalidRegionError, match=r"^unknown site 'zz'$"):
            path3().neighbors("zz")

    def test_duplicate_pairs_collapse(self):
        g = Graph("ab", [("a", "b"), ("b", "a")])
        assert g.pairs == (("a", "b"),)

    def test_single_site_is_connected(self):
        assert Graph("a").is_connected()


class TestScalarGraphChecks:
    """Missing sites are reported first, then unknown sites, then the reference."""

    def test_missing_sites_come_first(self):
        with pytest.raises(ValueError, match=r"^values missing for sites \['b', 'c'\]$"):
            ScalarGraph(path3(), {"a": 0, "z": 1}, reference="y")

    def test_unknown_sites_come_before_the_reference(self):
        values = {"z": 3, "c": 2, "b": 1, "a": 0, "y": 4}
        with pytest.raises(ValueError, match=r"^values given for unknown sites \['y', 'z'\]$"):
            ScalarGraph(path3(), values, reference="x")

    def test_reference_must_be_a_site(self):
        with pytest.raises(ValueError, match=r"^reference 'z' is not a site$"):
            ScalarGraph(path3(), {"a": 0, "b": 1, "c": 2}, reference="z")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_are_rejected_at_their_site(self, bad):
        with pytest.raises(ValueError, match=rf"^site 'b': value {bad!r} is not finite$"):
            ScalarGraph(path3(), {"a": 0, "b": bad, "c": 1})
        # The first such site, in id order, is the one named.
        with pytest.raises(ValueError, match=rf"^site 'a': value {bad!r} is not finite$"):
            ScalarGraph(path3(), {"c": -bad, "b": 1, "a": bad})

    def test_exact_values_of_any_size_are_finite(self):
        values = {"a": -(10**400), "b": Fraction(1, 3), "c": 10**400}
        sg = ScalarGraph(path3(), values)
        assert sg.values == values
        assert build_iso_tree(sg).zones[1].value == Fraction(1, 3)

    def test_constructor_keeps_only_the_value_tuple(self):
        # The value tuple of 65,536 sites is about 0.5 MB; an id-to-number
        # dict kept on the graph would be about 4 MB more.
        g = gen_tri_grid(256, 256, [0] * (256 * 256)).graph
        values = {p: i % 7 for i, p in enumerate(g.site_list)}
        tracemalloc.start()
        try:
            sg = ScalarGraph(g, values)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sg._value[:3] == (0, 1, 2)
        assert kept < 1e6
        assert "_number" not in vars(g)


class TestDerivedViews:
    """Each view derived on first read is equal in every thread that races to read it."""

    def _race(self, view):
        got, barrier = [None] * 4, threading.Barrier(4)

        def read(k):
            barrier.wait()
            got[k] = view()

        threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got[0] is not None and got.count(got[0]) == 4
        return got[0]

    VIEWS = {
        "_number": lambda g: g._number,
        "sites": lambda g: g.sites,
        "pairs": lambda g: g.pairs,
        "neighbors": lambda g: [g.neighbors(p) for p in g.site_list],
        "cut_masks": lambda g: g._bits.cut_masks,
        "witness": lambda g: g._bits.witness,
    }

    @pytest.mark.parametrize("name", VIEWS)
    def test_graph_views(self, name):
        read = self.VIEWS[name]
        for fresh in (lambda: gen_tri_grid(4, 3, seeded_random(5)).graph, lambda: cycle_graph(6)):
            g = fresh()
            assert self._race(lambda: read(g)) == read(fresh())

    def test_tree_views(self):
        sg = gen_tri_grid(5, 4, seeded_random(7, high=3))
        tree = build_iso_tree(sg)
        assert self._race(lambda: tree.zones) == build_iso_tree(sg).zones
        tree = build_iso_tree(sg)
        edges = self._race(lambda: [(e, e.cut) for e in tree.edges])
        assert edges == [(e, e.cut) for e in build_iso_tree(sg).edges]


class TestSiteNumbers:
    """Sites are numbered in id order, in which "r10c0" comes before "r1c0"."""

    W, H = 11, 12

    @staticmethod
    def grid_pairs(w: int, h: int) -> list[tuple[str, str]]:
        pairs = []
        for r in range(h):
            for c in range(w):
                for dr, dc in ((0, 1), (1, 0), (1, 1)):
                    if r + dr < h and c + dc < w:
                        pairs.append((grid_site_id(r, c), grid_site_id(r + dr, c + dc)))
        return pairs

    # Every border case of the grid's offset fill: one site, one row, one
    # column, all four corners, and more than ten rows or columns.
    SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (11, 12), (12, 11)]

    @pytest.mark.parametrize("w,h", SHAPES, ids=[f"{w}x{h}" for w, h in SHAPES])
    def test_any_listing_order_gives_the_same_graph(self, w, h):
        g = gen_tri_grid(w, h, [0] * (w * h)).graph
        rng = random.Random(12)
        ids = [grid_site_id(r, c) for r in range(h) for c in range(w)]
        for _ in range(5):
            rng.shuffle(ids)
            pairs = [(q, p) if rng.random() < 0.5 else (p, q) for p, q in self.grid_pairs(w, h)]
            rng.shuffle(pairs)
            other = Graph(ids, pairs)
            assert other == g and g == other
            assert hash(other) == hash(g)
            assert other.pairs == g.pairs
        assert g.site_list == tuple(sorted(ids))
        if w > 10:
            assert g.site_list[:3] == ("r0c0", "r0c1", "r0c10")
        if w * h > 1:
            assert g != Graph(g.site_list, self.grid_pairs(w, h)[1:])

    @pytest.mark.parametrize("w,h", SHAPES, ids=[f"{w}x{h}" for w, h in SHAPES])
    def test_grid_values_land_on_their_pixels(self, w, h):
        # gen_tri_grid hands its values over by site number, in id order.
        values = list(range(w * h))
        random.Random(w * 100 + h).shuffle(values)
        sg = gen_tri_grid(w, h, values)
        pixels = [grid_site_id(r, c) for r in range(h) for c in range(w)]
        assert [sg.value_of(p) for p in pixels] == values
        assert sg.values == dict(zip(pixels, values))
        assert tuple(sg.values) == sg.graph.site_list

    @staticmethod
    def sort_numbered_grid(width: int, height: int, values) -> ScalarGraph:
        """The grid as numbered by sorting every pixel's id, kept as the reference."""
        n = width * height
        ids = [grid_site_id(r, c) for r in range(height) for c in range(width)]
        order = sorted(range(n), key=ids.__getitem__)  # the pixel of each site number
        site_ids = tuple(map(ids.__getitem__, order))
        pixel_number = sorted(range(n), key=order.__getitem__)  # the site number of each pixel
        pad = [None] * (width + 2)
        lines = [pad, *([None, *pixel_number[k : k + width], None] for k in range(0, n, width)), pad]
        by_pixel: list = []
        for r, (up, mid, down) in enumerate(zip(lines, lines[1:], lines[2:])):
            near = list(zip(up, up[1:], mid, mid[2:], down[1:], down[2:]))
            for c in range(width) if r in (0, height - 1) else (0, width - 1):
                near[c] = [q for q in near[c] if q is not None]
            by_pixel += near
        g = Graph._from_rows(site_ids, list(map(by_pixel.__getitem__, order)))
        return ScalarGraph._by_number(g, tuple(map(values.__getitem__, order)))

    # Widths and heights of one to four digits: column and row numbers reach three digits.
    NUMBERED = [
        (1, 1), (1, 9), (9, 1), (11, 12), (12, 11), (101, 3), (3, 101), (120, 120), (1000, 2)
    ]

    @pytest.mark.parametrize("w,h", NUMBERED, ids=[f"{w}x{h}" for w, h in NUMBERED])
    def test_per_axis_numbering_equals_the_sorted_one(self, w, h):
        values = list(range(w * h))
        random.Random(w * 10000 + h).shuffle(values)
        sg, want = gen_tri_grid(w, h, values), self.sort_numbered_grid(w, h, values)
        assert sg.graph._ids == want.graph._ids
        assert sg.graph._offsets == want.graph._offsets
        assert sg.graph._targets == want.graph._targets
        assert sg._value == want._value

    def test_pairs_and_neighbors(self):
        g = gen_tri_grid(self.W, self.H, [0] * (self.W * self.H)).graph
        pairs = self.grid_pairs(self.W, self.H)
        assert g.pairs == tuple(sorted(tuple(sorted(pair)) for pair in pairs))
        for p in g.site_list:
            near = sorted(q for pair in pairs if p in pair for q in pair if q != p)
            assert g.neighbors(p) == tuple(near)
        assert g.neighbors("r1c1") == ("r0c0", "r0c1", "r1c0", "r1c2", "r2c1", "r2c2")
        assert g.neighbors("r10c10") == ("r10c9", "r11c10", "r9c10", "r9c9")


class TestComponents:
    def test_non_adjacent_pair_splits(self):
        assert components_of(path3(), {"a", "c"}) == (frozenset("a"), frozenset("c"))

    def test_empty_region(self):
        assert components_of(path3(), set()) == ()

    def test_whole_connected_graph(self):
        assert components_of(path3(), set("abc")) == (frozenset("abc"),)

    def test_unknown_site_raises(self):
        with pytest.raises(InvalidRegionError):
            components_of(path3(), {"z"})


class TestImmediateInterior:
    def test_path_prefix(self):
        assert immediate_interior(path3(), {"a", "b"}) == frozenset("b")

    def test_full_region_has_empty_interior(self):
        assert immediate_interior(path3(), set("abc")) == frozenset()

    def test_empty_region(self):
        assert immediate_interior(path3(), set()) == frozenset()


class TestIsJCut:
    def test_singleton_on_path(self):
        assert is_j_cut(path3(), {"a"})

    def test_disconnected_side(self):
        assert not is_j_cut(path3(), {"a", "c"})

    def test_full_set_is_not_a_cut(self):
        assert not is_j_cut(path3(), set("abc"))

    def test_empty_set_is_not_a_cut(self):
        assert not is_j_cut(path3(), set())


class TestJCutValue:
    """A J-cut is an immutable value named by its low side."""

    def test_repr_lists_the_sites_sorted(self):
        assert repr(JCut(frozenset("cab"))) == "JCut({a,b,c})"
        assert JCut(frozenset("ab")).low == frozenset("ab")

    def test_equal_cuts_hash_alike(self):
        a, b = JCut(frozenset("ab")), JCut(frozenset(["b", "a"]))
        assert a == b and hash(a) == hash(b) == hash((frozenset("ab"),))
        assert a != JCut(frozenset("a"))

    @pytest.mark.parametrize("name", ["low", "other"])
    def test_attributes_cannot_be_set(self, name):
        with pytest.raises(AttributeError):
            setattr(JCut(frozenset("a")), name, frozenset("b"))


class TestBoundarySurfels:
    def test_path_singleton(self):
        assert boundary_surfels(path3(), JCut(frozenset("a"))) == {Surfel("a", "b")}

    def test_path_prefix(self):
        assert boundary_surfels(path3(), JCut(frozenset("ab"))) == {Surfel("b", "c")}

    def test_triangle_singleton(self):
        got = boundary_surfels(triangle(), JCut(frozenset("a")))
        assert got == {Surfel("a", "b"), Surfel("a", "c")}


class TestInverseSurfels:
    def test_single(self):
        assert inverse_surfels({Surfel("a", "b")}) == {Surfel("b", "a")}

    def test_empty(self):
        assert inverse_surfels(set()) == frozenset()

    def test_two(self):
        got = inverse_surfels({Surfel("a", "b"), Surfel("b", "c")})
        assert got == {Surfel("b", "a"), Surfel("c", "b")}

    def test_involutive(self):
        s = {Surfel("a", "b"), Surfel("c", "b")}
        assert inverse_surfels(inverse_surfels(s)) == s

    def test_surfel_inverse_roundtrip(self):
        assert Surfel("p", "q").inverse().inverse() == Surfel("p", "q")


@given(sg=mono_scalar_graphs, data=st.data())
def test_region_properties(sg, data):
    g = sg.graph
    region = frozenset(data.draw(st.sets(st.sampled_from(sorted(g.sites)))))
    ii = immediate_interior(g, region)
    assert ii <= region
    assert not ii & immediate_interior(g, complement(g, region))
    comps = components_of(g, region)
    union = frozenset().union(*comps) if comps else frozenset()
    assert union == region
    for i, c in enumerate(comps):
        for d in comps[i + 1 :]:
            assert not c & d
    assert is_j_cut(g, region) == is_j_cut(g, complement(g, region))


@given(sg=mono_scalar_graphs, data=st.data())
def test_boundary_flip_is_inverse(sg, data):
    g = sg.graph
    region = frozenset(data.draw(st.sets(st.sampled_from(sorted(g.sites)))))
    cut = JCut(region)
    assert boundary_surfels(g, cut.flipped(g)) == inverse_surfels(boundary_surfels(g, cut))


@st.composite
def graphs_and_regions(draw):
    """A graph of 1-9 sites, connected or not, and any region of it, the empty one included."""
    sites = "abcdefghi"[: draw(st.integers(1, 9))]
    every_pair = [(p, q) for i, p in enumerate(sites) for q in sites[i + 1 :]]
    pairs = draw(st.lists(st.sampled_from(every_pair), unique=True)) if every_pair else []
    region = draw(st.sets(st.sampled_from(sites)))
    return Graph(sites, pairs), region


def _connected_by_search(g: Graph, region: set) -> bool:
    """Connectivity of ``region`` by a search over the pair list alone."""
    todo = set(region)
    frontier = [todo.pop()] if todo else []
    while frontier:
        p = frontier.pop()
        found = {q for pair in g.pairs if p in pair for q in pair if q in todo}
        todo -= found
        frontier += found
    return not todo


@given(graph_and_region=graphs_and_regions())
def test_region_connected_iff_at_most_one_component(graph_and_region):
    g, region = graph_and_region
    assert is_region_connected(g, region) == (len(components_of(g, region)) <= 1)
    assert is_region_connected(g, region) == _connected_by_search(g, region)
