"""The bit view's connectivity table and bulk J-cut scan, pinned to the definitions.

Every reference here is definition-literal: it names subsets by sites
and asks only ``is_region_connected`` and ``immediate_interior``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import inf

import pytest

from isotree import Graph, JCut, constant, gen_path, gen_tri_grid, is_mono_connected
from isotree._bitgraph import _enumerate_cut_masks, _fold
from isotree.axioms import immediate_interior, is_region_connected
from isotree.mono import MonoWitness, path_site_ids

from conftest import cycle_graph


def _complete(n: int) -> Graph:
    ids = path_site_ids(n)
    return Graph(ids, [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]])


def _star(leaves: int) -> Graph:
    ids = path_site_ids(leaves + 1)
    return Graph(ids, [(ids[0], leaf) for leaf in ids[1:]])


def _two_components() -> Graph:
    """A 6-site path and a 6-cycle with a chord, 12 sites in all."""
    ids = path_site_ids(12)
    path = [(ids[i], ids[i + 1]) for i in range(5)]
    cycle = [(ids[6 + i], ids[6 + (i + 1) % 6]) for i in range(6)]
    return Graph(ids, path + cycle + [(ids[6], ids[9])])


def _random_graph(seed: int) -> Graph:
    """Seeded graph of 1-9 sites, connected or not."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    ids = path_site_ids(n)
    p = rng.choice([0.2, 0.4, 0.7])
    return Graph(ids, [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if rng.random() < p])


FAMILY = {
    **{f"path{n}": (lambda n=n: gen_path(n, constant(0)).graph) for n in range(1, 9)},
    **{f"C{n}": (lambda n=n: cycle_graph(n)) for n in range(3, 9)},
    **{
        f"grid{w}x{h}": (lambda w=w, h=h: gen_tri_grid(w, h, constant(0)).graph)
        for w, h in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)]
    },
    "K5": lambda: _complete(5),
    "star6": lambda: _star(6),
    "ab+c": lambda: Graph("abc", [("a", "b")]),
    # Many sites, or searches that need many sweeps to reach every site.
    "path12": lambda: gen_path(12, constant(0)).graph,
    "C12": lambda: cycle_graph(12),
    "grid3x4": lambda: gen_tri_grid(3, 4, constant(0)).graph,
    "grid4x3": lambda: gen_tri_grid(4, 3, constant(0)).graph,
    "star11": lambda: _star(11),
    "P6+C6": _two_components,
    **{f"random{seed}": (lambda seed=seed: _random_graph(seed)) for seed in range(50)},
}

graphs = pytest.mark.parametrize("make", FAMILY.values(), ids=FAMILY.keys())


def _region(g: Graph, mask: int) -> frozenset:
    """Sites of ``mask``; bit i is the i-th site in ascending order."""
    return frozenset(p for i, p in enumerate(g.site_list) if mask >> i & 1)


def _literal_cut_masks(g: Graph) -> list[int]:
    full = (1 << len(g)) - 1
    return [
        m
        for m in range(1, full, 2)
        if is_region_connected(g, _region(g, m)) and is_region_connected(g, _region(g, full & ~m))
    ]


def _literal_witness(g: Graph) -> MonoWitness:
    if not g.is_connected():
        return MonoWitness(verdict=False)
    for m in _literal_cut_masks(g):
        low = _region(g, m)
        for side, region in (("low", low), ("up", g.sites - low)):
            if not is_region_connected(g, immediate_interior(g, region)):
                return MonoWitness(False, JCut(low), side)
    return MonoWitness(verdict=True)


@graphs
def test_table_matches_region_connectivity(make):
    g = make()
    bg = g._bits
    assert len(bg.connected) == 1 << len(g)
    for m in range(1 << len(g)):
        assert bg.is_connected(m) == is_region_connected(g, _region(g, m)), bin(m)


def _seeded_masks(n: int, count: int):
    """Random masks, alternating with runs of consecutive sites with one bit flipped or not."""
    rng = random.Random(n)
    for _ in range(count // 2):
        yield rng.getrandbits(n)
        lo, hi = sorted(rng.sample(range(n + 1), 2))
        yield ((1 << hi) - (1 << lo)) ^ (rng.getrandbits(1) << rng.randrange(n))


@pytest.mark.parametrize(
    "make",
    [lambda: gen_tri_grid(4, 4, constant(0)).graph, lambda: gen_path(16, constant(0)).graph],
    ids=["grid4x4", "path16"],
)
def test_table_matches_region_connectivity_at_16_sites(make):
    g = make()
    bg = g._bits
    for m in _seeded_masks(16, 4096):
        assert bg.is_connected(m) == is_region_connected(g, _region(g, m)), bin(m)


@graphs
def test_interior_matches_immediate_interior(make):
    g = make()
    bg = g._bits
    for m in range(1 << len(g)):
        assert _region(g, bg.interior(m)) == immediate_interior(g, _region(g, m)), bin(m)


@graphs
def test_cut_masks_match_the_literal_scan(make):
    g = make()
    assert list(_enumerate_cut_masks(g._bits)) == _literal_cut_masks(g)


@graphs
def test_mono_witness_matches_the_literal_scan(make):
    g = make()
    assert is_mono_connected(g) == _literal_witness(g)


VALUE_KINDS = {
    "int": lambda rng: rng.randint(-3, 3),
    "float": lambda rng: rng.uniform(-3, 3),
    "Fraction": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
}


def _check_half_tables(g: Graph, masks) -> None:
    """The oracle's max and min lookups equal max and min over the literal interior.

    An empty interior (a disconnected graph, or the empty or full mask)
    reads the sentinels, so they meet every value type a graph can hold.
    """
    bg = g._bits
    half, low = bg.half, bg.low_half
    rng = random.Random(len(g))
    tables = {}
    for kind, draw in VALUE_KINDS.items():
        value = [draw(rng) for _ in bg.sites]
        tables[kind] = (
            value,
            _fold(value[:half], max, -inf),
            _fold(value[half:], max, -inf),
            _fold(value[:half], min, inf),
            _fold(value[half:], min, inf),
        )
    for m in masks:
        ii = bg.interior(m)
        interior = immediate_interior(g, bg.set_of(m))
        literal = [i for i, p in enumerate(bg.sites) if p in interior]
        for kind, (value, lo_max, hi_max, lo_min, hi_min) in tables.items():
            top = max(lo_max[ii & low], hi_max[ii >> half])
            bottom = min(lo_min[ii & low], hi_min[ii >> half])
            assert top == max((value[i] for i in literal), default=-inf), (kind, bin(m))
            assert bottom == min((value[i] for i in literal), default=inf), (kind, bin(m))


@graphs
def test_half_tables_give_interior_extremes(make):
    g = make()
    _check_half_tables(g, range(1 << len(g)))


def test_half_tables_give_interior_extremes_at_16_sites():
    g = gen_tri_grid(4, 4, constant(0)).graph
    _check_half_tables(g, [0, (1 << 16) - 1, *_seeded_masks(16, 4096)])
