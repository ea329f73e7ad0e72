"""Output checkers for the benchmark, written apart from ``isotree``.

Nothing here imports the package under test.  The checkers read tree
documents with the standard ``json`` module (decimals parsed exactly as
``Fraction``), rebuild every edge's bipartition from the tree's own
structure (never from ``cutLow``), and test the definitions directly
with site sets held as Python integers used as bitsets.

A graph here is a triangulated ``width x height`` grid in row-major
order, with the NW-SE diagonal of every unit square; a path is the grid
of height 1.  ``Graph.from_pairs`` builds any other small graph.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence


class CheckError(Exception):
    """An output breaks a rule the iso-tree of its input must satisfy."""


class Graph:
    """Site ids, exact site values and adjacency, with bitset helpers."""

    def __init__(self, ids: Sequence[str], values: Sequence, adj: list[int], grid=None):
        self.ids = list(ids)
        self.index = {sid: i for i, sid in enumerate(self.ids)}
        self.values = list(values)
        self.n = len(self.ids)
        self.full = (1 << self.n) - 1
        self.adj = adj
        self._grid = grid
        levels = sorted(set(self.values))
        self.levels = levels
        # below[k]: sites whose value is at most levels[k].
        below, acc = [], 0
        by_level = [0] * len(levels)
        for i, v in enumerate(self.values):
            by_level[bisect_left(levels, v)] |= 1 << i
        for m in by_level:
            acc |= m
            below.append(acc)
        self._below = below

    @classmethod
    def tri_grid(cls, ids: Sequence[str], width: int, height: int, values: Sequence) -> "Graph":
        adj = [0] * (width * height)
        for r in range(height):
            for c in range(width):
                i = r * width + c
                for rr, cc in ((r, c + 1), (r + 1, c), (r + 1, c + 1)):
                    if rr < height and cc < width:
                        j = rr * width + cc
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
        first = last = 0
        for r in range(height):
            first |= 1 << (r * width)
            last |= 1 << (r * width + width - 1)
        full = (1 << (width * height)) - 1
        return cls(ids, values, adj, grid=(width, height, full & ~first, full & ~last))

    @classmethod
    def from_pairs(cls, ids: Sequence[str], pairs, values: Sequence) -> "Graph":
        index = {sid: i for i, sid in enumerate(ids)}
        adj = [0] * len(ids)
        for p, q in pairs:
            i, j = index[p], index[q]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(ids, values, adj)

    def pairs(self):
        for i, m in enumerate(self.adj):
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if j > i:
                    yield i, j
                m ^= low

    def dilate(self, m: int) -> int:
        """``m`` plus every site adjacent to it."""
        if self._grid is not None:
            w, _, not_first, not_last = self._grid
            return (
                m
                | ((m << 1) & not_first)
                | ((m >> 1) & not_last)
                | (m << w)
                | (m >> w)
                | ((m << (w + 1)) & not_first)
                | ((m >> (w + 1)) & not_last)
            ) & self.full
        out = m
        while m:
            low = m & -m
            out |= self.adj[low.bit_length() - 1]
            m ^= low
        return out

    def connected(self, m: int) -> bool:
        """True for a non-empty site set that induces a connected subgraph."""
        if not m:
            return False
        if self._grid is not None and self._grid[1] == 1:
            run = m >> ((m & -m).bit_length() - 1)
            return run & (run + 1) == 0
        reach = m & -m
        while True:
            grown = self.dilate(reach) & m
            if grown == reach:
                return reach == m
            reach = grown

    def interior(self, m: int) -> int:
        """Sites of ``m`` with a neighbour outside ``m``."""
        return m & self.dilate(self.full & ~m)

    def max_level(self, m: int) -> int:
        """Index in ``levels`` of the largest value on the non-empty set ``m``."""
        lo, hi = 0, len(self.levels) - 1
        below = self._below
        while lo < hi:
            mid = (lo + hi) // 2
            if m & ~below[mid]:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def is_level_cut(self, low: int) -> bool:
        """Both sides connected, and every low-side boundary value is below
        every up-side boundary value."""
        up = self.full & ~low
        if not (self.connected(low) and self.connected(up)):
            return False
        top = self.max_level(self.interior(low))
        return not self.interior(up) & self._below[top]

    def mask(self, site_ids) -> int:
        m = 0
        for sid in site_ids:
            m |= 1 << self.index[sid]
        return m

    def names(self, m: int) -> list[str]:
        out = []
        while m:
            low = m & -m
            out.append(self.ids[low.bit_length() - 1])
            m ^= low
        return sorted(out)


def _exact(x, where: str):
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise CheckError(f"{where}: {x!r} is not a number")
    return x


class ParsedTree:
    """A tree document read against its graph.

    ``zone_masks`` lists the zones' site sets; ``edges`` holds one
    ``(low_mask, low_zone, up_zone)`` per edge, where ``low_mask`` is the
    low side of the bipartition obtained by deleting the edge from the
    tree.
    """

    def __init__(self, zone_masks, edges):
        self.zone_masks = zone_masks
        self.edges = edges


def read_tree(g: Graph, text: str | bytes) -> ParsedTree:
    """Parse a tree document and reconstruct every site value from it.

    Raises :class:`CheckError` unless the zones partition the sites,
    the edges form a tree over the zones, every gap is positive, and the
    gap sums along tree paths from the reference reproduce every input
    value exactly.
    """
    try:
        doc = json.loads(text, parse_float=Fraction, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckError(f"tree document is not JSON: {exc}") from None
    try:
        return _read_tree(g, doc)
    except (KeyError, TypeError, AttributeError) as exc:
        raise CheckError(f"malformed tree document: {exc!r}") from None


def _read_tree(g: Graph, doc) -> ParsedTree:
    zones, edges = doc.get("zones"), doc.get("edges")
    if not isinstance(zones, list) or not isinstance(edges, list) or not zones:
        raise CheckError("tree document needs zones and edges arrays")
    zone_at = {}
    zone_of_site = [-1] * g.n
    masks, values = [], []
    for zi, z in enumerate(zones):
        if z["id"] in zone_at:
            raise CheckError(f"zone id {z['id']!r} repeats")
        zone_at[z["id"]] = zi
        m = 0
        for sid in z["sites"]:
            i = g.index.get(sid)
            if i is None:
                raise CheckError(f"zone {z['id']!r} names unknown site {sid!r}")
            if zone_of_site[i] != -1:
                raise CheckError(f"site {sid!r} lies in two zones")
            zone_of_site[i] = zi
            m |= 1 << i
        if not m:
            raise CheckError(f"zone {z['id']!r} is empty")
        masks.append(m)
        values.append(_exact(z["value"], f"zone {z['id']!r} value"))
    if -1 in zone_of_site:
        raise CheckError(f"site {g.ids[zone_of_site.index(-1)]!r} lies in no zone")
    if len(edges) != len(zones) - 1:
        raise CheckError(f"{len(edges)} edges over {len(zones)} zones is not a tree")

    incident = [[] for _ in zones]
    parsed = []
    for ei, e in enumerate(edges):
        lo, up = zone_at.get(e["low"]), zone_at.get(e["up"])
        if lo is None or up is None or lo == up:
            raise CheckError(f"edge {ei} joins unknown or equal zones")
        gap = _exact(e["gap"], f"edge {ei} gap")
        if not gap > 0:
            raise CheckError(f"edge {ei} has non-positive gap {gap}")
        parsed.append((lo, up, gap))
        incident[lo].append(ei)
        incident[up].append(ei)

    ref = g.index.get(doc.get("reference"))
    if ref is None:
        raise CheckError(f"reference {doc.get('reference')!r} is not a site")
    root = zone_of_site[ref]
    value = [None] * len(zones)
    value[root] = _exact(doc.get("referenceValue"), "referenceValue")
    parent_edge = [-1] * len(zones)
    parent = [-1] * len(zones)
    order = [root]
    for z in order:
        for ei in incident[z]:
            lo, up, gap = parsed[ei]
            other, signed = (up, gap) if lo == z else (lo, -gap)
            if value[other] is None:
                value[other] = value[z] + signed
                parent_edge[other] = ei
                parent[other] = z
                order.append(other)
    if len(order) != len(zones):
        raise CheckError("edges do not connect all zones")
    for zi, m in enumerate(masks):
        if value[zi] != values[zi]:
            raise CheckError(f"zone {zi}: gap sums give {value[zi]}, document says {values[zi]}")
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if g.values[i] != value[zi]:
                raise CheckError(
                    f"site {g.ids[i]!r}: gap sums give {value[zi]}, input is {g.values[i]}"
                )
            m ^= low

    below = list(masks)
    for z in reversed(order[1:]):
        below[parent[z]] |= below[z]
    sides = [0] * len(parsed)
    for z in order[1:]:
        ei = parent_edge[z]
        lo = parsed[ei][0]
        sides[ei] = below[z] if lo == z else g.full & ~below[z]
        cut = edges[ei].get("cutLow")
        if cut is not None and g.mask(cut) != sides[ei]:
            raise CheckError(f"edge {ei}: cutLow differs from the side the tree gives")
    return ParsedTree(masks, [(sides[ei], lo, up) for ei, (lo, up, _) in enumerate(parsed)])


def _reject_constant(name: str):
    raise CheckError(f"tree document holds the non-finite number {name}")


def check_level_tree(g: Graph, text: str | bytes) -> ParsedTree:
    """Check a tree document against its graph by the definitions.

    Beyond :func:`read_tree`: each edge's two sides are connected and
    form a strict level cut, and adjacent sites of equal value share a
    zone.  Cost is near-linear per edge on grids, so whole documents of
    a few thousand sites are checked.
    """
    tree = read_tree(g, text)
    for low, lo, up in tree.edges:
        if not g.is_level_cut(low):
            raise CheckError(f"edge {lo}->{up}: low side {g.names(low)[:8]}... is not a level cut")
    zone_of = [0] * g.n
    for zi, m in enumerate(tree.zone_masks):
        while m:
            low = m & -m
            zone_of[low.bit_length() - 1] = zi
            m ^= low
    for i, j in g.pairs():
        if g.values[i] == g.values[j] and zone_of[i] != zone_of[j]:
            raise CheckError(f"adjacent equal sites {g.ids[i]!r}, {g.ids[j]!r} lie in two zones")
    return tree


def brute_force(g: Graph) -> tuple[bool, set[int]]:
    """Scan every bipartition: (mono-connected?, low sides of all level cuts).

    Exponential in the number of sites; meant for at most ~16 sites.
    """
    mono = g.connected(g.full)
    lows: set[int] = set()
    full = g.full
    for high in range(1 << (g.n - 1)):
        x = (high << 1) | 1
        if x == full:
            continue
        c = full & ~x
        if not (g.connected(x) and g.connected(c)):
            continue
        ix, ic = g.interior(x), g.interior(c)
        if not (g.connected(ix) and g.connected(ic)):
            mono = False
        vx = [g.values[i] for i in _bits(ix)]
        vc = [g.values[i] for i in _bits(ic)]
        if max(vx) < min(vc):
            lows.add(x)
        elif max(vc) < min(vx):
            lows.add(c)
    return mono, lows


def check_exact_tree(g: Graph, text: str | bytes, lows: set[int] | None = None) -> ParsedTree:
    """Compare a tree document with the brute-force level cuts of its graph.

    The edges' low sides must be exactly the level cuts found by scanning
    every bipartition (``lows``, when already known), and the zones
    exactly the classes of sites that lie on the same side of every level
    cut, with the input's values.
    """
    tree = read_tree(g, text)
    if lows is None:
        _, lows = brute_force(g)
    got = {low for low, _, _ in tree.edges}
    if got != lows:
        missing, extra = lows - got, got - lows
        which = missing or extra
        raise CheckError(
            f"{len(missing)} level cuts missing, {len(extra)} edges not level cuts, "
            f"e.g. low side {g.names(next(iter(which)))}"
        )
    classes: dict[int, int] = {}
    order = sorted(lows)
    for i in range(g.n):
        sig = sum(1 << k for k, low in enumerate(order) if low >> i & 1)
        classes[sig] = classes.get(sig, 0) | 1 << i
    if sorted(classes.values()) != sorted(tree.zone_masks):
        raise CheckError("zones differ from the classes the level cuts induce")
    return tree


def _bits(m: int):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low
