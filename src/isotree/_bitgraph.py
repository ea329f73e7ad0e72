"""Bitmask view of a graph for exhaustive subset scans.

Sites map to bit positions in ascending site order, so ascending masks
visit subsets in a stable order.  Only the enumeration-heavy modules
(mono-connectivity, oracle) use this; it is not part of the public API.

A graph keeps its bit view, and the view keeps the results of the scans
over it (the J-cut masks and the mono witness), so each graph's
bipartitions are scanned at most once.  Filling either slot is
idempotent: two threads racing to fill one store equal values.
"""

from __future__ import annotations

from .graph import Graph, SiteId


class BitGraph:
    __slots__ = ("sites", "index", "adj", "full", "n", "cut_masks", "witness")

    def __init__(self, g: Graph):
        self.sites: tuple[SiteId, ...] = g.site_list
        self.index = {p: i for i, p in enumerate(self.sites)}
        self.n = len(self.sites)
        self.full = (1 << self.n) - 1
        self.adj = [0] * self.n
        for a, b in g.pairs:
            ia, ib = self.index[a], self.index[b]
            self.adj[ia] |= 1 << ib
            self.adj[ib] |= 1 << ia
        # Filled by the mono module on first use.
        self.cut_masks: tuple[int, ...] | None = None
        self.witness = None

    def mask_of(self, region) -> int:
        m = 0
        for p in region:
            m |= 1 << self.index[p]
        return m

    def set_of(self, mask: int) -> frozenset[SiteId]:
        return frozenset(self.sites[i] for i in bits(mask))

    def is_connected(self, mask: int) -> bool:
        if mask == 0:
            return True
        seen = mask & -mask
        frontier = seen
        adj = self.adj
        while frontier:
            reach = 0
            m = frontier
            while m:
                low = m & -m
                reach |= adj[low.bit_length() - 1]
                m ^= low
            frontier = reach & mask & ~seen
            seen |= frontier
        return seen == mask

    def interior(self, mask: int) -> int:
        """Bits of ``mask`` adjacent to at least one bit outside it."""
        out = self.full & ~mask
        ii = 0
        m = mask
        adj = self.adj
        while m:
            low = m & -m
            if adj[low.bit_length() - 1] & out:
                ii |= low
            m ^= low
        return ii


def bit_view(g: Graph) -> BitGraph:
    """The bit view of ``g``, built on first use and kept on the graph."""
    bg = g._bits
    if bg is None:
        bg = g._bits = BitGraph(g)
    return bg


def bits(mask: int):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
