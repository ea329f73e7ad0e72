"""Bitmask view of a graph for exhaustive subset scans.

Sites map to bit positions in ascending site order, so ascending masks
visit subsets in a stable order.  Only the enumeration-heavy modules
(mono-connectivity, oracle) use this; it is not part of the public API.

A graph keeps its bit view, and the view keeps the results of the scans
over it (the J-cut masks and the mono witness), so each graph's
bipartitions are scanned at most once.  Filling either slot is
idempotent: two threads racing to fill one store equal values.

Connectivity is read from a table of 2^n bytes, built with the view:
byte m is 1 iff the sites of mask m induce a connected subgraph (the
empty mask counts as connected).  The table is filled by listing every
connected set exactly once, grown from its least site (the ESU scheme
of Wernicke, 2006), so building it costs one visit per connected set;
it takes 64 KB at 16 sites.
"""

from __future__ import annotations

from .graph import Graph, SiteId


class BitGraph:
    __slots__ = ("sites", "adj", "full", "cut_masks", "witness", "connected")

    def __init__(self, g: Graph):
        self.sites: tuple[SiteId, ...] = g.site_list
        index = {p: i for i, p in enumerate(self.sites)}
        n = len(self.sites)
        self.full = (1 << n) - 1
        self.adj = [0] * n
        for a, b in g.pairs:
            ia, ib = index[a], index[b]
            self.adj[ia] |= 1 << ib
            self.adj[ib] |= 1 << ia
        # Byte m is 1 iff mask m induces a connected subgraph.
        self.connected = _connected_table(self.adj)
        # Filled by the mono module on first use.
        self.cut_masks: tuple[int, ...] | None = None
        self.witness = None

    def set_of(self, mask: int) -> frozenset[SiteId]:
        return frozenset(self.sites[i] for i in bits(mask))

    def is_connected(self, mask: int) -> bool:
        return bool(self.connected[mask])

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


def _connected_table(adj: list[int]) -> bytearray:
    # Each connected set is pushed once: it grows from its least site v
    # only by sites above v, and a site leaves the extension set once
    # taken or skipped, so no set is reached by two paths.
    table = bytearray(1 << len(adj))
    table[0] = 1
    for v, nbrs in enumerate(adj):
        above = -1 << (v + 1)
        stack = [(1 << v, nbrs & above, nbrs | 1 << v)]
        while stack:
            s, ext, closed = stack.pop()
            table[s] = 1
            while ext:
                w = ext & -ext
                ext ^= w
                aw = adj[w.bit_length() - 1]
                stack.append((s | w, ext | (aw & above & ~closed), closed | aw))
    return table


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
