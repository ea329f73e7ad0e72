"""Bitmask view of a graph for exhaustive subset scans.

Sites map to bit positions in ascending site order, so ascending masks
visit subsets in a stable order.  Only the enumeration-heavy modules
(mono-connectivity, oracle) use this; it is not part of the public API,
except ``MonoWitness``, which :mod:`isotree.mono` exports.

A graph keeps its bit view (``Graph._bits``), and the view keeps the
J-cut masks and the mono witness as cached properties, so each graph's
bipartitions are scanned at most once; racing threads derive equal values.

Connectivity is read from a table of 2^n bytes, built with the view:
byte m is 1 iff the sites of mask m induce a connected subgraph (the
empty mask counts as connected).  It is filled by one bit-sliced search
of all 2^n masks at once, in whole-int ORs and ANDs: at 16 sites about
1.4 ms and 0.23 MB, with the site planes of each n (0.27 MB for all n up
to 16) kept after their first use.  Tables over the low and the high
half of the sites come from one builder, ``_fold``: an immediate
interior is two lookups in neighbour unions, and the oracle reads an
interior's extreme values from max and min folds of the site values.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import or_
from typing import NamedTuple

from .errors import SizeLimitError
from .graph import Graph, JCut, SiteId


class MonoWitness(NamedTuple):
    """Outcome of a mono-connectivity check.

    On a connected graph a false verdict always carries the first failing
    J-cut in canonical enumeration order and the side (low/up) whose
    immediate interior is disconnected.  A disconnected input yields a
    false verdict with no counterexample cut.
    """

    verdict: bool
    counterexample: JCut | None = None
    failing_side: str | None = None


def capped_bits(g: Graph, cap: int, scan: str) -> BitGraph:
    """``g``'s bit view, once ``g`` has at most ``cap`` sites; ``scan`` names the cap."""
    if len(g) > cap:
        raise SizeLimitError(f"{len(g)} sites exceeds the {scan} cap of {cap}")
    return g._bits


class BitGraph:
    __slots__ = ("sites", "full", "half", "low_half", "lo", "hi", "connected", "__dict__")

    def __init__(self, g: Graph):
        self.sites: tuple[SiteId, ...] = g.site_list
        n = len(self.sites)
        self.full = (1 << n) - 1
        offsets, targets = g._offsets, g._targets
        adj = [sum(1 << j for j in targets[offsets[i] : offsets[i + 1]]) for i in range(n)]
        # Byte m is 1 iff mask m induces a connected subgraph.
        self.connected = _connected_table(adj)
        # Neighbour unions over the low and the high half of the sites.
        self.half, self.low_half = n // 2, (1 << n // 2) - 1
        self.lo, self.hi = _fold(adj[: self.half], or_, 0), _fold(adj[self.half :], or_, 0)

    @cached_property
    def cut_masks(self) -> tuple[int, ...]:
        """The J-cut masks in scan order: the one scan of this graph's bipartitions."""
        return _enumerate_cut_masks(self)

    @cached_property
    def witness(self) -> MonoWitness:
        """A connected graph's verdict: false at the first J-cut with a disconnected interior."""
        for mask in self.cut_masks:
            if not self.is_connected(self.interior(mask)):
                return MonoWitness(False, JCut(self.set_of(mask)), "low")
            if not self.is_connected(self.interior(self.full & ~mask)):
                return MonoWitness(False, JCut(self.set_of(mask)), "up")
        return MonoWitness(verdict=True)

    def set_of(self, mask: int) -> frozenset[SiteId]:
        return frozenset(p for i, p in enumerate(self.sites) if mask >> i & 1)

    def is_connected(self, mask: int) -> bool:
        return bool(self.connected[mask])

    def interior(self, mask: int) -> int:
        """Bits of ``mask`` adjacent to at least one bit outside it."""
        out = self.full & ~mask
        return mask & (self.lo[out & self.low_half] | self.hi[out >> self.half])


def _fold(items: list, op, empty) -> list:
    """Entry k combines ``items[j]`` over the set bits j of k with ``op``, from ``empty``.

    ``max`` and ``min`` fold by one comparison per entry, not a call:
    each keeps ``u`` unless ``a`` is strictly beyond it, as the builtins do.
    """
    table = [empty]
    for a in items:
        if op is max:
            table += [a if a > u else u for u in table]
        elif op is min:
            table += [a if a < u else u for u in table]
        else:
            table += [op(u, a) for u in table]
    return table


@cache
def _site_planes(n: int) -> tuple[int, ...]:
    """Bit m of entry i is set iff mask m of n sites contains site i."""
    if not n:
        return ()
    width = 1 << n - 1
    return tuple(p | p << width for p in _site_planes(n - 1)) + ((1 << width) - 1 << width,)


def _connected_table(adj: list[int]) -> bytearray:
    # A breadth-first search of every mask at once, bit-sliced: bit m of
    # reached[i] is set once the search inside mask m from its least site
    # reaches site i.  Sweeps alternate direction until one sets no bit.
    n = len(adj)
    size = 1 << n
    has, reached, below = _site_planes(n), [], 0
    for plane in has:
        reached.append(plane & ~below)  # the masks whose least site is i
        below |= plane
    nbrs = [[j for j in range(n) if a >> j & 1] for a in adj]
    order, grew = list(range(n)), True
    while grew:
        grew = False
        for i in order:
            front = 0
            for j in nbrs[i]:
                front |= reached[j]
            grown = reached[i] | front & has[i]
            grew = grew or grown != reached[i]
            reached[i] = grown
        order.reverse()
    connected = (1 << size) - 1
    for plane, got in zip(has, reached):
        connected &= got | ~plane
    del reached  # n planes, freed before the 2^n-character string
    # Bit m of ``connected`` becomes byte m of the table.
    digits = bin(connected)[:1:-1].ljust(size, "0")
    return bytearray(digits, "ascii").translate(bytes.maketrans(b"01", b"\0\1"))


def _enumerate_cut_masks(bg: BitGraph) -> tuple[int, ...]:
    # Fixing the least site's bit halves the scan and makes the listed
    # side the canonical (least-site-containing) one.  Every bipartition
    # is still tested, in bulk: byte i of ``row`` says whether the odd
    # mask 2i+1 is connected, byte i of ``comp`` whether its complement
    # full-(2i+1) is, and the full mask itself falls off the end.  A
    # single site leaves both rows empty.
    full = bg.full
    table = bg.connected
    row = int.from_bytes(table[1:full:2], "little")
    comp = int.from_bytes(table[full - 1 : 0 : -2], "little")
    both = (row & comp).to_bytes(full >> 1, "little")
    masks, i = [], both.find(1)
    while i >= 0:
        masks.append(2 * i + 1)
        i = both.find(1, i + 1)
    return tuple(masks)
