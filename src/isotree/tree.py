"""Iso-zones, iso-trees, the reconstruction transform and the tree writer.

The full L-cut set of a mono-connected scalar graph partitions the sites
into iso-zones of constant value and induces a free tree whose directed
edges are the cuts, each carrying a positive value gap.  The tree plus a
reference value is a complete encoding of the input: the reconstruction
transform recovers every site value by signed gap sums along tree paths.

An ``IsoTree`` is held on the graph's site numbers, as the pipeline's
stages are.  The cut sets, divisions and axioms that characterize the
tree are in :mod:`isotree.axioms`; ``isotree build`` needs only this
half, and ``tree_to_json`` writes the tree document.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import accumulate, chain, compress
from json.encoder import encode_basestring_ascii
from operator import eq, gt, itemgetter

from .errors import MissingReferenceError, NotATreeError
from .graph import Graph, JCut, ScalarGraph, SiteId


class IsoZone(namedtuple("IsoZone", "sites value")):
    """A maximal region of constant value; its subgraph may be disconnected."""

    __slots__ = ()

    def __new__(cls, sites: frozenset[SiteId], value: float) -> IsoZone:
        if not sites:
            raise ValueError("an iso-zone cannot be empty")
        return super().__new__(cls, sites, value)

    @property
    def rep(self) -> SiteId:
        """The least site, which represents the zone."""
        return min(self.sites)


class TreeEdge(namedtuple("TreeEdge", "low up gap")):
    """Directed tree edge from the low zone to the up zone of one L-cut.

    The cut is the split the tree makes when the edge is removed, so it
    is derived, not stored: :attr:`IsoTree.edges`, which makes every
    edge, sets ``_span`` in the edge's instance dict, and ``cut`` builds
    the site set when read.  ``_span`` is (sites in zone preorder, start,
    stop, inside): the low side is ``sites[start:stop]`` when inside, and
    every other site if not.  As a tuple, an edge compares, hashes and
    prints by zones and gap only.
    """

    @property
    def cut(self) -> JCut:
        sites, start, stop, inside = self._span
        return JCut(frozenset(sites[start:stop] if inside else sites[:start] + sites[stop:]))


def _check_edges(values, low, up, gap, name) -> None:
    """Raise on the first edge, in the order given, that cannot join its two zones.

    ``low`` and ``up`` hold zone numbers, and ``name(z)`` is zone
    ``z``'s representative, for the messages.
    """
    for a, b, g in zip(low, up, gap):
        if a == b:
            raise NotATreeError(f"self-edge on zone {name(a)!r}")
        if not g > 0:
            raise NotATreeError(f"edge {name(a)!r}->{name(b)!r} has non-positive gap {g!r}")
        if values[a] + g != values[b]:
            raise NotATreeError(
                f"edge {name(a)!r}->{name(b)!r}: gap {g!r} does not bridge zone values "
                f"{values[a]!r} and {values[b]!r}"
            )


class IsoTree:
    """Free tree of iso-zones connected by L-cut edges, held on site numbers.

    Site ``i`` is the i-th id of the ascending id tuple ``_ids``, which
    the tree shares with the graph the pipeline built it from.  Zones
    are numbered in the order of their least site, which represents
    them.  The tree stores each site's zone number (``_zone``), each
    zone's value (``_values``), each edge's low and up zone number and
    gap (``_low``, ``_up``, ``_gap``, in (low, up) order) and the
    reference site, whose zone's value is the reference value.

    Each zone's sites (one pass deals the sites out by zone number) and
    the representatives are derived when read.  So is the depth-first
    preorder of the zones, when ``edges`` is first read: an edge's low
    side is the subtree slice of its child end in the preorder's site
    tuple, or that slice's complement, so no cut is stored.  ``zones``
    and ``edges`` are cached properties: they keep the objects they build
    in the instance dict, and two threads racing on a first read build
    equal objects.  Equality compares the stored arrays.

    The constructor takes, unchecked, the ascending ``ids``; each site's
    ``root``, the number of its zone's least site; one value per zone, in
    zone order; and each edge's ends, numbers of any sites of its low and
    up zones, in any edge order.  It checks that every edge joins two
    distinct zones with a positive gap equal to their value difference,
    and that the zones and edges form one tree (|edges| = |zones| - 1).
    """

    __slots__ = ("_ids", "_zone", "_values", "_low", "_up", "_gap", "_reference", "__dict__")

    def __init__(
        self,
        ids: tuple[SiteId, ...],
        root: Sequence[int],
        values: Sequence[float],
        lows: Sequence[int],
        ups: Sequence[int],
        gaps: Sequence[float],
        reference: SiteId,
    ):
        # A site's zone number is the count of roots up to its own, less one.
        roots = list(accumulate(map(eq, root, range(len(root)))))
        zone = array("i", [roots[r] - 1 for r in root])
        values, n = tuple(values), len(values)
        low, up = array("i", map(zone.__getitem__, lows)), array("i", map(zone.__getitem__, ups))
        order = sorted(range(len(low)), key=[a * n + b for a, b in zip(low, up)].__getitem__)
        low, up = array("i", map(low.__getitem__, order)), array("i", map(up.__getitem__, order))
        gap = tuple(map(gaps.__getitem__, order))
        _check_edges(values, low, up, gap, lambda z: ids[sorted(set(root))[z]])
        if len(low) != n - 1:
            raise NotATreeError(f"{len(low)} edges over {n} zones is not a free tree")
        # n - 1 edges make one tree of n zones exactly when none closes a cycle.
        parent = list(range(n))
        for a, b in zip(low, up):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                raise NotATreeError("zone graph is not connected")
            parent[b] = a

        self._ids, self._zone, self._values = ids, zone, values
        self._low, self._up, self._gap = low, up, gap
        self._reference = reference

    def _number(self, site: SiteId) -> int | None:
        """The site's number, or None when the tree does not hold it."""
        i = bisect_left(self._ids, site)
        return i if i < len(self._ids) and self._ids[i] == site else None

    def _grouped(self) -> list[list[SiteId]]:
        """Each zone's sites, ascending, in zone order: one pass over the sites."""
        groups: list[list[SiteId]] = [[] for _ in self._values]
        for p, z in zip(self._ids, self._zone):
            groups[z].append(p)
        return groups

    @cached_property
    def zones(self) -> tuple[IsoZone, ...]:
        return tuple(IsoZone(frozenset(sites), v) for _, sites, v in self.zone_rows())

    @cached_property
    def edges(self) -> tuple[TreeEdge, ...]:
        groups = self._grouped()
        n = len(self._values)
        # Depth-first preorder of the zones from zone 0; each zone's own
        # sites take the next slice of the site tuple as it is reached.
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for a, b in zip(self._low, self._up):
            neighbors[a].append(b)
            neighbors[b].append(a)
        parent = [-1] * n
        parent[0] = 0
        first, stop = [0] * n, [0] * n
        preorder, offset, stack = [], 0, [0]
        while stack:
            z = stack.pop()
            preorder.append(z)
            first[z] = offset
            offset += len(groups[z])
            stop[z] = offset
            for other in neighbors[z]:
                if parent[other] < 0:
                    parent[other] = z
                    stack.append(other)
        for z in reversed(preorder):
            if stop[z] > stop[parent[z]]:
                stop[parent[z]] = stop[z]
        sites = tuple(chain.from_iterable(map(groups.__getitem__, preorder)))
        edges = []
        for a, b, gap in zip(self._low, self._up, self._gap):
            # The low side is the child end's subtree slice, or the rest.
            child = b if first[a] <= first[b] < stop[a] else a
            edge = TreeEdge(groups[a][0], groups[b][0], gap)
            edge._span = (sites, first[child], stop[child], child == a)
            edges.append(edge)
        return tuple(edges)

    @property
    def reference(self) -> SiteId:
        return self._reference

    @property
    def reference_value(self) -> float:
        """The value of the reference's zone, from which reconstruction starts."""
        i = self._number(self._reference)
        if i is None:
            raise MissingReferenceError(f"reference {self._reference!r} is not in any zone")
        return self._values[self._zone[i]]

    def zone_rows(self) -> Iterator[tuple[SiteId, list[SiteId], float]]:
        """Each zone as (representative, sites ascending, value), in representative order."""
        groups = self._grouped()
        return zip(map(itemgetter(0), groups), groups, self._values)

    def edge_rows(self) -> Iterator[tuple[SiteId, SiteId, float]]:
        """Each edge as (low representative, up representative, gap), in (low, up) order."""
        # A zone's representative is the site where its number first appears.
        firsts = map(gt, self._zone, accumulate(self._zone, max, initial=-1))
        rep = list(compress(self._ids, firsts)).__getitem__
        return zip(map(rep, self._low), map(rep, self._up), self._gap)

    def zone_of(self, site: SiteId) -> IsoZone | None:
        i = self._number(site)
        return None if i is None else self.zones[self._zone[i]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IsoTree):
            return NotImplemented
        return (
            self._ids == other._ids
            and self._zone == other._zone
            and self._values == other._values
            and self._low == other._low
            and self._up == other._up
            and self._gap == other._gap
            and self._reference == other._reference
        )

    def __repr__(self) -> str:
        return f"IsoTree({len(self._values)} zones, {len(self._low)} edges)"


def _signed_gap_walk(n, lows, ups, gaps, ref, ref_value) -> list[float | None]:
    """Each of ``n`` zones' value: ``ref_value`` plus the signed gap sum from zone ``ref``.

    Edge ``k`` adds ``gaps[k]`` from zone ``lows[k]`` to zone ``ups[k]``
    and subtracts it the other way; a zone left unreached gets ``None``.
    """
    incident: list[list[int]] = [[] for _ in range(n)]
    for k, (a, b) in enumerate(zip(lows, ups)):
        incident[a].append(k)
        incident[b].append(k)
    value: list[float | None] = [None] * n
    value[ref] = ref_value
    stack = [ref]
    while stack:
        z = stack.pop()
        for k in incident[z]:
            if lows[k] == z:
                if value[ups[k]] is None:
                    value[ups[k]] = value[z] + gaps[k]
                    stack.append(ups[k])
            elif value[lows[k]] is None:
                value[lows[k]] = value[z] - gaps[k]
                stack.append(lows[k])
    return value


def reconstruct_rt(g: Graph, tree: IsoTree) -> ScalarGraph:
    """Recover the scalar graph encoded by an iso-tree.

    Every site of a zone receives the tree's reference value plus the
    signed gap sum along the unique path from the reference zone, where
    following an edge low-to-up adds its gap and up-to-low subtracts it.
    """
    ref_value = tree.reference_value  # raises when no zone holds the reference
    if tree._ids != g.site_list:
        raise NotATreeError("tree zones do not partition the graph's sites")
    ref = tree._zone[tree._number(tree.reference)]
    zone_value = _signed_gap_walk(len(tree._values), tree._low, tree._up, tree._gap, ref, ref_value)
    return ScalarGraph._by_number(g, tuple(map(zone_value.__getitem__, tree._zone)), tree.reference)


def _num(x: float) -> float:
    """Integral reals as ints so integer fixtures round-trip byte-exactly."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


def tree_to_json(tree: IsoTree) -> str:
    """The document ``json.dumps(doc, indent=2)`` writes, byte for byte.

    That encoder runs in pure Python whenever ``indent`` is set, so the
    zone and edge records are filled into its layout here instead.
    """
    zones, edges = list(tree.zone_rows()), list(tree.edge_rows())
    # The C encoder writes each number exactly as json.dumps would, and
    # refuses non-finite ones; the reference value is a zone's value.
    values = chain([v for _, _, v in zones], [gap for _, _, gap in edges], [tree.reference_value])
    numbers = json.dumps(list(map(_num, values)), allow_nan=False)[1:-1].split(", ")
    gaps = numbers[len(zones) : -1]
    q = encode_basestring_ascii
    site_list = ",\n        ".join
    zone_records = ",\n".join(
        [
            f'    {{\n      "id": {q(rep)},\n      "sites": [\n'
            f"        {site_list(map(q, sites))}\n"
            f'      ],\n      "value": {value}\n    }}'
            for (rep, sites, _), value in zip(zones, numbers)
        ]
    )
    edge_records = ",\n".join(
        [
            f'    {{\n      "low": {q(low)},\n      "up": {q(up)},\n      "gap": {gap}\n    }}'
            for (low, up, _), gap in zip(edges, gaps)
        ]
    )
    edge_array = f"[\n{edge_records}\n  ]" if edges else "[]"
    return (
        f'{{\n  "zones": [\n{zone_records}\n  ],\n  "edges": {edge_array},\n'
        f'  "reference": {q(tree.reference)},\n'
        f'  "referenceValue": {numbers[-1]}\n}}'
    )
