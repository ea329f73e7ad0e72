"""Core graph machinery: sites, surfels, regions and Jordan cuts.

A graph is a finite set of sites with an undirected adjacency relation,
held as compressed sparse rows over site numbers (each site's place in
the ascending id tuple), so that the pipeline and the bit view run on
ints; ``neighbors`` gives a site's row as ids.  Every unordered adjacent
pair induces two oriented surfels.  A region is any subset of the site
set (plain ``frozenset`` in this package); a Jordan cut (J-cut) is an
oriented bipartition whose two sides are both non-empty and connected.
All objects are immutable after construction and safe to share between
threads; the operations below are pure.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import Iterable, Mapping, NamedTuple

from .errors import InvalidRegionError

SiteId = str


class Surfel(NamedTuple):
    """Oriented face between two adjacent sites; ``(p, q)`` and ``(q, p)`` differ."""

    src: SiteId
    dst: SiteId

    def inverse(self) -> "Surfel":
        return Surfel(self.dst, self.src)


class Graph:
    """Finite undirected graph over sites, immutable after construction.

    Adjacency is given as unordered pairs.  Self-pairs and pairs that
    reference unknown sites are rejected; duplicate pairs collapse.
    Connectedness is a queryable property, not a construction invariant.
    Site ``i`` (the i-th id, ascending) has the neighbours
    ``_targets[_offsets[i]:_offsets[i + 1]]``, ascending.  The site set,
    the pairs, the rows as ids and the bit view (``_bitgraph.bit_view``)
    are derived on first use and kept; filling a slot is idempotent.
    """

    __slots__ = ("_ids", "_number", "_offsets", "_targets", "_sites", "_pairs", "_near", "_bits")

    def __init__(self, sites: Iterable[SiteId], adjacency: Iterable[tuple[SiteId, SiteId]] = ()):
        ids = tuple(sorted(set(sites)))
        if not ids:
            raise ValueError("a graph needs at least one site")
        number = dict(zip(ids, range(len(ids))))
        rows: list[set[int]] = [set() for _ in ids]  # duplicate pairs collapse
        for p, q in adjacency:
            if p == q:
                raise ValueError(f"self-pair on site {p!r}")
            i, j = number.get(p), number.get(q)
            if i is None or j is None:
                raise ValueError(f"adjacency pair ({p!r}, {q!r}) references an unknown site")
            rows[i].add(j)
            rows[j].add(i)
        self._fill(ids, number, rows)

    @classmethod
    def _from_rows(cls, ids: tuple[SiteId, ...], number: dict[SiteId, int], rows: list) -> Graph:
        graph = cls.__new__(cls)  # over rows that the caller has checked
        graph._fill(ids, number, rows)
        return graph

    def _fill(self, ids: tuple[SiteId, ...], number: dict[SiteId, int], rows: list) -> None:
        """Take ``rows``: row ``i`` holds site ``i``'s distinct neighbour numbers, in any order."""
        self._ids, self._number = ids, number
        self._targets = array("i", chain.from_iterable(map(sorted, rows)))  # each row ascending
        self._offsets = array("i", accumulate(map(len, rows), initial=0))
        self._sites = self._pairs = self._near = self._bits = None  # derived on first use

    @property
    def sites(self) -> frozenset[SiteId]:
        if self._sites is None:
            self._sites = frozenset(self._ids)
        return self._sites

    @property
    def site_list(self) -> tuple[SiteId, ...]:
        """All sites in ascending order (the deterministic iteration order)."""
        return self._ids

    @property
    def pairs(self) -> tuple[tuple[SiteId, SiteId], ...]:
        """Unordered adjacency pairs, each sorted, in ascending order."""
        if self._pairs is None:
            ids, o, t = self._ids, self._offsets, self._targets
            self._pairs = tuple(
                (ids[i], ids[j]) for i in range(len(ids)) for j in t[o[i] : o[i + 1]] if i < j
            )
        return self._pairs

    def neighbors(self, p: SiteId) -> tuple[SiteId, ...]:
        """The neighbours of ``p``, ascending."""
        i = self._number.get(p)
        if i is None:
            raise InvalidRegionError(f"unknown site {p!r}")
        if self._near is None:  # every row as ids, in one flat tuple
            self._near = tuple(map(self._ids.__getitem__, self._targets))
        return self._near[self._offsets[i] : self._offsets[i + 1]]

    def least_site(self) -> SiteId:
        return self._ids[0]

    def is_connected(self) -> bool:
        return len(components_of(self, self._ids)) <= 1

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same_rows = self._offsets == other._offsets and self._targets == other._targets
        return self._ids == other._ids and same_rows

    def __hash__(self) -> int:
        return hash((self._ids, self._targets.tobytes()))

    def __repr__(self) -> str:
        return f"Graph({len(self._ids)} sites, {len(self._targets) // 2} pairs)"


class ScalarGraph:
    """A graph together with a real value per site and an optional reference site."""

    __slots__ = ("_graph", "_values", "_reference")

    def __init__(self, graph: Graph, values: Mapping[SiteId, float], reference: SiteId | None = None):
        sites = graph._number.keys()
        if values.keys() != sites:
            missing = sites - values.keys()
            if missing:
                raise ValueError(f"values missing for sites {sorted(missing)}")
            raise ValueError(f"values given for unknown sites {sorted(values.keys() - sites)}")
        if reference is not None and reference not in sites:
            raise ValueError(f"reference {reference!r} is not a site")
        self._graph = graph
        self._values = dict(values)
        self._reference = reference

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def values(self) -> dict[SiteId, float]:
        return dict(self._values)

    @property
    def reference(self) -> SiteId | None:
        return self._reference

    def value_of(self, p: SiteId) -> float:
        return self._values[p]

    def reference_site(self) -> SiteId:
        """The explicit reference site, defaulting to the least site."""
        return self._reference if self._reference is not None else self._graph.least_site()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarGraph):
            return NotImplemented
        return (
            self._graph == other._graph
            and self._values == other._values
            and self._reference == other._reference
        )

    def __repr__(self) -> str:
        return f"ScalarGraph({len(self._graph)} sites)"


class JCut(NamedTuple):
    """Oriented bipartition of a graph's sites, identified by its low side.

    The up side is implicitly the complement.  Instances are plain data:
    whether ``low`` and its complement are both non-empty and connected
    is checked by :func:`is_j_cut`, not at construction.
    """

    low: frozenset[SiteId]

    def sort_key(self) -> tuple[SiteId, ...]:
        return tuple(sorted(self.low))

    def flipped(self, g: Graph) -> "JCut":
        return JCut(complement(g, self.low))

    def __repr__(self) -> str:
        return "JCut({%s})" % ",".join(sorted(self.low))


def _check_region(g: Graph, r: Iterable[SiteId]) -> frozenset[SiteId]:
    region = frozenset(r)
    unknown = region - g.sites
    if unknown:
        raise InvalidRegionError(f"region references unknown sites {sorted(unknown)}")
    return region


def complement(g: Graph, r: Iterable[SiteId]) -> frozenset[SiteId]:
    return g.sites - _check_region(g, r)


def components_of(g: Graph, r: Iterable[SiteId]) -> tuple[frozenset[SiteId], ...]:
    """Connected components of the subgraph induced by ``r``.

    Components are pairwise disjoint, their union is ``r``, and they are
    returned ordered by their least site.
    """
    region = _check_region(g, r)
    seen: set[SiteId] = set()
    comps: list[frozenset[SiteId]] = []
    for start in sorted(region):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for q in g.neighbors(p):
                if q in region and q not in comp:
                    comp.add(q)
                    frontier.append(q)
        seen |= comp
        comps.append(frozenset(comp))
    return tuple(comps)


def is_region_connected(g: Graph, r: Iterable[SiteId]) -> bool:
    """True for regions with at most one component (the empty region counts)."""
    return len(components_of(g, r)) <= 1


def immediate_interior(g: Graph, r: Iterable[SiteId]) -> frozenset[SiteId]:
    """Sites of ``r`` having at least one neighbor outside ``r``."""
    region = _check_region(g, r)
    return frozenset(p for p in region if not region.issuperset(g.neighbors(p)))


def is_j_cut(g: Graph, x: Iterable[SiteId]) -> bool:
    """True iff ``x`` and its complement are both non-empty and connected."""
    region = _check_region(g, x)
    comp = g.sites - region
    if not region or not comp:
        return False
    return is_region_connected(g, region) and is_region_connected(g, comp)


def boundary_surfels(g: Graph, c: JCut) -> frozenset[Surfel]:
    """All crossing surfels of the cut, oriented low side to up side."""
    low = _check_region(g, c.low)
    return frozenset(Surfel(p, q) for p in low for q in g.neighbors(p) if q not in low)


def inverse_surfels(s: Iterable[Surfel]) -> frozenset[Surfel]:
    """Elementwise orientation flip; applying it twice is the identity."""
    return frozenset(e.inverse() for e in s)
