"""Core graph machinery: sites, surfels, regions and Jordan cuts.

A graph is a finite set of sites with an undirected adjacency relation.
Every unordered adjacent pair induces two oriented surfels.  A region is
any subset of the site set (plain ``frozenset`` in this package); a
Jordan cut (J-cut) is an oriented bipartition whose two sides are both
non-empty and connected.  All objects are immutable after construction
and safe to share between threads; the operations below are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    The sorted pairs tuple is derived from the adjacency on first read,
    and the bit view that exhaustive scans use is built on first use
    (see ``_bitgraph.bit_view``); both are kept here.  Filling either
    slot is idempotent: two threads racing to fill one store equal
    values.  Equality, hash and repr ignore the bit view.
    """

    __slots__ = ("_sites", "_site_list", "_adj", "_pairs", "_bits")

    def __init__(self, sites: Iterable[SiteId], adjacency: Iterable[tuple[SiteId, SiteId]] = ()):
        site_set = frozenset(sites)
        if not site_set:
            raise ValueError("a graph needs at least one site")
        adj: dict[SiteId, set[SiteId]] = {p: set() for p in site_set}
        for p, q in adjacency:
            if p == q:
                raise ValueError(f"self-pair on site {p!r}")
            if p not in site_set or q not in site_set:
                raise ValueError(f"adjacency pair ({p!r}, {q!r}) references an unknown site")
            adj[p].add(q)
            adj[q].add(p)
        self._fill(adj)

    @classmethod
    def _from_adjacency(cls, adj: dict[SiteId, set[SiteId]]) -> "Graph":
        """The graph whose neighbour sets are ``adj``, taken unchecked.

        For callers that have already checked every pair: ``adj`` is
        non-empty, and it is symmetric and loop-free over its own keys.
        """
        g = cls.__new__(cls)
        g._fill(adj)
        return g

    def _fill(self, adj: dict[SiteId, set[SiteId]]) -> None:
        self._sites = frozenset(adj)
        self._site_list = tuple(sorted(adj))
        self._adj: dict[SiteId, frozenset[SiteId]] = {p: frozenset(n) for p, n in adj.items()}
        self._pairs: tuple[tuple[SiteId, SiteId], ...] | None = None
        self._bits = None

    @property
    def sites(self) -> frozenset[SiteId]:
        return self._sites

    @property
    def site_list(self) -> tuple[SiteId, ...]:
        """All sites in ascending order (the deterministic iteration order)."""
        return self._site_list

    @property
    def pairs(self) -> tuple[tuple[SiteId, SiteId], ...]:
        """Unordered adjacency pairs, each sorted, in ascending order."""
        pairs = self._pairs
        if pairs is None:
            adj = self._adj
            pairs = self._pairs = tuple(
                (p, q) for p in self._site_list for q in sorted(adj[p]) if p < q
            )
        return pairs

    def neighbors(self, p: SiteId) -> frozenset[SiteId]:
        try:
            return self._adj[p]
        except KeyError:
            raise InvalidRegionError(f"unknown site {p!r}") from None

    def least_site(self) -> SiteId:
        return self._site_list[0]

    def is_connected(self) -> bool:
        return len(components_of(self, self._sites)) <= 1

    def __len__(self) -> int:
        return len(self._sites)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._sites == other._sites and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash((self._sites, self.pairs))

    def __repr__(self) -> str:
        return f"Graph({len(self._sites)} sites, {len(self.pairs)} pairs)"


class ScalarGraph:
    """A graph together with a real value per site and an optional reference site."""

    __slots__ = ("_graph", "_values", "_reference")

    def __init__(self, graph: Graph, values: Mapping[SiteId, float], reference: SiteId | None = None):
        missing = graph.sites - values.keys()
        if missing:
            raise ValueError(f"values missing for sites {sorted(missing)}")
        extra = values.keys() - graph.sites
        if extra:
            raise ValueError(f"values given for unknown sites {sorted(extra)}")
        if reference is not None and reference not in graph.sites:
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


@dataclass(frozen=True)
class JCut:
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
    todo = set(_check_region(g, r))
    frontier = [todo.pop()] if todo else []
    while frontier:
        found = todo.intersection(g.neighbors(frontier.pop()))
        todo -= found
        frontier += found
    return not todo


def immediate_interior(g: Graph, r: Iterable[SiteId]) -> frozenset[SiteId]:
    """Sites of ``r`` having at least one neighbor outside ``r``."""
    region = _check_region(g, r)
    return frozenset(p for p in region if not g.neighbors(p) <= region)


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
