"""Core graph machinery: sites, scalar graphs and Jordan cuts.

A graph is a finite set of sites with an undirected adjacency relation,
held as compressed sparse rows over site numbers (each site's place in
the ascending id tuple), and a scalar graph's values as one tuple by site
number, so the pipeline and the bit view run on ints; ``neighbors``
gives a site's row as ids.  A Jordan cut (J-cut) is an oriented
bipartition whose two sides are both non-empty and connected.  All
objects are immutable after construction and safe to share between
threads.  The regions, surfels and the J-cut test are in
:mod:`isotree.axioms`, next to the cuts that use them; ``isotree build``
needs only this half.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property
from itertools import accumulate, chain

from .errors import InvalidRegionError

SiteId = str


class Graph:
    """Finite undirected graph over sites, immutable after construction.

    Adjacency is given as unordered pairs.  Self-pairs and pairs that
    reference unknown sites are rejected; duplicate pairs collapse.
    Connectedness is a queryable property, not a construction invariant.
    Site ``i`` (the i-th id, ascending) has the neighbours
    ``_targets[_offsets[i]:_offsets[i + 1]]``, ascending.  The id-to-number
    dict, the site set, the pairs, the rows as ids and the bit view are
    cached properties, kept on first read; racing threads derive equal values.
    """

    __slots__ = ("_ids", "_offsets", "_targets", "__dict__")

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
        self._fill(ids, rows)

    @classmethod
    def _from_rows(cls, ids: tuple[SiteId, ...], rows: list) -> Graph:
        graph = cls.__new__(cls)  # over rows that the caller has checked
        graph._fill(ids, rows)
        return graph

    def _fill(self, ids: tuple[SiteId, ...], rows: list) -> None:
        """Take ``rows``: row ``i`` holds site ``i``'s distinct neighbour numbers, in any order."""
        self._ids = ids
        self._targets = array("i", chain.from_iterable(map(sorted, rows)))  # each row ascending
        self._offsets = array("i", accumulate(map(len, rows), initial=0))

    @cached_property
    def _number(self) -> dict[SiteId, int]:
        """Each site's number, by id; the default build of a grid or a document never reads it."""
        return dict(zip(self._ids, range(len(self._ids))))

    @cached_property
    def sites(self) -> frozenset[SiteId]:
        return frozenset(self._ids)

    @property
    def site_list(self) -> tuple[SiteId, ...]:
        """All sites in ascending order (the deterministic iteration order)."""
        return self._ids

    @cached_property
    def pairs(self) -> tuple[tuple[SiteId, SiteId], ...]:
        """Unordered adjacency pairs, each sorted, in ascending order."""
        ids, o, t = self._ids, self._offsets, self._targets
        return tuple((ids[i], ids[j]) for i in range(len(ids)) for j in t[o[i] : o[i + 1]] if i < j)

    @cached_property
    def _near(self) -> tuple[SiteId, ...]:
        """Every row as ids, in one flat tuple."""
        return tuple(map(self._ids.__getitem__, self._targets))

    @cached_property
    def _bits(self) -> BitGraph:
        """The bit view that the exhaustive scans read."""
        from ._bitgraph import BitGraph  # here, as _bitgraph imports this module

        return BitGraph(self)

    def neighbors(self, p: SiteId) -> tuple[SiteId, ...]:
        """The neighbours of ``p``, ascending."""
        i = self._number.get(p)
        if i is None:
            raise InvalidRegionError(f"unknown site {p!r}")
        return self._near[self._offsets[i] : self._offsets[i + 1]]

    def least_site(self) -> SiteId:
        return self._ids[0]

    def is_connected(self) -> bool:
        from .axioms import components_of  # the region half, which no build runs

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
    """A graph with a real value per site, one tuple by site number, and an optional reference."""

    __slots__ = ("_graph", "_value", "_reference")

    def __init__(self, graph: Graph, values: Mapping[SiteId, float], reference: SiteId | None = None):
        ids = graph.site_list
        missing = [p for p in ids if p not in values]
        if missing:
            raise ValueError(f"values missing for sites {missing}")
        if len(values) != len(ids):  # every site has a value, so some key is not a site
            raise ValueError(f"values given for unknown sites {sorted(values.keys() - ids)}")
        if reference is not None and reference not in values:
            raise ValueError(f"reference {reference!r} is not a site")
        self._graph, self._reference = graph, reference
        self._value = tuple(map(values.__getitem__, ids))

    @classmethod
    def _by_number(cls, graph: Graph, value: tuple, reference: SiteId | None = None) -> ScalarGraph:
        sg = cls.__new__(cls)  # over one value per site, in site order, that the caller built
        sg._graph, sg._value, sg._reference = graph, value, reference
        return sg

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def values(self) -> dict[SiteId, float]:
        return dict(zip(self._graph.site_list, self._value))

    @property
    def reference(self) -> SiteId | None:
        return self._reference

    def value_of(self, p: SiteId) -> float:
        return self._value[self._graph._number[p]]

    def reference_site(self) -> SiteId:
        """The explicit reference site, defaulting to the least site."""
        return self._reference if self._reference is not None else self._graph.least_site()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarGraph):
            return NotImplemented
        return (
            self._graph == other._graph
            and self._value == other._value
            and self._reference == other._reference
        )

    def __repr__(self) -> str:
        return f"ScalarGraph({len(self._graph)} sites)"


class JCut(namedtuple("JCut", "low")):
    """Oriented bipartition of a graph's sites, identified by its low side (a ``frozenset``).

    The up side is implicitly the complement.  Instances are plain data:
    whether ``low`` and its complement are both non-empty and connected
    is checked by :func:`isotree.axioms.is_j_cut`, not at construction.
    """

    __slots__ = ()

    def sort_key(self) -> tuple[SiteId, ...]:
        return tuple(sorted(self.low))

    def flipped(self, g: Graph) -> "JCut":
        from .axioms import complement

        return JCut(complement(g, self.low))

    def __repr__(self) -> str:
        return "JCut({%s})" % ",".join(sorted(self.low))
