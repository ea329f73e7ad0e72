"""Level cuts, iso-zones, iso-trees and the axiom machinery.

A level cut (L-cut) is a Jordan cut whose low-side immediate interior
takes strictly smaller values than its up-side immediate interior.  The
full L-cut set of a mono-connected scalar graph partitions the sites
into iso-zones of constant value and induces a free tree whose directed
edges are the cuts, each carrying a positive value gap.  The tree plus a
reference value is a complete encoding of the input: the reconstruction
transform recovers every site value by signed gap sums along tree paths.

Two axioms (nesting and tangency) characterize exactly the valued cut
sets that arise this way; ``validate_regular_division`` checks them.
An ``IsoTree`` is held on the graph's site numbers, as the pipeline's
stages are.  Every tree made from a cut set is assembled one way: one
signature pass gives each site its zone's least site, and the
``IsoTree`` constructor joins each cut's pair.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import namedtuple
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import eq, gt, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    InconsistentZoneError,
    InvariantViolationError,
    MissingReferenceError,
    NotAnLCutError,
    NotATreeError,
)
from .graph import (
    Graph,
    JCut,
    ScalarGraph,
    SiteId,
    _check_region,
    boundary_surfels,
    immediate_interior,
    inverse_surfels,
    is_j_cut,
)


class LCut(namedtuple("LCut", "cut gap")):
    """A Jordan cut paired with a positive value gap, oriented low to up."""

    __slots__ = ()

    def __new__(cls, cut: JCut, gap: float) -> LCut:
        if not gap > 0:
            raise ValueError(f"value gap must be positive, got {gap!r}")
        return super().__new__(cls, cut, gap)


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


class ValuedJDivision(tuple):
    """A set of Jordan cuts, each assigned one positive value gap.

    The division is the tuple of its ``LCut``s in cut order.  Whether it
    is regular (satisfies the nesting and tangent axioms) is decided by
    :func:`validate_regular_division`, not here.
    """

    __slots__ = ()

    def __new__(cls, cuts: Iterable[LCut]) -> ValuedJDivision:
        gap_by_cut: dict[JCut, float] = {}
        for lc in cuts:
            if lc.cut in gap_by_cut and gap_by_cut[lc.cut] != lc.gap:
                raise ValueError(f"conflicting gaps for cut {lc.cut!r}")
            gap_by_cut[lc.cut] = lc.gap
        return super().__new__(
            cls, (LCut(cut, gap_by_cut[cut]) for cut in sorted(gap_by_cut, key=JCut.sort_key))
        )

    @property
    def cuts(self) -> tuple[LCut, ...]:
        return self

    @classmethod
    def of_tree(cls, tree: IsoTree) -> ValuedJDivision:
        return cls(LCut(e.cut, e.gap) for e in tree.edges)


class AxiomViolation(NamedTuple):
    axiom: str  # "nesting" | "tangent"
    first: JCut
    second: JCut


class AxiomReport(NamedTuple):
    violations: tuple[AxiomViolation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def _interior_bounds(sg: ScalarGraph, c: JCut) -> tuple[float, float] | None:
    """(max value over II(low), min value over II(up)); None if either is empty."""
    g = sg.graph
    low_ii = immediate_interior(g, c.low)
    up_ii = immediate_interior(g, g.sites - frozenset(c.low))
    if not low_ii or not up_ii:
        return None
    return max(sg.value_of(p) for p in low_ii), min(sg.value_of(p) for p in up_ii)


def is_l_cut(sg: ScalarGraph, c: JCut) -> bool:
    """True iff max value over II(low) is strictly below min value over II(up)."""
    bounds = _interior_bounds(sg, c)
    return bounds is not None and bounds[0] < bounds[1]


def _signature_partition(g: Graph, cuts: list[JCut]) -> tuple[list[int], dict[int, int]]:
    """Group the site numbers by which side of each cut they lie on.

    Bit ``i`` of a site's signature is set when the site lies on the low
    side of ``cuts[i]``.  Returns each site's root, the least site with
    its signature, and each signature's root, in order of the roots.  A
    cut site outside the graph raises :class:`InvalidRegionError`.
    """
    number = g._number
    sig = [0] * len(g)
    for i, c in enumerate(cuts):
        bit = 1 << i
        for p in _check_region(g, c.low):
            sig[number[p]] |= bit
    roots: dict[int, int] = {}
    return [roots.setdefault(s, i) for i, s in enumerate(sig)], roots


def _class_values(sg: ScalarGraph, root: list[int]) -> tuple[list[list[SiteId]], list[float]]:
    """Each signature class's sites, ascending, and its one value, in class order."""
    members: dict[int, list[SiteId]] = {}
    for p, r in zip(sg.graph.site_list, root):
        members.setdefault(r, []).append(p)
    values = []
    for sites in members.values():
        found = {sg.value_of(p) for p in sites}
        if len(found) != 1:
            raise InconsistentZoneError(f"zone {sites} carries several values {sorted(found)}")
        values.append(found.pop())
    return list(members.values()), values


def _zone_pairs(cuts: list[JCut], roots: dict[int, int]) -> tuple[list[int], list[int]]:
    """Each cut's (low, up) zone numbers: the classes whose signatures differ only in its bit."""
    zone = {sig: z for z, sig in enumerate(roots)}
    lows, ups = [], []
    for i, c in enumerate(cuts):
        bit = 1 << i
        found = [(z, zone[s ^ bit]) for s, z in zone.items() if s & bit and s ^ bit in zone]
        if len(found) != 1:
            raise NotATreeError(f"cut {c!r} does not join exactly one pair of zones")
        lows.append(found[0][0])
        ups.append(found[0][1])
    return lows, ups


def _cut_arrays(sg: ScalarGraph, cuts: list[JCut], gaps: list[float] | None = None) -> tuple:
    """The ``IsoTree`` constructor's arguments for a sorted, duplicate-free cut list.

    Edge ``k`` joins cut ``k``'s zone pair and, without ``gaps``, takes
    the value difference of its zones.  The cut edge ``k`` derives is
    cut ``k``: with every cut site a graph site, a cut's low side is
    exactly the split its edge makes, because along any other edge only
    that edge's own signature bit flips.
    """
    root, roots = _signature_partition(sg.graph, cuts)
    values = _class_values(sg, root)[1]
    lows, ups = _zone_pairs(cuts, roots)
    if gaps is None:
        gaps = [values[b] - values[a] for a, b in zip(lows, ups)]
    reps = list(roots.values())
    lows, ups = [reps[a] for a in lows], [reps[b] for b in ups]
    return sg.graph.site_list, root, values, lows, ups, gaps, sg.reference_site()


def zones_from_cuts(sg: ScalarGraph, cuts: Iterable[JCut]) -> tuple[IsoZone, ...]:
    """Iso-zones induced by a cut set: one zone per side-signature class.

    The scalar function must be constant on every class; a non-constant
    class signals that the cuts are not the full L-cut set of the graph.
    """
    root = _signature_partition(sg.graph, sorted(set(cuts), key=JCut.sort_key))[0]
    members, values = _class_values(sg, root)
    return tuple(map(IsoZone, map(frozenset, members), values))


def build_iso_tree_from_cuts(sg: ScalarGraph, cuts: Iterable[LCut]) -> IsoTree:
    """Assemble the iso-tree whose edge set is the given L-cuts.

    The cuts must be exactly the L-cuts of the scalar graph; anything
    else surfaces as an inconsistent zone or a failed free-tree check.
    A cut given twice with different gaps raises ``ValueError``.
    """
    division = ValuedJDivision(cuts)
    return IsoTree(*_cut_arrays(sg, [lc.cut for lc in division], [lc.gap for lc in division]))


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


def division_to_tree(
    g: Graph,
    division: ValuedJDivision,
    reference: SiteId | None = None,
    reference_value: float = 0,
) -> IsoTree:
    """Induced tree of a valued division: zone values propagate from the gaps.

    This is the bridge from a regular valued division back to a scalar
    graph: feed the result through :func:`reconstruct_rt`.  No scalar
    function is consulted; the reference zone gets ``reference_value``
    and every other zone the signed gap sum along its tree path.
    """
    cuts = [lc.cut for lc in division]
    gaps = [lc.gap for lc in division]
    root, roots = _signature_partition(g, cuts)
    lows, ups = _zone_pairs(cuts, roots)
    if reference is None:
        reference = g.least_site()
    if reference not in g._number:
        raise MissingReferenceError(f"reference {reference!r} not covered by any zone")
    reps = list(roots.values())
    ref = reps.index(root[g._number[reference]])
    values = _signed_gap_walk(len(reps), lows, ups, gaps, ref, reference_value)
    if None in values:
        raise NotATreeError("division does not connect all zones")
    lows, ups = [reps[a] for a in lows], [reps[b] for b in ups]
    return IsoTree(g.site_list, root, values, lows, ups, gaps, reference)


def validate_regular_division(g: Graph, division: ValuedJDivision) -> AxiomReport:
    """Check every unordered cut pair against the nesting and tangent axioms.

    Nesting: one side of each cut must contain or avoid one side of the
    other (no crossing).  Tangency: the boundary of one cut never meets
    the inverted boundary of another.  Violations are reported as data.
    """
    cuts = [lc.cut for lc in division.cuts]
    sides = [(frozenset(c.low), g.sites - frozenset(c.low)) for c in cuts]
    boundaries = [boundary_surfels(g, c) for c in cuts]
    inverted = [inverse_surfels(b) for b in boundaries]
    violations: list[AxiomViolation] = []
    for i in range(len(cuts)):
        x, xc = sides[i]
        for j in range(i + 1, len(cuts)):
            y, yc = sides[j]
            if not (x <= y or x <= yc or xc <= y or xc <= yc):
                violations.append(AxiomViolation("nesting", cuts[i], cuts[j]))
            if not boundaries[i].isdisjoint(inverted[j]):
                violations.append(AxiomViolation("tangent", cuts[i], cuts[j]))
    return AxiomReport(tuple(violations))


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


def value_gap_of(sg: ScalarGraph, c: JCut) -> float:
    """Value gap of an L-cut: min value over II(up) minus max value over II(low)."""
    bounds = _interior_bounds(sg, c)
    if bounds is None or not bounds[0] < bounds[1]:
        raise NotAnLCutError(f"{c!r} is not a level cut of the graph")
    return bounds[1] - bounds[0]


def check_iso_tree(sg: ScalarGraph, tree: IsoTree) -> None:
    """Assert every iso-tree invariant against its scalar graph.

    The zones must partition the sites (:func:`reconstruct_rt` raises
    :class:`NotATreeError` otherwise) and each zone's value must be the
    value of its sites.  Any other failure raises
    :class:`InvariantViolationError`.  Used by the oracle before
    returning a tree, and by tests.
    """
    g = sg.graph
    reconstruct_rt(g, tree)
    for p, z, v in zip(g.site_list, tree._zone, sg._value):
        if tree._values[z] != v:
            raise InvariantViolationError(
                f"site {p!r} has value {v!r}, its zone {tree._values[z]!r}"
            )
    for e in tree.edges:
        cut = e.cut
        if not is_j_cut(g, cut.low):
            raise InvariantViolationError(f"edge cut {cut!r} is not a Jordan cut")
        if not is_l_cut(sg, cut):
            raise InvariantViolationError(f"edge cut {cut!r} is not a level cut")
    report = validate_regular_division(g, ValuedJDivision.of_tree(tree))
    if not report.valid:
        v = report.violations[0]
        raise InvariantViolationError(f"{v.axiom} axiom fails for {v.first!r} / {v.second!r}")
