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
Every tree made from a cut set is assembled one way: one signature pass
groups the sites, and the ``IsoTree`` constructor joins each cut's pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import gt
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class LCut:
    """A Jordan cut paired with a positive value gap, oriented low to up."""

    cut: JCut
    gap: float

    def __post_init__(self) -> None:
        if not self.gap > 0:
            raise ValueError(f"value gap must be positive, got {self.gap!r}")


@dataclass(frozen=True)
class IsoZone:
    """A maximal region of constant value; its subgraph may be disconnected."""

    sites: frozenset[SiteId]
    value: float

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("an iso-zone cannot be empty")
        # The least site represents the zone; eq, hash and repr ignore it.
        object.__setattr__(self, "rep", min(self.sites))


class TreeEdge:
    """Directed tree edge from the low zone to the up zone of one L-cut.

    The cut is the split the tree makes when the edge is removed, so it
    is derived, not stored: an edge holds its low side as one slice of
    its tree's preorder site tuple, or as that slice's complement, and
    builds the site set only when ``cut`` is read.  Only
    :attr:`IsoTree.edges` makes edges.  Edges compare by zones and gap
    only.
    """

    __slots__ = ("low", "up", "gap", "_span")

    def __init__(self, low: SiteId, up: SiteId, gap: float, span: tuple):
        self.low = low
        self.up = up
        self.gap = gap
        # (sites in zone preorder, start, stop, inside): the low side is
        # sites[start:stop] when inside, every other site if not.
        self._span = span

    @property
    def cut(self) -> JCut:
        sites, start, stop, inside = self._span
        return JCut(frozenset(sites[start:stop] if inside else sites[:start] + sites[stop:]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeEdge):
            return NotImplemented
        return (self.low, self.up, self.gap) == (other.low, other.up, other.gap)

    def __hash__(self) -> int:
        return hash((self.low, self.up, self.gap))

    def __repr__(self) -> str:
        return f"TreeEdge(low={self.low!r}, up={self.up!r}, gap={self.gap!r})"


def _disjoint(reps: list[SiteId], zone_sites: list[list[SiteId]]) -> list[list[SiteId]]:
    """The zones' site lists with repeats inside a zone dropped.

    Raises on a representative that two zones share, or else names the
    least shared site of the first zone, in representative order, that
    repeats a site of an earlier zone.
    """
    seen: set[SiteId] = set()
    unique = []
    for z, sites in enumerate(zone_sites):
        if z and reps[z] == reps[z - 1]:
            raise NotATreeError(f"duplicate zone representative {reps[z]!r}")
        own = sorted(set(sites))
        for p in own:
            if p in seen:
                raise NotATreeError(f"site {p!r} belongs to more than one zone")
        seen.update(own)
        unique.append(own)
    return unique


class IsoTree:
    """Free tree of iso-zones connected by L-cut edges, held in flat arrays.

    Zones are numbered in the order of their representatives (each
    zone's least site), and edges are kept in (low, up) representative
    order.  The tree stores:

    - ``_sites``: every site, zone after zone in the depth-first preorder
      of the zones from zone 0, each zone's sites ascending, so that every
      zone and every subtree is one contiguous slice;
    - per zone ``z``: ``_reps[z]``, ``_values[z]``, the slice
      ``_start[z]:_end[z]`` of its own sites and the end ``_stop[z]`` of
      its subtree's slice;
    - per edge: ``_low``, ``_up`` (zone numbers) and ``_gap``;
    - ``_zone``: the zone number of every site, for ``zone_of``.

    An edge's low side is the subtree slice of its child end, or that
    slice's complement, so no cut is stored.  ``zones`` and ``edges``
    build their :class:`IsoZone` and :class:`TreeEdge` objects the first
    time they are read and keep them; equality compares the arrays.

    The constructor takes zones as ascending site lists and edges by
    their ends' representatives, both in any order; a site repeated
    within one zone counts once.  It checks the structural invariants:
    zones are disjoint, every edge joins two distinct zones with a
    positive gap equal to their value difference, and the zones and
    edges form a connected tree (``|edges| = |zones| - 1``).
    """

    __slots__ = (
        "_sites", "_zone", "_reps", "_values", "_start", "_end", "_stop",
        "_low", "_up", "_gap", "_reference", "_reference_value",
        "_zone_objs", "_edge_objs",
    )

    def __init__(
        self,
        zone_sites: list[list[SiteId]],
        values: list[float],
        lows: list[SiteId],
        ups: list[SiteId],
        gaps: list[float],
        reference: SiteId,
        reference_value: float,
    ):
        n = len(zone_sites)
        reps = [sites[0] for sites in zone_sites]
        if any(map(gt, reps, islice(reps, 1, None))):
            by_rep = sorted(range(n), key=reps.__getitem__)
            zone_sites = [zone_sites[z] for z in by_rep]
            reps = [reps[z] for z in by_rep]
            values = [values[z] for z in by_rep]
        self._reference = reference
        self._reference_value = reference_value

        def numbered(zone_sites):
            numbers = chain.from_iterable(map(repeat, range(n), map(len, zone_sites)))
            return dict(zip(chain.from_iterable(zone_sites), numbers))

        zone = numbered(zone_sites)
        if len(zone) != sum(map(len, zone_sites)):
            zone_sites = _disjoint(reps, zone_sites)
            zone = numbered(zone_sites)

        # Edges in (low, up) order; zone numbers follow representative order.
        number = dict(zip(reps, range(n)))
        low, up = list(map(number.get, lows)), list(map(number.get, ups))
        if None in low or None in up:
            order = sorted(range(len(low)), key=lambda k: (lows[k], ups[k]))
        else:
            order = sorted(range(len(low)), key=[a * n + b for a, b in zip(low, up)].__getitem__)
        low, up = [low[k] for k in order], [up[k] for k in order]
        gap = [gaps[k] for k in order]
        for k, (a, b, g) in enumerate(zip(low, up, gap)):
            if a is None or b is None:
                raise NotATreeError(
                    f"edge {lows[order[k]]!r}->{ups[order[k]]!r} references an unknown zone"
                )
            if a == b:
                raise NotATreeError(f"self-edge on zone {reps[a]!r}")
            if not g > 0:
                raise NotATreeError(f"edge {reps[a]!r}->{reps[b]!r} has non-positive gap {g!r}")
            if values[a] + g != values[b]:
                raise NotATreeError(
                    f"edge {reps[a]!r}->{reps[b]!r}: gap {g!r} does not bridge zone values "
                    f"{values[a]!r} and {values[b]!r}"
                )
        if len(low) != n - 1:
            raise NotATreeError(f"{len(low)} edges over {n} zones is not a free tree")

        # Depth-first preorder of the zones from zone 0; each zone's own
        # sites take the next slice of the site tuple as it is reached.
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for a, b in zip(low, up):
            neighbors[a].append(b)
            neighbors[b].append(a)
        parent = [-1] * n
        parent[0] = 0
        start, end = [0] * n, [0] * n
        preorder = []
        offset = 0
        stack = [0]
        while stack:
            z = stack.pop()
            preorder.append(z)
            start[z] = offset
            offset += len(zone_sites[z])
            end[z] = offset
            for other in neighbors[z]:
                if parent[other] < 0:
                    parent[other] = z
                    stack.append(other)
        if len(preorder) != n:
            raise NotATreeError("zone graph is not connected")
        stop = end[:]
        for z in reversed(preorder):
            if stop[z] > stop[parent[z]]:
                stop[parent[z]] = stop[z]

        self._sites = tuple(chain.from_iterable(map(zone_sites.__getitem__, preorder)))
        self._zone = zone
        self._reps, self._values = tuple(reps), tuple(values)
        self._start, self._end, self._stop = tuple(start), tuple(end), tuple(stop)
        self._low, self._up, self._gap = tuple(low), tuple(up), tuple(gap)
        self._zone_objs = self._edge_objs = None

    @property
    def zones(self) -> tuple[IsoZone, ...]:
        if self._zone_objs is None:
            sites = self._sites
            self._zone_objs = tuple(
                IsoZone(frozenset(sites[s:e]), v)
                for s, e, v in zip(self._start, self._end, self._values)
            )
        return self._zone_objs

    @property
    def edges(self) -> tuple[TreeEdge, ...]:
        if self._edge_objs is None:
            reps, sites, start, stop = self._reps, self._sites, self._start, self._stop
            edges = []
            for a, b, gap in zip(self._low, self._up, self._gap):
                # The low side is the child end's subtree slice, or the rest.
                child = b if start[a] <= start[b] < stop[a] else a
                span = (sites, start[child], stop[child], child == a)
                edges.append(TreeEdge(reps[a], reps[b], gap, span))
            self._edge_objs = tuple(edges)
        return self._edge_objs

    @property
    def reference(self) -> SiteId:
        return self._reference

    @property
    def reference_value(self) -> float:
        return self._reference_value

    def zone_rows(self) -> Iterator[tuple[SiteId, tuple[SiteId, ...], float]]:
        """Each zone as (representative, sites ascending, value), in representative order."""
        sites = self._sites
        slices = map(slice, self._start, self._end)
        return zip(self._reps, map(sites.__getitem__, slices), self._values)

    def edge_rows(self) -> Iterator[tuple[SiteId, SiteId, float]]:
        """Each edge as (low representative, up representative, gap), in (low, up) order."""
        rep = self._reps.__getitem__
        return zip(map(rep, self._low), map(rep, self._up), self._gap)

    def zone_of(self, site: SiteId) -> IsoZone | None:
        z = self._zone.get(site)
        if z is None:
            return None
        if self._zone_objs is not None:
            return self._zone_objs[z]
        return IsoZone(frozenset(self._sites[self._start[z] : self._end[z]]), self._values[z])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IsoTree):
            return NotImplemented
        # Equal representatives and edges give the same preorder, and then
        # equal zone ends and site tuples give the same zones.
        return (
            self._reps == other._reps
            and self._values == other._values
            and self._low == other._low
            and self._up == other._up
            and self._gap == other._gap
            and self._end == other._end
            and self._sites == other._sites
            and self._reference == other._reference
            and self._reference_value == other._reference_value
        )

    def __repr__(self) -> str:
        return f"IsoTree({len(self._reps)} zones, {len(self._low)} edges)"


class ValuedJDivision:
    """A set of Jordan cuts, each assigned one positive value gap.

    Whether the division is regular (satisfies the nesting and tangent
    axioms) is decided by :func:`validate_regular_division`, not here.
    """

    __slots__ = ("_cuts",)

    def __init__(self, cuts: Iterable[LCut]):
        gap_by_cut: dict[JCut, float] = {}
        for lc in cuts:
            if lc.cut in gap_by_cut and gap_by_cut[lc.cut] != lc.gap:
                raise ValueError(f"conflicting gaps for cut {lc.cut!r}")
            gap_by_cut[lc.cut] = lc.gap
        self._cuts = tuple(
            LCut(cut, gap_by_cut[cut]) for cut in sorted(gap_by_cut, key=JCut.sort_key)
        )

    @property
    def cuts(self) -> tuple[LCut, ...]:
        return self._cuts

    def __iter__(self) -> Iterator[LCut]:
        return iter(self._cuts)

    def __len__(self) -> int:
        return len(self._cuts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValuedJDivision):
            return NotImplemented
        return self._cuts == other._cuts

    @classmethod
    def of_tree(cls, tree: IsoTree) -> "ValuedJDivision":
        return cls(LCut(e.cut, e.gap) for e in tree.edges)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str  # "nesting" | "tangent"
    first: JCut
    second: JCut


@dataclass(frozen=True)
class AxiomReport:
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


def _signature_partition(g: Graph, cuts: list[JCut]) -> dict[int, list[SiteId]]:
    """Group sites by which side of each cut they lie on.

    Bit ``i`` of a site's signature is set when the site lies on the low
    side of ``cuts[i]``.  The classes are keyed by signature, each lists
    its sites ascending, and they come in order of their least site.  A
    cut site outside the graph raises :class:`InvalidRegionError`.
    """
    sig = dict.fromkeys(g.site_list, 0)
    for i, c in enumerate(cuts):
        bit = 1 << i
        for p in _check_region(g, c.low):
            sig[p] |= bit
    classes: dict[int, list[SiteId]] = {}
    for p in g.site_list:
        classes.setdefault(sig[p], []).append(p)
    return classes


def _class_values(sg: ScalarGraph, classes: dict[int, list[SiteId]]) -> list[float]:
    """The one value of each signature class, in class order."""
    values = []
    for sites in classes.values():
        found = {sg.value_of(p) for p in sites}
        if len(found) != 1:
            raise InconsistentZoneError(f"zone {sites} carries several values {sorted(found)}")
        values.append(found.pop())
    return values


def _zone_pairs(cuts: list[JCut], classes: dict) -> tuple[list[int], list[int]]:
    """Each cut's (low, up) zone numbers: the classes whose signatures differ only in its bit."""
    zone = {sig: z for z, sig in enumerate(classes)}
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
    classes = _signature_partition(sg.graph, cuts)
    values = _class_values(sg, classes)
    lows, ups = _zone_pairs(cuts, classes)
    if gaps is None:
        gaps = [values[b] - values[a] for a, b in zip(lows, ups)]
    zone_sites = list(classes.values())
    reference = sg.reference_site()
    return (
        zone_sites, values, [zone_sites[a][0] for a in lows], [zone_sites[b][0] for b in ups],
        gaps, reference, sg.value_of(reference),
    )


def zones_from_cuts(sg: ScalarGraph, cuts: Iterable[JCut]) -> tuple[IsoZone, ...]:
    """Iso-zones induced by a cut set: one zone per side-signature class.

    The scalar function must be constant on every class; a non-constant
    class signals that the cuts are not the full L-cut set of the graph.
    """
    classes = _signature_partition(sg.graph, sorted(set(cuts), key=JCut.sort_key))
    return tuple(map(IsoZone, map(frozenset, classes.values()), _class_values(sg, classes)))


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
    classes = _signature_partition(g, cuts)
    lows, ups = _zone_pairs(cuts, classes)
    zone_sites = list(classes.values())
    if reference is None:
        reference = g.least_site()
    ref = next((z for z, sites in enumerate(zone_sites) if reference in sites), None)
    if ref is None:
        raise MissingReferenceError(f"reference {reference!r} not covered by any zone")
    values = _signed_gap_walk(len(zone_sites), lows, ups, gaps, ref, reference_value)
    if None in values:
        raise NotATreeError("division does not connect all zones")
    return IsoTree(
        zone_sites, values, [zone_sites[a][0] for a in lows], [zone_sites[b][0] for b in ups],
        gaps, reference, reference_value,
    )


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
    zone = tree._zone
    ref = zone.get(tree.reference)
    if ref is None:
        raise MissingReferenceError(f"reference {tree.reference!r} is not in any zone")
    if zone.keys() != g.sites:
        raise NotATreeError("tree zones do not partition the graph's sites")

    zone_value = _signed_gap_walk(
        len(tree._reps), tree._low, tree._up, tree._gap, ref, tree.reference_value
    )
    values = dict(zip(zone, map(zone_value.__getitem__, zone.values())))
    return ScalarGraph(g, values, reference=tree.reference)


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
    held = {p: tree._values[z] for p, z in tree._zone.items()}
    if held != sg.values:
        p = min(p for p in g.sites if held[p] != sg.values[p])
        raise InvariantViolationError(f"site {p!r} has value {sg.values[p]!r}, its zone {held[p]!r}")
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
