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
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
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

    The cut is the split the tree makes when the edge is removed, so a
    tree derives it instead of storing it: an edge of an :class:`IsoTree`
    holds its low side as a span of the tree's zone preorder, and builds
    the site set only when ``cut`` is read.  An edge made outside a tree
    may carry the cut it stands for (``cut=None`` otherwise); the tree
    checks it once.  Edges compare by zones and gap only.
    """

    __slots__ = ("low", "up", "gap", "_cut", "_span")

    def __init__(self, low: SiteId, up: SiteId, cut: JCut | None, gap: float):
        self.low = low
        self.up = up
        self.gap = gap
        self._cut = cut
        # (zone sites in preorder, start, stop, inside): the low side is
        # the zones at start..stop-1 when inside, every other zone if not.
        self._span: tuple[tuple[frozenset[SiteId], ...], int, int, bool] | None = None

    @property
    def cut(self) -> JCut | None:
        if self._span is None:
            return self._cut
        zone_sites, start, stop, inside = self._span
        parts = zone_sites[start:stop] if inside else zone_sites[:start] + zone_sites[stop:]
        return JCut(frozenset().union(*parts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeEdge):
            return NotImplemented
        return (self.low, self.up, self.gap) == (other.low, other.up, other.gap)

    def __hash__(self) -> int:
        return hash((self.low, self.up, self.gap))

    def __repr__(self) -> str:
        return f"TreeEdge(low={self.low!r}, up={self.up!r}, gap={self.gap!r})"


class IsoTree:
    """Free tree of iso-zones connected by L-cut edges.

    Construction validates the structural invariants: zones are disjoint
    and non-empty, edges reference zone representatives, every edge gap
    is positive and equals the value difference of its zones, and the
    zone/edge structure is a connected tree (``|edges| = |zones| - 1``).
    It also orders the zones depth first, so that every edge's low side
    is a span of that preorder or its complement; a cut given with an
    edge must be that side.
    """

    __slots__ = ("_zones", "_edges", "_reference", "_reference_value", "_by_rep", "_site_rep", "_adj")

    def __init__(
        self,
        zones: Iterable[IsoZone],
        edges: Iterable[TreeEdge],
        reference: SiteId,
        reference_value: float,
    ):
        self._zones = tuple(sorted(zones, key=attrgetter("rep")))
        given = sorted(edges, key=attrgetter("low", "up"))
        self._reference = reference
        self._reference_value = reference_value

        self._by_rep = by_rep = {z.rep: z for z in self._zones}
        self._site_rep = site_rep = {p: z.rep for z in self._zones for p in z.sites}
        if len(site_rep) != sum(len(z.sites) for z in self._zones):
            # Name the first shared site in zone order; sorted zones put
            # equal representatives side by side.
            seen: set[SiteId] = set()
            for i, z in enumerate(self._zones):
                if i and z.rep == self._zones[i - 1].rep:
                    raise NotATreeError(f"duplicate zone representative {z.rep!r}")
                for p in z.sites:
                    if p in seen:
                        raise NotATreeError(f"site {p!r} belongs to more than one zone")
                    seen.add(p)

        neighbors: dict[SiteId, list[SiteId]] = {rep: [] for rep in by_rep}
        for e in given:
            if e.low not in by_rep or e.up not in by_rep:
                raise NotATreeError(f"edge {e.low!r}->{e.up!r} references an unknown zone")
            if e.low == e.up:
                raise NotATreeError(f"self-edge on zone {e.low!r}")
            if not e.gap > 0:
                raise NotATreeError(f"edge {e.low!r}->{e.up!r} has non-positive gap {e.gap!r}")
            if by_rep[e.low].value + e.gap != by_rep[e.up].value:
                raise NotATreeError(
                    f"edge {e.low!r}->{e.up!r}: gap {e.gap!r} does not bridge zone values "
                    f"{by_rep[e.low].value!r} and {by_rep[e.up].value!r}"
                )
            neighbors[e.low].append(e.up)
            neighbors[e.up].append(e.low)

        if len(given) != len(self._zones) - 1:
            raise NotATreeError(
                f"{len(given)} edges over {len(self._zones)} zones is not a free tree"
            )
        # Depth-first preorder from the least zone: each zone's subtree
        # is the span order[pos[rep]:stop[pos[rep]]].
        order: list[SiteId] = []
        parent: dict[SiteId, SiteId | None] = {}
        if self._zones:
            parent[self._zones[0].rep] = None
            stack = [self._zones[0].rep]
            while stack:
                rep = stack.pop()
                order.append(rep)
                for other in neighbors[rep]:
                    if other not in parent:
                        parent[other] = rep
                        stack.append(other)
            if len(order) != len(self._zones):
                raise NotATreeError("zone graph is not connected")
        pos = {rep: i for i, rep in enumerate(order)}
        stop = list(range(1, len(order) + 1))
        for i in range(len(order) - 1, 0, -1):
            j = pos[parent[order[i]]]
            stop[j] = max(stop[j], stop[i])
        zone_sites = tuple(by_rep[rep].sites for rep in order)

        adj: dict[SiteId, list[TreeEdge]] = {rep: [] for rep in by_rep}
        bound = []
        for e in given:
            child = e.up if parent[e.up] == e.low else e.low
            edge = TreeEdge(e.low, e.up, None, e.gap)
            edge._span = (zone_sites, pos[child], stop[pos[child]], child == e.low)
            if e._cut is not None and e._cut != edge.cut:
                raise NotATreeError(
                    f"edge {e.low!r}->{e.up!r}: stored cut differs from its subtree split"
                )
            bound.append(edge)
            adj[e.low].append(edge)
            adj[e.up].append(edge)
        self._edges = tuple(bound)
        self._adj = adj

    @property
    def zones(self) -> tuple[IsoZone, ...]:
        return self._zones

    @property
    def edges(self) -> tuple[TreeEdge, ...]:
        return self._edges

    @property
    def reference(self) -> SiteId:
        return self._reference

    @property
    def reference_value(self) -> float:
        return self._reference_value

    def zone_by_rep(self, rep: SiteId) -> IsoZone:
        return self._by_rep[rep]

    def zone_of(self, site: SiteId) -> IsoZone | None:
        rep = self._site_rep.get(site)
        return None if rep is None else self._by_rep[rep]

    def incident_edges(self, rep: SiteId) -> tuple[TreeEdge, ...]:
        return tuple(self._adj[rep])

    def sites(self) -> frozenset[SiteId]:
        return frozenset(self._site_rep)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IsoTree):
            return NotImplemented
        return (
            self._zones == other._zones
            and self._edges == other._edges
            and self._reference == other._reference
            and self._reference_value == other._reference_value
        )

    def __repr__(self) -> str:
        return f"IsoTree({len(self._zones)} zones, {len(self._edges)} edges)"


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


def _signature_partition(g: Graph, cuts: list[JCut]) -> list[frozenset[SiteId]]:
    """Group sites by which side of each cut they lie on."""
    groups: dict[int, list[SiteId]] = {}
    for p in g.site_list:
        sig = 0
        for i, c in enumerate(cuts):
            if p in c.low:
                sig |= 1 << i
        groups.setdefault(sig, []).append(p)
    return [frozenset(sites) for sites in groups.values()]


def zones_from_cuts(sg: ScalarGraph, cuts: Iterable[JCut]) -> tuple[IsoZone, ...]:
    """Iso-zones induced by a cut set: one zone per side-signature class.

    The scalar function must be constant on every class; a non-constant
    class signals that the cuts are not the full L-cut set of the graph.
    """
    cut_list = sorted(set(cuts), key=JCut.sort_key)
    zones = []
    for sites in _signature_partition(sg.graph, cut_list):
        values = {sg.value_of(p) for p in sites}
        if len(values) != 1:
            raise InconsistentZoneError(
                f"zone {sorted(sites)} carries several values {sorted(values)}"
            )
        zones.append(IsoZone(sites, values.pop()))
    return tuple(sorted(zones, key=attrgetter("rep")))


def _paired_edges(
    cut_list: list[JCut], zone_sites: list[frozenset[SiteId]]
) -> list[tuple[int, int]]:
    """For each cut, the unique pair of zones whose signatures differ only there.

    Returns (low zone index, up zone index) per cut, in cut order.
    """
    sig_of_zone: list[int] = []
    for sites in zone_sites:
        rep = min(sites)
        sig = 0
        for i, c in enumerate(cut_list):
            if rep in c.low:
                sig |= 1 << i
        sig_of_zone.append(sig)
    zone_at_sig = {sig: idx for idx, sig in enumerate(sig_of_zone)}
    if len(zone_at_sig) != len(zone_sites):
        raise NotATreeError("two zones share a side signature")
    pairs: list[tuple[int, int]] = []
    for i in range(len(cut_list)):
        bit = 1 << i
        found: list[tuple[int, int]] = []
        for sig, idx in zone_at_sig.items():
            if sig & bit and (sig ^ bit) in zone_at_sig:
                found.append((idx, zone_at_sig[sig ^ bit]))
        if len(found) != 1:
            raise NotATreeError(
                f"cut {cut_list[i]!r} does not join exactly one pair of zones"
            )
        pairs.append(found[0])
    return pairs


def _zones_and_pairs(
    sg: ScalarGraph, cut_list: list[JCut]
) -> tuple[tuple[IsoZone, ...], list[tuple[int, int]]]:
    """Zones of a sorted, duplicate-free cut list, and each cut's zone pair."""
    zones = zones_from_cuts(sg, cut_list)
    return zones, _paired_edges(cut_list, [z.sites for z in zones])


def _tree_of_pairs(
    sg: ScalarGraph,
    zones: tuple[IsoZone, ...],
    cuts: Iterable[LCut],
    pairs: list[tuple[int, int]],
) -> IsoTree:
    """The tree whose edges join each cut's zone pair; ``IsoTree`` checks the gaps."""
    edges = [
        TreeEdge(zones[low_idx].rep, zones[up_idx].rep, lc.cut, lc.gap)
        for lc, (low_idx, up_idx) in zip(cuts, pairs)
    ]
    reference = sg.reference_site()
    return IsoTree(zones, edges, reference, sg.value_of(reference))


def build_iso_tree_from_cuts(sg: ScalarGraph, cuts: Iterable[LCut]) -> IsoTree:
    """Assemble the iso-tree whose edge set is the given L-cuts.

    The cuts must be exactly the L-cuts of the scalar graph; anything
    else surfaces as an inconsistent zone or a failed free-tree check.
    """
    by_cut: dict[JCut, LCut] = {}
    for lc in cuts:
        if lc.cut in by_cut and by_cut[lc.cut].gap != lc.gap:
            raise NotATreeError(f"conflicting gaps for cut {lc.cut!r}")
        by_cut[lc.cut] = lc
    cut_list = sorted(by_cut, key=JCut.sort_key)
    zones, pairs = _zones_and_pairs(sg, cut_list)
    return _tree_of_pairs(sg, zones, [by_cut[c] for c in cut_list], pairs)


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
    cut_list = [lc.cut for lc in division.cuts]
    gaps = [lc.gap for lc in division.cuts]
    zone_sites = sorted(_signature_partition(g, cut_list), key=min)
    pairs = _paired_edges(cut_list, zone_sites)
    if reference is None:
        reference = g.least_site()
    ref_idx = next((i for i, sites in enumerate(zone_sites) if reference in sites), None)
    if ref_idx is None:
        raise MissingReferenceError(f"reference {reference!r} not covered by any zone")

    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(len(zone_sites))}
    for (low_idx, up_idx), gap in zip(pairs, gaps):
        adj[low_idx].append((up_idx, +gap))
        adj[up_idx].append((low_idx, -gap))
    value: dict[int, float] = {ref_idx: reference_value}
    stack = [ref_idx]
    while stack:
        idx = stack.pop()
        for other, signed in adj[idx]:
            if other not in value:
                value[other] = value[idx] + signed
                stack.append(other)
    if len(value) != len(zone_sites):
        raise NotATreeError("division does not connect all zones")

    zones = [IsoZone(sites, value[i]) for i, sites in enumerate(zone_sites)]
    edges = [
        TreeEdge(zones[low_idx].rep, zones[up_idx].rep, cut, gap)
        for cut, gap, (low_idx, up_idx) in zip(cut_list, gaps, pairs)
    ]
    return IsoTree(zones, edges, reference, reference_value)


def validate_regular_division(g: Graph, division: ValuedJDivision) -> AxiomReport:
    """Check every unordered cut pair against the nesting and tangent axioms.

    Nesting: one side of each cut must contain or avoid one side of the
    other (no crossing).  Tangency: the boundary of one cut never meets
    the inverted boundary of another.  Violations are reported as data.
    """
    cuts = [lc.cut for lc in division.cuts]
    sides = [(frozenset(c.low), g.sites - frozenset(c.low)) for c in cuts]
    boundaries = [boundary_surfels(g, c) for c in cuts]
    violations: list[AxiomViolation] = []
    for i in range(len(cuts)):
        x, xc = sides[i]
        for j in range(i + 1, len(cuts)):
            y, yc = sides[j]
            if not (x <= y or x <= yc or xc <= y or xc <= yc):
                violations.append(AxiomViolation("nesting", cuts[i], cuts[j]))
            if boundaries[i] & inverse_surfels(boundaries[j]):
                violations.append(AxiomViolation("tangent", cuts[i], cuts[j]))
    return AxiomReport(tuple(violations))


def reconstruct_rt(g: Graph, tree: IsoTree) -> ScalarGraph:
    """Recover the scalar graph encoded by an iso-tree.

    Every site of a zone receives the tree's reference value plus the
    signed gap sum along the unique path from the reference zone, where
    following an edge low-to-up adds its gap and up-to-low subtracts it.
    """
    ref_zone = tree.zone_of(tree.reference)
    if ref_zone is None:
        raise MissingReferenceError(f"reference {tree.reference!r} is not in any zone")
    covered = tree.sites()
    if covered != g.sites:
        raise NotATreeError("tree zones do not partition the graph's sites")

    zone_value: dict[SiteId, float] = {ref_zone.rep: tree.reference_value}
    stack = [ref_zone.rep]
    while stack:
        rep = stack.pop()
        for e in tree.incident_edges(rep):
            if e.low == rep and e.up not in zone_value:
                zone_value[e.up] = zone_value[rep] + e.gap
                stack.append(e.up)
            elif e.up == rep and e.low not in zone_value:
                zone_value[e.low] = zone_value[rep] - e.gap
                stack.append(e.low)

    values: dict[SiteId, float] = {}
    for z in tree.zones:
        v = zone_value[z.rep]
        for p in z.sites:
            values[p] = v
    return ScalarGraph(g, values, reference=tree.reference)


def value_gap_of(sg: ScalarGraph, c: JCut) -> float:
    """Value gap of an L-cut: min value over II(up) minus max value over II(low)."""
    bounds = _interior_bounds(sg, c)
    if bounds is None or not bounds[0] < bounds[1]:
        raise NotAnLCutError(f"{c!r} is not a level cut of the graph")
    return bounds[1] - bounds[0]


def check_iso_tree(sg: ScalarGraph, tree: IsoTree) -> None:
    """Assert every iso-tree invariant against its scalar graph.

    Raises :class:`InvariantViolationError` on the first failure.  Used
    by the oracle before returning a tree, and by tests.
    """
    g = sg.graph
    if tree.sites() != g.sites:
        raise InvariantViolationError("zones do not partition the site set")
    for z in tree.zones:
        values = {sg.value_of(p) for p in z.sites}
        if values != {z.value}:
            raise InvariantViolationError(
                f"zone {z.rep!r} value {z.value!r} disagrees with site values {sorted(values)}"
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
