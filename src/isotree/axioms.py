"""Regions, level cuts, valued divisions and the axioms that characterize iso-trees.

A region is any subset of a graph's site set (a ``frozenset``), and every
adjacent pair induces two oriented surfels; the region operations are
pure.  A level cut (L-cut) is a Jordan cut whose low-side immediate interior
takes strictly smaller values than its up-side immediate interior.  Two
axioms (nesting and tangency) characterize exactly the valued cut sets
that arise as the edges of an iso-tree; ``validate_regular_division``
checks them, and ``check_iso_tree`` asserts every invariant of a tree
against its graph.  Every tree made from a cut set is assembled one way:
one signature pass gives each site its zone's least site, and the
``IsoTree`` constructor joins each cut's pair.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, NamedTuple

from .errors import (
    InconsistentZoneError,
    InvalidRegionError,
    InvariantViolationError,
    MissingReferenceError,
    NotAnLCutError,
    NotATreeError,
)
from .graph import Graph, JCut, ScalarGraph, SiteId
from .tree import IsoTree, IsoZone, _signed_gap_walk, reconstruct_rt


class Surfel(NamedTuple):
    """Oriented face between two adjacent sites; ``(p, q)`` and ``(q, p)`` differ."""

    src: SiteId
    dst: SiteId

    def inverse(self) -> "Surfel":
        return Surfel(self.dst, self.src)


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


class LCut(namedtuple("LCut", "cut gap")):
    """A Jordan cut paired with a positive value gap, oriented low to up."""

    __slots__ = ()

    def __new__(cls, cut: JCut, gap: float) -> LCut:
        if not gap > 0:
            raise ValueError(f"value gap must be positive, got {gap!r}")
        return super().__new__(cls, cut, gap)


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
