"""Efficient iso-tree construction via sublevel/superlevel merge trees.

Ties are broken symbolically: sites are ranked by (value, site id), so
the ranked graph has a unique value per site.  Two union-find sweeps
build the sublevel and superlevel merge trees; a sweep that ends with
more than one root rejects the graph as disconnected.  A leaf-pruning
merge, on one parent pointer and one child count per site in each tree,
combines them into the augmented contour tree (one node per site).  One
tie contraction then builds both trees: with the input values it joins
the sites of every equal-value edge into one zone (the iso-tree, gaps in
input units); with the ranks as values nothing ties, and it gives the
ranked iso-tree (singleton zones, rank gaps), which is built only on
request (``--no-reduce``, ``--show-intermediate``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .errors import InternalInconsistencyError, PreconditionError
from .graph import ScalarGraph, SiteId
from .tree import IsoTree


class RankPerturbation(NamedTuple):
    """Order-preserving bijection of sites onto ranks 0..n-1.

    Ranks follow (value, site id) lexicographically, so equal values are
    broken by site order and strict value order is preserved exactly.
    ``order`` lists the sites ascending (index = rank); ``rank`` maps
    each site to its index.
    """

    order: tuple[SiteId, ...]
    rank: Mapping[SiteId, int]

    def rank_of(self, p: SiteId) -> int:
        return self.rank[p]


@dataclass(frozen=True)
class MergeTree:
    """Parent relation over all sites from one union-find sweep.

    Sublevel flavor: every parent has a strictly greater rank (the tree
    root is the global maximum).  Superlevel flavor: parents have
    strictly smaller ranks and the root is the global minimum.
    """

    flavor: str  # "sublevel" | "superlevel"
    parent: Mapping[SiteId, SiteId | None]


@dataclass(frozen=True)
class AugmentedContourTree:
    """Free tree over all sites; every edge is oriented (lower, higher) by rank."""

    sites: frozenset[SiteId]
    edges: tuple[tuple[SiteId, SiteId], ...]


def perturb_rank(sg: ScalarGraph) -> RankPerturbation:
    """Rank sites by (value, site id); injective and order-preserving."""
    order = tuple(sorted(sg.graph.sites, key=lambda p: (sg.value_of(p), p)))
    return RankPerturbation(order, dict(zip(order, range(len(order)))))


def _sweep(sg: ScalarGraph, rp: RankPerturbation, ascending: bool) -> dict[SiteId, SiteId | None]:
    neighbors = sg.graph.neighbors
    parent: dict[SiteId, SiteId | None] = {}
    # Path-halving union-find over the swept sites.  Each new site becomes
    # the root of its merged component, so a root is always the newest
    # site of its component: the "top" sweeping up, the "bottom" down.
    uf: dict[SiteId, SiteId] = {}
    roots = len(rp.order)
    for x in rp.order if ascending else reversed(rp.order):
        parent[x] = None
        uf[x] = x
        for r in filter(uf.__contains__, neighbors(x)):
            while uf[r] != r:
                uf[r] = r = uf[uf[r]]
            if r != x:
                parent[r] = uf[r] = x
                roots -= 1
    if roots > 1:
        raise PreconditionError("merge-tree sweeps require a connected graph")
    return parent


def sublevel_merge_tree(sg: ScalarGraph, rp: RankPerturbation) -> MergeTree:
    """Track components of the growing sublevel sets; edges point up-rank."""
    return MergeTree("sublevel", _sweep(sg, rp, ascending=True))


def superlevel_merge_tree(sg: ScalarGraph, rp: RankPerturbation) -> MergeTree:
    """Track components of the growing superlevel sets; edges point down-rank."""
    return MergeTree("superlevel", _sweep(sg, rp, ascending=False))


def merge_to_augmented_ct(jt: MergeTree, st: MergeTree) -> AugmentedContourTree:
    """Leaf-pruning merge of the two sweep trees into the contour tree.

    Each tree keeps one parent pointer and one child count per site.  A
    site is prunable when it has no child in one tree and exactly one in
    the other: the edge to its parent in the childless tree is a
    contour-tree edge, and that parent loses a child.  A pruned site
    stays in the pointers; a lookup skips pruned sites and stores the
    parent it found.  The process ends when a single site remains.
    """
    if jt.parent.keys() != st.parent.keys():
        raise PreconditionError("merge trees cover different site sets")
    sites = jt.parent.keys()
    if len(sites) <= 1:
        return AugmentedContourTree(frozenset(sites), ())

    def child_counts(tree: MergeTree) -> dict[SiteId, int]:
        count = dict.fromkeys(sites, 0)
        for q in tree.parent.values():
            if q in count:
                count[q] += 1
            elif q is not None:
                raise InternalInconsistencyError(f"{tree.flavor} parent {q!r} is not a site")
        return count

    p_sub, n_sub = dict(jt.parent), child_counts(jt)
    p_sup, n_sup = dict(st.parent), child_counts(st)
    pruned: set[SiteId] = set()

    def lookup(parent: dict, x: SiteId) -> SiteId | None:
        """x's nearest parent that is not pruned, stored in place of x's pointer.

        Both of a leaf's parents are looked up before it is pruned: one that
        came back to x would leave a cycle of pruned sites to circle forever.
        """
        y = parent[x]
        while y in pruned:
            y = parent[y]
        if y == x:
            raise InternalInconsistencyError(f"merge trees hold a cycle through {x!r}")
        parent[x] = y
        return y

    heap = sorted(sites)
    edges: list[tuple[SiteId, SiteId]] = []
    for _ in range(len(sites) - 1):
        while heap:
            x = heapq.heappop(heap)
            if x not in pruned and n_sub[x] + n_sup[x] == 1:
                break
        else:
            raise InternalInconsistencyError("leaf-pruning merge stalled; malformed merge trees")
        if n_sub[x] == 0:
            mate = lookup(p_sub, x)
            if mate is None:
                raise InternalInconsistencyError(f"lower leaf {x!r} has no sublevel parent")
            lookup(p_sup, x)
            edges.append((x, mate))
            n_sub[mate] -= 1
        else:
            mate = lookup(p_sup, x)
            if mate is None:
                raise InternalInconsistencyError(f"upper leaf {x!r} has no superlevel parent")
            lookup(p_sub, x)
            edges.append((mate, x))
            n_sup[mate] -= 1
        pruned.add(x)
        heapq.heappush(heap, mate)  # the only site whose child counts changed

    return AugmentedContourTree(frozenset(sites), tuple(sorted(edges)))


def ct_to_iso_tree(sg: ScalarGraph, rp: RankPerturbation, ct: AugmentedContourTree) -> IsoTree:
    """Iso-tree of the rank-valued graph: singleton zones, rank gaps."""
    return _contract(sg, rp.order, ct.edges, range(len(rp.order)))


def build_iso_tree(sg: ScalarGraph, reduce: bool = True) -> IsoTree:
    """Full pipeline: rank, sweep both ways, merge, contract equal values.

    With ``reduce=False`` the returned tree is the iso-tree of the
    rank-valued graph (singleton zones, gaps in rank units).
    """
    rp = perturb_rank(sg)
    jt = sublevel_merge_tree(sg, rp)
    st = superlevel_merge_tree(sg, rp)
    ct = merge_to_augmented_ct(jt, st)
    return _contract(sg, rp.order, ct.edges, None if reduce else range(len(rp.order)))


def reduce_by_f(sg: ScalarGraph, tree_h: IsoTree) -> IsoTree:
    """Contract the equal-value edges of the ranked tree of ``sg``.

    ``tree_h`` must be the ranked tree (``build_iso_tree(sg,
    reduce=False)``): one edge per pair of sites joined in the contour
    tree, each pointing up in rank.  Any other tree, an already reduced
    one included, raises ``InternalInconsistencyError``.
    """
    return _contract(sg, perturb_rank(sg).order, [(lo, hi) for lo, hi, _ in tree_h.edge_rows()])


def _contract(
    sg: ScalarGraph,
    order: Sequence[SiteId],
    edges: Sequence[tuple[SiteId, SiteId]],
    values: Sequence[float] | None = None,
) -> IsoTree:
    """Iso-tree of ``sg`` from its contour tree, ties contracted.

    ``order`` lists the sites in (value, site) order, so that each
    zone's sites arrive ascending, and each edge ``(lo, hi)`` must point
    up in it.  Node values are ``values``,
    aligned with ``order``, or the input values when it is None.  Edges
    whose ends carry equal values join their sites into one zone; every
    other edge becomes a tree edge with gap ``value(hi) - value(lo)``.
    """
    n = len(order)
    if len(edges) != n - 1:
        raise InternalInconsistencyError(f"{len(edges)} edges over {n} nodes")
    number = dict(zip(order, range(n)))
    lo_at = [number.get(lo) for lo, _ in edges]
    hi_at = [number.get(hi) for _, hi in edges]
    for (lo, hi), i, j in zip(edges, lo_at, hi_at):
        if i is None or j is None:
            raise InternalInconsistencyError(f"contour edge {lo!r}->{hi!r} names an unknown site")
        if not i < j:
            raise InternalInconsistencyError(f"contour edge {lo!r}->{hi!r} points down in rank")

    # Union-find over the tie edges; each root is the least node of its set.
    value = list(map(sg.value_of, order)) if values is None else values
    parent = list(range(n))
    kept = []
    for i, j in zip(lo_at, hi_at):
        if value[i] != value[j]:
            kept.append((i, j))
            continue
        ri, rj = i, j
        while parent[ri] != ri:
            parent[ri] = ri = parent[parent[ri]]
        while parent[rj] != rj:
            parent[rj] = rj = parent[parent[rj]]
        if ri == rj:
            raise InternalInconsistencyError(
                f"tie edge {order[i]!r}->{order[j]!r} closes a cycle"
            )
        if ri < rj:
            parent[rj] = ri
        else:
            parent[ri] = rj

    # Zones in order of their least node; nodes join them in rank order.
    zone_of = [0] * n
    zone_sites: list[list[SiteId]] = []
    zone_value = []
    for i in range(n):
        r = parent[i]
        while parent[r] != r:
            r = parent[r]
        parent[i] = r
        if r == i:
            zone_of[i] = len(zone_sites)
            zone_sites.append([order[i]])
            zone_value.append(value[i])
        else:
            zone_of[i] = z = zone_of[r]
            zone_sites[z].append(order[i])
    rep = [sites[0] for sites in zone_sites]
    reference = sg.reference_site()
    return IsoTree(
        zone_sites,
        zone_value,
        [rep[zone_of[i]] for i, _ in kept],
        [rep[zone_of[j]] for _, j in kept],
        [value[j] - value[i] for i, j in kept],
        reference,
        value[number[reference]],
    )
