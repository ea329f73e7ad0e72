"""Efficient iso-tree construction via sublevel/superlevel merge trees.

Ties are broken symbolically: sites are ranked by (value, site id), so
the ranked graph has a unique value per site.  Two union-find sweeps
build the sublevel and superlevel merge trees, and a leaf-pruning merge
combines them into the augmented contour tree (one node per site).  The
iso-tree is that tree with its equal-value edges contracted, gaps in
input units.  The ranked iso-tree (singleton zones, rank gaps) is built
only on request (``--no-reduce``, ``--show-intermediate``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InternalInconsistencyError, PreconditionError
from .graph import ScalarGraph, SiteId
from .tree import IsoTree, IsoZone, TreeEdge
from .unionfind import UnionFind


class RankPerturbation:
    """Order-preserving bijection of sites onto ranks 0..n-1.

    Ranks follow (value, site id) lexicographically, so equal values are
    broken by site order and strict value order is preserved exactly.
    """

    __slots__ = ("_order", "_rank")

    def __init__(self, order: tuple[SiteId, ...]):
        self._order = order
        self._rank = {p: i for i, p in enumerate(order)}

    @property
    def order(self) -> tuple[SiteId, ...]:
        """Sites sorted ascending by (value, site id); index = rank."""
        return self._order

    @property
    def rank(self) -> Mapping[SiteId, int]:
        return dict(self._rank)

    def rank_of(self, p: SiteId) -> int:
        return self._rank[p]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankPerturbation):
            return NotImplemented
        return self._order == other._order


@dataclass(frozen=True)
class MergeTree:
    """Parent relation over all sites from one union-find sweep.

    Sublevel flavor: every parent has a strictly greater rank (the tree
    root is the global maximum).  Superlevel flavor: parents have
    strictly smaller ranks and the root is the global minimum.
    """

    flavor: str  # "sublevel" | "superlevel"
    parent: Mapping[SiteId, SiteId | None]

    def children(self) -> dict[SiteId, set[SiteId]]:
        out: dict[SiteId, set[SiteId]] = {p: set() for p in self.parent}
        for p, q in self.parent.items():
            if q is not None:
                out[q].add(p)
        return out


@dataclass(frozen=True)
class AugmentedContourTree:
    """Free tree over all sites; every edge is oriented (lower, higher) by rank."""

    sites: frozenset[SiteId]
    edges: tuple[tuple[SiteId, SiteId], ...]


def perturb_rank(sg: ScalarGraph) -> RankPerturbation:
    """Rank sites by (value, site id); injective and order-preserving."""
    return RankPerturbation(tuple(sorted(sg.graph.sites, key=lambda p: (sg.value_of(p), p))))


def _sweep(sg: ScalarGraph, rp: RankPerturbation, ascending: bool) -> dict[SiteId, SiteId | None]:
    g = sg.graph
    if not g.is_connected():
        raise PreconditionError("merge-tree sweeps require a connected graph")
    order = rp.order if ascending else tuple(reversed(rp.order))
    parent: dict[SiteId, SiteId | None] = {}
    uf = UnionFind()
    # newest[root] is the most recently added site of the component: the
    # "top" while sweeping up, the "bottom" while sweeping down.
    newest: dict[SiteId, SiteId] = {}
    for x in order:
        uf.add(x)
        parent[x] = None
        roots = {uf.find(q) for q in g.neighbors(x) if q in parent and q != x}
        roots.discard(uf.find(x))
        for root in sorted(roots, key=rp.rank_of):
            parent[newest[root]] = x
            uf.union(root, x)
        newest[uf.find(x)] = x
    return parent


def sublevel_merge_tree(sg: ScalarGraph, rp: RankPerturbation) -> MergeTree:
    """Track components of the growing sublevel sets; edges point up-rank."""
    return MergeTree("sublevel", _sweep(sg, rp, ascending=True))


def superlevel_merge_tree(sg: ScalarGraph, rp: RankPerturbation) -> MergeTree:
    """Track components of the growing superlevel sets; edges point down-rank."""
    return MergeTree("superlevel", _sweep(sg, rp, ascending=False))


def merge_to_augmented_ct(jt: MergeTree, st: MergeTree) -> AugmentedContourTree:
    """Leaf-pruning merge of the two sweep trees into the contour tree.

    A site is prunable when it is childless in one tree and has exactly
    one child in the other: the edge to its parent in the childless tree
    is a contour-tree edge.  Pruned sites are spliced out of both trees;
    the process ends when a single site remains.
    """
    if jt.parent.keys() != st.parent.keys():
        raise PreconditionError("merge trees cover different site sets")
    sites = set(jt.parent.keys())
    if len(sites) <= 1:
        return AugmentedContourTree(frozenset(sites), ())

    p_sub: dict[SiteId, SiteId | None] = dict(jt.parent)
    p_sup: dict[SiteId, SiteId | None] = dict(st.parent)
    ch_sub = jt.children()
    ch_sup = st.children()

    def lower_leaf(x: SiteId) -> bool:
        return not ch_sub[x] and len(ch_sup[x]) == 1

    def upper_leaf(x: SiteId) -> bool:
        return not ch_sup[x] and len(ch_sub[x]) == 1

    heap = sorted(sites)
    edges: list[tuple[SiteId, SiteId]] = []
    remaining = set(sites)

    def splice(parent: dict, children: dict, x: SiteId) -> list[SiteId]:
        """Remove x, reconnecting its unique child (if any) to its parent."""
        touched = []
        pp = parent.pop(x)
        kids = children.pop(x)
        if pp is not None:
            ch = children[pp]
            ch.discard(x)
            touched.append(pp)
        for c in kids:
            parent[c] = pp
            if pp is not None:
                children[pp].add(c)
            touched.append(c)
        return touched

    while len(remaining) > 1:
        while heap:
            x = heapq.heappop(heap)
            if x in remaining and (lower_leaf(x) or upper_leaf(x)):
                break
        else:
            raise InternalInconsistencyError("leaf-pruning merge stalled; malformed merge trees")
        if lower_leaf(x):
            mate = p_sub[x]
            if mate is None:
                raise InternalInconsistencyError(f"lower leaf {x!r} has no sublevel parent")
            edges.append((x, mate))
        else:
            mate = p_sup[x]
            if mate is None:
                raise InternalInconsistencyError(f"upper leaf {x!r} has no superlevel parent")
            edges.append((mate, x))
        remaining.discard(x)
        for touched in splice(p_sub, ch_sub, x) + splice(p_sup, ch_sup, x):
            if touched in remaining:
                heapq.heappush(heap, touched)

    return AugmentedContourTree(frozenset(sites), tuple(sorted(edges)))


def ct_to_iso_tree(sg: ScalarGraph, rp: RankPerturbation, ct: AugmentedContourTree) -> IsoTree:
    """Iso-tree of the rank-valued graph: singleton zones, rank gaps.

    Each contour-tree edge becomes an L-cut edge; its bipartition is the
    split the edge induces on the tree's sites, which the tree derives.
    """
    zones = [IsoZone(frozenset({p}), rp.rank_of(p)) for p in ct.sites]
    edges = [TreeEdge(lo, hi, None, rp.rank_of(hi) - rp.rank_of(lo)) for lo, hi in ct.edges]
    reference = sg.reference_site()
    return IsoTree(zones, edges, reference, rp.rank_of(reference))


def build_iso_tree(sg: ScalarGraph, reduce: bool = True) -> IsoTree:
    """Full pipeline: rank, sweep both ways, merge, contract equal values.

    With ``reduce=False`` the returned tree is the iso-tree of the
    rank-valued graph (singleton zones, gaps in rank units).
    """
    rp = perturb_rank(sg)
    jt = sublevel_merge_tree(sg, rp)
    st = superlevel_merge_tree(sg, rp)
    ct = merge_to_augmented_ct(jt, st)
    if not reduce:
        return ct_to_iso_tree(sg, rp, ct)
    return _contract(sg, rp.order, ct.edges)


def reduce_by_f(sg: ScalarGraph, tree_h: IsoTree) -> IsoTree:
    """Contract equal-value edges of the ranked tree back to input units.

    Every zone of ``tree_h`` must carry one input value; the tree's own
    zone values order its zones as ranks do.
    """
    members, rank = {}, {}
    for rep, sites, value in tree_h.zone_rows():
        values = {sg.value_of(p) for p in sites}
        if len(values) != 1:
            raise InternalInconsistencyError(f"zone {rep!r} mixes input values {sorted(values)}")
        members[rep] = sites
        rank[rep] = value
    return contract_ties(sg, members, rank, [(lo, hi) for lo, hi, _ in tree_h.edge_rows()])


def contract_ties(
    sg: ScalarGraph,
    members: Mapping[SiteId, Iterable[SiteId]],
    rank: Mapping[SiteId, float],
    edges: Sequence[tuple[SiteId, SiteId]],
) -> IsoTree:
    """Iso-tree of ``sg`` from a tree over its sites, ties contracted.

    ``members`` maps each node of the tree, itself a site, to all the
    sites it stands for, which share the node's input value; each edge
    ``(lo, hi)`` points up in ``rank``.  Edges whose ends carry equal
    input values join their nodes into one zone; every other edge
    becomes a tree edge with gap ``value(hi) - value(lo)``.  The cut of
    a surviving edge is the split it made in the given tree.
    """
    order = sorted(members, key=rank.__getitem__)
    return _contract(sg, order, edges, [members[node] for node in order])


def _contract(
    sg: ScalarGraph,
    order: Sequence[SiteId],
    edges: Sequence[tuple[SiteId, SiteId]],
    members: Sequence[Iterable[SiteId]] | None = None,
) -> IsoTree:
    """``contract_ties`` over nodes numbered by rank: ``order`` lists them ascending.

    Node ``i`` stands for ``members[i]``, or for the site ``order[i]``
    alone when ``members`` is None; in that case ``order`` must be the
    (value, site) order, so that each zone's sites arrive ascending.
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
    value = list(map(sg.value_of, order))
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
            zone_sites.append([order[i]] if members is None else list(members[i]))
            zone_value.append(value[i])
        else:
            zone_of[i] = z = zone_of[r]
            if members is None:
                zone_sites[z].append(order[i])
            else:
                zone_sites[z].extend(members[i])
    if members is not None:
        for sites in zone_sites:
            sites.sort()
    rep = [sites[0] for sites in zone_sites]
    reference = sg.reference_site()
    return IsoTree.from_arrays(
        zone_sites,
        zone_value,
        [rep[zone_of[i]] for i, _ in kept],
        [rep[zone_of[j]] for _, j in kept],
        [value[j] - value[i] for i, j in kept],
        reference,
        sg.value_of(reference),
    )
