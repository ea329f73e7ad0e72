"""Efficient iso-tree construction via sublevel/superlevel merge trees.

Every step runs on site numbers (see ``Graph``); ids appear only in the
zone lists and in error messages.  Ties are broken symbolically: sites
are ranked by (value, site id), so the ranked graph has a unique value
per site.  Two union-find sweeps over the graph's rows build the
sublevel and superlevel merge trees; a sweep that ends with more than
one root rejects the graph as disconnected.  A leaf-pruning merge, on
one parent pointer and one child count per site in each tree, combines
them into the augmented contour tree (one node per site).  One tie
contraction then builds both trees: with the input values it joins the
sites of every equal-value edge into one zone (the iso-tree, gaps in
input units); with the ranks as values nothing ties, and it gives the
ranked iso-tree (singleton zones, rank gaps), which is built only on
request (``--no-reduce``, ``--show-intermediate``).  The public stage
functions are the same steps, and they check the inputs they are given.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple, Sequence

from .errors import InternalInconsistencyError, PreconditionError
from .graph import Graph, ScalarGraph, SiteId
from .tree import IsoTree


class MergeTree(NamedTuple):
    """Parent of each site number from one union-find sweep (``n`` for the root).

    Sublevel flavor: every parent has a strictly greater rank (the root
    is the global maximum); superlevel: strictly smaller (the minimum).
    ``sites`` holds the graph's ids, by site number, for the messages.
    """

    flavor: str  # "sublevel" | "superlevel"
    parent: Sequence[int]
    sites: tuple[SiteId, ...]


class AugmentedContourTree(NamedTuple):
    """Free tree over site numbers; every edge is oriented (lower, higher) by rank."""

    sites: range
    edges: tuple[tuple[int, int], ...]


def _ranked(sg: ScalarGraph) -> tuple[list[float], list[int]]:
    """The values in site order, and the sites in (value, site id) order: a stable sort."""
    value = list(map(sg._values.__getitem__, sg.graph.site_list))
    return value, sorted(range(len(value)), key=value.__getitem__)


def perturb_rank(sg: ScalarGraph) -> list[int]:
    """The site numbers in rank order: by (value, site id), injective and order-preserving.

    Equal values are broken by site order, and strict value order is
    preserved exactly.
    """
    return _ranked(sg)[1]


def ranks(order: Sequence[int]) -> list[int]:
    """Each site's rank, by site number, from the site numbers in rank ``order``."""
    return sorted(range(len(order)), key=order.__getitem__)


def _sweep(g: Graph, order: Sequence[int]) -> list[int]:
    """Each site's parent number (``n`` for the root) in the merge tree of a sweep in ``order``."""
    offsets, targets, n = g._offsets, g._targets, len(g)
    # Path-halving union-find over the swept sites (-1 before a site is
    # swept).  Each new site becomes the root of its merged component, so
    # a root is always the newest site of its component: the "top"
    # sweeping up, the "bottom" down.
    parent, uf, roots = [n] * n, [-1] * n, len(order)
    for x in order:
        uf[x] = x
        for r in targets[offsets[x] : offsets[x + 1]]:
            if uf[r] < 0:
                continue
            while uf[r] != r:
                uf[r] = r = uf[uf[r]]
            if r != x:
                parent[r] = uf[r] = x
                roots -= 1
    if roots > 1:
        raise PreconditionError("merge-tree sweeps require a connected graph")
    return parent


def sublevel_merge_tree(sg: ScalarGraph, order: Sequence[int]) -> MergeTree:
    """Track components of the growing sublevel sets; edges point up-rank."""
    return MergeTree("sublevel", _sweep(sg.graph, order), sg.graph.site_list)


def superlevel_merge_tree(sg: ScalarGraph, order: Sequence[int]) -> MergeTree:
    """Track components of the growing superlevel sets; edges point down-rank."""
    return MergeTree("superlevel", _sweep(sg.graph, order[::-1]), sg.graph.site_list)


def merge_to_augmented_ct(jt: MergeTree, st: MergeTree) -> AugmentedContourTree:
    """Leaf-pruning merge (``_merge``) of the two sweep trees into the contour tree."""
    ids, n = jt.sites, len(jt.sites)
    if st.sites != ids or len(jt.parent) != n or len(st.parent) != n:
        raise PreconditionError("merge trees cover different site sets")
    bad = [(t.flavor, q) for t in (jt, st) for q in t.parent if not 0 <= q <= n]
    if bad:
        raise InternalInconsistencyError("%s parent %r is not a site number" % bad[0])
    # _merge overwrites the pointers it follows; the trees stay as given.
    return AugmentedContourTree(range(n), tuple(_merge(list(jt.parent), list(st.parent), ids)))


def _merge(p_sub: list[int], p_sup: list[int], ids: Sequence[SiteId]) -> list[tuple[int, int]]:
    """Contour-tree edges (lower, higher), ascending, from the sweeps' parents (``n``: none).

    A site is prunable when it has no child in one tree and exactly one
    in the other: the edge to its parent in the childless tree is a
    contour-tree edge, and that parent loses a child.  A pruned site
    stays in the pointers; a lookup skips pruned sites and stores the
    parent it found.  The process ends when a single site remains.
    """
    n = len(ids)
    n_sub, n_sup = [0] * (n + 1), [0] * (n + 1)
    for q, r in zip(p_sub, p_sup):
        n_sub[q] += 1
        n_sup[r] += 1
    pruned = bytearray(n + 1)

    def lookup(parent: list[int], x: int) -> int:
        # x's nearest parent that is not pruned, stored in place of x's
        # pointer.  Both of a leaf's parents are looked up before it is
        # pruned: one that came back to x would leave a cycle of pruned
        # sites to circle forever.
        y = parent[x]
        while pruned[y]:
            y = parent[y]
        if y == x:
            raise InternalInconsistencyError(f"merge trees hold a cycle through {ids[x]!r}")
        parent[x] = y
        return y

    heap, edges = list(range(n)), []  # the heap pops the least site first
    for _ in range(n - 1):
        while heap:
            x = heappop(heap)
            if not pruned[x] and n_sub[x] + n_sup[x] == 1:
                break
        else:
            raise InternalInconsistencyError("leaf-pruning merge stalled; malformed merge trees")
        low = n_sub[x] == 0  # a lower leaf: its edge goes to its sublevel parent
        mate = lookup(p_sub if low else p_sup, x)
        if mate == n:
            side, tree = ("lower", "sublevel") if low else ("upper", "superlevel")
            raise InternalInconsistencyError(f"{side} leaf {ids[x]!r} has no {tree} parent")
        lookup(p_sup if low else p_sub, x)
        edges.append((x, mate) if low else (mate, x))
        (n_sub if low else n_sup)[mate] -= 1
        pruned[x] = 1
        heappush(heap, mate)  # the only site whose child counts changed
    edges.sort()
    return edges


def ct_to_iso_tree(sg: ScalarGraph, order: Sequence[int], ct: AugmentedContourTree) -> IsoTree:
    """Iso-tree of the rank-valued graph: singleton zones, rank gaps."""
    rank = ranks(order)
    return _checked_tree(sg, rank, ct.edges, range(len(rank)), rank)


def build_iso_tree(sg: ScalarGraph, reduce: bool = True) -> IsoTree:
    """Full pipeline: rank, sweep both ways, merge, contract equal values.

    With ``reduce=False`` the returned tree is the iso-tree of the
    rank-valued graph (singleton zones, gaps in rank units).
    """
    g = sg.graph
    value, order = _ranked(sg)
    edges = _merge(_sweep(g, order), _sweep(g, order[::-1]), g.site_list)
    return _tree(sg, edges, value if reduce else ranks(order))


def reduce_by_f(sg: ScalarGraph, tree_h: IsoTree) -> IsoTree:
    """Contract the equal-value edges of the ranked tree of ``sg``.

    ``tree_h`` must be the ranked tree (``build_iso_tree(sg,
    reduce=False)``): one edge per pair of sites joined in the contour
    tree, each pointing up in rank.  Any other tree, an already reduced
    one included, raises ``InternalInconsistencyError``.
    """
    value, order = _ranked(sg)
    edges = [(lo, hi) for lo, hi, _ in tree_h.edge_rows()]
    return _checked_tree(sg, ranks(order), edges, sg.graph._number, value)


def _checked_tree(sg: ScalarGraph, rank: Sequence[int], edges, number, value) -> IsoTree:
    """``_tree`` of n - 1 contour edges ``(lo, hi)``, each checked to point up in ``rank``.

    ``number`` maps an end to its site number: the graph's id dict, or ``range(n)``.
    """
    ids, n = sg.graph.site_list, len(rank)
    if len(edges) != n - 1:
        raise InternalInconsistencyError(f"{len(edges)} edges over {n} nodes")
    numbered = []
    for lo, hi in edges:
        if lo not in number or hi not in number:
            raise InternalInconsistencyError(f"contour edge {lo!r}->{hi!r} names an unknown site")
        i, j = number[lo], number[hi]
        if not rank[i] < rank[j]:
            raise InternalInconsistencyError(
                f"contour edge {ids[i]!r}->{ids[j]!r} points down in rank"
            )
        numbered.append((i, j))
    return _tree(sg, numbered, value)


def _tree(sg: ScalarGraph, edges: Sequence[tuple[int, int]], value: Sequence[float]) -> IsoTree:
    """Iso-tree of ``sg`` from contour edges ``(lo, hi)`` over site numbers, ties contracted.

    Edges whose ends carry equal node values (``value``, per site) join
    into one zone; every other edge gets the gap ``value[hi] - value[lo]``.
    """
    ids = sg.graph.site_list
    # Union-find over the tie edges; each root is the least site of its set.
    parent = list(range(len(ids)))
    kept = []
    for i, j in edges:
        if value[i] != value[j]:
            kept.append((i, j))
            continue
        ri, rj = i, j
        while parent[ri] != ri:
            parent[ri] = ri = parent[parent[ri]]
        while parent[rj] != rj:
            parent[rj] = rj = parent[parent[rj]]
        if ri == rj:
            raise InternalInconsistencyError(f"tie edge {ids[i]!r}->{ids[j]!r} closes a cycle")
        parent[max(ri, rj)] = min(ri, rj)

    # Zones by their root, the least site, which represents them; sites
    # join them ascending.
    zones: dict[int, list[SiteId]] = {}
    for i, p in enumerate(ids):
        # Parents point to smaller sites, whose parent is by now their root.
        r = parent[i] = parent[parent[i]]
        if r == i:
            zones[i] = [p]
        else:
            zones[r].append(p)
    return IsoTree(
        list(zones.values()), [value[r] for r in zones], [ids[parent[i]] for i, _ in kept],
        [ids[parent[j]] for _, j in kept], [value[j] - value[i] for i, j in kept],
        sg.reference_site(),
    )
