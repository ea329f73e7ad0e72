"""Efficient iso-tree construction via sublevel/superlevel merge trees.

Every step runs on site numbers (see ``Graph``), and so does the tree
it ends with, which shares the graph's id tuple; ids appear only in
error messages.  Ties are broken symbolically: sites are ranked by
(value, site id), so the ranked graph has a unique value per site.  Two
union-find sweeps over the graph's rows build the sublevel and
superlevel merge trees; a sweep that ends with more than one root
rejects the graph as disconnected.  A leaf-pruning merge, on one parent
pointer and one child count per site in each tree, combines them into
the augmented contour tree (one node per site), its edges in pruning
order: ``IsoTree`` sorts them, once per build.  One tie contraction
then builds both trees: with the input values it joins the sites of
every equal-value edge into one zone (the iso-tree, gaps in input
units); with the ranks as values nothing ties, and it gives the ranked
iso-tree (singleton zones, rank gaps), which is built only on request
(``--no-reduce``, ``--show-intermediate``).  The ``IsoTree``
constructor is the one structural check of the result.  This module
holds ``build_iso_tree``, which every CLI build calls, and the steps it
runs; the public stage functions, the same steps checking what the
constructor cannot, are in :mod:`isotree.stages` and resolve here too.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush

from .errors import InternalInconsistencyError, NotATreeError, PreconditionError
from .graph import Graph, ScalarGraph, SiteId
from .tree import IsoTree


def _ranked(sg: ScalarGraph) -> tuple[tuple[float, ...], list[int]]:
    """The values in site order, and the sites in (value, site id) order: a stable sort."""
    value = sg._value
    return value, sorted(range(len(value)), key=value.__getitem__)


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
    if roots > 1:  # name the least site and the least site outside its component
        def find(r: int) -> int:
            while uf[r] != r:
                uf[r] = r = uf[uf[r]]
            return r

        first = find(0)
        other = next(x for x in range(n) if find(x) != first)
        raise PreconditionError(
            "merge-tree sweeps require a connected graph: "
            f"{g.site_list[0]!r} and {g.site_list[other]!r} are in different components"
        )
    return parent


def _merge(p_sub: list[int], p_sup: list[int], ids: Sequence[SiteId]) -> list[tuple[int, int]]:
    """Contour-tree edges (lower, higher) in pruning order, from the sweeps' parents (``n``: none).

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
            left = [x for x in range(n) if not pruned[x]]  # in id order
            raise InternalInconsistencyError(
                "leaf-pruning merge stalled; malformed merge trees: "
                f"{len(left)} sites left unpruned, the least {ids[left[0]]!r}"
            )
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
    return edges


def build_iso_tree(sg: ScalarGraph, reduce: bool = True) -> IsoTree:
    """Full pipeline: rank, sweep both ways, merge, contract equal values.

    With ``reduce=False`` the returned tree is the iso-tree of the
    rank-valued graph (singleton zones, gaps in rank units).
    """
    g = sg.graph
    value, order = _ranked(sg)
    edges = _merge(_sweep(g, order), _sweep(g, order[::-1]), g.site_list)
    return _tree(sg, edges, value if reduce else ranks(order))


def _tree(sg: ScalarGraph, edges: Sequence[tuple[int, int]], value: Sequence[float]) -> IsoTree:
    """Iso-tree of ``sg`` from contour edges ``(lo, hi)`` over site numbers, ties contracted.

    Edges whose ends carry equal node values (``value``, per site) join
    into one zone; every other edge gets the gap ``value[hi] - value[lo]``.
    A cycle of ties among n - 1 edges leaves too few for ``IsoTree``'s count check.
    """
    ids = sg.graph.site_list
    # Union-find over the tie edges; each root is the least site of its set.
    parent = list(range(len(ids)))
    lows, ups = [], []
    for i, j in edges:
        if value[i] != value[j]:
            lows.append(i)
            ups.append(j)
            continue
        ri, rj = i, j
        while parent[ri] != ri:
            parent[ri] = ri = parent[parent[ri]]
        while parent[rj] != rj:
            parent[rj] = rj = parent[parent[rj]]
        parent[max(ri, rj)] = min(ri, rj)

    # Parents point to smaller sites, whose parent is by now their root.
    for i in range(len(ids)):
        parent[i] = parent[parent[i]]
    try:
        return IsoTree(
            ids, parent, [value[i] for i, r in enumerate(parent) if i == r], lows, ups,
            [value[j] - value[i] for i, j in zip(lows, ups)], sg.reference_site(),
        )
    except NotATreeError as exc:  # the contour edges are the program's, not the input's
        raise InternalInconsistencyError(str(exc)) from None


def __getattr__(name: str):
    """The staged API on its old path: :mod:`isotree.stages` is imported on first use."""
    from . import _EXPORTS

    if _EXPORTS.get(name) != "stages":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import stages

    globals()[name] = value = getattr(stages, name)
    return value
