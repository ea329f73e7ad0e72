"""The pipeline's public stage functions: ``build_iso_tree``'s steps, one at a time, checked.

Each returns its intermediate result (``MergeTree``,
``AugmentedContourTree``, the ranked tree) and checks in its inputs what
the ``IsoTree`` constructor does not; the ``build --show-intermediate``
printout shows them, and no build calls ``reduce_by_f``.
:mod:`isotree.pipeline` resolves its names too.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InternalInconsistencyError, PreconditionError
from .graph import ScalarGraph, SiteId
from .pipeline import _merge, _ranked, _sweep, _tree, ranks
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
    """Free tree over site numbers; every edge is oriented (lower, higher) by rank, ascending."""

    sites: range
    edges: tuple[tuple[int, int], ...]


def perturb_rank(sg: ScalarGraph) -> list[int]:
    """The site numbers in rank order: by (value, site id), injective and order-preserving.

    Equal values are broken by site order, and strict value order is
    preserved exactly.
    """
    return _ranked(sg)[1]


def sublevel_merge_tree(sg: ScalarGraph, order: Sequence[int]) -> MergeTree:
    """Track components of the growing sublevel sets; edges point up-rank."""
    return MergeTree("sublevel", _sweep(sg.graph, order), sg.graph.site_list)


def superlevel_merge_tree(sg: ScalarGraph, order: Sequence[int]) -> MergeTree:
    """Track components of the growing superlevel sets; edges point down-rank."""
    return MergeTree("superlevel", _sweep(sg.graph, order[::-1]), sg.graph.site_list)


def merge_to_augmented_ct(jt: MergeTree, st: MergeTree) -> AugmentedContourTree:
    """Leaf-pruning merge (``_merge``) of the two sweep trees into the contour tree, sorted."""
    ids, n = jt.sites, len(jt.sites)
    if st.sites != ids or len(jt.parent) != n or len(st.parent) != n:
        raise PreconditionError("merge trees cover different site sets")
    bad = [(t.flavor, q) for t in (jt, st) for q in t.parent if not 0 <= q <= n]
    if bad:
        raise InternalInconsistencyError("%s parent %r is not a site number" % bad[0])
    # _merge overwrites the pointers it follows; the trees stay as given.
    edges = _merge(list(jt.parent), list(st.parent), ids)
    return AugmentedContourTree(range(n), tuple(sorted(edges)))


def ct_to_iso_tree(sg: ScalarGraph, order: Sequence[int], ct: AugmentedContourTree) -> IsoTree:
    """Iso-tree of the rank-valued graph: singleton zones, rank gaps."""
    rank = ranks(order)
    return _checked_tree(sg, rank, ct.edges, range(len(rank)), rank)


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
    """``_tree`` of contour edges ``(lo, hi)``, each checked to name two sites, up in ``rank``.

    ``number`` maps an end to its site number: the graph's id dict, or ``range(n)``.
    """
    ids = sg.graph.site_list
    numbered = []
    for lo, hi in edges:
        if lo not in number or hi not in number:
            raise InternalInconsistencyError(f"contour edge {lo!r}->{hi!r} names an unknown site")
        i, j = number[lo], number[hi]
        if not rank[i] < rank[j]:  # once contracted, a tie pointing down passes IsoTree
            raise InternalInconsistencyError(
                f"contour edge {ids[i]!r}->{ids[j]!r} points down in rank"
            )
        numbered.append((i, j))
    return _tree(sg, numbered, value)
