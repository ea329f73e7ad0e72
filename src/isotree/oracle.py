"""Definition-literal brute force: the ground truth for every fast path.

Every bipartition of the site set is tested against the level-cut
inequality in both orientations; winners are assembled into the iso-tree
with all invariants asserted.  Exponential on purpose: the value of this
module is fidelity, not speed, so it is capped at desk scale.

Exhaustive operations scan all bipartitions once per graph: the L-cut
test and the mono-connectivity precondition read the J-cut masks and
the witness that the graph's bit view derives and keeps (see
:mod:`isotree._bitgraph`), so a checked graph is not scanned again.
Each side's max or min is two lookups in ``_bitgraph._fold`` tables of
the site values over the low and the high half of the sites.
"""

from __future__ import annotations

from math import inf

from ._bitgraph import BitGraph, _fold
from .axioms import LCut, _cut_arrays, check_iso_tree
from .errors import DEFAULT_ORACLE_CAP, PreconditionError, SizeLimitError
from .graph import JCut, ScalarGraph
from .tree import IsoTree


def _oriented_l_cut_masks(sg: ScalarGraph, bg: BitGraph) -> list[int]:
    """Low-side masks of all level cuts, found by testing every J-cut of the scan."""
    value = sg._value  # by site number, as the bit view numbers its bits
    half, low = bg.half, bg.low_half
    # Max and min value over each half-mask (-inf and +inf for none), per
    # call: the values belong to ``sg``, not to the cached bit view.
    lo_max, hi_max = _fold(value[:half], max, -inf), _fold(value[half:], max, -inf)
    lo_min, hi_min = _fold(value[:half], min, inf), _fold(value[half:], min, inf)
    winners: list[int] = []
    for mask in bg.cut_masks:
        comp = bg.full & ~mask
        x, c = bg.interior(mask), bg.interior(comp)
        # max(II(x)) < min(II(c)); strictness means at most one orientation can win.
        if max(lo_max[x & low], hi_max[x >> half]) < min(lo_min[c & low], hi_min[c >> half]):
            winners.append(mask)
        elif max(lo_max[c & low], hi_max[c >> half]) < min(lo_min[x & low], hi_min[x >> half]):
            winners.append(comp)
    return winners


def _level_cuts(sg: ScalarGraph, cap: int) -> list[JCut]:
    """The level cuts in cut order, once the graph is small, connected and mono-connected."""
    n = len(sg.graph)
    if n > cap:
        raise SizeLimitError(f"{n} sites exceeds the oracle cap of {cap}")
    bg = sg.graph._bits
    if not bg.is_connected(bg.full):
        raise PreconditionError("the oracle requires a connected graph")
    witness = bg.witness
    if not witness.verdict:
        raise PreconditionError(
            f"graph is not mono-connected (counterexample: {witness.counterexample!r})"
        )
    return sorted((JCut(bg.set_of(m)) for m in _oriented_l_cut_masks(sg, bg)), key=JCut.sort_key)


def brute_force_l_cuts(sg: ScalarGraph, cap: int = DEFAULT_ORACLE_CAP) -> tuple[LCut, ...]:
    """All level cuts of the graph, with gaps read off the adjacent zone values."""
    cuts = _level_cuts(sg, cap)
    gaps = _cut_arrays(sg, cuts)[5]  # edge k of the arrays is cut k
    return tuple(map(LCut, cuts, gaps))


def brute_force_iso_tree(sg: ScalarGraph, cap: int = DEFAULT_ORACLE_CAP) -> IsoTree:
    """Iso-tree assembled from the brute-force cut set, invariants asserted."""
    tree = IsoTree(*_cut_arrays(sg, _level_cuts(sg, cap)))
    check_iso_tree(sg, tree)
    return tree
