"""Mono-connectivity checking and graph generators.

A connected graph is mono-connected when, for every Jordan cut, the
immediate interiors of both sides are connected.  The check here is an
exhaustive scan of all bipartitions and is therefore capped by site
count; it is meant as a desk-scale oracle, not a decision procedure.

Exhaustive operations scan all bipartitions once per graph: the graph's
bit view derives and keeps the J-cut masks and the mono witness, and the
mono check, ``enumerate_j_cuts`` and the oracle all read that one scan.
The cap and the connectivity precondition are checked on every call.

The scan reads connectivity from the bit view's table of 2^n bytes.  It
still tests every bipartition, as one AND of the table's odd-mask row
with that row's reversed complement: a 16-site check takes about 2.5 ms
and 0.23 MB, the table's bit-sliced build included (a 4×4 tri-grid on
a 2-core VM, Python 3.11).

The generators produce families that are mono-connected by construction:
paths here, and the triangulated grids of :mod:`isotree.grid`, whose
``gen_tri_grid`` and ``grid_site_id`` this module re-exports.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from ._bitgraph import MonoWitness, capped_bits
from .errors import DEFAULT_ENUMERATION_CAP, PreconditionError
from .graph import Graph, JCut, ScalarGraph, SiteId
from .grid import ValuePolicy, _resolve_values
from .grid import gen_tri_grid, grid_site_id  # noqa: F401  (re-exported)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def ramp() -> ValuePolicy:
    """Values 0, 1, ..., n - 1 in site order."""
    return lambda n: list(range(n))


def constant(value: float = 0) -> ValuePolicy:
    if not math.isfinite(value):
        raise PreconditionError(f"constant value {value!r} is not finite")
    return lambda n: [value] * n


def seeded_random(seed: int, low: int = 0, high: int = 5) -> ValuePolicy:
    """Integer values drawn uniformly from [low, high] with a fixed seed."""
    if low > high:
        raise PreconditionError(f"empty value range: low {low} exceeds high {high}")

    def draw(n: int) -> Sequence[float]:
        rng = random.Random(seed)
        return [rng.randint(low, high) for _ in range(n)]

    return draw


def enumerate_j_cuts(g: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> list[JCut]:
    """All unordered bipartitions with both sides non-empty and connected.

    Each bipartition appears once, represented by the side containing the
    least site, in ascending bitmask order over the sorted site list.
    """
    bg = capped_bits(g, cap, "enumeration")
    if not bg.is_connected(bg.full):
        raise PreconditionError("J-cut enumeration requires a connected graph")
    return [JCut(bg.set_of(mask)) for mask in bg.cut_masks]


def is_mono_connected(g: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> MonoWitness:
    """Exhaustively decide mono-connectivity, producing a witness on failure."""
    bg = capped_bits(g, cap, "enumeration")
    if not bg.is_connected(bg.full):
        return MonoWitness(verdict=False)
    return bg.witness


def path_site_ids(n: int) -> list[SiteId]:
    """Letter ids up to 26 sites, zero-padded numeric ids beyond."""
    if n <= len(_LETTERS):
        return list(_LETTERS[:n])
    width = len(str(n - 1))
    return [f"s{i:0{width}d}" for i in range(n)]


def gen_path(n: int, values: ValuePolicy | Sequence[float]) -> ScalarGraph:
    """Path of ``n`` sites with values assigned in path order."""
    if n < 1:
        raise PreconditionError("a path needs at least one site")
    rows = [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]
    g = Graph._from_rows(tuple(path_site_ids(n)), rows)  # path order is id order
    return ScalarGraph._by_number(g, _resolve_values(values, n))
