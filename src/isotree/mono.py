"""Mono-connectivity checking and graph generators.

A connected graph is mono-connected when, for every Jordan cut, the
immediate interiors of both sides are connected.  The check here is an
exhaustive scan of all bipartitions and is therefore capped by site
count; it is meant as a desk-scale oracle, not a decision procedure.

Exhaustive operations scan all bipartitions once per graph: the J-cut
masks and the mono witness are kept on the graph's bit view, and the
mono check, ``enumerate_j_cuts`` and the oracle all read that one scan.
The cap and the connectivity precondition are checked on every call.

The scan reads connectivity from the bit view's table of 2^n bytes.  It
still tests every bipartition, as one AND of the table's odd-mask row
with that row's reversed complement: a 16-site check takes about 2.5 ms
and 0.23 MB, the table's bit-sliced build included (a 4×4 tri-grid on
a 2-core VM, Python 3.11).

The generators produce families that are mono-connected by construction:
paths, and rectangular grids triangulated with a fixed NW-SE diagonal
per unit square (a triangulation of a topological disk).
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple, Sequence

from ._bitgraph import BitGraph, bit_view
from .errors import PreconditionError, SizeLimitError
from .graph import Graph, JCut, ScalarGraph, SiteId

DEFAULT_ENUMERATION_CAP = 16

ValuePolicy = Callable[[int], Sequence[float]]
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


def _resolve_values(values: ValuePolicy | Sequence[float], n: int) -> list[float]:
    out = list(values(n)) if callable(values) else list(values)
    if len(out) != n:
        raise ValueError(f"expected {n} values, got {len(out)}")
    return out


class MonoWitness(NamedTuple):
    """Outcome of a mono-connectivity check.

    On a connected graph a false verdict always carries the first failing
    J-cut in canonical enumeration order and the side (low/up) whose
    immediate interior is disconnected.  A disconnected input yields a
    false verdict with no counterexample cut.
    """

    verdict: bool
    counterexample: JCut | None = None
    failing_side: str | None = None


def _enumerate_cut_masks(bg: BitGraph) -> tuple[int, ...]:
    # Fixing the least site's bit halves the scan and makes the listed
    # side the canonical (least-site-containing) one.  Every bipartition
    # is still tested, in bulk: byte i of ``row`` says whether the odd
    # mask 2i+1 is connected, byte i of ``comp`` whether its complement
    # full-(2i+1) is, and the full mask itself falls off the end.  A
    # single site leaves both rows empty.
    full = bg.full
    table = bg.connected
    row = int.from_bytes(table[1:full:2], "little")
    comp = int.from_bytes(table[full - 1 : 0 : -2], "little")
    both = (row & comp).to_bytes(full >> 1, "little")
    masks, i = [], both.find(1)
    while i >= 0:
        masks.append(2 * i + 1)
        i = both.find(1, i + 1)
    return tuple(masks)


def _cut_masks(bg: BitGraph) -> tuple[int, ...]:
    """The J-cut masks of ``bg`` in scan order, scanned on first use only."""
    if bg.cut_masks is None:
        bg.cut_masks = _enumerate_cut_masks(bg)
    return bg.cut_masks


def enumerate_j_cuts(g: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> list[JCut]:
    """All unordered bipartitions with both sides non-empty and connected.

    Each bipartition appears once, represented by the side containing the
    least site, in ascending bitmask order over the sorted site list.
    """
    if len(g) > cap:
        raise SizeLimitError(f"{len(g)} sites exceeds the enumeration cap of {cap}")
    bg = bit_view(g)
    if not bg.is_connected(bg.full):
        raise PreconditionError("J-cut enumeration requires a connected graph")
    return [JCut(bg.set_of(mask)) for mask in _cut_masks(bg)]


def _scan_witness(bg: BitGraph) -> MonoWitness:
    # The first J-cut, in scan order, with a disconnected immediate interior.
    for mask in _cut_masks(bg):
        if not bg.is_connected(bg.interior(mask)):
            return MonoWitness(False, JCut(bg.set_of(mask)), "low")
        if not bg.is_connected(bg.interior(bg.full & ~mask)):
            return MonoWitness(False, JCut(bg.set_of(mask)), "up")
    return MonoWitness(verdict=True)


def is_mono_connected(g: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> MonoWitness:
    """Exhaustively decide mono-connectivity, producing a witness on failure."""
    if len(g) > cap:
        raise SizeLimitError(f"{len(g)} sites exceeds the enumeration cap of {cap}")
    bg = bit_view(g)
    if not bg.is_connected(bg.full):
        return MonoWitness(verdict=False)
    if bg.witness is None:
        bg.witness = _scan_witness(bg)
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
    ids = path_site_ids(n)
    g = Graph(ids, [(ids[i], ids[i + 1]) for i in range(n - 1)])
    vals = _resolve_values(values, n)
    return ScalarGraph(g, dict(zip(ids, vals)))


def grid_site_id(row: int, col: int) -> SiteId:
    return f"r{row}c{col}"


def gen_tri_grid(width: int, height: int, values: ValuePolicy | Sequence[float]) -> ScalarGraph:
    """Triangulated width x height grid, mono-connected by construction.

    Adjacency is horizontal + vertical neighbors plus the NW-SE diagonal
    of every unit square; values are assigned in row-major site order.
    """
    if width < 1 or height < 1:
        raise PreconditionError("grid dimensions must be positive")
    n = width * height
    ids = [grid_site_id(r, c) for r in range(height) for c in range(width)]
    order = sorted(range(n), key=ids.__getitem__)  # the pixel of each site number
    site_ids = tuple(map(ids.__getitem__, order))
    number = dict(zip(site_ids, range(n)))
    pixel_number = list(map(number.__getitem__, ids))
    # Pixel k touches k ± 1, k ± width and k ± (width + 1): shifted slices of the lines of
    # site numbers, padded with None on every side.  Only border pixels have a None to drop.
    pad = [None] * (width + 2)
    lines = [pad, *([None, *pixel_number[k : k + width], None] for k in range(0, n, width)), pad]
    by_pixel: list = []
    for r, (up, mid, down) in enumerate(zip(lines, lines[1:], lines[2:])):
        near = list(zip(up, up[1:], mid, mid[2:], down[1:], down[2:]))
        for c in range(width) if r in (0, height - 1) else (0, width - 1):
            near[c] = [q for q in near[c] if q is not None]
        by_pixel += near
    g = Graph._from_rows(site_ids, number, list(map(by_pixel.__getitem__, order)))
    vals = _resolve_values(values, n)
    return ScalarGraph(g, dict(zip(ids, vals)))
