"""Triangulated grids, and the PGM images that load as them.

A width x height grid has one site per pixel, joined to its horizontal
and vertical neighbours and across the NW-SE diagonal of every unit
square: a triangulation of a topological disk, so the grid is
mono-connected by construction.  PGM images (ASCII ``P2`` and binary
``P5``) load as such grids, with each pixel's intensity as its value.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence

from .errors import ParseError, PreconditionError
from .graph import Graph, ScalarGraph, SiteId

ValuePolicy = Callable[[int], Sequence[float]]


def _resolve_values(values: ValuePolicy | Sequence[float], n: int) -> tuple[float, ...]:
    out = tuple(values(n)) if callable(values) else tuple(values)
    if len(out) != n:
        raise ValueError(f"expected {n} values, got {len(out)}")
    return out


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
    pixel_number = sorted(range(n), key=order.__getitem__)  # the site number of each pixel
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
    g = Graph._from_rows(site_ids, list(map(by_pixel.__getitem__, order)))
    return ScalarGraph._by_number(g, tuple(map(_resolve_values(values, n).__getitem__, order)))


_MAX_PGM_VALUE = 65535

# Separators and "#" comments (to the end of the line) skipped, then one
# token: the bytes up to the next separator.  It is empty only at the end.
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]+|#[^\n]*)*([^ \t\r\n\v\f#]*)")


class _PgmScanner:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def token(self, what: str) -> bytes:
        m = _PGM_TOKEN.match(self.data, self.pos)
        if not m[1]:
            raise ParseError(f"unexpected end of PGM data at byte {m.end()} (reading {what})")
        self.pos = m.end()
        return m[1]

    def int_token(self, what: str) -> int:
        start_pos = self.pos
        tok = self.token(what)
        if tok.isdigit():  # ASCII digits only: int() would also take a sign or "_"
            try:
                return int(tok)
            except ValueError:  # more digits than int() converts
                pass
        raise ParseError(f"bad PGM {what} {tok[:20]!r} at byte {start_pos}")


def parse_pgm(data: bytes) -> tuple[int, int, list[int]]:
    """Decode a P2/P5 PGM into (width, height, row-major pixel values)."""
    scan = _PgmScanner(data)
    magic = scan.token("magic number")
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"unsupported PGM magic {magic!r} at byte 0")
    width = scan.int_token("width")
    height = scan.int_token("height")
    maxval = scan.int_token("maxval")
    if width < 1 or height < 1:
        raise ParseError(f"bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= _MAX_PGM_VALUE:
        raise ParseError(f"PGM maxval {maxval} out of range 1..{_MAX_PGM_VALUE}")
    count = width * height
    pixels: list[int]
    if magic == b"P2":
        pixels = [scan.int_token("pixel") for _ in range(count)]
    else:
        # Exactly one whitespace byte separates the header from the payload.
        if scan.pos >= len(data) or data[scan.pos] not in b" \t\r\n\v\f":
            raise ParseError(f"missing separator after PGM header at byte {scan.pos}")
        pos = scan.pos + 1
        step = 2 if maxval > 255 else 1
        need = count * step
        if len(data) - pos < need:
            raise ParseError(
                f"truncated PGM payload at byte {len(data)}: need {need} bytes from {pos}"
            )
        raw = data[pos : pos + need]
        if step == 1:
            pixels = list(raw)
        else:
            pixels = [(raw[2 * i] << 8) | raw[2 * i + 1] for i in range(count)]
    for i, v in enumerate(pixels):
        if not 0 <= v <= maxval:
            raise ParseError(f"pixel {i} value {v} exceeds maxval {maxval}")
    return width, height, pixels


def load_pgm_tri_grid(data: bytes) -> ScalarGraph:
    """One site per pixel on a triangulated grid; value = pixel intensity."""
    width, height, pixels = parse_pgm(data)
    return gen_tri_grid(width, height, pixels)
