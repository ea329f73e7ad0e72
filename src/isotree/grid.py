"""Triangulated grids, and the PGM images that load as them.

A width x height grid has one site per pixel, joined to its horizontal
and vertical neighbours and across the NW-SE diagonal of every unit
square: a triangulation of a topological disk, so the grid is
mono-connected by construction.  Its sites are numbered in id order,
which is a row order, then a column order, each sorted on its own axis.
PGM images (ASCII ``P2`` and binary ``P5``) load as such grids, with
each pixel's intensity as its value.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections.abc import Callable, Sequence

from .errors import ParseError, PreconditionError
from .graph import Graph, ScalarGraph, SiteId, _check_finite

ValuePolicy = Callable[[int], Sequence[float]]


def _resolve_values(values: ValuePolicy | Sequence[float], n: int) -> tuple[float, ...]:
    out = tuple(values(n)) if callable(values) else tuple(values)
    if len(out) != n:
        raise ValueError(f"expected {n} values, got {len(out)}")
    _check_finite(out, "index", range(n))
    return out


def grid_site_id(row: int, col: int) -> SiteId:
    return f"r{row}c{col}"


def gen_tri_grid(width: int, height: int, values: ValuePolicy | Sequence[float]) -> ScalarGraph:
    """Triangulated width x height grid (NW-SE diagonals), values in row-major pixel order."""
    if width < 1 or height < 1:
        raise PreconditionError("grid dimensions must be positive")
    value = _resolve_values(values, width * height)
    # Every row prefix "r{r}c" ends in a non-digit, so none is a prefix of another: ascending
    # id order, and so site k, is row rows[k // width], then column cols[k % width].
    rows = sorted(range(height), key=lambda r: grid_site_id(r, 0))
    cols = sorted(range(width), key=lambda c: grid_site_id(0, c))
    row_at, col_at = (sorted(range(len(a)), key=a.__getitem__) for a in (rows, cols))  # inverses
    site_ids = tuple(grid_site_id(r, c) for r in rows for c in cols)
    site_value = tuple(value[r * width + c] for r in rows for c in cols)
    # Pixel (r, c) touches c ± 1 in its line, c - 1 and c above and c and c + 1 below: shifted
    # slices of the lines of site numbers, padded with None.  Only border pixels get a None.
    pad = [None] * (width + 2)
    lines = [pad, *([None, *map((k * width).__add__, col_at), None] for k in row_at), pad]
    site_rows: list = []
    for r in rows:
        up, mid, down = lines[r : r + 3]
        near = list(zip(up, up[1:], mid, mid[2:], down[1:], down[2:]))
        for c in range(width) if r in (0, height - 1) else (0, width - 1):
            near[c] = [q for q in near[c] if q is not None]
        site_rows += map(near.__getitem__, cols)
    return ScalarGraph._by_number(Graph._from_rows(site_ids, site_rows), site_value)


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
    if magic == b"P2":
        pixels = [scan.int_token("pixel") for _ in range(width * height)]
    else:
        # Exactly one whitespace byte separates the header from the payload.
        if scan.pos >= len(data) or data[scan.pos] not in b" \t\r\n\v\f":
            raise ParseError(f"missing separator after PGM header at byte {scan.pos}")
        pos = scan.pos + 1
        payload = array("H" if maxval > 255 else "B")
        need = width * height * payload.itemsize
        if len(data) - pos < need:
            raise ParseError(
                f"truncated PGM payload at byte {len(data)}: need {need} bytes from {pos}"
            )
        payload.frombytes(data[pos : pos + need])
        if payload.itemsize == 2 and sys.byteorder == "little":
            payload.byteswap()  # 16-bit pixels are stored big-endian
        pixels = payload.tolist()
    if max(pixels) > maxval:  # P2 tokens are ASCII digits, so no pixel is negative
        i = next(i for i, v in enumerate(pixels) if v > maxval)
        raise ParseError(f"pixel {i} value {pixels[i]} exceeds maxval {maxval}")
    return width, height, pixels


def load_pgm_tri_grid(data: bytes) -> ScalarGraph:
    """One site per pixel on a triangulated grid; value = pixel intensity."""
    width, height, pixels = parse_pgm(data)
    return gen_tri_grid(width, height, pixels)
