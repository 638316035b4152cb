"""graph6 codec (short form, n <= 62), edge-list text format, and file streaming."""

from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, groupby

from .counting import _LANE_MAX_N, _transpose8
from .graph import Graph, _graph6, from_edges, from_triangle_mask, triangle_mask

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_N = 62
_GRAPH6_CHARS = bytes(range(63, 127))

# Characters read_graph6_blocks reads at a time, before it completes the
# line they stop in: 16,384 lines of order 9, plus one. The lane kernel's
# search visits about the same vertex sets whatever the block size, so a
# larger block spreads each set's cost over more graphs; it also raises the
# peak memory of count.
_BLOCK_CHARS = 1 << 17
_LINE_CHARS = _GRAPH6_CHARS + b"\n"
# entry pad: the data characters whose low pad bits are zero
_ZERO_PAD_CHARS = tuple(
    bytes(c for c in _GRAPH6_CHARS if not (c - 63) & ((1 << pad) - 1)) for pad in range(6)
)
_CHAR_BITS = bytes.maketrans(_GRAPH6_CHARS, bytes(range(64)))


class CodecError(ValueError):
    """Malformed graph input. Carries a 1-based line number when streaming."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def graph6_decode(line: str) -> Graph:
    """Decode one short-form graph6 string into a Graph."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise CodecError("empty graph6 string")
    raw = s.encode("ascii") if s.isascii() else None
    # a character outside 63..126 is what the loop finds and names; a
    # non-ASCII one is above 126, so raw is set past this check
    if raw is None or raw.translate(None, _GRAPH6_CHARS):
        for ch in s:
            if not 63 <= ord(ch) <= 126:
                raise CodecError(f"character {ch!r} outside graph6 range 63..126")
    # past the range check the first character gives at most 63, the
    # long-form marker "~", so every short-form order is at most 62
    n = raw[0] - 63
    if n == 63:
        raise CodecError("long-form graph6 (n > 62) not supported")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) != 1 + nbytes:
        raise CodecError(
            f"graph6 string length {len(s)} wrong for n={n} (expected {1 + nbytes})"
        )
    pad = 6 * nbytes - nbits
    bitstream = 0
    for c in raw[1:]:
        bitstream = bitstream << 6 | c - 63
    if bitstream & ((1 << pad) - 1):
        raise CodecError("nonzero padding bits in graph6 string")
    return from_triangle_mask(n, bitstream >> pad)


def graph6_encode(g: Graph) -> str:
    """Encode a Graph as a minimal-length short-form graph6 string, no header."""
    if g.n > GRAPH6_MAX_N:
        raise CodecError(f"graph order {g.n} exceeds graph6 short form limit {GRAPH6_MAX_N}")
    return _graph6(g.n, triangle_mask(g))


def read_edge_list(text: str) -> Graph:
    """Parse the "n m" edge-list format: header line, then m lines "u v"."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise CodecError("missing header line", line=1)
    parts = lines[0].split()
    if len(parts) != 2:
        raise CodecError("header must be 'n m'", line=1)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise CodecError("header must be two integers", line=1) from None
    edges = []
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        p = raw.split()
        if len(p) != 2:
            raise CodecError("edge line must be 'u v'", line=lineno)
        try:
            u, v = int(p[0]), int(p[1])
        except ValueError:
            raise CodecError("edge endpoints must be integers", line=lineno) from None
        edges.append((u, v))
    if len(edges) != m:
        raise CodecError(f"declared {m} edges, found {len(edges)}")
    try:
        return from_edges(n, edges)
    except ValueError as exc:
        raise CodecError(str(exc)) from None


def write_edge_list(g: Graph) -> str:
    """Serialize: "n m" then edges ascending with u < v, one per line."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_graph6_stream(lines: Iterable[str], start: int = 1) -> Iterator[Graph]:
    """Yield graphs from graph6 lines in file order; errors carry line numbers,
    the first line numbered start.

    A blank final line is ignored; blank lines elsewhere are malformed.
    """
    pending_blank: int | None = None
    for lineno, raw in enumerate(lines, start=start):
        if not raw.strip():
            if pending_blank is None:
                pending_blank = lineno
            continue
        if pending_blank is not None:
            raise CodecError("blank line before end of stream", line=pending_blank)
        try:
            yield graph6_decode(raw)
        except CodecError as exc:
            raise CodecError(str(exc), line=lineno) from None


# `size` >= 2 graph6 lines of one order n as the lane kernel's edge planes:
# planes[p], for pair p in triangle_pairs order, has bit g set where line g
# has the pair
Graph6Block = namedtuple("Graph6Block", "n size planes")


def _graph6_block(text: str) -> Graph6Block | None:
    """The lines of text as one block, or None unless there are two or more
    and every line is a bare short-form graph6 string of one order
    n <= _LANE_MAX_N, which the lane kernel counts, that graph6_decode
    accepts, ended by a newline. A header before the first line is skipped,
    as graph6_decode skips it. Checked on the whole text, with no object per
    line.

    Pair p is bit 5 - p % 6 of data character p // 6. The characters of
    each column, 8 lines to a slot, transpose to bytes of which byte b
    holds bit b."""
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER):]
    if not (text.endswith("\n") and text.isascii()):
        return None
    raw = text.encode("ascii")
    n = raw[0] - 63
    if not 0 <= n <= _LANE_MAX_N:
        return None
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    stride = nbytes + 2
    size, extra = divmod(len(raw), stride)
    # a newline at the end of each stride and nowhere else: lines of one length
    if extra or raw.count(b"\n") != size or raw[stride - 1::stride].count(b"\n") != size:
        return None
    if size < 2 or raw[::stride].count(raw[:1]) != size or raw.translate(None, _LINE_CHARS):
        return None
    pad = 6 * nbytes - nbits
    if pad and raw[stride - 2::stride].translate(None, _ZERO_PAD_CHARS[pad]):
        return None
    width = -(-size // 8) * 8
    bits = raw.translate(_CHAR_BITS)
    values = (bits[c::stride].ljust(width, b"\0") for c in range(1, nbytes + 1))
    rows = list(_transpose8(values, width))
    planes = tuple(int.from_bytes(rows[p // 6][5 - p % 6::8], "little") for p in range(nbits))
    return Graph6Block(n, size, planes)


def read_graph6_blocks(fh: io.TextIOBase) -> Iterator[Graph6Block | Graph]:
    """Yield the graphs of a graph6 text stream, in file order, as blocks of
    same-order lines where it can.

    The text is read _BLOCK_CHARS characters at a time, plus the rest of
    the line they stop in. Each such cut that _graph6_block takes comes out
    as one Graph6Block. A cut it refuses splits into runs of lines of one
    length: a run that _graph6_block takes is a block, any other goes
    through read_graph6_stream, one Graph per line, and from a blank line
    on, the rest of the stream does. The line numbers run on,
    so the errors name the same line as for the whole stream.
    """
    lineno = 1
    while text := fh.read(_BLOCK_CHARS) + fh.readline():
        if (block := _graph6_block(text)) is not None:
            yield block
            lineno += block.size
            continue
        lines = io.StringIO(text).readlines()
        blank = [*map(str.isspace, lines), True].index(True)
        for _, run in groupby(lines[:blank], len):
            run = list(run)
            block = _graph6_block("".join(run))
            yield from read_graph6_stream(run, start=lineno) if block is None else [block]
            lineno += len(run)
        if blank < len(lines):
            # a blank line is an error only if a line follows it
            yield from read_graph6_stream(chain(lines[blank:], fh), start=lineno)
            return
