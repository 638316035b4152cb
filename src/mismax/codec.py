"""graph6 codec (short form, n <= 62), edge-list text format, and file streaming."""

from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import chain
from operator import getitem

from .graph import (
    _TABLE_MAX_N,
    Graph,
    _matrix_rows,
    _pair_table,
    from_edges,
    from_triangle_mask,
    triangle_mask,
)

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_N = 62
_GRAPH6_CHARS = bytes(range(63, 127))

# Characters read_graph6_blocks reads at a time: 16,384 lines of order 9.
# The lane kernel's search visits about the same vertex sets whatever the
# block size, so a larger block spreads each set's cost over more graphs;
# it also raises the peak memory of count.
_BLOCK_CHARS = 1 << 17
_LINE_CHARS = _GRAPH6_CHARS + b"\n"
# entry pad: the data characters whose low pad bits are zero
_ZERO_PAD_CHARS = tuple(
    bytes(c for c in _GRAPH6_CHARS if not (c - 63) & ((1 << pad) - 1)) for pad in range(6)
)


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
    if n <= _TABLE_MAX_N:
        if (raw[-1] - 63) & ((1 << pad) - 1):
            raise CodecError("nonzero padding bits in graph6 string")
        # the tables of distinct characters set distinct pairs, so sum is bitwise or
        return Graph(n, _matrix_rows(n, sum(map(getitem, _char_tables(n), raw[1:]))))
    bitstream = 0
    for ch in s[1:]:
        bitstream = bitstream << 6 | (ord(ch) - 63)
    if bitstream & ((1 << pad) - 1):
        raise CodecError("nonzero padding bits in graph6 string")
    return from_triangle_mask(n, bitstream >> pad)


@lru_cache(maxsize=_TABLE_MAX_N + 1)
def _char_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Per data character of an n-vertex graph6 string, the packed matrix of
    the pairs its 6 bits set, indexed by the character's code 63..126; the
    pad low bits of the last character belong to no pair."""
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    pad = 6 * nbytes - nbits
    return tuple(
        (0,) * 63 + _pair_table(n, 6 * k - pad, 6) for k in reversed(range(nbytes))
    )


def graph6_encode(g: Graph) -> str:
    """Encode a Graph as a minimal-length short-form graph6 string, no header."""
    if g.n > GRAPH6_MAX_N:
        raise CodecError(f"graph order {g.n} exceeds graph6 short form limit {GRAPH6_MAX_N}")
    n = g.n
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    bitstream = triangle_mask(g) << (6 * nbytes - nbits)
    chars = [chr(n + 63)]
    for k in range(nbytes - 1, -1, -1):
        chars.append(chr((bitstream >> 6 * k & 63) + 63))
    return "".join(chars)


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


class Graph6Block(namedtuple("Graph6Block", "n size columns")):
    """`size` graph6 lines of one order n, by column: the tuple columns
    holds bytes, columns[c] data character c (the one after the order
    character) of every line, byte g from line g."""

    __slots__ = ()


def _graph6_block(text: str) -> Graph6Block | None:
    """The lines of text as one block, or None unless every line is a bare
    short-form graph6 string of one order n <= _TABLE_MAX_N that
    graph6_decode accepts, ended by a newline. A header before the first
    line is skipped, as graph6_decode skips it. Checked on the whole text,
    with no object per line."""
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER):]
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    n = raw[0] - 63
    if not 0 <= n <= _TABLE_MAX_N:
        return None
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    stride = nbytes + 2
    size, extra = divmod(len(raw), stride)
    # a newline at the end of each stride and nowhere else: lines of one length
    if extra or raw.count(b"\n") != size or raw[stride - 1::stride].count(b"\n") != size:
        return None
    if raw[::stride].count(raw[:1]) != size or raw.translate(None, _LINE_CHARS):
        return None
    pad = 6 * nbytes - nbits
    if pad and raw[stride - 2::stride].translate(None, _ZERO_PAD_CHARS[pad]):
        return None
    return Graph6Block(n, size, tuple(raw[c::stride] for c in range(1, nbytes + 1)))


def read_graph6_blocks(fh: io.TextIOBase) -> Iterator[Graph6Block | Graph]:
    """Yield the graphs of a graph6 text stream, in file order, as blocks of
    same-order lines where it can.

    The text is read _BLOCK_CHARS characters at a time and cut after its
    last newline. Each cut that _graph6_block takes comes out as one
    Graph6Block. A cut it refuses, with the rest of the line the cut stops
    in, goes through read_graph6_stream, one Graph per line, and the next
    cut starts after it. The line numbers run on, so the errors name the
    same line as for the whole stream. From a refused cut whose last line is
    blank, the rest of the stream goes line by line.
    """
    lineno = 1
    text = ""
    while True:
        chunk = fh.read(_BLOCK_CHARS)
        text += chunk
        cut = text.rfind("\n") + 1
        if not (chunk and cut):
            break
        block = _graph6_block(text[:cut])
        if block is not None:
            yield block
            lineno += block.size
            text = text[cut:]
            continue
        text += fh.readline()
        if not text[text.rfind("\n", 0, -1) + 1:].strip():
            # a blank line is an error only if a line follows it
            yield from read_graph6_stream(chain(io.StringIO(text), fh), start=lineno)
            return
        yield from read_graph6_stream(io.StringIO(text), start=lineno)
        lineno += text.count("\n")
        text = ""
    # the rest of the line the text stops in, so it splits into the file's lines
    if chunk:
        text += fh.readline()
    yield from read_graph6_stream(chain(io.StringIO(text), fh), start=lineno)
