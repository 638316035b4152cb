"""Immutable simple graphs on at most 64 vertices with bitmask adjacency.

Vertex sets are plain Python ints used as bit vectors: bit v set means
vertex v is in the set. All structural operations return new graphs.

This module also owns the upper-triangle edge mask, the one integer
encoding of a whole graph used by graph6, the canonical key and the
exhaustive scan: pairs in column order (0,1), (0,2), (1,2), (0,3), ...,
earlier pairs in more significant bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, xor
from typing import Iterable, Iterator

MAX_VERTICES = 64

# Largest order served by the lazily built lookup tables: the byte tables of
# _rows_from_mask here, the character tables of the graph6 decoder and the
# subset tables of the counting kernel. At n = 12 they take about 0.1 MB,
# 0.05 MB and 1.3 MB. The subset tables grow as 4^n bits, and the byte tables
# at n = 62 would take tens of MB, so larger orders keep the bit walk and
# Bron-Kerbosch.
_TABLE_MAX_N = 12


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a vertex-set mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: vertex count plus per-vertex adjacency masks.

    Invariants (checked at construction): adjacency is symmetric, loop-free,
    and every set bit is below n.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_order(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        # the row walk only names the first offender of a matrix that fails
        if self.n and not _is_valid_matrix(self.n, self.adj):
            self._check_rows()

    def _check_rows(self) -> None:
        """Row by row check that raises on the first offending row."""
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} has bits >= n")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @property
    def full_set(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ascending (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    # before the row list, whose size an edge-list header sets
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge ({u},{v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


@dataclass(frozen=True)
class _Layout:
    """The n-vertex matrix packed into one int with a row stride of w bits,
    w in {8, 16, 32, 64} the smallest that is >= n: entry (v, u) at bit
    v*w + u, so the rows are the n little-endian w-bit words of `fmt`."""

    width: int
    fmt: struct.Struct
    diag: int
    # delta swaps that transpose the w x w matrix: for s = w/2, ..., 1 the
    # entries (r, c) with c & s set and r & s clear, which trade places with
    # (r + s, c - s) at shift s*(w - 1)
    swaps: tuple[tuple[int, int], ...]


@lru_cache(maxsize=MAX_VERTICES + 1)
def _layout(n: int) -> _Layout:
    w, code = next((w, code) for w, code in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")) if w >= n)
    swaps = []
    s = w // 2
    while s:
        mask = sum(1 << r * w + c for r in range(w) for c in range(w) if c & s and not r & s)
        swaps.append((mask, s * (w - 1)))
        s //= 2
    return _Layout(
        w,
        struct.Struct(f"<{n}{code}"),
        sum(1 << v * (w + 1) for v in range(n)),
        tuple(swaps),
    )


def _is_valid_matrix(n: int, adj: tuple[int, ...]) -> bool:
    """True iff the rows are in range, loop-free and symmetric, checked on the
    whole packed matrix at once: symmetric means equal to its transpose. That
    also rejects a bit u with n <= u < w in row v, whose mirror would lie in
    row u, past the n rows of the matrix."""
    layout = _layout(n)
    try:
        m = int.from_bytes(layout.fmt.pack(*adj), "little")
    except struct.error:  # a negative row, or one of w bits or more
        return False
    if m & layout.diag:
        return False
    t = m
    for mask, shift in layout.swaps:
        d = (t ^ t >> shift) & mask
        t ^= d ^ d << shift
    return t == m


def _matrix_rows(n: int, m: int) -> tuple[int, ...]:
    """The rows of a matrix packed in the layout of order n."""
    fmt = _layout(n).fmt
    return fmt.unpack(m.to_bytes(fmt.size, "little"))


@lru_cache(maxsize=MAX_VERTICES + 1)
def _complete_rows(n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(full & ~(1 << v) for v in range(n))


def _complement_rows(g: Graph) -> tuple[int, ...]:
    """Adjacency rows of the complement; a valid row has no bit v and none >= n,
    so xor with the row of K_n complements it."""
    return tuple(map(xor, g.adj, _complete_rows(g.n)))


def complement(g: Graph) -> Graph:
    return Graph(g.n, _complement_rows(g))


def induced_subgraph(g: Graph, vertices: int) -> Graph:
    """Subgraph induced by the vertex-set mask, relabeled 0..k-1 in ascending order."""
    if vertices & ~g.full_set:
        raise ValueError("vertex set contains members >= n")
    kept = list(bits(vertices))
    pos = {v: i for i, v in enumerate(kept)}
    rows = [0] * len(kept)
    for v in kept:
        for u in bits(g.adj[v] & vertices):
            rows[pos[v]] |= 1 << pos[u]
    return Graph(len(kept), tuple(rows))


def delete_vertex(g: Graph, v: int) -> Graph:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return induced_subgraph(g, g.full_set & ~(1 << v))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """G1 + G2 with G2's vertices shifted by |G1|; no cross edges."""
    if g1.n + g2.n > MAX_VERTICES:
        raise ValueError(f"union would exceed {MAX_VERTICES} vertices")
    shifted = tuple(row << g1.n for row in g2.adj)
    return Graph(g1.n + g2.n, g1.adj + shifted)


def degree(g: Graph, v: int) -> int:
    return g.adj[v].bit_count()


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("min_degree undefined on the empty-vertex graph")
    return min(row.bit_count() for row in g.adj)


def complete_graph(n: int) -> Graph:
    return Graph(n, _complete_rows(n))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def triangle_pairs(n: int) -> list[tuple[int, int]]:
    """Upper-triangle pairs in mask order: (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


@lru_cache(maxsize=MAX_VERTICES + 1)
def _bit_pairs(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Entry b is (i, j, 1 << i, 1 << j) for the pair stored at mask bit b."""
    return tuple((i, j, 1 << i, 1 << j) for i, j in reversed(triangle_pairs(n)))


def _pair_table(n: int, low: int, width: int) -> tuple[int, ...]:
    """Entry x is the packed matrix of the pairs at the mask bits low + j for
    the set bits j of x, x below 2^width; a bit outside the mask sets none."""
    pairs = _bit_pairs(n)
    w = _layout(n).width
    table = [0]
    for b in range(low, low + width):
        entry = 0
        if 0 <= b < len(pairs):
            i, j, _, _ = pairs[b]
            entry = 1 << (i * w + j) | 1 << (j * w + i)
        table += [p | entry for p in table]
    return tuple(table)


@lru_cache(maxsize=_TABLE_MAX_N + 1)
def _byte_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Per byte k of an n-vertex triangle mask, the packed matrix of each value."""
    return tuple(_pair_table(n, k, 8) for k in range(0, n * (n - 1) // 2, 8))


def _rows_from_mask(n: int, mask: int) -> tuple[int, ...]:
    """Adjacency rows of the triangle mask: one table lookup per mask byte up
    to _TABLE_MAX_N vertices, above it a walk over the set bits."""
    if n <= _TABLE_MAX_N:
        tables = _byte_tables(n)
        # the tables of distinct bytes set distinct pairs, so sum is bitwise or
        return _matrix_rows(n, sum(map(getitem, tables, mask.to_bytes(len(tables), "little"))))
    table = _bit_pairs(n)
    rows = [0] * n
    while mask:
        low = mask & -mask
        i, j, bi, bj = table[low.bit_length() - 1]
        rows[i] |= bj
        rows[j] |= bi
        mask ^= low
    return tuple(rows)


@lru_cache(maxsize=MAX_VERTICES + 1)
def _reversed_bits(width: int) -> tuple[int, ...]:
    """Entry x is x with its low `width` bits in reverse order."""
    return tuple(int(format(x, f"0{width}b")[::-1], 2) for x in range(1 << width))


def _extension_rows(n: int, hh: int) -> tuple[int, ...]:
    """Adjacency rows of G - {n-2, n-1} for the n-vertex graphs G (n >= 2)
    with triangle mask hh << (2n-3) | aa << (n-1) | nb, relabeled v -> n-2-v,
    after an empty row 0 for vertex n-2.

    The low n-1 bits nb of such a mask hold the pairs of vertex n-1, bit b the
    pair (n-2-b, n-1), and the next n-2 bits aa those of vertex n-2, bit b the
    pair (n-3-b, n-2). After the relabeling a vertex set of G - (n-1), the
    neighbourhood nb of vertex n-1 and the neighbourhood aa << 1 of vertex n-2
    are the same kind of mask.
    """
    rev = _reversed_bits(n - 2)
    return (0,) + tuple(rev[row] << 1 for row in reversed(_rows_from_mask(n - 2, hh)))


def triangle_mask(g: Graph) -> int:
    """Pack the upper triangle in mask order; pair (0,1) is the top bit."""
    mask = 0
    adj = g.adj
    for i, j, _, _ in reversed(_bit_pairs(g.n)):
        mask = mask << 1 | (adj[i] >> j & 1)
    return mask


def from_triangle_mask(n: int, mask: int) -> Graph:
    """Inverse of triangle_mask for an n-vertex graph."""
    nbits = n * (n - 1) // 2
    if mask < 0 or mask >> nbits:
        raise ValueError(f"triangle mask has bits beyond the {nbits} pairs of n={n}")
    return Graph(n, _rows_from_mask(n, mask))
