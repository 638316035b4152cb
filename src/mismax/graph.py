"""Immutable simple graphs on at most 64 vertices with bitmask adjacency.

Vertex sets are plain Python ints used as bit vectors: bit v set means
vertex v is in the set. All structural operations return new graphs.

This module also owns the upper-triangle edge mask, the one integer
encoding of a whole graph used by graph6, the canonical key and the
exhaustive scan: pairs in column order (0,1), (0,2), (1,2), (0,3), ...,
earlier pairs in more significant bits. It also holds what the exhaustive
scan and its report need of other layers, so that `verify --n` loads no
codec, counting or canon: graph6 characters, CanonicalForm and _submasks.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
from operator import xor

MAX_VERTICES = 64
CANON_MAX_N = 10


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a vertex-set mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


class Graph(namedtuple("Graph", "n adj")):
    """A simple undirected graph: vertex count n plus the tuple adj of
    per-vertex adjacency masks.

    Invariants (checked at construction): adjacency is symmetric, loop-free,
    and every set bit is below n.
    """

    __slots__ = ()

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        _check_order(n)
        if len(adj) != n:
            raise ValueError("adjacency row count does not match n")
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


def _rows_from_mask(n: int, mask: int, table: tuple | None = None) -> tuple[int, ...]:
    """Adjacency rows of the triangle mask, by a walk over its set bits; the
    pair at bit b is table[b], _bit_pairs(n) unless a relabeling is given."""
    if table is None:
        table = _bit_pairs(n)
    rows = [0] * n
    while mask:
        low = mask & -mask
        i, j, bi, bj = table[low.bit_length() - 1]
        rows[i] |= bj
        rows[j] |= bi
        mask ^= low
    return tuple(rows)


def triangle_mask(g: Graph) -> int:
    """Pack the upper triangle in mask order; pair (0,1) is the top bit."""
    mask = 0
    adj = g.adj
    for i, j, _, _ in reversed(_bit_pairs(g.n)):
        mask = mask << 1 | (adj[i] >> j & 1)
    return mask


def from_triangle_mask(n: int, mask: int) -> Graph:
    """Inverse of triangle_mask for an n-vertex graph."""
    _check_order(n)
    nbits = n * (n - 1) // 2
    if mask < 0 or mask >> nbits:
        raise ValueError(f"triangle mask has bits beyond the {nbits} pairs of n={n}")
    # rows built from pairs are symmetric, loop-free and in range: no re-check
    return Graph._make((n, _rows_from_mask(n, mask)))


def _graph6(n: int, mask: int) -> str:
    """The short-form graph6 string of an order-n triangle mask (n <= 62)."""
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    stream = mask << (6 * nbytes - nbits)
    return chr(n + 63) + "".join(chr((stream >> 6 * k & 63) + 63) for k in reversed(range(nbytes)))


class CanonicalForm(namedtuple("CanonicalForm", "n key")):
    """Order n plus the minimal triangle mask as an integer key (canon.canonical_form)."""

    __slots__ = ()

    def to_graph(self) -> Graph:
        return from_triangle_mask(self.n, self.key)


# keys: counting's (width <= 12, stride 1), the exhaustive scan's (width <= 8, stride 8)
@lru_cache(maxsize=32)
def _submasks(width: int, stride: int) -> tuple[int, ...]:
    """Entry x has a 1 at bit stride*s for every submask s of x, for x below 2^width."""
    table = [1]
    for v in range(width):
        shift = stride << v
        table += [p | p << shift for p in table]
    return tuple(table)
