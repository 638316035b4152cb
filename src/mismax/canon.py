"""Canonical labeling of small graphs; equal forms certify isomorphism.

The canonical key is the lexicographically minimal triangle mask (see
graph.triangle_mask) over all vertex relabelings.
Found by branch-and-bound over partial labelings with prefix pruning.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .graph import Graph, _bit_pairs, from_triangle_mask

CANON_MAX_N = 10


class CanonicalForm(namedtuple("CanonicalForm", "n key")):
    """Order n plus the minimal triangle mask as an integer key."""

    __slots__ = ()

    def to_graph(self) -> Graph:
        return from_triangle_mask(self.n, self.key)


def canonical_form(g: Graph) -> CanonicalForm:
    """Minimal-key canonical form; equal forms certify isomorphism (n <= 10)."""
    if g.n > CANON_MAX_N:
        raise ValueError(f"canonical labeling limited to n <= {CANON_MAX_N}, got {g.n}")
    n = g.n
    if n <= 1:
        return CanonicalForm(n, 0)
    adj = g.adj
    degrees = [row.bit_count() for row in adj]
    # candidate order: low degree first so small columns are tried early
    order = sorted(range(n), key=lambda v: (degrees[v], v))

    def twins(u: int, v: int) -> bool:
        # swapping u and v is an automorphism
        return (adj[u] & ~(1 << v)) == (adj[v] & ~(1 << u))

    # column 0 is always 0, so the first leaf reached is below this bound
    best = [1]
    placed = [0] * n  # placed[k] = original vertex at canonical position k

    def search(depth: int, cols: list[int], used: int) -> None:
        nonlocal best
        if depth == n:
            if cols < best:
                best = cols.copy()
            return
        tried: list[int] = []
        for v in order:
            if used >> v & 1:
                continue
            # a twin of an already-tried sibling explores an isomorphic subtree
            if any(twins(v, w) for w in tried):
                continue
            tried.append(v)
            # column `depth`: bits to already-placed vertices, position 0 on top
            col = 0
            row = adj[v]
            for k in range(depth):
                col = col << 1 | (row >> placed[k] & 1)
            cols.append(col)
            worse = cols > best[: depth + 1]
            cols.pop()
            if worse:
                continue
            placed[depth] = v
            cols.append(col)
            search(depth + 1, cols, used | 1 << v)
            cols.pop()

    search(0, [], 0)
    key = 0
    for depth, col in enumerate(best):
        key = key << depth | col
    return CanonicalForm(n, key)


def _permutation_bit_tables(n: int, perm: list[int], width: int) -> list[list[int]]:
    """Two lookup tables, for mask bits below width and for the rest, whose
    entries OR to a triangle mask with a vertex permutation applied."""
    table = _bit_pairs(n)
    nbits = len(table)
    # dest[b]: where the permutation sends the pair stored at mask bit b
    dest = []
    for i, j, _, _ in table:
        a, b = sorted((perm[i], perm[j]))
        dest.append(table.index((a, b, 1 << a, 1 << b)))
    tables = []
    for first, stop in ((0, width), (width, nbits)):
        tab = [0] * (1 << (stop - first))
        for val in range(1, len(tab)):
            low = val & -val
            tab[val] = tab[val ^ low] | 1 << dest[first + low.bit_length() - 1]
        tables.append(tab)
    return tables


def _orbit_representatives(m: int) -> Iterator[tuple[int, int]]:
    """Yield (mask, orbit size) for each orbit of S_m on the triangle masks
    of order m (m <= 7), by a walk over all 2^(m(m-1)/2) masks.

    The walk starts a new orbit at each mask not yet visited, in ascending
    order, so the yielded mask is the smallest in its orbit, which is its
    canonical_form key. The orbit sizes sum to 2^(m(m-1)/2).
    """
    if m > 7:
        raise ValueError("exhaustive orbit walk limited to m <= 7")
    if m <= 1:
        yield 0, 1
        return
    nbits = m * (m - 1) // 2
    total = 1 << nbits
    width = nbits // 2
    low_bits = (1 << width) - 1
    swap = list(range(m))
    swap[0], swap[1] = swap[1], swap[0]
    cycle = list(range(1, m)) + [0]
    # a transposition and an m-cycle generate S_m
    (swap_low, swap_high), (cycle_low, cycle_high) = (
        _permutation_bit_tables(m, p, width) for p in (swap, cycle)
    )
    visited = bytearray(total)
    for start in range(total):
        if visited[start]:
            continue
        visited[start] = 1
        size = 1
        stack = [start]
        while stack:
            x = stack.pop()
            low = x & low_bits
            high = x >> width
            for y in (swap_low[low] | swap_high[high], cycle_low[low] | cycle_high[high]):
                if not visited[y]:
                    visited[y] = 1
                    size += 1
                    stack.append(y)
        yield start, size
