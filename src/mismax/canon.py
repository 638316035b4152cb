"""Canonical labeling of small graphs; equal forms certify isomorphism.

The canonical key is the lexicographically minimal triangle mask (see
graph.triangle_mask) over all vertex relabelings.
Found by branch-and-bound over partial labelings with prefix pruning.
"""

from __future__ import annotations

from collections import namedtuple

from .graph import Graph, from_triangle_mask, triangle_pairs

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


def _permutation_bit_tables(n: int, perm: list[int]) -> list[list[int]]:
    """Chunked lookup tables applying a vertex permutation to a triangle mask."""
    pairs = triangle_pairs(n)
    nbits = len(pairs)
    bit_of = {p: nbits - 1 - k for k, p in enumerate(pairs)}
    # dest[b]: where the permutation sends the pair stored at mask bit b
    dest = []
    for i, j in reversed(pairs):
        a, b = perm[i], perm[j]
        if a > b:
            a, b = b, a
        dest.append(bit_of[(a, b)])
    nchunks = (nbits + 6) // 7
    tables = []
    for c in range(nchunks):
        tab = [0] * 128
        for val in range(128):
            out = 0
            for b in range(7):
                k = c * 7 + b
                if k < nbits and val >> b & 1:
                    out |= 1 << dest[k]
            tab[val] = out
        tables.append(tab)
    return tables


def count_isomorphism_classes(n: int) -> int:
    """Number of non-isomorphic simple graphs on n vertices, by exhaustive
    orbit counting over all 2^(n(n-1)/2) labeled graphs (n <= 7)."""
    if n > 7:
        raise ValueError("exhaustive class counting limited to n <= 7")
    if n <= 1:
        return 1
    nbits = n * (n - 1) // 2
    total = 1 << nbits
    swap = list(range(n))
    swap[0], swap[1] = swap[1], swap[0]
    cycle = list(range(1, n)) + [0]
    gens = [_permutation_bit_tables(n, p) for p in (swap, cycle)]
    nchunks = len(gens[0])
    visited = bytearray(total)
    classes = 0
    for m in range(total):
        if visited[m]:
            continue
        classes += 1
        visited[m] = 1
        stack = [m]
        while stack:
            x = stack.pop()
            chunks = [(x >> 7 * c) & 127 for c in range(nchunks)]
            for tables in gens:
                y = 0
                for c in range(nchunks):
                    y |= tables[c][chunks[c]]
                if not visited[y]:
                    visited[y] = 1
                    stack.append(y)
    return classes
