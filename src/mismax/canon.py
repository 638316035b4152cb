"""Canonical labeling of small graphs; equal forms certify isomorphism.

The canonical key is the lexicographically minimal triangle mask (see
graph.triangle_mask) over all vertex relabelings.
Found by branch-and-bound over partial labelings with prefix pruning.
CanonicalForm and CANON_MAX_N live in graph, so reports print forms without
this module, which the verifiers load only for unrecognized attainers.
"""

from __future__ import annotations

from .graph import CANON_MAX_N, CanonicalForm, Graph


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
