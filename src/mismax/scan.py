"""The exhaustive scan of every labeled graph on n vertices, one clique
enumeration of G'' per orbit of G'' under S_(n-2).

The scan rests on the proof's split of the maximal cliques of G around a
vertex k with neighbourhood N, where G' = G - k:

- A, the maximal cliques containing k, are the sets {k} + D for the cliques
  D of G' with D inside N and no common neighbour in N; these D are the
  maximal cliques of G[N].
- B, the maximal cliques avoiding k, are the maximal cliques C of G' that
  are not inside N.

The scan applies the split to the last two vertices j = n-2 and k = n-1,
with G'' = G - {j, k} and a the neighbourhood of j in G''. The cliques of
G' = G - k are the cliques D of G'' and the cliques D + j for D inside a;
cn(D) in G' is cn(D) in G'' plus j when D is inside a, and
cn(D + j) = cn(D) & a. So one clique enumeration of G'' gives the counts of
all 2^(2n-3) graphs that extend G'': for each a, only the cliques D inside a
change their terms.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from math import factorial
from operator import add

from .extremal import (
    EXHAUSTIVE_MAX_N,
    _EXTREMAL,
    _attainer_key,
    _lane_reduce,
    _report,
    ExtremalReport,
    bound_f,
)
from .graph import _bit_pairs, _rows_from_mask, _submasks


@lru_cache(maxsize=EXHAUSTIVE_MAX_N)
def _frame_pairs(m: int) -> tuple[tuple[int, int, int, int], ...]:
    """graph._bit_pairs(m) relabeled v -> m - v: the pairs of G'' in the
    frame of the exhaustive scan, where vertex 0 is left free for j."""
    return tuple((m - i, m - j, 1 << m - i, 1 << m - j) for i, j, _, _ in _bit_pairs(m))


def _permutation_bit_tables(n: int, perm: list[int], width: int) -> list[list[int]]:
    """Two lookup tables, for mask bits below width and for the rest, whose
    entries OR to a triangle mask with a vertex permutation applied."""
    pairs = [(i, j) for i, j, _, _ in _bit_pairs(n)]
    # dest[b]: where the permutation sends the pair stored at mask bit b
    dest = [pairs.index(tuple(sorted((perm[i], perm[j])))) for i, j in pairs]
    tables = []
    for first, stop in ((0, width), (width, len(pairs))):
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
    nbits = m * (m - 1) // 2
    total = 1 << nbits
    width = nbits // 2
    low_bits = (1 << width) - 1
    swap = [1, 0, *range(2, m)]
    cycle = [*range(1, m), 0]
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
            low, high = x & low_bits, x >> width
            for y in (swap_low[low] | swap_high[high], cycle_low[low] | cycle_high[high]):
                if not visited[y]:
                    visited[y] = 1
                    size += 1
                    stack.append(y)
        yield start, size


def _extension_counts(n: int, hh: int) -> list[bytes]:
    """Per-size maximal-clique counts of the 2^(2n-3) labeled n-vertex graphs
    G with triangle mask hh << (2n-3) | aa << (n-1) | nb: byte aa << (n-1) | nb
    of entry s counts size s, so the bytes run in mask order.

    The frame relabels G'' = G - {j, k}, for j = n-2 and k = n-1, by
    v -> n-2-v (_frame_pairs) and gives j the vertex 0, with an empty row.
    The low n-1 bits nb of the mask hold the pairs of k, bit b the pair
    (n-2-b, k), and the next n-2 bits aa those of j, bit b the pair
    (n-3-b, j); in the frame, nb is the neighbourhood of k and a = aa << 1
    that of j, both vertex sets of G' = G - k.

    By the split in the module docstring, a clique D' of G' with common
    neighbourhood cn(D') in G' counts {k} + D' on each nb with D' inside nb
    and nb disjoint from cn(D'), and, if cn(D') is empty, D' itself on each
    nb that does not hold D'. The cliques of G' are
    the cliques D of G'' and, for D inside a, the cliques D + j, with
    cn(D + j) = cn(D) & a. So one depth-first enumeration of the cliques D of
    G'' (empty D included), with cn(D) taken in G'', fills
    - base, where every D counts as if it were not inside a, and
    - delta[aa], for each a containing D: cn(D) gains j, so {k} + D loses the
      nb that hold j and D stops being maximal, and D + j is counted with
      c = cn(D) & a.

    Entry s is the 2^(n-2) segments base[s] + delta[aa][s] of 2^(n-1) bytes,
    one byte per nb, in ascending aa. The sums are exact big ints, so a
    partial sum may be negative or borrow across bytes; every final byte is
    one graph's count, at most 3^(n/3) (Moon-Moser), which fits a byte up to
    the lane kernel's order limit counting._LANE_MAX_N; a test keeps
    EXHAUSTIVE_MAX_N at or below it, so each segment fits its bytes.
    """
    if n < 2:
        return [b"\x00", b"\x01"]  # K1 has no pair to split off
    m = n - 1
    full = (1 << m) - 1
    rows = _rows_from_mask(m, hh, _frame_pairs(n - 2))
    spread = _submasks(m, 8)
    everywhere = spread[full]
    base = [0] * (n + 1)
    delta = [[0] * (n + 1) for _ in range(1 << (n - 2))]
    # (D, |D|, cn(D) in G'', the vertices of cn(D) above every vertex of D)
    stack = [(0, 0, full ^ 1, full ^ 1)]
    while stack:
        d, size, cn, up = stack.pop()
        supersets = spread[full & ~(d | cn)] << 8 * d
        base[size + 1] += supersets
        maximal = 0 if cn else everywhere - supersets
        base[size] += maximal
        dj = d | 1
        shift = 8 * dj
        lost = spread[full & ~(dj | cn)] << shift  # {k} + D on the nb holding j
        joined = everywhere - (spread[full & ~dj] << shift)  # D + j maximal
        rest = full & ~(dj | cn)
        c = cn
        while True:  # each c inside cn(D), then each a = D | c | r, r inside rest
            grown = spread[full & ~(dj | c)] << shift  # {k} + D + j
            changed = -lost if c else joined - lost
            r = rest
            while True:
                acc = delta[(d | c | r) >> 1]
                acc[size + 2] += grown
                acc[size + 1] += changed
                if maximal:
                    acc[size] -= maximal
                if not r:
                    break
                r = (r - 1) & rest
            if not c:
                break
            c = (c - 1) & cn
        while up:
            b = up & -up
            up ^= b
            row = rows[b.bit_length() - 1]
            stack.append((d | b, size + 1, cn & row, up & row))
    segment = 1 << m
    columns = []
    for s, total in enumerate(base):
        # the segments of an a whose cliques leave size s alone share bytes
        unchanged = total.to_bytes(segment, "little")
        columns.append(b"".join(
            (total + acc[s]).to_bytes(segment, "little") if acc[s] else unchanged
            for acc in delta
        ))
    return columns


def _labeled_copies(n: int, t: int) -> int:
    """The labeled copies of H(n,t), and of its complement T(n,t):
    n!/|Aut H(n,t)|, with |Aut H(n,t)| = q!^(t-r) (t-r)! (q+1)!^r r!."""
    q, r = divmod(n, t)
    aut = factorial(q) ** (t - r) * factorial(t - r) * factorial(q + 1) ** r * factorial(r)
    return factorial(n) // aut


def _scan_blocks(
    n: int, blocks: Iterable[tuple[int, int]]
) -> tuple[list[int], list[list[tuple[int, int]]], int]:
    """Worker: count the maximal cliques of the labeled n-vertex graphs whose
    first n-2 vertices have triangle mask hh, for each (hh, orbit) of blocks,
    2^(2n-3) graphs per mask (the one graph for n = 1).

    A block stands for the orbit blocks whose G'' is a relabeling of its
    own: their lanes hold its counts permuted, so they share its per-t
    maxima and number of attainers, and if hh is the smallest mask of its
    orbit, the block holds the smallest labeled mask of every class the
    orbit's blocks contain.

    Returns, indexed by t: the maximum counts, and the attainers of
    bound_f(n,t), in block order, one (mask, orbit) per attainer lane of a
    block, the mask standing for the orbit's graphs. Last, the graphs
    covered: orbit * 2^(2n-3) a block.
    """
    bounds = [0] + [bound_f(n, t).f for t in range(1, n + 1)]
    max_counts = [0] * (n + 1)
    attainers: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    covered = 0
    for hh, orbit in blocks:
        counts = _extension_counts(n, hh)
        lanes = len(counts[0])
        covered += orbit * lanes
        base = hh * lanes  # hh << (2n-3)
        for t in range(1, n + 1):
            max_counts[t], found = _lane_reduce(counts[t], max_counts[t], bounds[t])
            attainers[t].extend((base | lane, orbit) for lane in found)
    return max_counts, attainers, covered


def _exhaustive_reports(
    n: int,
    ts: Sequence[int],
    side: str,
    parts: Iterable[tuple[list[int], list[list[tuple[int, int]]], int]],
) -> list[ExtremalReport]:
    """Merge the _scan_blocks results of one pass over the blocks, in block
    order, into one report per t; raises ValueError unless they cover
    exactly the 2^C(n,2) labeled graphs, or if the census of a t fails but
    its attainer masks are the extremal graph alone. The census of a t is
    the orbit sizes of its attainers summed, the labeled graphs attaining
    f. A t fails if a count passes f or its census is not
    _labeled_copies(n, t); only then are its masks keyed, and the report
    names their classes in the order of their smallest labeled mask."""
    total = 1 << (n * (n - 1) // 2)
    max_counts, attainers, covered = [0] * (n + 1), [[]] * (n + 1), 0
    for mc, found, graphs in parts:
        max_counts = list(map(max, max_counts, mc))
        attainers = list(map(add, attainers, found))
        covered += graphs
    if covered != total:
        raise ValueError(
            f"exhaustive scan covered {covered} of the {total} labeled graphs on {n} vertices"
        )
    # the masks are clique-side attainers: the MIS attainer is the complement
    flip = total - 1 if side == "mis" else 0  # XOR with all edges complements
    reports = []
    for t in ts:
        copies = _labeled_copies(n, t)
        census = sum(orbit for _, orbit in attainers[t])
        passed = max_counts[t] <= bound_f(n, t).f and census == copies
        keys = [_EXTREMAL] if passed else (
            _attainer_key(n, mask ^ flip, side == "clique") for mask, _ in attainers[t])
        report = _report(n, t, side, max_counts[t], keys, covered, f"exhaustive-labeled({n})")
        if report.unique_attainer and census != copies:
            raise ValueError(
                f"exhaustive scan found {census} labeled attainers at n={n}, t={t}, "
                f"all of them the extremal graph, which has {copies} labeled copies"
            )
        reports.append(report)
    return reports
