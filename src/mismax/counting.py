"""Counting of maximal independent sets by size.

Maximal independent sets are counted as the maximal cliques of the
complement graph. Up to _TABLE_MAX_N vertices the counter scans all 2^n
vertex sets at once, one bit per set in a big-int bitset; above it, and
where the proof trace visits the cliques one by one, it runs pivoted
Bron-Kerbosch. A block of graphs of one order up to _LANE_MAX_N, given as
one edge plane per pair, is counted by one depth-first search over vertex
sets, one graph per bit lane of each big int, into carry-save counters.
A per-subset oracle provides an independent cross-check for small orders.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache, reduce
from itertools import repeat
from operator import and_, or_

from .graph import Graph, _complement_rows, _submasks, triangle_pairs

ORACLE_MAX_N = 24

# Largest order of the lazily built subset tables, about 1.3 MB at n = 12;
# they grow as 4^n bits, so larger orders run Bron-Kerbosch.
_TABLE_MAX_N = 12
# Largest order of mis_lane_counts, and so of a graph6 block: a lane's count
# is a byte, and a graph on n vertices has at most 3^(n/3) maximal independent
# sets (Moon-Moser), 243 at n = 15 but 324 at n = 16.
_LANE_MAX_N = 15


class SizeProfile(namedtuple("SizeProfile", "n counts")):
    """counts[s] = number of maximal independent sets of size s, for s = 0..n."""

    __slots__ = ()

    def get(self, s: int) -> int:
        """Count at size s; zero outside 0..n."""
        if 0 <= s <= self.n:
            return self.counts[s]
        return 0

    def total(self) -> int:
        return sum(self.counts)

    def coefficients(self) -> list[int]:
        """Polynomial coefficients, constant term first, trailing zeros trimmed."""
        return list(_trimmed(self.counts))


def _trimmed(counts: Sequence[int]) -> Sequence[int]:
    """counts up to its last nonzero entry, the first kept: the polynomial
    coefficients of a profile's counts or of a block lane's bytes."""
    end = len(counts)
    while end > 1 and not counts[end - 1]:
        end -= 1
    return counts[:end]


def _expand(adj: tuple[int, ...], visit, rmask: int, rsize: int, p: int, x: int) -> None:
    """Pivoted Bron-Kerbosch. Visits every maximal clique exactly once.

    Pivot is the vertex of P|X covering the most of P, lowest index on ties;
    candidates are expanded in ascending index order, which fixes the visit
    order deterministically.
    """
    if not p and not x:
        visit(rmask, rsize)
        return
    px = p | x
    best_u = -1
    best_cover = -1
    m = px
    while m:
        u = (m & -m).bit_length() - 1
        cover = (p & adj[u]).bit_count()
        if cover > best_cover:
            best_cover = cover
            best_u = u
        m &= m - 1
    cand = p & ~adj[best_u]
    while cand:
        b = cand & -cand
        v = b.bit_length() - 1
        _expand(adj, visit, rmask | b, rsize + 1, p & adj[v], x & adj[v])
        p &= ~b
        x |= b
        cand &= cand - 1


@lru_cache(maxsize=_TABLE_MAX_N + 1)
def _subset_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Bitsets over the 2^n vertex sets of order n, bit S for the set S: the
    submasks of each x, the sets that contain each vertex v, then the bits
    1 << v, then the sets of each size k = 0..n."""
    sub = _submasks(n, 1)
    full = (1 << n) - 1
    vbits = tuple(1 << v for v in range(n))
    member = tuple(sub[full] ^ sub[full ^ b] for b in vbits)
    layer = [1]
    for b in vbits:
        layer = [p | q << b for p, q in zip(layer + [0], [0] + layer)]
    return sub, member, vbits, tuple(layer)


def _subset_counts(adj: tuple[int, ...], n: int, complement: bool) -> list[int]:
    """Per-size maximal-clique counts of the graph, or of its complement, by
    one scan over all 2^n vertex sets.

    S is a maximal clique iff, for every vertex v, v is in S exactly when S
    lies inside the closed neighbourhood N[v]: a member of a clique sees the
    rest of it, and a vertex outside that sees all of S could be added. A
    loop-free row has no bit v, so N[v] is row ^ (1 << v), and in the
    complement, where N[v] is v and its non-neighbours, row ^ full.
    """
    sub, member, vbits, layer = _subset_tables(n)
    flips = repeat(len(sub) - 1) if complement else vbits
    bad = 0
    for row, flip, sets in zip(adj, flips, member):
        bad |= sets ^ sub[row ^ flip]
    kept = sub[-1] & ~bad
    return [(kept & sets).bit_count() for sets in layer]


def _transpose8(rows: Iterable[bytes | bytearray], width: int) -> Iterator[bytes]:
    """Rows of width bytes, each 8-byte slot an 8x8 bit matrix with byte r its
    row r, transposed: bit c of byte r goes to bit r of byte c, by swaps of the
    4x4, 2x2 and 1x1 bit blocks off the diagonal on all slots of a row at once."""
    swaps = (28, b"\xf0" * 4 + b"\0" * 4), (14, b"\xcc\xcc\0\0" * 2), (7, b"\xaa\0" * 4)
    masks = [(shift, int.from_bytes(word * (width // 8), "little")) for shift, word in swaps]
    for row in rows:
        x = int.from_bytes(row, "little")
        for shift, mask in masks:
            t = (x >> shift ^ x) & mask
            x ^= t ^ t << shift
        yield x.to_bytes(width, "little")


def mis_lane_counts(
    n: int, lanes: int, edges: Sequence[int], complement: bool = True
) -> list[bytes]:
    """Per-size counts of the maximal independent sets of a block of `lanes`
    graphs of order n: byte g of entry s is the number of maximal
    independent sets of size s in graph g. With complement false they count
    the maximal cliques instead: the search runs on the complement of each
    graph, whose non-edge planes are the edge planes of the block.

    edges[p] is the edge plane of pair p (triangle_pairs order), a big int
    with bit g set where graph g has the pair, as Graph6Block.planes holds
    them; XOR with every lane gives the non-edge plane.

    A depth-first search visits the vertex sets S in ascending order, with
    the lanes ind where S is independent and, per vertex v, the lanes free[v]
    where v has no neighbour in S. A member of S has free[v] = 0, since no
    vertex is its own non-neighbour, so S is maximal on the lanes of ind that
    no free[v] covers. A child S + u, u above every member, is independent on
    ind & free[u]; it is skipped when no lane is left.

    The counts are carry-save: size s keeps, per weight 2^k of a byte, a
    [sum, pending] pair of planes (pending 0 when empty). A maximal plane goes
    in at weight 1: an empty pending plane takes it, else a full adder folds
    the three into the sum and a carry for the next weight. A last ripple
    carry leaves a plane per weight, which _transpose8 turns into a byte per
    lane, enough for any count up to order _LANE_MAX_N; larger orders raise.
    """
    if n > _LANE_MAX_N:
        raise ValueError(f"lane counts need n <= {_LANE_MAX_N}, got n={n}")
    everywhere = (1 << lanes) - 1
    flip = everywhere if complement else 0
    nonedge = [[0] * n for _ in range(n)]
    for plane, (i, j) in zip(edges, triangle_pairs(n), strict=True):
        nonedge[i][j] = nonedge[j][i] = plane ^ flip
    counters = [[[0, 0] for _ in range(8)] for _ in range(n + 1)]

    def visit(size: int, ind: int, free: list[int], start: int) -> None:
        # ind & ~covered, without the negative int that ~ makes and & undoes
        plane = ind ^ (ind & reduce(or_, free, 0))
        if plane:
            for weight in counters[size]:
                total, pending = weight
                if not pending:
                    weight[1] = plane
                    break
                half = total ^ pending
                weight[:] = half ^ plane, 0
                plane = total & pending | half & plane
        for u in range(start, n):
            child = ind & free[u]
            if child:
                visit(size + 1, child, list(map(and_, free, nonedge[u])), u + 1)

    visit(0, everywhere, [everywhere] * n, 0)
    groups = -(-lanes // 8)
    rows = [bytearray(8 * groups) for _ in counters]
    for row, weights in zip(rows, counters):
        carry = 0
        for k, (total, pending) in enumerate(weights):
            half = total ^ pending
            row[k::8] = (half ^ carry).to_bytes(groups, "little")
            carry = total & pending | half & carry
    return [row[:lanes] for row in _transpose8(rows, 8 * groups)]


def maximal_clique_counts(adj: tuple[int, ...], n: int) -> list[int]:
    """Per-size maximal-clique counts for a bitmask adjacency, as a list of n+1 ints."""
    if n <= _TABLE_MAX_N:
        return _subset_counts(adj, n, False)
    counts = [0] * (n + 1)

    def visit(_rmask: int, rsize: int) -> None:
        counts[rsize] += 1

    _expand(adj, visit, 0, 0, (1 << n) - 1, 0)
    return counts


def mis_size_profile(g: Graph) -> SizeProfile:
    """Size profile of maximal independent sets, via clique enumeration on the complement."""
    n = g.n
    if n <= _TABLE_MAX_N:
        return SizeProfile(n, tuple(_subset_counts(g.adj, n, True)))
    return SizeProfile(n, tuple(maximal_clique_counts(_complement_rows(g), n)))


def maximal_clique_size_profile(g: Graph) -> SizeProfile:
    """Per-size counts of maximal cliques; equals mis_size_profile(complement(g))."""
    return SizeProfile(g.n, tuple(maximal_clique_counts(g.adj, g.n)))


def polynomial_string(coeffs: Sequence[int]) -> str:
    """Render coefficients like [0, 0, 3] as "3x^2"."""
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        elif power == 1:
            terms.append(f"{c}x" if c != 1 else "x")
        else:
            terms.append(f"{c}x^{power}" if c != 1 else f"x^{power}")
    return " + ".join(terms) if terms else "0"


class _CountTemplates(dict):
    """Count lines after their index, by the counts of sizes 0..n, formatted on first
    lookup: streams repeat few profiles. At limit lines, a new one drops them all."""

    limit = 4096

    def __init__(self, csv: bool):
        self.fields = ',{},"{}",{},{}\n' if csv else " n={} counts={} total={} poly={}\n"

    def __missing__(self, counts: Sequence[int]) -> str:
        if len(self) >= self.limit:
            self.clear()
        coeffs = _trimmed(counts)
        self[counts] = line = self.fields.format(
            len(counts) - 1, ",".join(map(str, coeffs)), sum(coeffs), polynomial_string(coeffs)
        )
        return line


def oracle_mis_size_profile(g: Graph) -> SizeProfile:
    """Independent oracle: scan all 2^n subsets for maximal independent sets."""
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle subset scan limited to n <= {ORACLE_MAX_N}, got {g.n}")
    n = g.n
    adj = g.adj
    counts = [0] * (n + 1)
    for s in range(1 << n):
        independent = True
        m = s
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & s:
                independent = False
                break
            m &= m - 1
        if not independent:
            continue
        # maximal iff every outside vertex has a neighbor inside
        outside = g.full_set & ~s
        maximal = True
        m = outside
        while m:
            v = (m & -m).bit_length() - 1
            if not adj[v] & s:
                maximal = False
                break
            m &= m - 1
        if maximal:
            counts[s.bit_count()] += 1
    return SizeProfile(n, tuple(counts))
