"""Counting of maximal independent sets by size.

Maximal independent sets are counted as the maximal cliques of the
complement graph. Up to _TABLE_MAX_N vertices the counter scans all 2^n
vertex sets at once, one bit per set in a big-int bitset; above it, and
where the proof trace visits the cliques one by one, it runs pivoted
Bron-Kerbosch. A block of graph6 lines of one order is counted by one
depth-first search over vertex sets, one graph per bit lane of each big int,
into bit-sliced counters. A per-subset oracle provides an independent
cross-check for small orders.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache, reduce
from itertools import repeat
from operator import and_, or_

from .graph import _TABLE_MAX_N, Graph, _complement_rows, triangle_pairs

ORACLE_MAX_N = 24

# Largest count a byte lane of mis_lane_counts' result holds.
_LANE_MAX = 255

# Entry b maps a graph6 data character to the digit "1" where its bit b,
# counted from the most significant of its 6 bits, is clear: the pair at that
# bit is a non-edge.
_NONEDGE_DIGITS = tuple(
    bytes(ord("1") - ((x - 63) >> (5 - b) & 1) if 63 <= x <= 126 else ord("0") for x in range(256))
    for b in range(6)
)
# "0"/"1" to the byte 0/1, for the lanes of a counter's plane
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


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
        coeffs = list(self.counts)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs


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


def _submasks(width: int, stride: int) -> tuple[int, ...]:
    """Entry x has a 1 at bit stride*s for every submask s of x, for x below 2^width."""
    table = [1]
    for v in range(width):
        shift = stride << v
        table += [p | p << shift for p in table]
    return tuple(table)


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


def mis_lane_counts(n: int, lanes: int, columns: Sequence[bytes]) -> list[bytes]:
    """Per-size counts of the maximal independent sets of a block of `lanes`
    graphs of order n: byte g of entry s is the number of maximal
    independent sets of size s in graph g.

    columns[c] holds data character c of every graph's short-form graph6
    string, byte g for graph g, as read_graph6_blocks checks and cuts them.
    The bit of pair p (triangle_pairs order) lies in column p // 6, and one
    translate of that column to binary digits, reversed, gives its non-edge
    plane: a big int with bit g set where graph g lacks the pair.

    A depth-first search visits the vertex sets S in ascending order, with
    the lanes ind where S is independent and, per vertex v, the lanes free[v]
    where v has no neighbour in S. A member of S has free[v] = 0, since no
    vertex is its own non-neighbour, so S is maximal on the lanes of ind that
    no free[v] covers. A child S + u, u above every member, is independent on
    ind & free[u]; it is skipped when no lane is left.

    The counts are bit-sliced: size s keeps a list of planes, plane k holding
    bit k of every lane's count, and a maximal plane is added with a ripple
    carry. At the end plane k becomes a byte per lane shifted by k. The
    bytes cannot carry into each other: a graph on n vertices has at most
    3^(n/3) maximal independent sets (Moon-Moser), and an order where that
    could pass _LANE_MAX raises.
    """
    if 3 ** n > _LANE_MAX ** 3:
        raise ValueError(f"lane counts need 3^(n/3) <= {_LANE_MAX}, got n={n}")
    if not lanes:
        return [b""] * (n + 1)
    nonedge = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(triangle_pairs(n)):
        plane = int(columns[p // 6].translate(_NONEDGE_DIGITS[p % 6])[::-1], 2)
        nonedge[i][j] = nonedge[j][i] = plane
    everywhere = (1 << lanes) - 1
    counters: list[list[int]] = [[] for _ in range(n + 1)]

    def visit(size: int, ind: int, free: list[int], start: int) -> None:
        carry = ind & ~reduce(or_, free, 0)
        if carry:
            planes = counters[size]
            for k, plane in enumerate(planes):
                planes[k] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        for u in range(start, n):
            child = ind & free[u]
            if child:
                visit(size + 1, child, list(map(and_, free, nonedge[u])), u + 1)

    visit(0, everywhere, [everywhere] * n, 0)
    return [
        sum(
            int.from_bytes(format(plane, "b")[::-1].encode().translate(_DIGIT_BYTES), "little") << k
            for k, plane in enumerate(planes)
        ).to_bytes(lanes, "little")
        for planes in counters
    ]


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


def polynomial_string(coeffs: list[int]) -> str:
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
