"""Extremal bound f(n,t) = q^(t-r) (q+1)^r, extremal constructions,
proof-trace diagnostics, and the exhaustive bound verifier.

The exhaustive scan rests on the proof's split of the maximal cliques of G
around a vertex k with neighbourhood N, where G' = G - k:

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

import os
from collections import namedtuple
from collections.abc import Container, Hashable, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import accumulate
from operator import add, mul

# the exhaustive scan runs on graph alone; the other layers load where used
from .graph import (
    CANON_MAX_N,
    MAX_VERTICES,
    _bit_pairs,
    _rows_from_mask,
    _submasks,
    CanonicalForm,
    Graph,
    complete_graph,
    degree,
    delete_vertex,
    disjoint_union,
    empty_graph,
    from_edges,
    from_triangle_mask,
    induced_subgraph,
    min_degree,
    triangle_mask,
)

EXHAUSTIVE_MAX_N = 9
_JOBS_PER_WORKER = 4
# fewer blocks scan faster in-process than a pool starts: on a 2-core VM
# all 156 of n = 8 did, and the pool broke even at 100-300 blocks of n = 9
_POOL_MIN_BLOCKS = 400

AUTO = "auto"


class BoundDecomposition(namedtuple("BoundDecomposition", "n t q r f")):
    """n = q*t + r with 0 <= r < t, and the bound value f = q^(t-r) (q+1)^r."""

    __slots__ = ()


def bound_f(n: int, t: int) -> BoundDecomposition:
    """Maximum possible number of size-t maximal independent sets on n vertices."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    q, r = divmod(n, t)
    return BoundDecomposition(n, t, q, r, q ** (t - r) * (q + 1) ** r)


def build_H(n: int, t: int) -> Graph:
    """The extremal graph: disjoint union of t-r cliques K_q and r cliques K_{q+1}."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not t <= n <= MAX_VERTICES:
        raise ValueError(f"build_H needs t <= n <= {MAX_VERTICES}, got n={n}, t={t}")
    q, r = divmod(n, t)
    g = empty_graph(0)
    for _ in range(t - r):
        g = disjoint_union(g, complete_graph(q))
    for _ in range(r):
        g = disjoint_union(g, complete_graph(q + 1))
    return g


def build_turan(n: int, k: int) -> Graph:
    """Turan graph T(n,k): complete k-partite, part sizes q (k-r parts) then q+1 (r parts).

    Built directly from its parts, not as a complement, so the complement
    correspondence with build_H stays an independent check.
    """
    if not 1 <= k <= n <= MAX_VERTICES:
        raise ValueError(f"build_turan needs 1 <= k <= n <= {MAX_VERTICES}, got n={n}, k={k}")
    q, r = divmod(n, k)
    sizes = [q] * (k - r) + [q + 1] * r
    part_of = []
    for p, size in enumerate(sizes):
        part_of.extend([p] * size)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]
    return from_edges(n, edges)


class SplitReport(namedtuple("SplitReport", "v t a_count b_count nbhd_count gminus_count")):
    """Partition of t-maximal cliques by containment of a chosen vertex v:
    a_count t-maximal cliques contain v and b_count avoid it; nbhd_count
    (t-1)-maximal cliques of G[N(v)] and gminus_count t-maximal cliques of
    G - v bound them."""

    __slots__ = ()


def auto_split_vertex(g: Graph) -> int:
    """Lowest-index minimum-degree vertex, the proof's choice."""
    if g.n == 0:
        raise ValueError("graph has no vertices")
    d = min_degree(g)
    return next(v for v in range(g.n) if degree(g, v) == d)


def induction_split(g: Graph, t: int, v: int | str = AUTO) -> SplitReport:
    """Count the A/B split of t-maximal cliques around vertex v by direct enumeration."""
    from .codec import graph6_encode
    from .counting import _expand, maximal_clique_counts

    if t < 1:
        raise ValueError("t must be >= 1")
    if v == AUTO:
        v = auto_split_vertex(g)
    if not isinstance(v, int) or not 0 <= v < g.n:
        raise ValueError(f"vertex {v!r} out of range")

    vbit = 1 << v
    a_count = 0
    b_count = 0

    def visit(rmask: int, rsize: int) -> None:
        nonlocal a_count, b_count
        if rsize != t:
            return
        if rmask & vbit:
            a_count += 1
        else:
            b_count += 1

    _expand(g.adj, visit, 0, 0, g.full_set, 0)

    nbhd = induced_subgraph(g, g.adj[v])
    nbhd_counts = maximal_clique_counts(nbhd.adj, nbhd.n)
    nbhd_count = nbhd_counts[t - 1] if t - 1 <= nbhd.n else 0

    gminus = delete_vertex(g, v)
    gminus_counts = maximal_clique_counts(gminus.adj, gminus.n)
    gminus_count = gminus_counts[t] if t <= gminus.n else 0

    total = maximal_clique_counts(g.adj, g.n)[t] if t <= g.n else 0
    for holds, identity in (
        (a_count == nbhd_count, f"a_count == nbhd_count ({a_count} vs {nbhd_count})"),
        (b_count <= gminus_count, f"b_count <= gminus_count ({b_count} vs {gminus_count})"),
        (a_count + b_count == total, f"a + b == total ({a_count} + {b_count} vs {total})"),
    ):
        if not holds:
            raise ValueError(
                f"split identity {identity} fails on graph {graph6_encode(g)} at v={v}, t={t}"
            )
    return SplitReport(v, t, a_count, b_count, nbhd_count, gminus_count)


def proof_subcase(g: Graph, t: int) -> str:
    """Which proof subcase (1a/1b/2a/2b) the pair (G, t) falls into."""
    if t < 1:
        raise ValueError("t must be >= 1")
    q, r = divmod(g.n, t)
    d = min_degree(g)
    if r > 0:
        return "1a" if d >= g.n - q else "1b"
    return "2a" if d >= g.n - q + 1 else "2b"


def _check_exhaustive_order(n: int) -> None:
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive scan needs 1 <= n <= {EXHAUSTIVE_MAX_N}, got {n}")


class ExtremalReport(namedtuple(
    "ExtremalReport",
    "n t f max_observed attainers bound_holds unique_attainer graphs_examined coverage",
)):
    """One verifier result for (n, t): the bound f, the largest count
    max_observed over the graphs_examined graphs, whether the bound holds and
    whether the attainers are exactly the extremal graph, and the coverage
    label.

    attainers is a tuple of CanonicalForm, one per isomorphism class
    attaining f, in first-seen order. The extremal graph's form is built in
    closed form, and canonical_form runs only on unrecognized attainers.
    Above CANON_MAX_N a form's key is not canonical: the extremal graph is
    keyed by the triangle mask of build_H/build_turan, and any other
    attainer by its own triangle mask, which coverage flags with the
    suffix ",uncanonical".
    """

    __slots__ = ()


def _p3_free_lanes(n: int, size: int, planes: Sequence[int], turan: bool) -> int:
    """Bit g set where lane g's graph, given by its edge planes (one per
    pair, in triangle_pairs order), has no induced P3, three vertices with
    exactly two edges; if turan, where its complement has none.

    A graph without an induced P3 is a disjoint union of cliques, and its
    maximal independent sets take one vertex of each clique. So if it has
    f(n,t) > 0 of size t, it has exactly t cliques, whose sizes sum to n
    and multiply to f(n,t); only the sizes q and q+1 reach that product, so
    the graph is H(n,t). With complements, the same holds for T(n,t) and
    maximal cliques. It is the one recognizer of the extremal graph: an
    attainer lane with its bit set needs no decode, and _attainer_key
    tests a single attainer as a block of one lane.
    """
    everywhere = (1 << size) - 1
    if turan:
        planes = [plane ^ everywhere for plane in planes]
    bad = 0
    for k in range(2, n):
        above = k * (k - 1) // 2  # the pairs (i, k) start here
        for j in range(1, k):
            c = planes[above + j]
            jk = j * (j - 1) // 2
            for i in range(j):
                a, b = planes[jk + i], planes[above + i]  # (i, j), (i, k)
                bad |= a & (b ^ c) | b & c & ~a
    return everywhere & ~bad


# stands for every attainer _p3_free_lanes recognizes, until _report forms it
_EXTREMAL = object()


def _attainer_form(n: int, mask: int) -> CanonicalForm:
    """The key of an attainer that _p3_free_lanes rejects, given by its
    triangle mask: its canonical form up to CANON_MAX_N, and above it the
    mask itself, which dedupes labeled copies only."""
    if n > CANON_MAX_N:
        return CanonicalForm(n, mask)
    from .canon import canonical_form

    return canonical_form(from_triangle_mask(n, mask))


def _attainer_key(n: int, mask: int, turan: bool) -> Hashable:
    """The key _report takes for one attainer with this triangle mask, whose
    count the caller found to be f(n,t): _EXTREMAL if _p3_free_lanes passes
    it as a block of one lane, and _attainer_form otherwise."""
    # pair p of triangle_pairs is mask bit nbits-1-p
    planes = [mask >> b & 1 for b in reversed(range(n * (n - 1) // 2))]
    return _EXTREMAL if _p3_free_lanes(n, 1, planes, turan) else _attainer_form(n, mask)


def _extremal_form(n: int, t: int, turan: bool) -> CanonicalForm:
    """The form of H(n,t), or of T(n,t) if turan, in a closed form that
    equals canonical_form's up to CANON_MAX_N, with no search; above it,
    the triangle mask of build_H/build_turan.

    The key is the triangle mask of the graph in this vertex order. In H:
    one vertex of each clique, the q-cliques before the (q+1)-cliques, so
    that the first t columns are empty; then the rest of each clique, from
    the one whose first vertex came last. In T: the parts one after
    another, the (q+1)-parts first. Two vertices are adjacent in H when
    they share a part and in T when they do not.
    """
    if n > CANON_MAX_N:
        return CanonicalForm(n, triangle_mask(build_turan(n, t) if turan else build_H(n, t)))
    q, r = divmod(n, t)
    if turan:
        part = [p for p, size in enumerate([q + 1] * r + [q] * (t - r)) for _ in range(size)]
    else:
        sizes = [q] * (t - r) + [q + 1] * r
        part = list(range(t)) + [p for p in reversed(range(t)) for _ in range(sizes[p] - 1)]
    key = 0
    for v in range(n):
        for u in range(v):
            key = key << 1 | ((part[u] == part[v]) != turan)
    return CanonicalForm(n, key)


def _report(
    n: int,
    t: int,
    side: str,
    max_observed: int,
    keys: Iterable[Hashable],
    graphs_examined: int,
    coverage: str,
) -> ExtremalReport:
    """Shared tail of both verifiers: dedupe the attainer keys in first-seen
    order and compare them with the extremal graph of the side.

    A key is _EXTREMAL for attainers that _p3_free_lanes recognizes or the
    exhaustive census certifies, and _attainer_form's otherwise, so the
    canonical search runs only on unrecognized attainers; the sentinel
    becomes _extremal_form. The coverage gains ",uncanonical" if an
    unrecognized attainer above CANON_MAX_N is reported by its own labeling.
    """
    f = bound_f(n, t).f
    attainers: tuple[CanonicalForm, ...] = ()
    unique = False
    # f = 0 (n < t) records no keys: every graph meets the bound and no
    # extremal graph exists
    distinct = dict.fromkeys(keys)
    if distinct:
        expected = _extremal_form(n, t, side == "clique")
        attainers = tuple(expected if key is _EXTREMAL else key for key in distinct)
        unique = attainers == (expected,)
        if n > CANON_MAX_N and any(key is not _EXTREMAL for key in distinct):
            coverage += ",uncanonical"
    return ExtremalReport(
        n=n,
        t=t,
        f=f,
        max_observed=max_observed,
        attainers=attainers,
        bound_holds=max_observed <= f,
        unique_attainer=unique,
        graphs_examined=graphs_examined,
        coverage=coverage,
    )


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
    if m <= 1:
        yield 0, 1
        return
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


def _lane_reduce(column: bytes, most: int, f: int) -> tuple[int, list[int]]:
    """The larger of most and the largest count in the column of per-lane
    counts, and the lanes whose count is f, in ascending order; none if
    f = 0, which every graph meets with no extremal graph (see _report)."""
    # deleting the counts up to the maximum so far leaves the larger ones,
    # often none, so max() walks only those
    most = max(column.translate(None, bytes(range(most + 1))), default=most)
    lanes = []
    if f:
        lane = column.find(f)
        while lane >= 0:
            lanes.append(lane)
            lane = column.find(f, lane + 1)
    return most, lanes


def _labeled_copies(n: int, t: int) -> int:
    """The labeled copies of H(n,t), and of its complement T(n,t):
    n!/|Aut H(n,t)|, with |Aut H(n,t)| = q!^(t-r) (t-r)! (q+1)!^r r!."""
    q, r = divmod(n, t)
    fact = list(accumulate(range(1, n + 2), mul, initial=1))
    return fact[n] // (fact[q] ** (t - r) * fact[t - r] * fact[q + 1] ** r * fact[r])


def _scan_blocks(
    n: int, blocks: Iterable[tuple[int, int]], collect: Container[int] = ()
) -> tuple[list[int], list[int], dict[int, list[int]], int]:
    """Worker: count the maximal cliques of the labeled n-vertex graphs whose
    first n-2 vertices have triangle mask hh, for each (hh, orbit) of blocks,
    2^(2n-3) graphs per mask (the one graph for n = 1).

    A block stands for the orbit blocks whose G'' is a relabeling of its
    own: their lanes hold its counts permuted, so they share its per-t
    maxima and number of attainers, and if hh is the smallest mask of its
    orbit, the block holds the smallest labeled mask of every class the
    orbit's blocks contain.

    Returns (per-t maximum counts, per-t census: orbit * attainer lanes
    summed over the blocks, {t: masks attaining bound_f(n,t) in block
    order} for each t of collect, graphs covered: orbit * 2^(2n-3) a block).
    """
    bounds = [0] + [bound_f(n, t).f for t in range(1, n + 1)]
    max_counts = [0] * (n + 1)
    census = [0] * (n + 1)
    masks: dict[int, list[int]] = {t: [] for t in collect}
    covered = 0
    for hh, orbit in blocks:
        counts = _extension_counts(n, hh)
        lanes = len(counts[0])
        covered += orbit * lanes
        base = hh * lanes  # hh << (2n-3)
        for t in range(1, n + 1):
            max_counts[t], found = _lane_reduce(counts[t], max_counts[t], bounds[t])
            census[t] += orbit * len(found)
            if t in masks:
                masks[t].extend(base | lane for lane in found)
    return max_counts, census, masks, covered


def _exhaustive_reports(
    n: int,
    ts: Sequence[int],
    side: str,
    blocks: Sequence[tuple[int, int]],
    parts: Iterable[tuple[list[int], list[int], dict[int, list[int]], int]],
) -> list[ExtremalReport]:
    """Merge the _scan_blocks results of one scan of blocks into one report
    per t; raises ValueError unless they cover exactly the 2^C(n,2) labeled
    graphs, or if the census of a t fails but its rescanned attainers are
    the extremal graph alone. A t fails if a count passes f or its census
    is not _labeled_copies(n, t)."""
    total = 1 << (n * (n - 1) // 2)
    max_counts, census, covered = [0] * (n + 1), [0] * (n + 1), 0
    for mc, cs, _, graphs in parts:
        max_counts = list(map(max, max_counts, mc))
        census = list(map(add, census, cs))
        covered += graphs
    if covered != total:
        raise ValueError(
            f"exhaustive scan covered {covered} of the {total} labeled graphs on {n} vertices"
        )
    copies = {t: _labeled_copies(n, t) for t in ts}
    failed = [t for t in ts if max_counts[t] > bound_f(n, t).f or census[t] != copies[t]]
    masks = _scan_blocks(n, blocks, failed)[2] if failed else {}
    # the masks are clique-side attainers: the MIS attainer is the complement
    flip = total - 1 if side == "mis" else 0  # XOR with all edges complements
    reports = []
    for t in ts:
        keys = [_EXTREMAL] if t not in masks else (
            _attainer_key(n, mask ^ flip, side == "clique") for mask in masks[t])
        report = _report(n, t, side, max_counts[t], keys, covered, f"exhaustive-labeled({n})")
        if report.unique_attainer and census[t] != copies[t]:
            raise ValueError(
                f"exhaustive scan found {census[t]} labeled attainers at n={n}, t={t}, "
                f"all of them the extremal graph, which has {copies[t]} labeled copies"
            )
        reports.append(report)
    return reports


def verify_bound_exhaustive(
    n: int,
    ts: Iterable[int] | None = None,
    side: str = "mis",
    workers: int = 1,
) -> list[ExtremalReport]:
    """Cover all labeled graphs on n vertices once, reporting one
    ExtremalReport per requested t. Deterministic regardless of worker count.

    The scan counts maximal cliques. Complementing is a bijection on labeled
    graphs and turns maximal independent sets into maximal cliques, so the
    per-t maxima are the same on both sides, and the MIS attainers are the
    complements of the clique attainers.

    Every labeled graph relabels, by a permutation of its first n-2
    vertices, into the block of one orbit representative of G'', so the
    kernel runs once per representative, in ascending mask order. Raises
    ValueError unless the orbit sizes times 2^(2n-3) sum to exactly 2^C(n,2).

    Each t is certified by two numbers: its largest count, and its census,
    the labeled graphs attaining f. Every labeled copy of the extremal graph
    attains f, so it is the only attainer exactly when no count passes f
    and the census is n!/|Aut H(n,t)|; then no attainer mask is kept. A t
    that fails is scanned again for its masks, and the report names their
    classes in the order of their smallest labeled mask, as a scan of every
    block would.
    """
    _check_exhaustive_order(n)
    if side not in ("mis", "clique"):
        raise ValueError("side must be 'mis' or 'clique'")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ts = list(ts) if ts is not None else list(range(1, n + 1))
    for t in ts:
        if not 1 <= t <= n:
            raise ValueError(f"t={t} outside 1..{n}")
    # one block per orbit of G'' on the first n-2 vertices; n = 1 is one
    # block of one graph
    blocks = list(_orbit_representatives(max(n - 2, 0)))
    workers = min(workers, os.cpu_count() or 1)

    if workers > 1 and len(blocks) >= _POOL_MIN_BLOCKS:
        # several jobs per worker, taken in turn, even out the sparse and
        # dense ends of the mask range; starmap keeps their order
        chunk = -(-len(blocks) // (workers * _JOBS_PER_WORKER))
        jobs = [(n, blocks[lo : lo + chunk]) for lo in range(0, len(blocks), chunk)]
        import multiprocessing  # here, so commands that never fork skip its import

        with multiprocessing.Pool(workers) as pool:
            parts = pool.starmap(_scan_blocks, jobs)
    else:
        parts = [_scan_blocks(n, blocks)]
    return _exhaustive_reports(n, ts, side, blocks, parts)


def verify_bound_stream(
    items: Iterable[Graph6Block | Graph],
    t: int,
    side: str = "mis",
    source: str = "stream",
) -> ExtremalReport:
    """Verify the bound over an externally supplied stream of same-order
    graphs: the items of read_graph6_blocks, or plain Graphs.

    A block, of an order up to counting._LANE_MAX_N, gets one mis_lane_counts
    call, on the non-edge planes for the MIS side and on the edge planes for
    the clique side. Its attainer lanes that _p3_free_lanes sets are the
    extremal graph; only the others are decoded, each distinct mask keyed
    once by _attainer_form. A Graph item, of a refused cut or a larger order,
    is counted and keyed on its own.
    Uniqueness is not certified for streams: unique_attainer reflects only
    the graphs seen, keyed as they arrive (lanes in order) and deduped by
    _report in first-seen order. No order is too large: above CANON_MAX_N
    the forms are not canonical (see ExtremalReport).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if side not in ("mis", "clique"):
        raise ValueError("side must be 'mis' or 'clique'")
    from .counting import maximal_clique_size_profile, mis_lane_counts, mis_size_profile

    turan = side == "clique"
    n = None
    max_observed = 0
    examined = 0
    keys: dict[Hashable, None] = {}
    f = 0
    for item in items:
        if n is None:
            n = item.n
            f = bound_f(n, t).f
        elif item.n != n:
            raise ValueError(f"mixed graph orders in stream: {n} then {item.n}")
        if isinstance(item, Graph):
            examined += 1
            profile = maximal_clique_size_profile(item) if turan else mis_size_profile(item)
            c = profile.get(t)
            max_observed = max(max_observed, c)
            if c == f and f:  # f = 0, see _report
                keys[_attainer_key(n, triangle_mask(item), turan)] = None
        else:
            examined += item.size
            planes = item.edge_planes()
            counts = mis_lane_counts(n, item.size, planes, complement=not turan)
            max_observed, lanes = _lane_reduce(counts[t] if t <= n else b"", max_observed, f)
            free = _p3_free_lanes(n, item.size, planes, turan) if lanes else 0
            # a recognized lane is not decoded, and a repeated mask would give
            # a key that keys already holds
            found = dict.fromkeys(
                _EXTREMAL if free >> lane & 1 else item.lane_mask(lane) for lane in lanes
            )
            for key in found:
                if key is not _EXTREMAL:  # the mask of an unrecognized lane
                    key = _attainer_form(n, key)
                keys[key] = None
    if n is None:
        raise ValueError("empty graph stream")
    return _report(n, t, side, max_observed, keys, examined, f"stream({source})")
