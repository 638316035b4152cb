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
from collections.abc import Hashable, Iterable, Sequence
from functools import lru_cache

from .canon import CANON_MAX_N, CanonicalForm, canonical_form
from .codec import graph6_encode
from .counting import (
    _expand,
    _submasks,
    maximal_clique_counts,
    maximal_clique_size_profile,
    mis_size_profile,
)
from .graph import (
    MAX_VERTICES,
    _extension_rows,
    _rows_from_mask,
    Graph,
    bits,
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

EXHAUSTIVE_MAX_N = 8
_JOBS_PER_WORKER = 4

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
    attaining f, in first-seen order. Above CANON_MAX_N a form's key is not
    canonical: the extremal graph is keyed by the triangle mask of
    build_H/build_turan, and any other attainer by its own triangle mask,
    which coverage flags with the suffix ",uncanonical".
    """

    __slots__ = ()


def _is_extremal(rows: Sequence[int], t: int, turan: bool) -> bool:
    """True if the adjacency rows are H(n,t) up to relabeling, or T(n,t) if
    turan, in O(n^2) bit operations.

    H(n,t) is t disjoint cliques of q or q+1 vertices, n = q*t + r, and
    T(n,t) is its complement. The part of v is its closed neighbourhood
    row | 1 << v in H, and its non-neighbourhood (v included) in T. The rows
    are the graph iff every member of each part has that same part, there
    are t parts, and each has q or q+1 vertices; the parts then sum to n, so
    r of them have q+1.
    """
    n = len(rows)
    full = (1 << n) - 1
    if turan:
        part_of = [full & ~row for row in rows]
    else:
        part_of = [row | 1 << v for v, row in enumerate(rows)]
    q = n // t
    parts = 0
    seen = 0
    for v, part in enumerate(part_of):
        if seen >> v & 1:
            continue
        if not q <= part.bit_count() <= q + 1:
            return False
        if any(part_of[u] != part for u in bits(part)):
            return False
        seen |= part
        parts += 1
    return parts == t


# stands for every attainer _is_extremal recognizes, until _report forms it
_EXTREMAL = object()


def _attainer_form(g: Graph) -> CanonicalForm:
    """canonical_form(g), or above CANON_MAX_N the form keyed by g's own
    triangle mask, which dedupes labeled copies only."""
    if g.n > CANON_MAX_N:
        return CanonicalForm(g.n, triangle_mask(g))
    return canonical_form(g)


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

    A key is _EXTREMAL for an attainer _is_extremal recognized as the
    side's extremal graph, and the attainer's _attainer_form otherwise. The
    sentinel is swapped for the form of build_H/build_turan, made once per
    report, so canonical_form runs only on that graph and on unrecognized
    attainers. The coverage gains ",uncanonical" if an unrecognized
    attainer above CANON_MAX_N is reported by its own labeling.
    """
    f = bound_f(n, t).f
    attainers: tuple[CanonicalForm, ...] = ()
    unique = False
    # f = 0 (n < t) records no keys: every graph meets the bound and no
    # extremal graph exists
    distinct = dict.fromkeys(keys)
    if distinct:
        expected = _attainer_form(build_H(n, t) if side == "mis" else build_turan(n, t))
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
def _spread(width: int) -> tuple[int, ...]:
    """Entry x has a 1 in byte s for every submask s of x, for x below 2^width."""
    return _submasks(width, 8)


def _extension_counts(n: int, hh: int) -> list[bytes]:
    """Per-size maximal-clique counts of the 2^(2n-3) labeled n-vertex graphs
    G with triangle mask hh << (2n-3) | aa << (n-1) | nb: byte aa << (n-1) | nb
    of entry s counts size s, so the bytes run in mask order.

    In the frame of _extension_rows, G'' = G - {j, k} for j = n-2 and
    k = n-1 has mask hh, j is bit 0, a = aa << 1 is the neighbourhood of j
    and nb that of k. By the split in the module docstring, a clique D' of
    G' = G - k with common neighbourhood cn(D') in G' counts {k} + D' on each
    nb with D' inside nb and nb disjoint from cn(D'), and, if cn(D') is
    empty, D' itself on each nb that does not hold D'. The cliques of G' are
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
    one graph's count, at most the 18 maximal cliques a graph on
    EXHAUSTIVE_MAX_N = 8 vertices can have (Moon-Moser), so each segment
    fits its bytes; a larger EXHAUSTIVE_MAX_N must recheck that bound.
    """
    if n < 2:
        return [b"\x00", b"\x01"]  # K1 has no pair to split off
    m = n - 1
    full = (1 << m) - 1
    rows = _extension_rows(n, hh)
    spread = _spread(m)
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


def _scan_blocks(n: int, lo: int, hi: int) -> tuple[list[int], dict[int, list[int]], int]:
    """Worker: count the maximal cliques of the labeled n-vertex graphs whose
    first n-2 vertices have triangle mask in [lo, hi), 2^(2n-3) graphs per
    mask (the one graph for n = 1).

    Returns (per-t maximum counts, {t: masks attaining bound_f(n,t)} in
    ascending order, number of graphs scanned).
    """
    bounds = [0] + [bound_f(n, t).f for t in range(1, n + 1)]
    at_most = [bytes(range(c + 1)) for c in range(256)]
    max_counts = [0] * (n + 1)
    attainers: dict[int, list[int]] = {t: [] for t in range(1, n + 1)}
    scanned = 0
    for hh in range(lo, hi):
        counts = _extension_counts(n, hh)
        lanes = len(counts[0])
        scanned += lanes
        base = hh * lanes  # hh << (2n-3)
        for t in range(1, n + 1):
            column = counts[t]
            # deleting the counts up to the maximum so far leaves the larger ones
            if column.translate(None, at_most[max_counts[t]]):
                max_counts[t] = max(column)
            f = bounds[t]
            lane = column.find(f)
            while lane >= 0:
                attainers[t].append(base | lane)
                lane = column.find(f, lane + 1)
    return max_counts, attainers, scanned


def verify_bound_exhaustive(
    n: int,
    ts: Iterable[int] | None = None,
    side: str = "mis",
    workers: int = 1,
) -> list[ExtremalReport]:
    """Scan all labeled graphs on n vertices once, reporting one ExtremalReport
    per requested t. Deterministic regardless of worker count.

    The scan counts maximal cliques. Complementing is a bijection on labeled
    graphs and turns maximal independent sets into maximal cliques, so the
    per-t maxima are the same on both sides, and the MIS attainers are the
    complements of the clique attainers. Raises ValueError if the workers
    did not scan exactly 2^C(n,2) graphs between them.
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
    total = 1 << (n * (n - 1) // 2)
    # masks of the first n-2 vertices; n = 1 is one block of one graph
    blocks = 1 << (n - 2) * (n - 3) // 2 if n > 1 else 1
    workers = min(workers, os.cpu_count() or 1)

    if workers > 1 and total >= 1 << 12:
        # several jobs per worker, taken in turn, even out the sparse and
        # dense ends of the mask range; starmap keeps their order
        chunk = -(-blocks // (workers * _JOBS_PER_WORKER))
        jobs = [(n, lo, min(lo + chunk, blocks)) for lo in range(0, blocks, chunk)]
        import multiprocessing  # here, so commands that never fork skip its import

        with multiprocessing.Pool(workers) as pool:
            parts = pool.starmap(_scan_blocks, jobs)
    else:
        parts = [_scan_blocks(n, 0, blocks)]

    max_counts = [0] * (n + 1)
    attainer_masks: dict[int, list[int]] = {t: [] for t in range(1, n + 1)}
    scanned = 0
    for mc, att, graphs in parts:
        for t in range(n + 1):
            max_counts[t] = max(max_counts[t], mc[t])
        for t, masks in att.items():
            attainer_masks[t].extend(masks)  # parts are in index order
        scanned += graphs
    if scanned != total:
        raise ValueError(
            f"exhaustive scan covered {scanned} of the {total} labeled graphs on {n} vertices"
        )

    # the masks are clique-side attainers: the MIS attainer is the complement,
    # and either is the side's extremal graph iff the mask is T(n,t)
    flip = total - 1 if side == "mis" else 0  # XOR with all edges complements

    def keys(t: int) -> Iterable[Hashable]:
        for mask in attainer_masks[t]:
            if _is_extremal(_rows_from_mask(n, mask), t, turan=True):
                yield _EXTREMAL
            else:
                yield _attainer_form(from_triangle_mask(n, mask ^ flip))

    return [
        _report(n, t, side, max_counts[t], keys(t), scanned, f"exhaustive-labeled({n})")
        for t in ts
    ]


def verify_bound_stream(
    graphs: Iterable[Graph],
    t: int,
    side: str = "mis",
    source: str = "stream",
) -> ExtremalReport:
    """Verify the bound over an externally supplied stream of same-order graphs.

    Uniqueness is not certified for streams (coverage is not exhaustive);
    unique_attainer reflects only the graphs seen. Attainers are keyed as
    they arrive, the recognized extremal graph by one sentinel and any other
    attainer by its form, and _report dedupes the keys in first-seen order.
    No order is too large: above CANON_MAX_N the forms are not canonical
    (see ExtremalReport).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if side not in ("mis", "clique"):
        raise ValueError("side must be 'mis' or 'clique'")
    n = None
    max_observed = 0
    examined = 0
    keys: dict[Hashable, None] = {}
    f = 0
    for g in graphs:
        if n is None:
            n = g.n
            f = bound_f(n, t).f
        elif g.n != n:
            raise ValueError(f"mixed graph orders in stream: {n} then {g.n}")
        examined += 1
        if side == "mis":
            counts = mis_size_profile(g)
        else:
            counts = maximal_clique_size_profile(g)
        c = counts.get(t)
        if c > max_observed:
            max_observed = c
        if c == f and f:  # f = 0 records no attainers, see _report
            extremal = _is_extremal(g.adj, t, turan=side == "clique")
            keys[_EXTREMAL if extremal else _attainer_form(g)] = None
    if n is None:
        raise ValueError("empty graph stream")
    return _report(n, t, side, max_observed, keys, examined, f"stream({source})")
