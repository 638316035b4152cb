"""Extremal bound f(n,t) = q^(t-r) (q+1)^r, the extremal constructions,
and the bound verifiers: over every labeled graph on n vertices, by the
scan in mismax.scan, and over a stream of graphs.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Hashable, Iterable, Sequence

# the other layers, the scan among them, load in the functions that use them
from .graph import (
    CANON_MAX_N,
    MAX_VERTICES,
    CanonicalForm,
    Graph,
    complete_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    from_triangle_mask,
    triangle_mask,
)

EXHAUSTIVE_MAX_N = 9
_JOBS_PER_WORKER = 4
# fewer blocks scan faster in-process than a pool starts: on a 2-core VM
# all 156 of n = 8 did, and the pool broke even at 100-300 blocks of n = 9
_POOL_MIN_BLOCKS = 400


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


def _lane_mask(planes: Sequence[int], lane: int) -> int:
    """The triangle mask of one lane of a block's edge planes, the inverse
    of _attainer_key's planes of one lane."""
    return sum((plane >> lane & 1) << b for b, plane in enumerate(reversed(planes)))


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
    and the census is n!/|Aut H(n,t)|; then its attainer masks are not
    keyed. A t that fails is keyed from the masks the same pass kept, and
    the report names their classes in the order of their smallest labeled
    mask, as a scan of every block would.
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
    from .scan import _exhaustive_reports, _orbit_representatives, _scan_blocks

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
    return _exhaustive_reports(n, ts, side, parts)


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
            counts = mis_lane_counts(n, item.size, item.planes, complement=not turan)
            max_observed, lanes = _lane_reduce(counts[t] if t <= n else b"", max_observed, f)
            free = _p3_free_lanes(n, item.size, item.planes, turan) if lanes else 0
            # a recognized lane is not decoded, and a repeated mask would give
            # a key that keys already holds
            found = dict.fromkeys(
                _EXTREMAL if free >> lane & 1 else _lane_mask(item.planes, lane) for lane in lanes
            )
            for key in found:
                if key is not _EXTREMAL:  # the mask of an unrecognized lane
                    key = _attainer_form(n, key)
                keys[key] = None
    if n is None:
        raise ValueError("empty graph stream")
    return _report(n, t, side, max_observed, keys, examined, f"stream({source})")
