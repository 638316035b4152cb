"""The proof's induction step on one graph: the A/B split of its t-maximal
cliques around a vertex, and the subcase (1a/1b/2a/2b) it falls into."""

from __future__ import annotations

from collections import namedtuple

from .graph import Graph, degree, delete_vertex, induced_subgraph, min_degree

AUTO = "auto"


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
