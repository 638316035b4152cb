import random

import pytest
from hypothesis import strategies as st

from mismax import Graph, from_edges
from mismax.counting import _expand
from mismax.graph import _complement_rows, bits, from_triangle_mask, triangle_pairs


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return from_edges(n, edges)


def rows_by_bit_walk(n: int, mask: int) -> tuple[int, ...]:
    """Reference decode: pair p of triangle_pairs(n) sits at mask bit C(n,2)-1-p."""
    pairs = triangle_pairs(n)
    rows = [0] * n
    for p, (i, j) in enumerate(pairs):
        if mask >> (len(pairs) - 1 - p) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def set_of(vertices) -> int:
    """Vertex-set mask of an iterable of vertex indices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def permute(g: Graph, perm) -> Graph:
    """Relabel: vertex v of g becomes perm[v] in the result."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertex range")
    rows = [0] * g.n
    for v in range(g.n):
        for u in bits(g.adj[v]):
            rows[perm[v]] |= 1 << perm[u]
    return Graph(g.n, tuple(rows))


def enumerate_mis(g: Graph, visit) -> int:
    """Visit every maximal independent set (as a vertex-set mask) once, in the
    pivot order of the clique enumeration on the complement; return the count."""
    seen = 0

    def inner(rmask: int, _rsize: int) -> None:
        nonlocal seen
        seen += 1
        visit(rmask)

    _expand(_complement_rows(g), inner, 0, 0, g.full_set, 0)
    return seen


def is_independent(g: Graph, s: int) -> bool:
    return all(not g.adj[v] & s for v in bits(s))


def is_maximal_independent(g: Graph, s: int) -> bool:
    if not is_independent(g, s):
        return False
    return all(g.adj[v] & s for v in bits(g.full_set & ~s))


def moon_moser_total(n: int) -> int:
    """Classical maximum of the total maximal-independent-set count on n vertices."""
    if n < 2:
        raise ValueError("moon_moser_total needs n >= 2")
    if n % 3 == 0:
        return 3 ** (n // 3)
    if n % 3 == 2:
        return 2 * 3 ** ((n - 2) // 3)
    return 4 * 3 ** ((n - 4) // 3)


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    nbits = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << nbits) - 1))
    return from_triangle_mask(n, mask)


class SerialPool:
    """Stands in for multiprocessing.Pool: runs the jobs in order in-process
    and records each pool's size and job list."""

    sizes: list[int]
    jobs: list[tuple]

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, func, jobs):
        self.jobs.extend(jobs)
        return [func(*job) for job in jobs]


@pytest.fixture
def serial_pool(monkeypatch):
    """Patch multiprocessing.Pool with a fresh SerialPool subclass and return it."""
    pool = type("RecordingPool", (SerialPool,), {"sizes": [], "jobs": []})
    monkeypatch.setattr("multiprocessing.Pool", pool)
    return pool
