import random

import pytest
from hypothesis import strategies as st

from mismax import Graph, from_edges
from mismax.graph import from_triangle_mask, triangle_pairs


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
