import io
import random

import pytest
from hypothesis import given

from mismax import (
    build_H,
    complement,
    graph6_decode,
    graph6_encode,
    complete_graph,
    disjoint_union,
    empty_graph,
    maximal_clique_size_profile,
    mis_size_profile,
    oracle_mis_size_profile,
)
from mismax.codec import _BLOCK_CHARS, _graph6_block, read_graph6_blocks
from mismax.counting import (
    _LANE_MAX_N,
    _TABLE_MAX_N,
    _expand,
    _subset_counts,
    maximal_clique_counts,
    mis_lane_counts,
    polynomial_string,
)
from mismax.extremal import build_turan
from mismax.graph import _complement_rows, bits, from_triangle_mask, triangle_pairs

from conftest import (
    cycle_graph,
    enumerate_mis,
    graphs,
    is_independent,
    is_maximal_independent,
    moon_moser_total,
    path_graph,
    random_graph,
)


def mis_sets(g):
    out = []
    enumerate_mis(g, out.append)
    return [sorted(bits(s)) for s in out]


def test_enumerate_k3():
    assert mis_sets(complete_graph(3)) == [[0], [1], [2]]


def test_enumerate_p4():
    assert mis_sets(path_graph(4)) == [[0, 2], [0, 3], [1, 3]]


def test_enumerate_empty_graph():
    assert mis_sets(empty_graph(4)) == [[0, 1, 2, 3]]


@pytest.mark.parametrize(
    "g6, order",
    [
        # C6
        ("EhEG", [0b10101, 0b1001, 0b101010, 0b10010, 0b100100]),
        # H(7,3) = K2 + K2 + K3
        (
            "F`?GW",
            [
                0b10101, 0b100101, 0b1000101, 0b11001, 0b101001, 0b1001001,
                0b10110, 0b100110, 0b1000110, 0b11010, 0b101010, 0b1001010,
            ],
        ),
        # seeded random 8-vertex graph
        (
            "GtyQi?",
            [0b100110, 0b1010, 0b11000001, 0b10100100, 0b11000100, 0b10011000, 0b10110000, 0b11010000],
        ),
    ],
)
def test_enumerate_visit_order_pinned(g6, order):
    visited = []
    assert enumerate_mis(graph6_decode(g6), visited.append) == len(order)
    assert visited == order


def test_enumerate_returns_count():
    count = enumerate_mis(path_graph(4), lambda s: None)
    assert count == 3


def test_profile_c5():
    assert mis_size_profile(cycle_graph(5)).counts == (0, 0, 5, 0, 0, 0)


def test_profile_two_triangles():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    profile = mis_size_profile(g)
    assert profile.get(2) == 9
    assert profile == oracle_mis_size_profile(g)


def test_profile_k1():
    assert mis_size_profile(complete_graph(1)).counts == (0, 1)


def test_profile_n0():
    assert mis_size_profile(empty_graph(0)).counts == (1,)
    assert oracle_mis_size_profile(empty_graph(0)).counts == (1,)


def test_clique_profile_turan():
    assert maximal_clique_size_profile(build_turan(6, 2)).get(2) == 9


def test_clique_profile_k4():
    assert maximal_clique_size_profile(complete_graph(4)).counts == (0, 0, 0, 0, 1)


def test_clique_profile_c5():
    assert maximal_clique_size_profile(cycle_graph(5)).get(2) == 5


def test_polynomial():
    assert mis_size_profile(complete_graph(3)).coefficients() == [0, 3]
    assert mis_size_profile(path_graph(4)).coefficients() == [0, 0, 3]


def test_polynomial_string():
    assert polynomial_string([0, 3]) == "3x"
    assert polynomial_string([0, 0, 3]) == "3x^2"
    assert polynomial_string([1]) == "1"
    assert polynomial_string([0, 1, 2]) == "x + 2x^2"


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@given(graphs(max_n=6), graphs(max_n=6))
def test_disjoint_union_product_rule(g1, g2):
    p1 = mis_size_profile(g1).coefficients()
    p2 = mis_size_profile(g2).coefficients()
    p = mis_size_profile(disjoint_union(g1, g2)).coefficients()
    assert p == convolve(p1, p2)


@given(graphs(max_n=10))
def test_oracle_equivalence(g):
    assert mis_size_profile(g) == oracle_mis_size_profile(g)


@given(graphs(max_n=8))
def test_duality(g):
    co_rows = tuple(g.full_set & ~row & ~(1 << v) for v, row in enumerate(g.adj))
    assert complement(g).adj == co_rows
    assert mis_size_profile(g) == maximal_clique_size_profile(complement(g))


@given(graphs(max_n=8))
def test_totals_match_enumeration(g):
    assert mis_size_profile(g).total() == enumerate_mis(g, lambda s: None)


@given(graphs(max_n=8))
def test_every_visited_set_is_a_mis(g):
    visited = []
    enumerate_mis(g, visited.append)
    for s in visited:
        assert is_independent(g, s)
        assert is_maximal_independent(g, s)
    assert len(set(visited)) == len(visited)


def test_oracle_kn():
    for n in (1, 4, 9):
        assert oracle_mis_size_profile(complete_graph(n)).get(1) == n


def test_oracle_rejects_large_order():
    with pytest.raises(ValueError):
        oracle_mis_size_profile(empty_graph(25))


def test_at_least_one_mis_always():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 12), 0.5)
        assert mis_size_profile(g).total() >= 1


def bk_counts(adj, n):
    """Per-size maximal-clique counts by pivoted Bron-Kerbosch."""
    counts = [0] * (n + 1)

    def visit(_rmask, rsize):
        counts[rsize] += 1

    _expand(adj, visit, 0, 0, (1 << n) - 1, 0)
    return counts


def test_subset_kernel_matches_bk_every_graph_up_to_6():
    # every labeled graph is the complement of one, so this covers both sides
    for n in range(7):
        for mask in range(1 << (n * (n - 1) // 2)):
            adj = from_triangle_mask(n, mask).adj
            assert maximal_clique_counts(adj, n) == bk_counts(adj, n), (n, mask)


@pytest.mark.parametrize("n", range(7, 15))
def test_counts_match_bk_on_both_sides(n):
    # crosses the order 12 / 13 boundary between the subset scan and BK
    rng = random.Random(700 + n)
    for p in (0.2, 0.5, 0.8):
        for _ in range(10):
            g = random_graph(rng, n, p)
            assert list(maximal_clique_size_profile(g).counts) == bk_counts(g.adj, n)
            assert list(mis_size_profile(g).counts) == bk_counts(_complement_rows(g), n)


@pytest.mark.parametrize("n", [0, 1, 12, 13])
def test_profile_matches_oracle_at_the_edges(n):
    rng = random.Random(1300 + n)
    for p in (0.2, 0.5, 0.8):
        g = random_graph(rng, n, p)
        assert mis_size_profile(g) == oracle_mis_size_profile(g)


def lane_profiles(graphs, complement=True):
    """The per-graph count tuples of mis_lane_counts on one block of
    same-order graphs, its planes cut by _graph6_block from the graph6
    strings. A block holds two lines or more, so the strings are cut twice
    over and the planes kept to the first len(graphs) lanes."""
    text = "".join(graph6_encode(g) + "\n" for g in graphs)
    block = _graph6_block(text * 2)
    planes = [plane & (1 << len(graphs)) - 1 for plane in block.planes]
    return list(zip(*mis_lane_counts(block.n, len(graphs), planes, complement)))


def subset_profiles(graphs, complement=True):
    return [tuple(_subset_counts(g.adj, g.n, complement)) for g in graphs]


# complement=False counts the maximal cliques, for the clique side of verify
@pytest.mark.parametrize("n", range(6))
def test_lane_counts_match_subset_scan_every_graph_up_to_5(n):
    graphs = [from_triangle_mask(n, mask) for mask in range(1 << (n * (n - 1) // 2))]
    for complement in (True, False):
        assert lane_profiles(graphs, complement) == subset_profiles(graphs, complement)


# planes built straight from the rows, with no graph6 in between
@pytest.mark.parametrize("n", range(6))
def test_lane_counts_on_planes_from_rows_every_graph_up_to_5(n):
    graphs = [from_triangle_mask(n, mask) for mask in range(1 << (n * (n - 1) // 2))]
    planes = [
        sum((g.adj[i] >> j & 1) << lane for lane, g in enumerate(graphs))
        for i, j in triangle_pairs(n)
    ]
    for complement in (True, False):
        got = list(zip(*mis_lane_counts(n, len(graphs), planes, complement)))
        assert got == subset_profiles(graphs, complement)


@pytest.mark.parametrize("n", range(6, 13))
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_lane_counts_match_subset_scan_seeded_blocks(n, p):
    rng = random.Random(1200 + 10 * n + int(10 * p))
    graphs = [random_graph(rng, n, p) for _ in range(40)]
    for complement in (True, False):
        assert lane_profiles(graphs, complement) == subset_profiles(graphs, complement)


# the lane kernel's orders above the subset tables, against Bron-Kerbosch
@pytest.mark.parametrize("n", range(_TABLE_MAX_N + 1, _LANE_MAX_N + 1))
def test_lane_counts_match_bron_kerbosch_above_the_subset_tables(n):
    rng = random.Random(1500 + n)
    graphs = [random_graph(rng, n, (0.1, 0.5, 0.9)[i % 3]) for i in range(12)]
    for complement in (True, False):
        rows = [_complement_rows(g) if complement else g.adj for g in graphs]
        assert lane_profiles(graphs, complement) == [
            tuple(maximal_clique_counts(adj, n)) for adj in rows
        ]


def test_lane_counts_reach_moon_moser_without_carry():
    # H(12,4) = 4 K3 has 81 maximal independent sets, the most on 12
    # vertices; lanes of 81 next to lanes of 1 show any carry between bytes
    graphs = [build_H(12, 4), complete_graph(12)] * 50
    assert lane_profiles(graphs) == [(0,) * 4 + (81,) + (0,) * 8, (0, 12) + (0,) * 11] * 50
    # H(15,5) = 5 K3 has 243, the most a lane holds: its 243 maximal sets of
    # size 5 run full adders at weights 1 to 64, all but 128, where the first
    # would take 256 planes, and the count needs all 8 weights
    graphs = [build_H(15, 5), complete_graph(15)] * 40
    assert lane_profiles(graphs) == [(0,) * 5 + (243,) + (0,) * 10, (0, 15) + (0,) * 14] * 40


@pytest.mark.parametrize("lanes", [1, 7, 8, 9, 29, 30, 31, 63, 64, 65])
def test_lane_counts_bit_order_at_lane_boundaries(lanes):
    rng = random.Random(1400 + lanes)
    graphs = [random_graph(rng, 9, (0.2, 0.5, 0.8)[i % 3]) for i in range(lanes)]
    assert lane_profiles(graphs) == subset_profiles(graphs)
    # one lane unlike the rest, first or last, where a reversed bit order
    # or a short plane shows; its 81 sets need the counters' 7th plane
    for odd in (0, lanes - 1):
        graphs = [complete_graph(12)] * lanes
        graphs[odd] = build_H(12, 4)
        expected = [(0, 12) + (0,) * 11] * lanes
        expected[odd] = (0,) * 4 + (81,) + (0,) * 8
        assert lane_profiles(graphs) == expected


def test_lane_counts_match_subset_scan_on_a_full_block():
    rng = random.Random(1417)
    graphs = [random_graph(rng, 9, (0.2, 0.5, 0.8)[i % 3]) for i in range(_BLOCK_CHARS // 8)]
    graphs[0], graphs[-1] = build_H(9, 3), build_H(9, 4)
    [block] = read_graph6_blocks(io.StringIO("".join(graph6_encode(g) + "\n" for g in graphs)))
    assert block.size == len(graphs)
    lanes = mis_lane_counts(block.n, block.size, block.planes)
    assert list(zip(*lanes)) == subset_profiles(graphs)


def test_lane_counts_empty_order_and_block():
    assert mis_lane_counts(0, 3, []) == [b"\x01\x01\x01"]
    assert mis_lane_counts(4, 0, [0] * 6) == [b""] * 5


def test_lane_counts_refuse_orders_that_could_pass_a_byte():
    # a lane holds a byte: Moon-Moser's 3^(n/3) sets fit it up to
    # _LANE_MAX_N, and one order more has a graph with 324
    n = _LANE_MAX_N + 1
    assert 3 ** _LANE_MAX_N <= 255 ** 3
    assert moon_moser_total(n) > 255
    with pytest.raises(ValueError, match=f"got n={n}$"):
        mis_lane_counts(n, 1, [0] * (n * (n - 1) // 2))
