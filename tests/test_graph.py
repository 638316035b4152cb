import itertools
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mismax import (
    Graph,
    complement,
    complete_graph,
    degree,
    delete_vertex,
    disjoint_union,
    empty_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    maximal_clique_size_profile,
    min_degree,
    mis_size_profile,
)
from mismax import counting
from mismax.extremal import build_turan
from mismax.graph import (
    _rows_from_mask,
    bits,
    from_triangle_mask,
    triangle_mask,
    triangle_pairs,
)

from conftest import (
    cycle_graph,
    graphs,
    path_graph,
    permute,
    random_graph,
    rows_by_bit_walk,
    set_of,
)


def test_from_edges_path():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_from_edges_checks_order_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^vertex count 1000000 outside 0\.\.64$"):
            from_edges(10**6, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a row list of 10^6 entries alone takes 8 MB
    assert peak < 1 << 20


def test_from_edges_triangle():
    g = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert g == complete_graph(3)


def test_from_edges_duplicates_collapse():
    g = from_edges(2, [(0, 1), (1, 0), (0, 1)])
    assert g == complete_graph(2)
    assert g.edge_count() == 1


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])


def test_from_edges_rejects_loop():
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])


def test_graph_invariants_checked():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # loop
    with pytest.raises(ValueError):
        Graph(1, (0b10,))  # bit >= n


def test_complement_of_complete_is_empty():
    assert complement(complete_graph(3)) == empty_graph(3)


def test_complement_of_2k2_is_c4():
    two_k2 = from_edges(4, [(0, 1), (2, 3)])
    # brute-force edge-set check: all pairs except the 2K2 edges
    expected = from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert complement(two_k2) == expected


@given(graphs())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


def test_induced_prefix_of_path():
    assert induced_subgraph(path_graph(4), set_of([0, 1, 2])) == path_graph(3)


def test_induced_of_complete():
    assert induced_subgraph(complete_graph(5), set_of([1, 2, 4])) == complete_graph(3)


def test_induced_c5_three_vertices():
    got = induced_subgraph(cycle_graph(5), set_of([0, 2, 3]))
    # edges of C5 inside {0,2,3}: only 2-3, relabeled to (1,2)
    assert got == from_edges(3, [(1, 2)])


def test_induced_rejects_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), set_of([0, 3]))


@given(graphs())
def test_induced_full_set_is_identity(g):
    assert induced_subgraph(g, g.full_set) == g


def test_delete_vertex():
    assert delete_vertex(complete_graph(3), 0) == complete_graph(2)
    assert delete_vertex(path_graph(4), 3) == path_graph(3)
    got = delete_vertex(cycle_graph(5), 2)
    # remaining cycle edges 01, 34, 40 relabel to 01, 23, 03: a path 1-0-3-2
    assert got == from_edges(4, [(0, 1), (2, 3), (0, 3)])
    with pytest.raises(ValueError):
        delete_vertex(path_graph(3), 3)


@given(graphs(min_n=1), st.data())
def test_delete_matches_induced(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    assert delete_vertex(g, v) == induced_subgraph(g, g.full_set & ~(1 << v))


def test_disjoint_union():
    assert disjoint_union(complete_graph(1), complete_graph(1)) == empty_graph(2)
    u = disjoint_union(complete_graph(2), complete_graph(3))
    assert u.n == 5 and u.edge_count() == 4
    assert disjoint_union(complete_graph(3), complete_graph(3)) == complement(
        build_turan(6, 2)
    )
    with pytest.raises(ValueError):
        disjoint_union(empty_graph(40), empty_graph(30))


@given(graphs(max_n=5), graphs(max_n=5))
def test_disjoint_union_degree_additivity(g1, g2):
    u = disjoint_union(g1, g2)
    for v in range(g1.n):
        assert degree(u, v) == degree(g1, v)
    for v in range(g2.n):
        assert degree(u, g1.n + v) == degree(g2, v)


def test_min_degree():
    assert min_degree(cycle_graph(5)) == 2
    assert min_degree(path_graph(4)) == 1
    assert min_degree(build_turan(7, 3)) == 4
    with pytest.raises(ValueError):
        min_degree(empty_graph(0))


def test_permute_roundtrip():
    g = path_graph(4)
    assert permute(permute(g, [3, 2, 1, 0]), [3, 2, 1, 0]) == g
    with pytest.raises(ValueError):
        permute(g, [0, 0, 1, 2])


def test_bits_and_set_of():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert set_of([4, 1, 2]) == 0b10110


def test_zero_vertex_graph_is_legal():
    g = empty_graph(0)
    assert g.n == 0 and g.edges() == []


def test_triangle_mask_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 9), 0.5)
        assert from_triangle_mask(g.n, triangle_mask(g)) == g


def test_triangle_mask_bit_order():
    assert triangle_pairs(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    # the first pair is the most significant bit, as in graph6
    assert from_triangle_mask(3, 0b100) == from_edges(3, [(0, 1)])
    assert from_triangle_mask(3, 0b001) == from_edges(3, [(1, 2)])
    assert triangle_mask(from_edges(4, [(0, 1), (2, 3)])) == 0b100001


def test_from_triangle_mask_rejects_stray_bits():
    with pytest.raises(ValueError):
        from_triangle_mask(3, 0b1000)
    with pytest.raises(ValueError):
        from_triangle_mask(3, -1)


def rows_are_valid(n, rows):
    """Per-bit reference for the Graph invariants."""
    for v, row in enumerate(rows):
        if row < 0 or row >> n:
            return False
        for u in range(n):
            if row >> u & 1 and (u == v or not rows[u] >> v & 1):
                return False
    return True


def test_validator_matches_per_bit_reference():
    # every row tuple with n <= 4, with a negative row and a bit >= n for n <= 3
    for n in range(5):
        values = range(1 << n) if n == 4 else range(-1, 1 << (n + 1))
        for rows in itertools.product(values, repeat=n):
            try:
                Graph(n, rows)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == rows_are_valid(n, rows), (n, rows)


# the orders 1 and 64 at the ends, and both sides of 8, 16 and 32
STRIDE_ORDERS = [1, 8, 9, 10, 16, 17, 32, 33, 62, 63, 64]


@pytest.mark.parametrize("n", STRIDE_ORDERS)
def test_validator_rejects_every_single_bit_flip(n):
    rng = random.Random(n)
    for p in (0.5, 0.9):
        g = random_graph(rng, n, p)
        assert Graph(n, g.adj) == g
    # average degree 3, so the row walk that names the offender stays short
    rows = list(random_graph(rng, n, 3 / n).adj)
    assert Graph(n, tuple(rows)).adj == tuple(rows)
    for v in range(n):
        for u in range(n + 1):  # bit n is out of range
            if u == n:
                message = f"adjacency row {v} has bits >= n"
            elif u == v:
                message = f"loop at vertex {v}"
            elif rows[v] >> u & 1:  # the flip drops u from row v only
                message = f"asymmetric adjacency between {v} and {u}"
            else:  # the flip adds u to row v only
                message = f"asymmetric adjacency between {u} and {v}"
            rows[v] ^= 1 << u
            with pytest.raises(ValueError) as exc:
                Graph(n, tuple(rows))
            assert str(exc.value) == message
            rows[v] ^= 1 << u


@pytest.mark.parametrize("n", STRIDE_ORDERS)
def test_rows_beyond_the_stride(n):
    # a row of 2^w, w the smallest of 8, 16, 32 and 64 that is >= n, or a
    # negative one is named as any other row with a bit >= n
    w = next(w for w in (8, 16, 32, 64) if w >= n)
    rng = random.Random(700 + n)
    for rows in ([0] * n, list(random_graph(rng, n, 0.5).adj)):
        for v in {0, n // 2, n - 1}:
            # the low w bits keep the row, so the row walk finds no earlier offender
            for extra in (1 << w, -1 << w, -1):
                bad = tuple(rows[:v] + [rows[v] | extra] + rows[v + 1 :])
                with pytest.raises(ValueError) as exc:
                    Graph(n, bad)
                assert str(exc.value) == f"adjacency row {v} has bits >= n"


@pytest.mark.parametrize(
    "n, rows, message",
    [
        (3, (0b010, -1, 0b000), "adjacency row 1 has bits >= n"),
        (3, (0b010, 0b1001, 0b000), "adjacency row 1 has bits >= n"),
        (3, (0b000, 0b010, 0b000), "loop at vertex 1"),
        (64, (1 << 63,) + (0,) * 63, "asymmetric adjacency between 63 and 0"),
        (64, (0,) * 63 + (1,), "asymmetric adjacency between 0 and 63"),
    ],
)
def test_invalid_graph_messages(n, rows, message):
    with pytest.raises(ValueError) as exc:
        Graph(n, rows)
    assert str(exc.value) == message


def test_largest_graphs_construct():
    assert complete_graph(64).edge_count() == 64 * 63 // 2
    assert empty_graph(64).edge_count() == 0
    assert complement(complete_graph(64)) == empty_graph(64)


def test_rows_from_mask_every_mask_up_to_5():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            rows = _rows_from_mask(n, mask)
            assert rows == rows_by_bit_walk(n, mask), (n, mask)
            # the check that from_triangle_mask skips accepts the rows
            assert Graph(n, rows).adj == rows


@pytest.mark.parametrize("n", [*range(6, 17), 62])
def test_rows_from_mask_seeded(n):
    rng = random.Random(600 + n)
    nbits = n * (n - 1) // 2
    masks = [0, (1 << nbits) - 1]
    for _ in range(30):
        a, b = rng.getrandbits(nbits), rng.getrandbits(nbits)
        masks += [a, a & b, a | b]
    for mask in masks:
        rows = _rows_from_mask(n, mask)
        assert rows == rows_by_bit_walk(n, mask), (n, mask)
        assert Graph(n, rows).adj == rows


@pytest.mark.parametrize("n", [12, 13, 40])
def test_lookup_tables_only_up_to_order_12(n):
    # a table above order 12 is never built: at n = 40 it would need 2^40 bits
    caches = (counting._subset_tables,)

    def state():
        infos = [c.cache_info() for c in caches]
        return [(info.currsize, info.hits + info.misses) for info in infos]

    g = random_graph(random.Random(n), n, 0.5)
    before = state()
    assert from_triangle_mask(n, triangle_mask(g)) == g
    assert graph6_decode(graph6_encode(g)) == g
    assert mis_size_profile(g).total() == maximal_clique_size_profile(complement(g)).total()
    after = state()
    for (size0, calls0), (size1, calls1) in zip(before, after):
        if n <= 12:
            assert calls1 > calls0
        else:
            assert (size1, calls1) == (size0, calls0)
