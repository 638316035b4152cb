import io
import multiprocessing
import random
import tracemalloc
from functools import partial
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mismax import (
    bound_f,
    build_H,
    build_turan,
    canonical_form,
    complement,
    complete_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    induction_split,
    maximal_clique_size_profile,
    min_degree,
    mis_size_profile,
    proof_subcase,
    verify_bound_exhaustive,
    verify_bound_stream,
)
from mismax import canon, counting, extremal, scan
from mismax.codec import graph6_encode, read_graph6_blocks
from mismax.counting import _LANE_MAX_N, maximal_clique_counts, mis_lane_counts
from mismax.proof import auto_split_vertex
from mismax.scan import _orbit_representatives
from mismax.graph import (
    CanonicalForm,
    _rows_from_mask,
    from_triangle_mask,
    triangle_mask,
    triangle_pairs,
)

from conftest import (
    graphs,
    moon_moser_total,
    patch_lane,
    path_graph,
    permute,
    random_graph,
    rows_by_bit_walk,
)


def test_bound_remark_values():
    assert (bound_f(6, 2).q, bound_f(6, 2).r, bound_f(6, 2).f) == (3, 0, 9)
    assert (bound_f(5, 2).q, bound_f(5, 2).r, bound_f(5, 2).f) == (2, 1, 6)
    assert bound_f(7, 2).f == 12
    assert bound_f(7, 3).f == 12


def test_bound_degenerate():
    assert bound_f(4, 7).f == 0
    assert bound_f(5, 5).f == 1
    assert bound_f(0, 3).f == 0
    with pytest.raises(ValueError):
        bound_f(6, 0)
    with pytest.raises(ValueError):
        bound_f(-1, 2)


@given(st.integers(0, 64), st.integers(1, 64))
def test_bound_decomposition_invariants(n, t):
    d = bound_f(n, t)
    assert d.n == d.q * d.t + d.r
    assert 0 <= d.r < d.t
    assert d.f == d.q ** (d.t - d.r) * (d.q + 1) ** d.r


def test_build_H():
    assert build_H(6, 2) == disjoint_union(complete_graph(3), complete_graph(3))
    assert build_H(7, 3) == disjoint_union(
        disjoint_union(complete_graph(2), complete_graph(2)), complete_graph(3)
    )
    assert build_H(4, 4) == empty_graph(4)
    with pytest.raises(ValueError):
        build_H(3, 4)
    with pytest.raises(ValueError, match="t must be >= 1"):
        build_H(3, 0)


def test_build_turan():
    t62 = build_turan(6, 2)
    assert t62.edge_count() == 9
    assert all(not t62.adj[u] >> v & 1 for u in range(3) for v in range(3) if u != v)
    t73 = build_turan(7, 3)
    # parts sized 2,2,3 in block order
    assert min_degree(t73) == 4
    assert build_turan(5, 5) == complete_graph(5)
    with pytest.raises(ValueError):
        build_turan(5, 6)


def test_complement_correspondence():
    for n in range(1, 31):
        for t in range(1, n + 1):
            assert complement(build_turan(n, t)) == build_H(n, t)


def test_one_size_profile_of_H():
    for n in range(1, 13):
        for t in range(1, n + 1):
            profile = mis_size_profile(build_H(n, t))
            f = bound_f(n, t).f
            assert profile.get(t) == f
            assert profile.total() == f


def test_turan_clique_profile_one_size():
    for n in range(1, 11):
        for t in range(1, n + 1):
            profile = maximal_clique_size_profile(build_turan(n, t))
            f = bound_f(n, t).f
            assert profile.get(t) == f
            assert profile.total() == f


# the common-neighbour subcases 1a and 2a are the degree threshold under which
# every t vertices share a neighbour, so no t-clique is maximal


def test_no_t_clique_condition_examples():
    assert proof_subcase(complete_graph(7), 3) in ("1a", "2a")
    assert proof_subcase(path_graph(4), 2) not in ("1a", "2a")
    assert proof_subcase(build_turan(6, 2), 2) not in ("1a", "2a")


def test_no_t_clique_condition_implies_zero():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10), rng.choice([0.5, 0.8, 0.9]))
        for t in range(1, g.n + 1):
            if proof_subcase(g, t) in ("1a", "2a"):
                assert maximal_clique_size_profile(g).get(t) == 0


def test_induction_split_examples():
    rep = induction_split(build_turan(7, 3), 3)
    assert rep.a_count + rep.b_count == 12
    rep = induction_split(complete_graph(3), 1, 0)
    assert rep.a_count == 0 and rep.b_count == 0
    rep = induction_split(complement(path_graph(4)), 2)
    assert rep.a_count + rep.b_count == 3


def test_induction_split_auto_vertex():
    # lowest-index minimum-degree vertex
    assert auto_split_vertex(path_graph(4)) == 0
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert auto_split_vertex(star) == 1
    with pytest.raises(ValueError, match="graph has no vertices"):
        auto_split_vertex(empty_graph(0))


def test_induction_split_rejects_bad_vertex():
    with pytest.raises(ValueError):
        induction_split(path_graph(3), 2, 5)
    with pytest.raises(ValueError, match="t must be >= 1"):
        induction_split(path_graph(3), 0)


@given(graphs(min_n=1, max_n=8), st.data())
def test_split_identities(g, data):
    t = data.draw(st.integers(1, g.n))
    v = data.draw(st.integers(0, g.n - 1))
    rep = induction_split(g, t, v)
    total = maximal_clique_size_profile(g).get(t)
    assert rep.a_count == rep.nbhd_count
    assert rep.a_count + rep.b_count == total
    assert rep.b_count <= rep.gminus_count


@pytest.mark.parametrize(
    "bad_call,identity",
    [(0, "a_count == nbhd_count"), (1, "b_count <= gminus_count"), (2, "a + b == total")],
)
def test_induction_split_names_failed_identity(monkeypatch, bad_call, identity):
    # the calls count the maximal cliques of G[N(v)], G - v and G, in that order
    calls = []

    def counts(adj, n):
        calls.append(n)
        return [0] * (n + 1) if len(calls) - 1 == bad_call else maximal_clique_counts(adj, n)

    monkeypatch.setattr(counting, "maximal_clique_counts", counts)
    g = build_turan(7, 3)
    with pytest.raises(ValueError) as exc:
        induction_split(g, 3, 0)
    message = str(exc.value)
    assert identity in message
    assert graph6_encode(g) in message
    assert "v=0" in message and "t=3" in message


def test_proof_subcases():
    assert proof_subcase(complete_graph(7), 3) == "1a"
    assert proof_subcase(build_turan(7, 3), 3) == "1b"
    assert proof_subcase(build_turan(6, 3), 3) == "2b"
    assert proof_subcase(complete_graph(6), 3) == "2a"
    with pytest.raises(ValueError, match="t must be >= 1"):
        proof_subcase(complete_graph(6), 0)


@pytest.mark.parametrize(
    "build,args,message",
    [
        (build_H, (3000, 3), "build_H needs t <= n <= 64, got n=3000, t=3"),
        (build_turan, (1000, 2), "build_turan needs 1 <= k <= n <= 64, got n=1000, k=2"),
    ],
    ids=["H", "turan"],
)
def test_builders_check_order_first(build, args, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    # the C(1000,2)/2 Turan edges alone take tens of MB
    assert peak < 1 << 20


def test_moon_moser_total():
    assert moon_moser_total(6) == 9
    assert moon_moser_total(5) == 6
    assert moon_moser_total(7) == 12
    assert moon_moser_total(2) == 2
    assert moon_moser_total(4) == 4
    with pytest.raises(ValueError):
        moon_moser_total(1)


def test_verify_exhaustive_n6_t2():
    (report,) = verify_bound_exhaustive(6, ts=[2])
    assert report.max_observed == 9
    assert report.bound_holds and report.unique_attainer
    assert report.attainers == (canonical_form(build_H(6, 2)),)


def test_verify_exhaustive_n5_t2():
    (report,) = verify_bound_exhaustive(5, ts=[2])
    assert report.max_observed == 6
    assert report.attainers == (canonical_form(build_H(5, 2)),)


def test_verify_exhaustive_n4_t4():
    (report,) = verify_bound_exhaustive(4, ts=[4])
    assert report.max_observed == 1
    assert report.attainers == (canonical_form(empty_graph(4)),)


def test_verify_clique_side_agrees():
    for t in (1, 2, 3, 4, 5):
        (mis,) = verify_bound_exhaustive(5, ts=[t], side="mis")
        (clq,) = verify_bound_exhaustive(5, ts=[t], side="clique")
        assert mis.max_observed == clq.max_observed == mis.f
        assert mis.bound_holds and clq.bound_holds
        assert mis.unique_attainer and clq.unique_attainer
        # the attainers are complements of each other
        assert clq.attainers == (canonical_form(build_turan(5, t)),)


def test_verify_workers_deterministic(monkeypatch):
    single = verify_bound_exhaustive(6, workers=1)
    # n = 6 has 11 blocks, too few to start a pool unless the threshold drops
    monkeypatch.setattr(extremal, "_POOL_MIN_BLOCKS", 1)
    real_pool = multiprocessing.Pool
    sizes = []

    def pool(processes):
        sizes.append(processes)
        return real_pool(processes)

    monkeypatch.setattr("multiprocessing.Pool", pool)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert verify_bound_exhaustive(6, workers=2) == single
    assert sizes == [2]


def test_verify_worker_blocks_tile_the_scan(monkeypatch, serial_pool):
    monkeypatch.setattr(extremal, "_POOL_MIN_BLOCKS", 1)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    multi = verify_bound_exhaustive(6, workers=3)
    assert serial_pool.sizes == [3]
    # one block per orbit representative of the first 4 vertices: 11
    # blocks, in several jobs per worker, handed out in ascending order
    assert all(n == 6 for n, _ in serial_pool.jobs)
    slices = [blocks for _, blocks in serial_pool.jobs]
    assert len(slices) > 3
    assert all(slices)
    assert [block for blocks in slices for block in blocks] == list(_orbit_representatives(4))
    assert multi == verify_bound_exhaustive(6, workers=1)


def test_verify_rejects_partial_coverage(monkeypatch, serial_pool):
    class DropLastJob(serial_pool):
        def starmap(self, func, jobs):
            return super().starmap(func, jobs[:-1])

    monkeypatch.setattr("multiprocessing.Pool", DropLastJob)
    monkeypatch.setattr(extremal, "_POOL_MIN_BLOCKS", 1)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    # the last job is the one block of K4, whose orbit is itself: 512 graphs
    with pytest.raises(ValueError, match="covered 32256 of the 32768 labeled graphs"):
        verify_bound_exhaustive(6, workers=3)


def test_verify_rejects_a_dropped_representative(monkeypatch):
    def all_but_the_first(m):
        return list(_orbit_representatives(m))[1:]

    monkeypatch.setattr(scan, "_orbit_representatives", all_but_the_first)
    # the first representative is the empty G'', whose orbit is itself:
    # 2^9 graphs of 2^15
    with pytest.raises(ValueError, match="covered 32256 of the 32768 labeled graphs"):
        verify_bound_exhaustive(6)


def test_labeled_copies_count_the_relabelings_of_the_extremal_graphs():
    # n!/|Aut H(n,t)| against the distinct relabelings of H(n,t) and T(n,t)
    for n in range(1, 7):
        for t in range(1, n + 1):
            for build in (build_H, build_turan):
                g = build(n, t)
                relabeled = {triangle_mask(permute(g, perm)) for perm in permutations(range(n))}
                assert scan._labeled_copies(n, t) == len(relabeled), (n, t, build)
    assert [scan._labeled_copies(9, t) for t in range(1, 10)] == [
        1, 126, 280, 1260, 945, 1260, 378, 36, 1
    ]
    assert [scan._labeled_copies(10, t) for t in range(1, 11)] == [
        1, 126, 2100, 6300, 945, 4725, 3150, 630, 45, 1
    ]


def test_census_counts_the_labeled_copies_of_the_extremal_graph(monkeypatch):
    """The scan's census, the orbit sizes of its (mask, orbit) attainer
    records summed, is n!/|Aut H(n,t)| for every 1 <= t <= n <= 8. The scan
    counts the clique side, and T(n,t) is the complement of H(n,t), so the
    one census certifies both sides: neither keys an attainer. Every mask
    the pass keeps, one per attainer lane of a block, is the extremal graph
    on both sides by the plane test."""
    kept = {}
    for n in range(1, 9):
        blocks = list(_orbit_representatives(max(n - 2, 0)))
        max_counts, attainers, covered = scan._scan_blocks(n, blocks)
        everything = (1 << n * (n - 1) // 2) - 1
        assert covered == everything + 1
        for t in range(1, n + 1):
            assert max_counts[t] == bound_f(n, t).f, (n, t)
            assert sum(orbit for _, orbit in attainers[t]) == scan._labeled_copies(n, t), (n, t)
            for mask, orbit in attainers[t]:
                # the mask is a lane of the block of G'' mask hh, with its orbit
                assert (mask >> max(2 * n - 3, 0), orbit) in blocks
                assert extremal._attainer_key(n, mask ^ everything, False) is extremal._EXTREMAL
                assert extremal._attainer_key(n, mask, True) is extremal._EXTREMAL
        kept[n] = [len(attainers[t]) for t in range(1, n + 1)]
    assert kept[7] == [1, 4, 8, 9, 28, 12, 1]
    assert kept[8] == [1, 3, 10, 3, 18, 40, 14, 1]
    monkeypatch.setattr(scan, "_attainer_key", lambda *args: pytest.fail("keyed"))
    for side in ("mis", "clique"):
        for n in range(1, 8):
            reports = verify_bound_exhaustive(n, side=side)
            assert all(r.bound_holds and r.unique_attainer for r in reports), (n, side)


def test_an_extra_attainer_fails_the_census_and_is_named(monkeypatch, serial_pool):
    # lane 3 of the block of the empty G'' is the path 3-5-4, with no
    # 3-clique and an induced P3: patched to f, it is an attainer class of
    # its own, first in mask order, which the report names from the masks
    # of the one pass, in-process and through the pool
    n, t = 6, 3
    patch_lane(monkeypatch, t, 0, 3, bound_f(n, t).f)
    patched = scan._extension_counts
    calls = []

    def counted(n, hh):
        calls.append(hh)
        return patched(n, hh)

    monkeypatch.setattr(scan, "_extension_counts", counted)
    monkeypatch.setattr(extremal, "_POOL_MIN_BLOCKS", 1)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    path = from_triangle_mask(n, 3)
    assert path.edges() == [(3, 5), (4, 5)]
    for side, extra in (("mis", complement(path)), ("clique", path)):
        for workers in (1, 3):
            calls.clear()
            (report,) = verify_bound_exhaustive(n, ts=[t], side=side, workers=workers)
            # one kernel call per orbit block of G'' on 4 vertices
            assert len(calls) == 11, (side, workers)
            assert report.bound_holds and not report.unique_attainer
            assert report.attainers == (
                canonical_form(extra), canonical_form(_expected(n, t, side))
            )
    assert serial_pool.sizes == [3, 3]
    # the other t pass the census and keep their reports
    assert verify_bound_exhaustive(n, ts=[2], side="mis")[0].unique_attainer


def test_a_lost_attainer_contradicts_the_census(monkeypatch):
    # one attainer lane lowered to f - 1: the masks of the pass are the
    # extremal graph alone, but fewer labeled copies than it has
    n, t = 6, 3
    f = bound_f(n, t).f
    hh, lane = next(
        (hh, scan._extension_counts(n, hh)[t].find(f))
        for hh, _ in _orbit_representatives(n - 2)
        if f in scan._extension_counts(n, hh)[t]
    )
    patch_lane(monkeypatch, t, hh, lane, f - 1)
    with pytest.raises(ValueError, match="labeled attainers at n=6, t=3"):
        verify_bound_exhaustive(n, ts=[t])


@pytest.mark.parametrize("lowered", [False, True])
@pytest.mark.parametrize("side", ["mis", "clique"])
def test_verify_matches_a_scan_of_every_block(monkeypatch, side, lowered):
    """The orbit-representative scan reports what a scan of all 2^C(n-2,2)
    blocks, each standing for itself, reports: the same maxima and the same
    attainer classes in the same first-seen order."""
    if lowered:
        # f - 1 is attained by up to 5 classes per t at n <= 7, so their
        # order is compared too; f itself has one attainer class throughout
        real = extremal.bound_f
        for module in (extremal, scan):  # the scan and the report each read f
            monkeypatch.setattr(
                module, "bound_f", lambda n, t: real(n, t)._replace(f=max(real(n, t).f - 1, 1))
            )
    for n in range(1, 8):
        blocks = [(hh, 1) for hh in range(1 << (n - 2) * (n - 3) // 2 if n > 1 else 1)]
        every = scan._scan_blocks(n, blocks)
        ts = range(1, n + 1)
        expected = scan._exhaustive_reports(n, ts, side, [every])
        assert verify_bound_exhaustive(n, side=side) == expected, n


def _check_block(n, hh):
    """The block's counts equal a per-graph count of each of its graphs:
    byte aa << (n-1) | nb is the graph with mask hh << (2n-3) | aa << (n-1) | nb."""
    counts = scan._extension_counts(n, hh)
    lanes = 1 << (2 * n - 3) if n > 1 else 1
    assert len(counts) == n + 1
    assert all(len(column) == lanes for column in counts)
    for lane in range(lanes):
        mask = hh * lanes + lane  # hh << (2n-3) | lane for n > 1
        got = [column[lane] for column in counts]
        assert got == maximal_clique_counts(rows_by_bit_walk(n, mask), n), (n, mask)


@pytest.mark.parametrize("n", range(2, 8))
def test_scan_frame_relabels_g2_every_mask(n):
    # G'' = G - {n-2, n-1} relabeled v -> n-2-v, after an empty row 0 for j
    for hh in range(1 << (n - 2) * (n - 3) // 2):
        expected = [0] * (n - 1)
        for u, v in from_triangle_mask(n - 2, hh).edges():
            expected[n - 2 - u] |= 1 << n - 2 - v
            expected[n - 2 - v] |= 1 << n - 2 - u
        assert _rows_from_mask(n - 1, hh, scan._frame_pairs(n - 2)) == tuple(expected), hh


def test_extension_counts_match_bk_every_graph_up_to_6():
    for n in range(1, 7):
        for hh in range(1 << max(n - 2, 0) * max(n - 3, 0) // 2):
            _check_block(n, hh)


# 2 + 2 blocks of 2^11 graphs at n = 7, 2 + 1 of 2^13 at n = 8
@pytest.mark.parametrize("n,samples", [(7, 2), (8, 1)])
def test_extension_counts_match_bk_sampled_blocks(n, samples):
    rng = random.Random(f"blocks:{n}")
    nbits = (n - 2) * (n - 3) // 2
    hhs = [0, (1 << nbits) - 1] + [rng.getrandbits(nbits) for _ in range(samples)]
    for hh in hhs:
        _check_block(n, hh)


def _block_edge_planes(n, hh):
    """The edge planes of the block of G'' mask hh at order n, lane g the
    graph with triangle mask hh << (2n-3) | g: the pair p sits at mask bit
    b = C(n,2)-1-p, and bits below 2n-3 are bits of the lane index."""
    low = 2 * n - 3
    every = (1 << (1 << low)) - 1
    planes = []
    for p in range(n * (n - 1) // 2):
        b = n * (n - 1) // 2 - 1 - p
        if b >= low:
            planes.append(every if hh >> (b - low) & 1 else 0)
        else:  # the lanes with bit b set: 2^b clear, then 2^b set, repeated
            planes.append(every // ((1 << 2**(b + 1)) - 1) * (((1 << 2**b) - 1) << 2**b))
    return planes


def _check_whole_block(n, hh):
    planes = _block_edge_planes(n, hh)
    lane_counts = mis_lane_counts(n, 1 << (2 * n - 3), planes, complement=False)
    assert scan._extension_counts(n, hh) == lane_counts, (n, hh)


@pytest.mark.parametrize("n", range(2, 9))
def test_extension_counts_match_the_lane_kernel_every_representative(n):
    # the lane kernel counts the block from its edge planes alone: no frame,
    # no submask spread, no segments
    for hh, _ in _orbit_representatives(n - 2):
        _check_whole_block(n, hh)


def test_extension_counts_match_the_lane_kernel_at_order_9():
    nbits = 7 * 6 // 2
    rng = random.Random("whole blocks:9")
    sampled = rng.sample([hh for hh, _ in _orbit_representatives(7)], 3)
    for hh in [0, (1 << nbits) - 1, *sampled]:
        _check_whole_block(9, hh)


def test_exhaustive_orders_fit_the_lane_bytes():
    # _extension_counts keeps one graph's count per byte, as mis_lane_counts
    # does, which holds up to _LANE_MAX_N (Moon-Moser)
    assert extremal.EXHAUSTIVE_MAX_N <= _LANE_MAX_N


def test_verify_stream():
    rng = random.Random(123)
    stream = [random_graph(rng, 6, 0.5) for _ in range(50)] + [build_H(6, 2)]
    report = verify_bound_stream(stream, 2)
    assert report.bound_holds
    assert report.max_observed == 9
    assert report.coverage == "stream(stream)"
    assert report.graphs_examined == 51


def test_verify_stream_mixed_orders_rejected():
    with pytest.raises(ValueError):
        verify_bound_stream([empty_graph(4), empty_graph(5)], 2)


def test_verify_stream_empty_rejected():
    with pytest.raises(ValueError):
        verify_bound_stream([], 2)


def test_verify_rejects_bad_args():
    with pytest.raises(ValueError):
        verify_bound_exhaustive(0)
    with pytest.raises(ValueError):
        verify_bound_exhaustive(11)
    with pytest.raises(ValueError):
        verify_bound_exhaustive(5, ts=[0])
    with pytest.raises(ValueError):
        verify_bound_exhaustive(5, side="both")
    with pytest.raises(ValueError, match="t must be >= 1"):
        verify_bound_stream([empty_graph(4)], 0)
    with pytest.raises(ValueError, match="side must be 'mis' or 'clique'"):
        verify_bound_stream([empty_graph(4)], 2, side="x")


def _expected(n, t, side):
    return build_H(n, t) if side == "mis" else build_turan(n, t)


def _relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute(g, perm)


def _mask_planes(n, masks):
    """The graphs of the triangle masks as one block, lane g the graph of
    masks[g]: the edge plane of the pair at mask bit b has bit g set where
    masks[g] has bit b."""
    nbits = n * (n - 1) // 2
    return [
        int("".join("01"[mask >> b & 1] for mask in reversed(masks)), 2)
        for b in reversed(range(nbits))
    ]


def _every_mask_planes(n):
    """Every labeled graph on n vertices as one block, lane g the graph of
    mask g."""
    return _mask_planes(n, range(1 << n * (n - 1) // 2))


@pytest.mark.parametrize("n", range(1, 7))
def test_p3_plane_and_count_recognize_exactly_the_extremal_graph(n):
    # the product lemma: no induced P3 and f(n,t) sets of size t is H(n,t);
    # canonical_form is the reference on the graphs whose count is f, and
    # _attainer_key, the same test on one lane, must agree with the block
    planes = _every_mask_planes(n)
    size = 1 << n * (n - 1) // 2
    for side in ("mis", "clique"):
        turan = side == "clique"
        free = extremal._p3_free_lanes(n, size, planes, turan)
        counts = mis_lane_counts(n, size, planes, complement=not turan)
        for t in range(1, n + 1):
            f = bound_f(n, t).f
            expected = extremal._extremal_form(n, t, turan)
            for mask in range(size):
                if counts[t][mask] != f:
                    continue
                want = canonical_form(from_triangle_mask(n, mask)) == expected
                assert bool(free >> mask & 1) == want, (n, side, t, mask)
                key = extremal._attainer_key(n, mask, turan)
                assert (key is extremal._EXTREMAL) == want, (n, side, t, mask)


def test_attainer_key_recognizes_relabelings(monkeypatch):
    rng = random.Random("recognize")
    monkeypatch.setattr(extremal, "_attainer_form", None)  # never reached
    for n in range(6, 13):
        for t in range(1, n + 1):
            for side in ("mis", "clique"):
                for _ in range(3):
                    mask = triangle_mask(_relabeled(rng, _expected(n, t, side)))
                    key = extremal._attainer_key(n, mask, side == "clique")
                    assert key is extremal._EXTREMAL, (n, t, side)


def test_one_edge_changes_of_the_extremal_graph_are_not_recognized():
    # every one-edge change of H or T has a count other than f or an induced
    # P3; toggling a pair whose parts have the same sizes, one part or two,
    # gives isomorphic graphs, and canonical_form confirms one rejection of
    # each kind
    rng = random.Random("reject")
    for n in range(6, 11):
        full = (1 << n) - 1
        nbits = n * (n - 1) // 2
        for t in range(1, n + 1):
            f = bound_f(n, t).f
            for side in ("mis", "clique"):
                turan = side == "clique"
                expected = _expected(n, t, side)
                want = canonical_form(expected)
                g = _relabeled(rng, expected)
                part = [full & ~row if turan else row | 1 << v for v, row in enumerate(g.adj)]
                # lane p toggles pair p of triangle_pairs, at mask bit nbits-1-p
                toggled = [triangle_mask(g) ^ 1 << nbits - 1 - p for p in range(nbits)]
                planes = _mask_planes(n, toggled)
                free = extremal._p3_free_lanes(n, nbits, planes, turan)
                counts = mis_lane_counts(n, nbits, planes, complement=not turan)[t]
                confirmed = set()
                for p, (u, v) in enumerate(triangle_pairs(n)):
                    assert counts[p] != f or not free >> p & 1, (n, t, side, u, v)
                    sizes = sorted((part[u].bit_count(), part[v].bit_count()))
                    kind = (*sizes, part[u] == part[v])
                    if kind not in confirmed:
                        confirmed.add(kind)
                        form = canonical_form(from_triangle_mask(n, toggled[p]))
                        assert form != want, (n, t, side, u, v)


def _has_induced_p3(g):
    return any(
        (g.adj[i] >> j & 1) + (g.adj[i] >> k & 1) + (g.adj[j] >> k & 1) == 2
        for i, j, k in combinations(range(g.n), 3)
    )


@pytest.mark.parametrize("n", range(0, 6))
def test_p3_plane_matches_a_search_of_every_triple(n):
    planes = _every_mask_planes(n)
    size = 1 << n * (n - 1) // 2
    for side in ("mis", "clique"):
        free = extremal._p3_free_lanes(n, size, planes, side == "clique")
        for mask in range(size):
            g = from_triangle_mask(n, mask)
            tested = complement(g) if side == "clique" else g
            assert bool(free >> mask & 1) == (not _has_induced_p3(tested)), (n, side, mask)


def test_extremal_form_is_the_canonical_form():
    for n in range(1, 11):
        for t in range(1, n + 1):
            for side in ("mis", "clique"):
                form = extremal._extremal_form(n, t, side == "clique")
                assert form == canonical_form(_expected(n, t, side)), (n, t, side)
    # above CANON_MAX_N the graph as build_H/build_turan label it
    for n, t in ((11, 3), (12, 5)):
        for side in ("mis", "clique"):
            form = extremal._extremal_form(n, t, side == "clique")
            assert form == CanonicalForm(n, triangle_mask(_expected(n, t, side))), (n, t, side)


def _attainer_stream():
    """Seeded random graphs alternating with relabeled H(10,3), the attainers."""
    rng = random.Random("attainers")
    return [
        _relabeled(rng, build_H(10, 3)) if i % 2 else random_graph(rng, 10, 0.2)
        for i in range(24)
    ]


def _blocks(graphs):
    """The graphs as read_graph6_blocks reads their graph6 lines."""
    return read_graph6_blocks(io.StringIO("".join(graph6_encode(g) + "\n" for g in graphs)))


def _verifier_runs():
    """Calls that each return a list of reports, every report with attainers."""
    runs = [
        partial(verify_bound_exhaustive, n, side=side)
        for side in ("mis", "clique")
        for n in range(1, 7)
    ]
    return runs + [
        lambda: [verify_bound_stream(_attainer_stream(), 3)],
        lambda: [verify_bound_stream(_blocks(_attainer_stream()), 3)],
        lambda: [verify_bound_stream(_blocks(map(complement, _attainer_stream())), 3, "clique")],
    ]


def _recognize_nothing(monkeypatch):
    """Switch off the plane test, so every attainer takes the canonical fallback."""
    monkeypatch.setattr(extremal, "_p3_free_lanes", lambda n, size, planes, turan: 0)


def test_canonical_fallback_gives_the_same_reports(monkeypatch):
    default = [run() for run in _verifier_runs()]
    _recognize_nothing(monkeypatch)
    assert [run() for run in _verifier_runs()] == default


def test_canonical_form_runs_only_on_unrecognized_attainers(monkeypatch):
    calls = []
    formed = []
    attainer_form = extremal._attainer_form

    def spy(g):
        calls.append(g.n)
        return canonical_form(g)

    def form_spy(n, mask):
        formed.append(mask)
        return attainer_form(n, mask)

    monkeypatch.setattr(canon, "canonical_form", spy)
    monkeypatch.setattr(extremal, "_attainer_form", form_spy)
    for run in _verifier_runs():
        calls.clear()
        reports = run()
        assert calls == [] and formed == []
        assert all(r.unique_attainer for r in reports)
    # unrecognized, each keyed attainer of a stream (one labeled graph of a
    # report's class, once per block) gets one search, and the expected graph
    # none; the exhaustive census certifies its reports and keys no attainer
    _recognize_nothing(monkeypatch)
    for run in _verifier_runs():
        calls.clear()
        formed.clear()
        reports = run()
        if reports[0].coverage.startswith("exhaustive"):
            assert calls == formed == []
        else:
            assert len(calls) == len(formed) >= len(reports)
        assert all(r.unique_attainer for r in reports)


@pytest.mark.parametrize("side", ["mis", "clique"])
def test_stream_block_decodes_no_recognized_lane(monkeypatch, side):
    rng = random.Random("once")
    graph = _expected(9, 3, side)
    relabeled = [_relabeled(rng, graph) for _ in range(1000)]
    [block] = _blocks(relabeled)
    decoded = []
    lane_mask = extremal._lane_mask

    def lane_spy(planes, g):
        decoded.append(g)
        return lane_mask(planes, g)

    def rows_spy(n, mask):
        decoded.append(mask)
        return from_triangle_mask(n, mask)

    monkeypatch.setattr(extremal, "_lane_mask", lane_spy)
    monkeypatch.setattr(extremal, "from_triangle_mask", rows_spy)
    report = verify_bound_stream([block], 3, side)
    assert decoded == []
    assert report.unique_attainer and report.graphs_examined == 1000
    # with the plane test off, a repeated mask is decoded and formed once,
    # and a rejected lane is not tested again on its own
    tested = []

    def recognize_nothing(n, size, planes, turan):
        tested.append(size)
        return 0

    monkeypatch.setattr(extremal, "_p3_free_lanes", recognize_nothing)
    [block] = _blocks(relabeled[:1] * 1000)
    assert verify_bound_stream([block], 3, side) == report
    assert decoded == [*range(1000), triangle_mask(relabeled[0])] and tested == [1000]


def test_stream_above_canon_max_n(monkeypatch):
    rng = random.Random("n12")
    stream = [_relabeled(rng, build_H(12, 3)) for _ in range(4)]
    report = verify_bound_stream(stream, 3, source="h12")
    assert report.unique_attainer and report.coverage == "stream(h12)"
    assert [a.to_graph() for a in report.attainers] == [build_H(12, 3)]
    # in a block, an unrecognized first attainer lane keeps its own
    # labeling and its place before the recognized lanes, as line by line
    p3_free_lanes = extremal._p3_free_lanes
    first = _mask_planes(12, [triangle_mask(stream[0])])

    def reject_first(n, size, planes, turan):
        # clear the lanes that hold stream[0], in a block or on their own
        same = (1 << size) - 1
        for plane, bit in zip(planes, first):
            same &= plane if bit else ~plane
        return p3_free_lanes(n, size, planes, turan) & ~same

    monkeypatch.setattr(extremal, "_p3_free_lanes", reject_first)
    [block] = _blocks(stream)
    report = verify_bound_stream([block], 3, source="h12")
    assert report == verify_bound_stream(stream, 3, source="h12")
    assert [a.to_graph() for a in report.attainers] == [stream[0], build_H(12, 3)]
    assert not report.unique_attainer and report.coverage == "stream(h12),uncanonical"
    # an unrecognized attainer keeps its own labeling, and coverage says so
    _recognize_nothing(monkeypatch)
    report = verify_bound_stream(stream + stream[:1], 3, source="h12")
    assert not report.unique_attainer and report.bound_holds
    assert report.coverage == "stream(h12),uncanonical"
    assert [a.to_graph() for a in report.attainers] == stream
    [block] = _blocks(stream + stream[:1])
    assert verify_bound_stream([block], 3, source="h12") == report
