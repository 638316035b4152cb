"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time

import pytest

from mismax import (
    bound_f,
    build_H,
    build_turan,
    canonical_form,
    complement,
    complete_graph,
    empty_graph,
    graph6_decode,
    graph6_encode,
    induction_split,
    maximal_clique_size_profile,
    mis_size_profile,
    oracle_mis_size_profile,
    proof_subcase,
    verify_bound_exhaustive,
)
from mismax.counting import maximal_clique_counts
from mismax.scan import _orbit_representatives
from mismax.graph import Graph

from conftest import moon_moser_total, random_graph


@pytest.fixture(scope="module")
def exhaustive_reports():
    """One full labeled scan per order n = 1..7, all t, shared across criteria."""
    started = time.monotonic()
    reports = {n: verify_bound_exhaustive(n) for n in range(1, 8)}
    elapsed = time.monotonic() - started
    print(f"\n[exhaustive scans n=1..7 took {elapsed:.1f}s single-threaded]")
    return reports


def test_criterion_1_theorem_exhaustive(exhaustive_reports):
    for n in range(1, 8):
        for report in exhaustive_reports[n]:
            f = bound_f(n, report.t).f
            assert report.bound_holds, (n, report.t)
            assert report.max_observed == f, (n, report.t)
            assert report.attainers == (canonical_form(build_H(n, report.t)),)
            assert report.unique_attainer
            assert report.graphs_examined == 1 << (n * (n - 1) // 2)
    print("PASS criterion 1: bound attained exactly with unique extremal graph, n=1..7, all t")


def test_criterion_2_remark_values():
    assert bound_f(6, 2).f == 9
    assert bound_f(5, 2).f == 6
    assert bound_f(7, 2).f == 12
    assert bound_f(7, 3).f == 12
    print("PASS criterion 2: f(6,2)=9, f(5,2)=6, f(7,2)=12, f(7,3)=12")


def test_criterion_3_one_size_profile():
    for n in range(1, 21):
        for t in range(1, n + 1):
            profile = mis_size_profile(build_H(n, t))
            f = bound_f(n, t).f
            for s in range(n + 1):
                assert profile.counts[s] == (f if s == t else 0), (n, t, s)
    print("PASS criterion 3: every MIS of H(n,t) has size t, count f(n,t), n<=20")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(20240601)
    started = time.monotonic()
    for i in range(1000):
        n = rng.randint(1, 14)
        p = (0.2, 0.5, 0.8)[i % 3]
        g = random_graph(rng, n, p)
        assert mis_size_profile(g) == oracle_mis_size_profile(g), graph6_encode(g)
    elapsed = time.monotonic() - started
    print(f"PASS criterion 4: pivoted = oracle on 1000 random graphs n<=14 ({elapsed:.1f}s)")


def test_criterion_5_duality_and_correspondence():
    for n in range(1, 31):
        for t in range(1, n + 1):
            assert complement(build_turan(n, t)) == build_H(n, t), (n, t)
    rng = random.Random(77)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.choice([0.2, 0.5, 0.8]))
        assert mis_size_profile(g) == maximal_clique_size_profile(complement(g))
        assert maximal_clique_size_profile(g) == mis_size_profile(complement(g))
    print("PASS criterion 5: complement(T(n,t)) = H(n,t) for n<=30; profiles commute")


def test_criterion_6_proof_trace_identities():
    rng = random.Random(31337)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]))
        totals = maximal_clique_size_profile(g)
        for t in (2, 3):
            for v in range(g.n):
                rep = induction_split(g, t, v)
                assert rep.a_count == rep.nbhd_count
                assert rep.a_count + rep.b_count == totals.get(t)
                assert rep.b_count <= rep.gminus_count
    # threshold soundness over the exhaustive n <= 7 labeled scan
    for n in range(1, 8):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            m, k = mask, 0
            while m:
                if m & 1:
                    i, j = pairs[k]
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                m >>= 1
                k += 1
            d = min(r.bit_count() for r in rows)
            counts = None
            for t in range(1, n + 1):
                q, r = divmod(n, t)
                hit = d >= n - q if r > 0 else d >= n - q + 1
                if mask % 4096 == 0:
                    # sampled cross-check of the inlined threshold
                    assert hit == (proof_subcase(Graph(n, tuple(rows)), t) in ("1a", "2a"))
                if hit:
                    if counts is None:
                        counts = maximal_clique_counts(tuple(rows), n)
                    assert counts[t] == 0, (n, t, mask)
    print("PASS criterion 6: A/B split identities (500 graphs) and 1a/2a threshold soundness")


def test_criterion_7_classical_consistency(exhaustive_reports):
    for n, expected in ((5, 6), (6, 9), (7, 12)):
        observed = max(r.max_observed for r in exhaustive_reports[n])
        assert observed == expected == moon_moser_total(n)
    print("PASS criterion 7: per-size maxima cap at the classical totals 6, 9, 12")


def test_criterion_8_codec():
    assert graph6_decode("A_") == complete_graph(2)
    assert graph6_decode("Bw") == complete_graph(3)
    assert graph6_decode("D??") == empty_graph(5)
    rng = random.Random(4096)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 20), rng.choice([0.2, 0.5, 0.8]))
        s = graph6_encode(g)
        assert graph6_decode(s) == g
        assert graph6_encode(graph6_decode(s)) == s
    print("PASS criterion 8: graph6 round trip on 1000 random graphs plus fixed vectors")


def test_criterion_9_canonical_self_consistency():
    expected = [1, 2, 4, 11, 34, 156, 1044]
    got = [len(list(_orbit_representatives(m))) for m in range(1, 8)]
    assert got == expected
    print("PASS criterion 9: distinct canonical forms per order = 1,2,4,11,34,156,1044")
