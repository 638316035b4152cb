import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import mismax
from mismax import (
    canonical_form,
    complement,
    complete_graph,
    disjoint_union,
    empty_graph,
    from_edges,
)
from mismax.extremal import build_turan
from mismax.scan import _orbit_representatives
from mismax.graph import from_triangle_mask, triangle_mask

from conftest import cycle_graph, path_graph, permute, random_graph


def brute_force_min_mask(g):
    return min(
        triangle_mask(permute(g, list(p))) for p in permutations(range(g.n))
    )


def test_reversed_path_same_form():
    p4 = path_graph(4)
    assert canonical_form(p4) == canonical_form(permute(p4, [3, 2, 1, 0]))


def test_c4_differs_from_p4():
    assert canonical_form(cycle_graph(4)) != canonical_form(path_graph(4))


def test_remark_correspondence_k2_plus_k3():
    h = disjoint_union(complete_graph(2), complete_graph(3))
    assert canonical_form(h) == canonical_form(complement(build_turan(5, 2)))


def test_c5_self_complementary():
    c5 = cycle_graph(5)
    assert canonical_form(c5) == canonical_form(complement(c5))


def test_two_triangles_not_k33():
    h = disjoint_union(complete_graph(3), complete_graph(3))
    assert canonical_form(h) != canonical_form(build_turan(6, 2))


def test_random_relabeling_isomorphic():
    rng = random.Random(99)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permute(g, perm))


def test_relabeling_invariance_100_pairs():
    rng = random.Random(4242)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(permute(g, perm)) == canonical_form(g)


def test_key_is_true_minimum_over_all_permutations():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        assert canonical_form(g).key == brute_force_min_mask(g)


def test_equal_forms_agree_with_permutation_oracle():
    rng = random.Random(17)
    suite = [random_graph(rng, 5, p) for p in (0.3, 0.5, 0.5, 0.7) for _ in range(4)]
    for g1 in suite:
        for g2 in suite:
            oracle = any(
                permute(g1, list(p)) == g2 for p in permutations(range(5))
            )
            assert (canonical_form(g1) == canonical_form(g2)) == oracle


def test_canonical_form_roundtrip_graph():
    g = cycle_graph(5)
    cf = canonical_form(g)
    assert any(permute(g, list(p)) == cf.to_graph() for p in permutations(range(5)))
    assert canonical_form(cf.to_graph()) == cf


def test_order_ceiling():
    with pytest.raises(ValueError):
        canonical_form(empty_graph(11))


def test_isomorphism_class_counts_small():
    counts = [len(list(_orbit_representatives(m))) for m in range(1, 7)]
    assert counts == [1, 2, 4, 11, 34, 156]


def test_class_count_order_ceiling():
    with pytest.raises(ValueError):
        list(_orbit_representatives(9))


def test_orbit_representatives_are_canonical_keys():
    for m in range(0, 7):
        reps = list(_orbit_representatives(m))
        for mask, _ in reps:
            assert mask == canonical_form(from_triangle_mask(m, mask)).key, (m, mask)
        assert sum(size for _, size in reps) == 1 << m * (m - 1) // 2
        if m <= 5:
            # each orbit's size is the number of its distinct relabelings
            for mask, size in reps:
                g = from_triangle_mask(m, mask)
                relabeled = {triangle_mask(permute(g, list(p))) for p in permutations(range(m))}
                assert size == len(relabeled), (m, mask)


def classes_by_extension(m):
    """(canonical key, labeled copies) of each class of order m, built from
    the classes of order m - 1 independently of the orbit walk at m: each
    class (R, w) of order m - 1, with each neighbourhood N of a new last
    vertex, stands for w labeled graphs isomorphic to R << (m-1) | N."""
    totals = {}
    for r, w in _orbit_representatives(m - 1):
        for nb in range(1 << (m - 1)):
            key = canonical_form(from_triangle_mask(m, r << (m - 1) | nb)).key
            totals[key] = totals.get(key, 0) + w
    return sorted(totals.items())


# m = 7 runs in CI, outside tier-1, for its run time
@pytest.mark.parametrize("m", range(2, 7))
def test_orbit_walk_matches_generation_by_extension(m):
    assert classes_by_extension(m) == list(_orbit_representatives(m))


def test_symmetric_graphs_fast_paths():
    # twin pruning keeps highly symmetric graphs cheap
    assert canonical_form(empty_graph(10)).key == 0
    full = complete_graph(10)
    assert canonical_form(full).key == (1 << 45) - 1
    h = disjoint_union(complete_graph(5), complete_graph(5))
    assert canonical_form(h) == canonical_form(permute(h, [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]))


OPTIMIZED_CHECKS = """
import sys
from mismax import Graph, canonical_form, from_edges
try:
    Graph(2, (0b10, 0b00))
    print("accepted")
except ValueError as exc:
    print(exc)
print(sys.flags.optimize, canonical_form(from_edges(5, EDGES)).key)
"""


def test_checks_survive_python_O():
    # python -O strips assert statements; the library's checks must not be asserts
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]
    src = str(Path(mismax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = OPTIMIZED_CHECKS.replace("EDGES", repr(edges))
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    key = brute_force_min_mask(from_edges(5, edges))
    assert result.stdout.splitlines() == ["asymmetric adjacency between 1 and 0", f"1 {key}"]
