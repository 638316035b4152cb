"""Seeded inputs and output checks for the benchmark's workloads.

Inputs are made here, from the seed alone, with a graph6 writer of the
benchmark's own; the program sees only the files and the CLI flags. The
expected outputs are built from the library's reference pieces (the 2^n
subset-scan oracle, ``build_H`` and ``canonical_form``) after the timed
command has ended.
"""

from __future__ import annotations

import random
from pathlib import Path

COUNT_GRAPHS = 60_000
STREAM_GRAPHS = 2_400
DENSITIES = (0.2, 0.5, 0.8)
PROBE_SAMPLE = 500  # graphs per traced layer probe
ORACLE_SAMPLE = 200  # count lines checked against the oracle


def _pairs(n: int) -> list[tuple[int, int]]:
    # graph6 column order: (0,1), (0,2), (1,2), (0,3), ...
    return [(i, j) for j in range(1, n) for i in range(j)]


def graph6_line(n: int, edges: set[tuple[int, int]]) -> str:
    """Short-form graph6 of an edge set whose pairs are (i, j) with i < j."""
    bits = [1 if p in edges else 0 for p in _pairs(n)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        chars.append(chr(63 + value))
    return "".join(chars)


def random_edges(rng: random.Random, n: int, p: float) -> set[tuple[int, int]]:
    return {pair for pair in _pairs(n) if rng.random() < p}


def relabeled_h_edges(rng: random.Random, n: int, t: int) -> set[tuple[int, int]]:
    """Edges of H(n,t) = (t-r) K_q + r K_(q+1) under a random vertex relabeling."""
    q, r = divmod(n, t)
    perm = rng.sample(range(n), n)
    edges = set()
    first = 0
    for size in [q] * (t - r) + [q + 1] * r:
        part = [perm[v] for v in range(first, first + size)]
        edges.update((min(a, b), max(a, b)) for a in part for b in part if a != b)
        first += size
    return edges


def bound_f(n: int, t: int) -> int:
    q, r = divmod(n, t)
    return q ** (t - r) * (q + 1) ** r


def canonical_h_graph6(n: int, t: int) -> str:
    from mismax import build_H, canonical_form, graph6_encode

    return graph6_encode(canonical_form(build_H(n, t)).to_graph())


def report_line(n: int, t: int, attainer: str, examined: int, coverage: str) -> str:
    f = bound_f(n, t)
    return (
        f"n={n} t={t} f={f} max_observed={f} bound_holds=true "
        f"unique_attainer=true attainers={attainer} "
        f"graphs_examined={examined} coverage={coverage}"
    )


def canon_probe_graphs(seed: int) -> dict[str, tuple[int, set[tuple[int, int]], int]]:
    """name -> (n, edges, repetitions) for the canonical-form probes."""
    rng = random.Random(f"canon:{seed}")
    petersen = {(i, (i + 1) % 5) for i in range(5)}
    petersen |= {(5 + i, 5 + (i + 2) % 5) for i in range(5)}
    petersen |= {(i, 5 + i) for i in range(5)}
    return {
        "h10_3": (10, relabeled_h_edges(rng, 10, 3), 10),
        "random8": (8, random_edges(rng, 8, 0.5), 20),
        "random10": (10, random_edges(rng, 10, 0.5), 10),
        "petersen": (10, petersen, 3),
        "c10": (10, {(i, (i + 1) % 10) for i in range(10)}, 3),
    }


class Workload:
    """One workload: its inputs for a seed, its command, and its checks.

    ``generate`` sets ``argv`` (the timed command), ``setup_argv`` (the same
    command on a one-graph input), ``graphs`` (graphs examined per timed
    command) and ``sample`` (graph6 lines for the traced layer probes).
    """

    name = ""
    # order of the exhaustive scan timed with one worker in the traced run
    serial_order = 6

    def generate(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def check(self, text: str) -> str | None:
        """Error message if the timed command's stdout is wrong, else None."""
        raise NotImplementedError

    def check_setup(self, text: str) -> str | None:
        raise NotImplementedError

    def _write(self, seed: int, work: Path, lines: list[str]) -> None:
        """Write the graph6 input and its one-graph copy; draw the probe sample."""
        path = work / f"{self.name}-{seed}.g6"
        path.write_text("\n".join(lines) + "\n")
        one = work / f"{self.name}-{seed}-one.g6"
        one.write_text(lines[0] + "\n")
        self.path = str(path.relative_to(work.parent))
        self.one = str(one.relative_to(work.parent))
        self.graphs = len(lines)
        rng = random.Random(f"sample:{seed}")
        self.sample = [lines[i] for i in rng.sample(range(len(lines)), PROBE_SAMPLE)]


def _expect(text: str, lines: list[str]) -> str | None:
    got = text.splitlines()
    if got == lines:
        return None
    if len(got) != len(lines):
        return f"expected {len(lines)} output lines, got {len(got)}"
    k = next(i for i, (a, b) in enumerate(zip(got, lines)) if a != b)
    return f"line {k + 1}: expected {lines[k]!r}, got {got[k]!r}"


class ExhaustiveN7(Workload):
    """The paper's certificate over all 2^21 labeled 7-vertex graphs, with two
    workers so that a change in parallel scaling shows. The extremal scan
    loop and the kernel do the work; codec and canon do little."""

    name = "exhaustive-n7"
    serial_order = 7

    def generate(self, seed: int, work: Path) -> None:
        self.argv = ["verify", "--n", "7", "--all-t", "--workers", "2"]
        self.setup_argv = ["verify", "--n", "1", "--all-t", "--workers", "2"]
        self.graphs = 1 << 21
        rng = random.Random(f"sample:{seed}")
        self.sample = [
            graph6_line(7, {p for k, p in enumerate(_pairs(7)) if mask >> k & 1})
            for mask in (rng.getrandbits(21) for _ in range(PROBE_SAMPLE))
        ]

    def check(self, text: str) -> str | None:
        return _expect(
            text,
            [
                report_line(7, t, canonical_h_graph6(7, t), self.graphs, "exhaustive-labeled(7)")
                for t in range(1, 8)
            ],
        )

    def check_setup(self, text: str) -> str | None:
        return _expect(text, [report_line(1, 1, canonical_h_graph6(1, 1), 1, "exhaustive-labeled(1)")])


class CountN9(Workload):
    """Stream counting of random 9-vertex graphs at density 0.2/0.5/0.8: decode,
    Graph construction and complement are about half the cost, the kernel most
    of the rest, and the output is large; canon does nothing."""

    name = "count-n9"

    def generate(self, seed: int, work: Path) -> None:
        # the oracle rows are drawn first so only their edge sets are kept
        self.oracle_rows = random.Random(f"oracle:{seed}").sample(range(COUNT_GRAPHS), ORACLE_SAMPLE)
        kept = set(self.oracle_rows) | {0}
        self.edge_sets = {}
        rng = random.Random(f"input:{seed}")
        lines = []
        for i in range(COUNT_GRAPHS):
            edges = random_edges(rng, 9, DENSITIES[i % len(DENSITIES)])
            if i in kept:
                self.edge_sets[i] = edges
            lines.append(graph6_line(9, edges))
        self._write(seed, work, lines)
        self.argv = ["count", self.path]
        self.setup_argv = ["count", self.one]

    def _oracle_line(self, index: int) -> str:
        from mismax import from_edges, oracle_mis_size_profile

        coeffs = list(oracle_mis_size_profile(from_edges(9, self.edge_sets[index])).counts)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        terms = [
            f"{c if c != 1 or power == 0 else ''}{'x' if power else ''}{f'^{power}' if power > 1 else ''}"
            for power, c in enumerate(coeffs)
            if c
        ]
        return (
            f"graph={index} n=9 counts={','.join(map(str, coeffs))} total={sum(coeffs)} "
            f"poly={' + '.join(terms) or '0'}"
        )

    def check(self, text: str) -> str | None:
        got = text.splitlines()
        if len(got) != COUNT_GRAPHS:
            return f"expected {COUNT_GRAPHS} output lines, got {len(got)}"
        for index, line in enumerate(got):
            if not line.startswith(f"graph={index} n=9 counts="):
                return f"line {index + 1}: unexpected {line!r}"
        for index in self.oracle_rows:
            expected = self._oracle_line(index)
            if got[index] != expected:
                return f"line {index + 1}: expected {expected!r}, got {got[index]!r}"
        return None

    def check_setup(self, text: str) -> str | None:
        return _expect(text, [self._oracle_line(0)])


class AttainersN10(Workload):
    """The stream-verify path of count-n9 with canon switched on: every second
    graph is a relabeled H(10,3), so canonical_form does about 95% of the
    work. A change that speeds one use of the stream path at the other's
    cost shows on one of the two."""

    name = "attainers-n10"

    def generate(self, seed: int, work: Path) -> None:
        rng = random.Random(f"input:{seed}")
        lines = []
        for i in range(STREAM_GRAPHS):
            if i % 2 == 0:
                edges = relabeled_h_edges(rng, 10, 3)
            else:
                edges = random_edges(rng, 10, DENSITIES[i // 2 % len(DENSITIES)])
            lines.append(graph6_line(10, edges))
        self._write(seed, work, lines)
        self.argv = ["verify", "--input", self.path, "--t", "3"]
        self.setup_argv = ["verify", "--input", self.one, "--t", "3"]

    def check(self, text: str) -> str | None:
        h = canonical_h_graph6(10, 3)
        return _expect(text, [report_line(10, 3, h, self.graphs, f"stream({self.path})")])

    def check_setup(self, text: str) -> str | None:
        h = canonical_h_graph6(10, 3)
        return _expect(text, [report_line(10, 3, h, 1, f"stream({self.one})")])


WORKLOADS = {w.name: w for w in (ExhaustiveN7(), CountN9(), AttainersN10())}
