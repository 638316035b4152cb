import contextlib
import importlib.util
import io
import os
import random
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest

import mismax
from mismax import (
    CodecError,
    bound_f,
    build_H,
    build_turan,
    graph6_decode,
    graph6_encode,
    maximal_clique_size_profile,
    mis_size_profile,
    read_graph6_stream,
    verify_bound_stream,
)
from mismax import cli
from mismax.cli import _any_int_digits, _print_report, main
from mismax.codec import _BLOCK_CHARS
from mismax.counting import mis_lane_counts, polynomial_string

from conftest import permute, random_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_stdin_graph6(capsys, monkeypatch):
    code, out, _ = run(capsys, ["count"], stdin="Bw\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "graph=0 n=3 counts=0,3 total=3 poly=3x\n"


def test_count_edge_list(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["count", "--format", "edgelist"],
        stdin="4 3\n0 1\n1 2\n2 3\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == "graph=0 n=4 counts=0,0,3 total=3 poly=3x^2\n"


# a header order past MAX_VERTICES is rejected before anything is sized by it
@pytest.mark.parametrize("n", [-1, 1000000, 9223372036854775808])
def test_count_edge_list_order_out_of_range(capsys, monkeypatch, n):
    code, out, err = run(
        capsys, ["count", "--format", "edgelist"], stdin=f"{n} 0\n", monkeypatch=monkeypatch
    )
    assert (code, out, err) == (2, "", f"error: vertex count {n} outside 0..64\n")


def test_count_empty_input(capsys, monkeypatch):
    code, out, _ = run(capsys, ["count"], stdin="", monkeypatch=monkeypatch)
    assert code == 0
    assert out == ""


def test_count_parse_error_names_line(capsys, monkeypatch):
    code, out, err = run(
        capsys, ["count"], stdin="Bw\nA\n", monkeypatch=monkeypatch
    )
    assert code == 2
    assert "line 2" in err


def test_count_csv(capsys, monkeypatch):
    code, out, _ = run(capsys, ["count", "--csv"], stdin="Bw\n", monkeypatch=monkeypatch)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,n,counts,total,poly"
    assert lines[1] == '0,3,"0,3",3,3x'


def count_stream():
    """Seeded 9-vertex graphs, each twice so that profiles repeat, and K9,
    whose counts end in 8 zeros, over 10,100 lines: one block, whose
    indices cross 1,000 and 10,000; then n = 0 and n = 1, line by line."""
    rng = random.Random(9)
    lines = [graph6_encode(random_graph(rng, 9, (0.2, 0.5, 0.8)[i % 3])) for i in range(150)]
    lines += lines[::-1]
    return (lines * 34)[:10099] + ["H~~~~~~", "?", "@"]


@lru_cache(maxsize=None)
def count_fields(line):
    """The counts, total and poly fields of a count line, for a graph6 line."""
    coeffs = mis_size_profile(graph6_decode(line)).coefficients()
    return ",".join(map(str, coeffs)), sum(coeffs), polynomial_string(coeffs)


@pytest.mark.parametrize("csv", [False, True])
def test_count_lines_match_profiles(capsys, monkeypatch, csv):
    lines = count_stream()
    expected = ["index,n,counts,total,poly"] if csv else []
    for index, line in enumerate(lines):
        n = ord(line[0]) - 63
        counts, total, poly = count_fields(line)
        if csv:
            expected.append(f'{index},{n},"{counts}",{total},{poly}')
        else:
            expected.append(f"graph={index} n={n} counts={counts} total={total} poly={poly}")
    assert len(set(lines)) < len(lines)
    argv = ["count", "--csv"] if csv else ["count"]
    stdin = "\n".join(lines) + "\n"
    code, out, _ = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == expected


# the count_cases inputs of one block size share most of their lines, about
# 80,000 distinct graphs at the real block size
@lru_cache(maxsize=1 << 17)
def reference_fields(g):
    """A count line after its index, for the graph g."""
    coeffs = mis_size_profile(g).coefficients()
    return (
        f"n={g.n} counts={','.join(map(str, coeffs))} "
        f"total={sum(coeffs)} poly={polynomial_string(coeffs)}\n"
    )


def count_line_by_line(text):
    """(exit code, stdout, stderr) of count with every line decoded and
    counted on its own, the reference for the block path. Each distinct
    graph is counted once; every line is still decoded, so the errors and
    their line numbers come from read_graph6_stream over the whole text."""
    out = []
    try:
        for index, g in enumerate(read_graph6_stream(io.StringIO(text))):
            out.append(f"graph={index} {reference_fields(g)}")
    except CodecError as exc:
        return 2, "".join(out), f"error: {exc}\n"
    return 0, "".join(out), ""


@lru_cache(maxsize=2)
def count_cases(block_chars):
    """name -> count input; the 9-vertex lines are 8 characters with the
    newline, so the first block_chars characters of a stream of them end
    with line block_chars // 8 - 1, the reader completes the first block
    one line later, with line block_chars // 8, and the defects sit in the
    second block. Cached, since a real-size block takes seconds to build;
    callers only read it."""
    rng = random.Random(1212)

    def lines(n, k):
        return [graph6_encode(random_graph(rng, n, (0.1, 0.5, 0.9)[i % 3])) for i in range(k)]

    k = block_chars // 8
    n9 = lines(9, 2 * k + 5)

    def text(ls, newline="\n"):
        return newline.join(ls) + newline

    def replaced(index, line):
        return text(n9[:index] + [line] + n9[index + 1:])

    at = block_chars // 7 + 2  # in the second block of 8-vertex lines, 7 characters each
    n8 = lines(8, at + 3)
    bad_pad = n8[at][:-1] + chr(ord(n8[at][-1]) + 1)  # the lowest pad bit of order 8
    cases = {
        "n0": text(["?"] * block_chars),
        "n1": text(["@"] * (block_chars // 2 + 3)),
        "n12": text(lines(12, block_chars // 13 + 2)),
        # orders 13 to 15 are blocks, the lane kernel's last orders, and
        # order 16 goes line by line; 7 lines of order 15 are two cuts of 64
        "n13": text(lines(13, 4)),
        "n15": text(lines(15, 7)),
        "n16": text(lines(16, 4)),
        "mixed orders in a block": text(n9[:k] + lines(8, 3) + n9[k:]),
        # orders 0 and 1, and 2, 3 and 4, have lines of one length
        "orders 0 and 1": text(["?", "@"] * (block_chars // 2)),
        "orders 2 to 4": text(["A_", "Bw", "C~"] * (block_chars // 4)),
        "one order per block": text(n9[:k] + lines(10, 2 * k)),
        "empty": "",
        "blank final line": text(n9) + "\n",
        "no final newline": "\n".join(n9),
        "crlf": text(n9, newline="\r\n"),
        "header": ">>graph6<<" + text(n9),
        "header later": replaced(k + 2, ">>graph6<<" + n9[k + 2]),
        "bad character": replaced(k + 2, n9[k + 2][:3] + " " + n9[k + 2][4:]),
        "bad padding": text(n8[:at] + [bad_pad] + n8[at + 1:]),
        "wrong length": replaced(k + 2, n9[k + 2] + "?"),
        "too short": replaced(2 * k, n9[2 * k][:-1]),
        # a stride after the short line starts, the long one has an order character
        "one short, one long": text(
            n9[:k + 2] + [n9[k + 2][:-1], "H" + n9[k + 3]] + n9[k + 4:]
        ),
        # the line ends where the next one would start
        "newline inside a line": replaced(k + 2, n9[k + 2][:3] + "\n" + n9[k + 2][4:]),
        "non-ascii": replaced(k + 2, n9[k + 2][:-1] + "\u00e9"),
    }
    for at in range(k - 2, k + 3):
        cases[f"blank line {at - k:+d} from the boundary"] = text(n9[:at] + [""] + n9[at:])
    return cases


@pytest.mark.parametrize("block_chars", [_BLOCK_CHARS, 64])
def test_count_blocks_match_line_by_line(capsys, monkeypatch, block_chars):
    monkeypatch.setattr("mismax.codec._BLOCK_CHARS", block_chars)
    for name, text in count_cases(block_chars).items():
        got = run(capsys, ["count"], stdin=text, monkeypatch=monkeypatch)
        assert got == count_line_by_line(text), name


def test_count_cases_cover_every_outcome():
    # twelve inputs fail, and every input but the empty one prints lines first
    outcomes = {name: count_line_by_line(text) for name, text in count_cases(64).items()}
    assert sum(code == 2 for code, _, _ in outcomes.values()) == 12
    assert [name for name, (_, out, _) in outcomes.items() if not out] == ["empty"]


@pytest.mark.parametrize(
    "name", ["bad padding", "blank line +1 from the boundary", "no final newline"]
)
def test_count_blocks_match_line_by_line_on_a_pipe(name):
    # a real stdin reads in blocks of _BLOCK_CHARS characters
    text = count_cases(_BLOCK_CHARS)[name]
    src = str(Path(mismax.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "mismax.cli", "count"],
        input=text, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == count_line_by_line(text)


@lru_cache(maxsize=1)
def stream_graphs(text):
    """list(read_graph6_stream(text)), or the CodecError it raises; kept
    while one input is verified at every t on both sides."""
    try:
        return list(read_graph6_stream(io.StringIO(text)))
    except CodecError as exc:
        return exc


def verify_line_by_line(text, t, side):
    """(exit code, stdout, stderr) of verify --input with every line decoded
    into a Graph and counted on its own, the reference for the block path."""
    graphs = stream_graphs(text)
    try:
        if isinstance(graphs, CodecError):
            raise graphs
        report = verify_bound_stream(graphs, t, side=side, source="-")
    except ValueError as exc:  # CodecError is a ValueError
        return 2, "", f"error: {exc}\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_report(report)
    return int(not report.bound_holds), out.getvalue(), ""


def verify_blocks(capsys, monkeypatch, text, t, side):
    """(exit code, stdout, stderr without wall_time) of verify --input."""
    argv = ["verify", "--input", "-", "--t", str(t), "--side", side]
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    return code, out, "".join(
        line for line in err.splitlines(True) if not line.startswith("wall_time=")
    )


def attainer_stream():
    """Relabeled copies of the extremal graphs of both sides at t = 1, 3
    and 9 (K9, H(9,3), the empty graph and their complements) among seeded
    random 9-vertex graphs, as graph6 lines."""
    rng = random.Random(916)
    extremal = [build_H(9, t) for t in (1, 3, 9)] + [build_turan(9, t) for t in (1, 3, 9)]
    graphs = []
    for i in range(42):
        g = extremal[i % 6] if i % 2 else random_graph(rng, 9, (0.1, 0.5, 0.9)[i % 3])
        graphs.append(permute(g, rng.sample(range(9), 9)))
    return "".join(graph6_encode(g) + "\n" for g in graphs)


@pytest.mark.parametrize("block_chars", [_BLOCK_CHARS, 64])
def test_verify_blocks_match_line_by_line(capsys, monkeypatch, block_chars):
    # the inputs share most of their lines: each distinct line is decoded,
    # and each distinct graph and block counted, once over all t and sides,
    # so the real block size runs in seconds
    monkeypatch.setattr("mismax.codec.graph6_decode", lru_cache(maxsize=1 << 17)(graph6_decode))
    for name in ("mis_size_profile", "maximal_clique_size_profile"):
        monkeypatch.setattr(f"mismax.counting.{name}", lru_cache(maxsize=1 << 17)(globals()[name]))
    monkeypatch.setattr("mismax.counting.mis_lane_counts", lru_cache(maxsize=32)(mis_lane_counts))
    monkeypatch.setattr("mismax.codec._BLOCK_CHARS", block_chars)
    cases = dict(count_cases(block_chars), attainers=attainer_stream())
    for name, text in cases.items():
        graphs = stream_graphs(text)
        n = graphs[0].n if isinstance(graphs, list) and graphs else 0
        for side in ("mis", "clique"):
            for t in sorted({1, 3, n, n + 1} - {0}):
                expected = verify_line_by_line(text, t, side)
                assert verify_blocks(capsys, monkeypatch, text, t, side) == expected, (name, side, t)
                if expected[0] == 2:
                    break  # an error names no t, so one t per side shows it


@pytest.mark.parametrize("block_chars", [_BLOCK_CHARS, 64])
def test_verify_block_attainers_fall_back_to_forms(capsys, monkeypatch, block_chars):
    # an attainer the plane test rejects is keyed by its canonical form
    monkeypatch.setattr("mismax.codec._BLOCK_CHARS", block_chars)
    text = attainer_stream()
    runs = [(t, side) for side in ("mis", "clique") for t in (1, 3, 9)]
    default = [verify_blocks(capsys, monkeypatch, text, t, side) for t, side in runs]
    monkeypatch.setattr("mismax.extremal._p3_free_lanes", lambda n, size, planes, turan: 0)
    assert [verify_blocks(capsys, monkeypatch, text, t, side) for t, side in runs] == default
    assert [verify_line_by_line(text, t, side) for t, side in runs] == default


def test_verify_recognizes_the_benchmark_attainers_without_search(capsys, monkeypatch, tmp_path):
    # the benchmark's attainers-n10 input: every second line a relabeled
    # H(10,3), all recognized by the plane test, so no lane is decoded and
    # no canonical form is searched
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.AttainersN10()
    work = tmp_path / "work"
    work.mkdir()
    workload.generate(1701, work)
    monkeypatch.chdir(tmp_path)
    calls = []
    for target in (
        "mismax.canon.canonical_form",
        "mismax.extremal.from_triangle_mask",
        "mismax.extremal._lane_mask",
    ):
        monkeypatch.setattr(target, lambda *args, target=target: calls.append(target))
    code, out, _ = run(capsys, workload.argv)
    monkeypatch.undo()
    assert calls == []
    assert code == 0 and workload.check(out) is None


def test_count_format_cache_is_bounded(capsys, monkeypatch):
    # a count drops its templates when one more would pass their limit, and
    # prints every line as it would with them all
    sizes = []

    class Templates(cli._CountTemplates):
        def __missing__(self, key):
            line = super().__missing__(key)
            sizes.append(len(self))
            return line

    monkeypatch.setattr("mismax.cli._CountTemplates", Templates)
    stdin = "\n".join(count_stream()) + "\n"
    expected = run(capsys, ["count"], stdin=stdin, monkeypatch=monkeypatch)
    distinct = len(sizes)
    sizes.clear()
    monkeypatch.setattr(Templates, "limit", 50)
    assert run(capsys, ["count"], stdin=stdin, monkeypatch=monkeypatch) == expected
    assert max(sizes) == 50 and len(sizes) > distinct


def test_bound_table(capsys):
    code, out, _ = run(capsys, ["bound", "6", "1..6"])
    assert code == 0
    assert out.splitlines() == [
        "n,t,q,r,f",
        "6,1,6,0,6",
        "6,2,3,0,9",
        "6,3,2,0,8",
        "6,4,1,2,4",
        "6,5,1,1,2",
        "6,6,1,0,1",
    ]


def test_bound_single_values(capsys):
    code, out, _ = run(capsys, ["bound", "5", "2"])
    assert out.splitlines()[1] == "5,2,2,1,6"
    code, out, _ = run(capsys, ["bound", "3", "5"])
    assert out.splitlines()[1] == "3,5,0,3,0"


def test_bound_rejects_t0(capsys):
    code, _, err = run(capsys, ["bound", "6", "0"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [(["bound", "-1", "2"], "n must be >= 0"), (["bound", "5", "0"], "t must be >= 1")],
)
def test_bound_errors_print_no_header(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_bound_f_beyond_the_int_string_limit(capsys):
    # 2^50000 has 15,052 digits, past the 4,300 Python 3.11 prints by default
    code, out, err = run(capsys, ["bound", "100000", "50000"])
    assert (code, err) == (0, "")
    header, row, rest = out.split("\n")
    assert (header, rest) == ("n,t,q,r,f", "")
    prefix, f = row.rsplit(",", 1)
    assert prefix == "100000,50000,2,0"
    with _any_int_digits():  # main restored the cap on return
        assert int(f) == 2 ** 50000


class LineCounter:
    """A stdout that keeps only its line count and last line."""

    def __init__(self):
        self.lines = 0
        self.last = ""

    def write(self, text):
        self.lines += text.count("\n")
        self.last = text


def test_bound_streams_its_rows(monkeypatch):
    sink = LineCounter()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        code = main(["bound", "5", "1..200000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (sink.lines, sink.last) == (200001, "5,200000,0,5,0\n")
    assert peak < 5 * 2**20


def test_count_memory_stays_flat_over_blocks(monkeypatch):
    # three full blocks and a partial one of random 9-vertex lines; a block
    # of lines formatted and joined at once would peak at about 4.8 MB
    rng = random.Random(1313)
    lines = 3 * (_BLOCK_CHARS // 8) + 100
    text = "".join(
        "H" + "".join(chr(63 + rng.getrandbits(6)) for _ in range(6)) + "\n" for _ in range(lines)
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    sink = LineCounter()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        code = main(["count"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.lines) == (0, lines)
    assert sink.last.startswith(f"graph={lines - 97} n=9 ")
    assert peak < 3 * 2**20


def test_extremal_graph6(capsys):
    code, out, _ = run(capsys, ["extremal", "6", "2", "--which", "H"])
    assert code == 0
    from mismax import build_H, graph6_encode

    assert out.strip() == graph6_encode(build_H(6, 2))


def test_extremal_turan_edgelist(capsys):
    code, out, _ = run(
        capsys, ["extremal", "6", "2", "--which", "turan", "--format", "edgelist"]
    )
    assert code == 0
    assert out.splitlines()[0] == "6 9"
    assert len(out.splitlines()) == 10


def test_extremal_empty(capsys):
    code, out, _ = run(capsys, ["extremal", "4", "4", "--format", "edgelist"])
    assert code == 0
    assert out == "4 0\n"


def test_extremal_out_of_range(capsys):
    code, _, err = run(capsys, ["extremal", "3", "5"])
    assert code == 2


def test_verify_exhaustive(capsys):
    code, out, err = run(capsys, ["verify", "--n", "6", "--t", "2"])
    assert code == 0
    assert "max_observed=9" in out
    assert "bound_holds=true" in out
    assert "unique_attainer=true" in out
    assert "wall_time=" in err


def test_verify_deterministic_across_workers(capsys):
    _, out1, _ = run(capsys, ["verify", "--n", "5", "--all-t"])
    _, out2, _ = run(capsys, ["verify", "--n", "5", "--all-t", "--workers", "3"])
    assert out1 == out2


def test_verify_stream_stdin(capsys, monkeypatch):
    from mismax import build_H, graph6_encode

    lines = graph6_encode(build_H(6, 2)) + "\nE???\n"
    code, out, _ = run(
        capsys, ["verify", "--input", "-", "--t", "2"], stdin=lines, monkeypatch=monkeypatch
    )
    assert code == 0
    assert "coverage=stream(-)" in out
    assert "max_observed=9" in out


def test_verify_usage_errors(capsys):
    assert run(capsys, ["verify"])[0] == 2
    assert run(capsys, ["verify", "--n", "6"])[0] == 2
    code, out, err = run(capsys, ["verify", "--n", "10", "--t", "2"])
    assert (code, out) == (2, "")
    assert "exhaustive scan needs 1 <= n <= 9, got 10" in err


def test_verify_parse_error(capsys, monkeypatch):
    code, _, err = run(
        capsys, ["verify", "--input", "-", "--t", "2"], stdin="xx\nyy\n", monkeypatch=monkeypatch
    )
    assert code == 2


def test_trace_turan(capsys, monkeypatch):
    from mismax import build_turan, graph6_encode

    code, out, _ = run(
        capsys,
        ["trace", "--t", "3"],
        stdin=graph6_encode(build_turan(7, 3)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "subcase=1b" in out
    assert "total=12" in out


def test_trace_k7(capsys, monkeypatch):
    from mismax import complete_graph, graph6_encode

    code, out, _ = run(
        capsys,
        ["trace", "--t", "3"],
        stdin=graph6_encode(complete_graph(7)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "subcase=1a" in out
    assert "total=0" in out


def test_trace_t622(capsys, monkeypatch):
    from mismax import build_turan, graph6_encode

    code, out, _ = run(
        capsys,
        ["trace", "--t", "3"],
        stdin=graph6_encode(build_turan(6, 3)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "subcase=2b" in out
    assert "total=8" in out


def test_trace_explicit_vertex(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["trace", "--t", "2", "--v", "1"], stdin="Bw\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert "v=1" in out


def test_trace_bad_vertex(capsys, monkeypatch):
    code, _, err = run(
        capsys, ["trace", "--t", "2", "--v", "9"], stdin="Bw\n", monkeypatch=monkeypatch
    )
    assert code == 2


@pytest.mark.parametrize("stdin,got", [("", "0"), ("Bw\nBw\nxx\n", "more than one")])
def test_trace_reads_at_most_two_graphs(capsys, monkeypatch, stdin, got):
    # a second graph refuses the input: the malformed third line is not read
    code, out, err = run(capsys, ["trace", "--t", "2"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"error: trace expects exactly one graph, got {got}\n")


def test_output_determinism(capsys, monkeypatch):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, ["count"], stdin="Bw\nA_\nD??\n", monkeypatch=monkeypatch)
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_stream_order_below_t(capsys, monkeypatch):
    # f(2,3) = 0: every graph meets the bound, and there is no extremal graph
    code, out, _ = run(
        capsys, ["verify", "--input", "-", "--t", "3"], stdin="A_\nA?\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert out == (
        "n=2 t=3 f=0 max_observed=0 bound_holds=true unique_attainer=false "
        "attainers=- graphs_examined=2 coverage=stream(-)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "0", "--all-t"],
        ["bound", "5", "3..1"],
        ["verify", "--n", "5", "--workers", "0", "--all-t"],
    ],
)
def test_vacuous_runs_rejected(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "error" in err


def test_verify_t_and_all_t_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "5", "--t", "2", "--all-t"])
    assert exc.value.code == 2


def test_verify_workers_clamped_to_cpus(capsys, monkeypatch, serial_pool):
    monkeypatch.setattr("mismax.extremal._POOL_MIN_BLOCKS", 1)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    code, out, _ = run(capsys, ["verify", "--n", "6", "--t", "2", "--workers", "64"])
    assert code == 0
    assert serial_pool.sizes == [3]
    assert "max_observed=9" in out


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--n", "5"], "--n"),
        (["--workers", "0"], "--workers"),
        (["--workers", "1"], "--workers"),
        (["--n", "5", "--workers", "0"], "--n and --workers"),
        (["--all-t"], "--all-t"),
    ],
)
def test_verify_input_rejects_scan_flags(capsys, monkeypatch, flags, named):
    which_t = [] if "--all-t" in flags else ["--t", "1"]  # argparse refuses both
    code, out, err = run(
        capsys,
        ["verify", "--input", "-", *which_t, *flags],
        stdin="A_\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert out == ""
    assert f"error: {named} cannot be combined with --input" in err


@pytest.mark.parametrize(
    "extremal_args,verify_args",
    [
        (["12", "3"], ["--t", "3"]),
        (["12", "4", "--which", "turan"], ["--t", "4", "--side", "clique"]),
    ],
)
def test_verify_stream_above_canon_limit(capsys, monkeypatch, extremal_args, verify_args):
    # orders above 10 have no canonical labeling; the extremal graph needs none
    _, graph, _ = run(capsys, ["extremal", *extremal_args])
    code, out, err = run(
        capsys, ["verify", "--input", "-", *verify_args], stdin=graph, monkeypatch=monkeypatch
    )
    assert code == 0, err
    assert "bound_holds=true unique_attainer=true" in out
    assert f" attainers={graph.strip()} " in out
    assert out.endswith(" coverage=stream(-)\n")


def verify_relabeled_extremal_graphs(capsys, monkeypatch, n):
    """verify --input on three relabeled copies of H(n,t) on the MIS side
    and of T(n,t) on the clique side, for t = 1, 3 and n // 2: each is
    recognized, with no canonical search, so the report is unique and
    carries no ",uncanonical"."""
    rng = random.Random(n)
    monkeypatch.setattr(
        "mismax.canon.canonical_form", lambda g: pytest.fail("canonical_form called")
    )
    for t in (1, 3, n // 2):
        for side, build in (("mis", build_H), ("clique", build_turan)):
            graph = build(n, t)
            text = "".join(
                graph6_encode(permute(graph, rng.sample(range(n), n))) + "\n" for _ in range(3)
            )
            argv = ["verify", "--input", "-", "--t", str(t), "--side", side]
            code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
            assert code == 0, err
            assert " bound_holds=true unique_attainer=true " in out, (n, t, side)
            assert f" attainers={graph6_encode(graph)} " in out, (n, t, side)
            assert out.endswith(" graphs_examined=3 coverage=stream(-)\n"), (n, t, side)


@pytest.mark.parametrize("n", [13, 15])
def test_verify_counts_blocks_above_the_subset_tables_on_lanes(capsys, monkeypatch, n):
    # lines of order 13 to 15 are blocks: each gets one mis_lane_counts call
    # and no per-graph count
    calls = []

    def lane_counts(*args, **kwargs):
        calls.append(args[:2])
        return mis_lane_counts(*args, **kwargs)

    monkeypatch.setattr("mismax.counting.mis_lane_counts", lane_counts)
    for name in ("mis_size_profile", "maximal_clique_size_profile"):
        monkeypatch.setattr(f"mismax.counting.{name}", lambda g: pytest.fail("counted per graph"))
    verify_relabeled_extremal_graphs(capsys, monkeypatch, n)
    assert calls == [(n, 3)] * 6


@pytest.mark.parametrize("n", [16, 20, 30])
def test_verify_recognizes_graphs_above_the_block_orders(capsys, monkeypatch, n):
    # lines above order 15 are Graph items, each keyed on its own
    verify_relabeled_extremal_graphs(capsys, monkeypatch, n)


@pytest.mark.parametrize("csv", [False, True])
def test_count_h15_on_lanes_and_h16_line_by_line(capsys, monkeypatch, csv):
    # H(15,5) = 5 K3 has 243 maximal independent sets, the most any graph of
    # order 15 has (Moon-Moser), and a byte lane holds it; H(16,5) = 4 K3 + K4
    # has 324, which a lane would wrap, so order 16 must stay off the lanes;
    # two lines of each make a block of order 15
    calls = []
    monkeypatch.setattr(
        "mismax.counting.mis_lane_counts",
        lambda *args: calls.append(args[0]) or mis_lane_counts(*args),
    )
    argv = ["count", "--csv"] if csv else ["count"]
    for n, count in ((15, 243), (16, 324)):
        stdin = (graph6_encode(build_H(n, 5)) + "\n") * 2
        code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        if csv:
            text = "index,n,counts,total,poly\n" + "".join(
                f'{i},{n},"0,0,0,0,0,{count}",{count},{count}x^5\n' for i in range(2)
            )
        else:
            text = "".join(
                f"graph={i} n={n} counts=0,0,0,0,0,{count} total={count} poly={count}x^5\n"
                for i in range(2)
            )
        assert (code, out, err) == (0, text, "")
    assert calls == [15]


# one line of a block order is no block: count and verify --input take it
# on its own, with no lane kernel call
@pytest.mark.parametrize("n", [13, 15])
def test_one_line_input_goes_line_by_line(capsys, monkeypatch, n):
    calls = []
    monkeypatch.setattr("mismax.counting.mis_lane_counts", lambda *args, **kw: calls.append(args))
    text = graph6_encode(build_H(n, 5)) + "\n"
    count = bound_f(n, 5).f
    assert run(capsys, ["count"], stdin=text, monkeypatch=monkeypatch) == (
        0, f"graph=0 n={n} counts=0,0,0,0,0,{count} total={count} poly={count}x^5\n", ""
    )
    for side in ("mis", "clique"):
        expected = verify_line_by_line(text, 5, side)
        assert verify_blocks(capsys, monkeypatch, text, 5, side) == expected
    assert calls == []


def test_cli_import_skips_multiprocessing():
    # only an exhaustive scan of enough blocks with workers > 1 forks, so
    # only it imports the pool; n = 7 has 34 blocks, too few to pay for one
    src = str(Path(mismax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, mismax.cli\n"
        "code = mismax.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print('multiprocessing' in sys.modules)\n"
        "sys.exit(code)"
    )
    for argv in [], ["verify", "--n", "7", "--all-t", "--workers", "2"]:
        result = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False", argv


HELP = """\
usage: mismax [-h] {count,bound,extremal,verify,trace} ...

Count size-t maximal independent sets, build extremal graphs, and verify the
q^(t-r)(q+1)^r bound.

positional arguments:
  {count,bound,extremal,verify,trace}
    count               per-graph MIS size profiles
    bound               bound decomposition table
    extremal            emit an extremal construction
    verify              verify the bound exhaustively or on a stream
    trace               A/B induction split diagnostics

options:
  -h, --help            show this help message and exit
"""

COUNT_HELP = """\
usage: mismax count [-h] [--format {graph6,edgelist}] [--csv] [input]

positional arguments:
  input                 file or - for stdin

options:
  -h, --help            show this help message and exit
  --format {graph6,edgelist}
  --csv                 tabular CSV output
"""

TRACE_USAGE_ERROR = """\
usage: mismax trace [-h] [--format {graph6,edgelist}] --t T [--v V] [input]
mismax trace: error: the following arguments are required: --t
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--help"], (0, HELP, "")),
        (["count", "--help"], (0, COUNT_HELP, "")),
        (["trace"], (2, "", TRACE_USAGE_ERROR)),
    ],
    ids=["help", "count help", "trace without --t"],
)
def test_help_and_usage_errors(capsys, monkeypatch, argv, expected):
    # the help text wraps at the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == expected


# A command runs in a fresh `python -S`, where no site .pth hook imports
# modules ahead of it, and writes the names of the modules it loaded, from
# its import of mismax.cli on, to the file argv[2].
IMPORT_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from mismax.cli import main
code = main(sys.argv[3:])
with open(sys.argv[2], "w") as fh:
    fh.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

# no command needs these; dataclasses alone pulls in inspect, ast and dis,
# and no command below starts a process pool
NEVER_IMPORTED = {"dataclasses", "inspect", "typing", "multiprocessing"}
# the mismax modules each command loads, by its first word, or two for
# verify: the census certifies verify --n with no graph6 reader, counter or
# search; verify --input loads no scan, and no canon, since K3 is H(3,1),
# which the plane test recognizes, and attains no f(3,2); trace loads no
# verifier
LOADED = {
    "count": {"cli", "graph", "codec", "counting"},
    "bound": {"cli", "graph", "extremal"},
    "extremal": {"cli", "graph", "codec", "counting", "extremal"},
    "verify --n": {"cli", "graph", "extremal", "scan"},
    "verify --input": {"cli", "graph", "codec", "counting", "extremal"},
    "trace": {"cli", "graph", "codec", "counting", "proof"},
}


@pytest.mark.parametrize(
    "command",
    [
        "count GRAPH",
        "bound 6 1..6",
        "extremal 7 3",
        "verify --n 3 --all-t",
        "verify --input GRAPH --t 1",
        "verify --input GRAPH --t 2",
        "trace GRAPH --t 2",
    ],
)
def test_commands_import_only_what_they_run(tmp_path, command):
    src = str(Path(mismax.__file__).resolve().parents[1])
    graph = tmp_path / "graph.g6"
    graph.write_text("Bw\n")
    loaded = tmp_path / "modules.txt"
    argv = [str(graph) if arg == "GRAPH" else arg for arg in command.split()]
    result = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, src, str(loaded), *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    modules = set(loaded.read_text().split("\n"))
    ours = {name for name in modules if name.startswith("mismax.")}
    key = " ".join(argv[:2]) if argv[0] == "verify" else argv[0]
    assert ours == {f"mismax.{name}" for name in LOADED[key]}
    assert modules & NEVER_IMPORTED == set()
