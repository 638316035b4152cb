"""Command-line surface: count, bound, extremal, verify, trace.

Exit codes: 0 success, 1 verification failure (bound violated or attainer
set not the expected one), 2 usage or parse errors. Stdout is deterministic
for fixed inputs and flags; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from functools import lru_cache

# count runs on these alone; the other commands import extremal, and with it
# canon, when they run
from .codec import (
    graph6_encode,
    read_edge_list,
    read_graph6_blocks,
    read_graph6_stream,
    write_edge_list,
)
from .counting import SizeProfile, mis_lane_counts, mis_size_profile, polynomial_string
from .graph import Graph


@contextmanager
def _opened(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r") as fh:
            yield fh


def _read_graphs(path: str, fmt: str) -> Iterator[Graph]:
    with _opened(path) as fh:
        if fmt == "graph6":
            yield from read_graph6_stream(fh)
        else:
            yield read_edge_list(fh.read())


def _parse_t_range(spec: str) -> tuple[int, int]:
    """The first and last t of a single t or a range like 1..6."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise SystemExit2(f"empty t range {spec}")
        return lo, hi
    t = int(spec)
    return t, t


# Lines of a block that count formats and writes at once; one join per block
# would hold every line of a 16,384-graph block in memory.
_WRITE_LINES = 2048


@lru_cache(maxsize=4096)
def _count_fields(counts: Sequence[int], csv: bool) -> str:
    """A count line after its index, from n to the newline, for the counts
    of sizes 0..n. Streams repeat few distinct profiles, so each is
    formatted once; the cap bounds the memory."""
    profile = SizeProfile(len(counts) - 1, tuple(counts))
    coeffs = profile.coefficients()
    counts_str = ",".join(str(c) for c in coeffs)
    poly = polynomial_string(coeffs)
    if csv:
        return f'{profile.n},"{counts_str}",{profile.total()},{poly}\n'
    return f"n={profile.n} counts={counts_str} total={profile.total()} poly={poly}\n"


def cmd_count(args: argparse.Namespace) -> int:
    out = sys.stdout
    csv = args.csv
    if csv:
        out.write("index,n,counts,total,poly\n")
    head, sep = ("", ",") if csv else ("graph=", " ")
    index = 0
    with _opened(args.input) as fh:
        if args.format == "graph6":
            items = read_graph6_blocks(fh)
        else:
            items = [read_edge_list(fh.read())]
        for item in items:
            if isinstance(item, Graph):
                fields = _count_fields(mis_size_profile(item).counts, csv)
                out.write(f"{head}{index}{sep}{fields}")
                index += 1
                continue
            # a block: its size columns interleaved, so that the counts of
            # graph g are the slice rows[g*k:(g+1)*k], as bytes, which the
            # format cache can hash
            k = item.n + 1
            rows = bytearray(k * item.size)
            for s, column in enumerate(mis_lane_counts(item.n, item.size, item.columns)):
                rows[s::k] = column
            rows = bytes(rows)
            for first in range(0, item.size, _WRITE_LINES):
                graphs = range(first, min(first + _WRITE_LINES, item.size))
                out.write("".join([
                    f"{head}{index + g}{sep}{_count_fields(rows[g * k:g * k + k], csv)}"
                    for g in graphs
                ]))
            index += item.size
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    from .extremal import bound_f

    # bound_f rejects a bad n or a t below 1, so the first t checks every row
    # before the header: an error prints nothing, and the rows stream after it
    lo, hi = _parse_t_range(args.t)
    bound_f(args.n, lo)
    sys.stdout.write("n,t,q,r,f\n")
    for t in range(lo, hi + 1):
        d = bound_f(args.n, t)
        sys.stdout.write(f"{d.n},{d.t},{d.q},{d.r},{d.f}\n")
    return 0


def cmd_extremal(args: argparse.Namespace) -> int:
    from .extremal import build_H, build_turan

    n, t = args.n, args.t
    g = build_H(n, t) if args.which == "H" else build_turan(n, t)
    if args.format == "graph6":
        sys.stdout.write(graph6_encode(g) + "\n")
    else:
        sys.stdout.write(write_edge_list(g))
    return 0


def _format_attainers(forms) -> str:
    """The graph6 of each CanonicalForm, joined by |, or - for none."""
    return "|".join(graph6_encode(cf.to_graph()) for cf in forms) or "-"


def _print_report(report) -> None:
    sys.stdout.write(
        f"n={report.n} t={report.t} f={report.f} "
        f"max_observed={report.max_observed} "
        f"bound_holds={str(report.bound_holds).lower()} "
        f"unique_attainer={str(report.unique_attainer).lower()} "
        f"attainers={_format_attainers(report.attainers)} "
        f"graphs_examined={report.graphs_examined} "
        f"coverage={report.coverage}\n"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    from .extremal import verify_bound_exhaustive, verify_bound_stream

    started = time.monotonic()
    reports = []
    if args.input is not None:
        scan_flags = {"--n": args.n, "--workers": args.workers}
        given = [flag for flag, value in scan_flags.items() if value is not None]
        if given:
            raise SystemExit2(f"{' and '.join(given)} cannot be combined with --input")
        if args.t is None:
            raise SystemExit2("--t is required with --input")
        graphs = _read_graphs(args.input, "graph6")
        reports.append(
            verify_bound_stream(graphs, args.t, side=args.side, source=args.input)
        )
        exhaustive = False
    else:
        if args.n is None:
            raise SystemExit2("one of --n or --input is required")
        if args.t is None and not args.all_t:
            raise SystemExit2("give --t or --all-t")
        ts = None if args.all_t else [args.t]
        reports.extend(
            verify_bound_exhaustive(
                args.n,
                ts=ts,
                side=args.side,
                workers=1 if args.workers is None else args.workers,
            )
        )
        exhaustive = True
    ok = True
    for report in reports:
        _print_report(report)
        if not report.bound_holds or (exhaustive and not report.unique_attainer):
            ok = False
    sys.stderr.write(f"wall_time={time.monotonic() - started:.3f}s\n")
    return 0 if ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from .extremal import AUTO, induction_split, proof_subcase

    graphs = list(_read_graphs(args.input, args.format))
    if len(graphs) != 1:
        raise SystemExit2(f"trace expects exactly one graph, got {len(graphs)}")
    g = graphs[0]
    v: int | str = AUTO if args.v == "auto" else int(args.v)
    report = induction_split(g, args.t, v)
    subcase = proof_subcase(g, args.t)
    sys.stdout.write(
        f"n={g.n} t={report.t} v={report.v} subcase={subcase} "
        f"a_count={report.a_count} b_count={report.b_count} "
        f"nbhd_count={report.nbhd_count} gminus_count={report.gminus_count} "
        f"total={report.a_count + report.b_count}\n"
    )
    return 0


class SystemExit2(Exception):
    """Usage error; main converts to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mismax",
        description="Count size-t maximal independent sets, build extremal "
        "graphs, and verify the q^(t-r)(q+1)^r bound.",
    )
    # the prog argparse would derive, the parser's usage without its options;
    # deriving it formats that usage on every run
    sub = parser.add_subparsers(dest="command", required=True, prog="mismax")

    p = sub.add_parser("count", help="per-graph MIS size profiles")
    p.add_argument("input", nargs="?", default="-", help="file or - for stdin")
    p.add_argument("--format", choices=["graph6", "edgelist"], default="graph6")
    p.add_argument("--csv", action="store_true", help="tabular CSV output")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bound", help="bound decomposition table")
    p.add_argument("n", type=int)
    p.add_argument("t", help="single t or range like 1..6")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("extremal", help="emit an extremal construction")
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--which", choices=["H", "turan"], default="H")
    p.add_argument("--format", choices=["graph6", "edgelist"], default="graph6")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("verify", help="verify the bound exhaustively or on a stream")
    p.add_argument("--n", type=int, default=None, help="exhaustive scan order")
    p.add_argument("--input", default=None, help="graph6 stream file or - for stdin")
    which_t = p.add_mutually_exclusive_group()
    which_t.add_argument("--t", type=int, default=None)
    which_t.add_argument("--all-t", action="store_true")
    p.add_argument("--side", choices=["mis", "clique"], default="mis")
    # None marks a flag not given, which --input rejects
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="scan processes (default 1); --n 8 scans 2^28 graphs, about 20 s with one",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace", help="A/B induction split diagnostics")
    p.add_argument("input", nargs="?", default="-", help="file or - for stdin")
    p.add_argument("--format", choices=["graph6", "edgelist"], default="graph6")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--v", default="auto", help="vertex index or 'auto'")
    p.set_defaults(func=cmd_trace)

    return parser


@contextmanager
def _any_int_digits():
    """Lift Python's cap on int -> str digits (4300 since 3.11, and in the
    3.10 security releases) while the block runs: f(n,t) can be longer."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _any_int_digits():
            return args.func(args)
    except (ValueError, SystemExit2, OSError) as exc:  # CodecError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
