"""The traced run: an in-process replay of the workload's command with a span
around every call into the library, plus seeded probes of each layer.

Per-call metrics are means over every span of that function in the traced
run. The probes make sure each one is called on every workload: a sample of
the workload's own graphs goes through decode, encode, complement, the
kernel and the MIS profile; fixed seeded graphs go through
``canonical_form``; and the extremal verifiers are probed only when the
replay did not call them (an n=6 scan, a stream over the sample). Layer
shares and ``cli.self_s`` come from the replay's spans alone.
"""

from __future__ import annotations

import contextlib
import statistics
import time

from spans import LAYERS, Tracer

EXHAUSTIVE_WORKERS = 2  # as in exhaustive-n7's command; the probe scan uses it too
PROBE_STREAM_T = 3


def traced_run(run, seed: int, work) -> tuple[dict, dict]:
    """Per-layer metrics as result-line entries, and the work counters."""
    import mismax.cli
    from mismax import canon, codec, counting, extremal, graph
    from workloads import canon_probe_graphs

    w = run.workload
    counters = {"counting.maximal_sets": 0, "extremal.attainers": 0, "extremal.graphs_examined": 0}

    def on_profile(profile) -> None:
        counters["counting.maximal_sets"] += profile.total()

    def on_reports(reports) -> None:
        reports = reports if isinstance(reports, list) else [reports]
        counters["extremal.attainers"] += sum(len(r.attainers) for r in reports)
        counters["extremal.graphs_examined"] += reports[0].graphs_examined

    hooks = {
        "counting.mis_size_profile": on_profile,
        "counting.maximal_clique_size_profile": on_profile,
        "extremal.verify_bound_exhaustive": on_reports,
        "extremal.verify_bound_stream": on_reports,
    }
    canon_graphs = {
        name: (graph.from_edges(n, edges), reps)
        for name, (n, edges, reps) in canon_probe_graphs(seed).items()
    }
    out, err = work / f"{w.name}-traced.out", work / f"{w.name}-traced.err"
    tracer = Tracer()
    tracer.instrument(hooks)
    try:
        with open(out, "w") as fo, open(err, "w") as fe:
            with contextlib.redirect_stdout(fo), contextlib.redirect_stderr(fe):
                with tracer.span("cli.main") as root:
                    code = mismax.cli.main(w.argv)
        names = set(tracer.names)
        with tracer.span("probe"):
            for line in w.sample:
                g = codec.graph6_decode(line)
                codec.graph6_encode(g)
                counting.maximal_clique_size_profile(graph.complement(g))
                counting.mis_size_profile(g)
            for name, (g, reps) in canon_graphs.items():
                with tracer.span(f"probe.canon.{name}"):
                    for _ in range(reps):
                        canon.canonical_form(g)
            if "extremal.verify_bound_exhaustive" not in names:
                extremal.verify_bound_exhaustive(w.serial_order, workers=EXHAUSTIVE_WORKERS)
            if "extremal.verify_bound_stream" not in names:
                sample = [codec.graph6_decode(line) for line in w.sample]
                extremal.verify_bound_stream(sample, PROBE_STREAM_T)
    finally:
        tracer.restore()
    run.attempted += 1
    if code != 0:
        run.fail(f"traced replay exited {code}: {err.read_text()[-500:]}")
    else:
        run.check_output(out.read_text())

    # untraced: one worker, for the parallel efficiency of the exhaustive scan
    started = time.perf_counter()
    extremal.verify_bound_exhaustive(w.serial_order, workers=1)
    serial_s = time.perf_counter() - started
    tracer.write(work / f"{w.name}-{seed}-spans.csv")

    dur = tracer.durations_ns()
    own = tracer.self_times_ns()
    by_name: dict[str, list[int]] = {}
    for index, nid in enumerate(tracer.name_id):
        by_name.setdefault(tracer.names[nid], []).append(index)

    def mean_us(name: str) -> float:
        spans = by_name[name]
        return sum(dur[i] for i in spans) / len(spans) / 1e3

    total_ns = dur[root]
    layer_self = dict.fromkeys(LAYERS, 0)
    for index in tracer.subtree(root):
        layer = tracer.names[tracer.name_id[index]].split(".")[0]
        if layer in layer_self:
            layer_self[layer] += own[index]

    ref_wall = statistics.median(run.walls)
    ref_setup = statistics.median(run.setups)
    exhaustive_s = mean_us("extremal.verify_bound_exhaustive") / 1e6
    scan_graphs = 1 << (w.serial_order * (w.serial_order - 1) // 2)
    metrics = {
        "codec.graph6_decode_us": (mean_us("codec.graph6_decode"), "us"),
        "codec.graph6_encode_us": (mean_us("codec.graph6_encode"), "us"),
        "graph.construct_us": (mean_us("graph.Graph"), "us"),
        "graph.complement_us": (mean_us("graph.complement"), "us"),
        "counting.kernel_us": (mean_us("counting.maximal_clique_size_profile"), "us"),
        "counting.mis_size_profile_us": (mean_us("counting.mis_size_profile"), "us"),
        "counting.maximal_sets": (counters["counting.maximal_sets"], "count"),
        "extremal.verify_exhaustive_s": (exhaustive_s, "s"),
        "extremal.scan_us_per_graph": (serial_s / scan_graphs * 1e6, "us"),
        "extremal.parallel_efficiency": (serial_s / (EXHAUSTIVE_WORKERS * exhaustive_s), "ratio"),
        "extremal.verify_stream_s": (mean_us("extremal.verify_bound_stream") / 1e6, "s"),
        "extremal.attainers": (counters["extremal.attainers"], "count"),
        "extremal.graphs_examined": (counters["extremal.graphs_examined"], "count"),
        "canon.calls": (len(by_name.get("canon.canonical_form", [])), "count"),
    }
    for name in canon_graphs:
        (probe,) = by_name[f"probe.canon.{name}"]
        calls = [dur[i] for i in by_name["canon.canonical_form"] if tracer.parent[i] == probe]
        metrics[f"canon.form_us_{name}"] = (statistics.median(calls) / 1e3, "us")
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (layer_self[layer] / total_ns, "share")
    metrics["cli.self_s"] = (own[root] / 1e9, "s")
    metrics["trace.overhead_share"] = (total_ns / 1e9 / (ref_wall - ref_setup) - 1, "share")

    print(f"traced replay {total_ns / 1e9:.6g} s, {len(dur)} spans, serial scan n={w.serial_order} {serial_s:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    counters = {
        name: metrics[name][0]
        for name in ("counting.maximal_sets", "canon.calls", "extremal.attainers", "extremal.graphs_examined")
    }
    return result, counters
