"""mismax benchmark: one seeded workload through the ``mismax`` CLI.

    python3 perfbench/run.py --workload count-n9 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is run from ``src/`` as
``python -m mismax.cli``. Inputs, outputs, spans and the counter records go
to ``.perfbench_work/``. See ``perfbench/README.md`` for what each metric
means and which layer should move it.

``--trace 0`` times the CLI command in a closed loop with one client (the
next command starts when the last has ended) for ``--seconds`` seconds,
at least once. Each command is a fresh process whose stdout goes to a file.
``--trace 1`` does the same as a reference, then replays the command
in-process with a span around every call into the library's public
functions, and runs the layer probes. The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 7
CLI_TIMEOUT_S = 120
END_TO_END_UNITS = {"wall_s": "s", "graphs_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class Run:
    """Invocation results and failures of one benchmark run."""

    def __init__(self, workload, launcher: subprocess.Popen) -> None:
        self.workload = workload
        self.launcher = launcher
        self.attempted = 0
        self.failures: list[str] = []
        self.walls: list[float] = []
        self.rss_mb: list[float] = []
        self.setups: list[float] = []
        self.digest: str | None = None

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL {self.workload.name}: {message}", file=sys.stderr)

    def cli(self, argv: list[str], tag: str) -> tuple[float, float, str] | None:
        """Run the CLI once; (wall s, peak RSS MB, stdout) or None on failure."""
        self.attempted += 1
        out, err = WORK / f"{tag}.out", WORK / f"{tag}.err"
        request = {
            "argv": [sys.executable, "-m", "mismax.cli", *argv],
            "cwd": str(ROOT),
            "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "out": str(out),
            "err": str(err),
            "timeout": CLI_TIMEOUT_S,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        if reply["exit"] != 0:
            self.fail(f"{' '.join(argv)} exited {reply['exit']}: {err.read_text()[-500:]}")
            return None
        return reply["wall_s"], reply["maxrss_kb"] / 1024, out.read_text()

    def check_output(self, text: str) -> None:
        """Full check on the first output; later outputs must match its digest."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            problem = self.workload.check(text)
            if problem is not None:
                self.fail(problem)
                return
            self.digest = digest
        elif digest != self.digest:
            self.fail(f"output digest {digest[:16]} differs from {self.digest[:16]}")

    def measure(self, seconds: float) -> None:
        w = self.workload
        for _ in range(SETUP_REPS):
            result = self.cli(w.setup_argv, f"{w.name}-setup")
            if result is not None:
                problem = w.check_setup(result[2])
                if problem is not None:
                    self.fail(f"setup: {problem}")
                else:
                    self.setups.append(result[0])
        started = time.perf_counter()
        # closed loop, one client; stop before a command would overrun the window
        while not self.walls or time.perf_counter() - started + statistics.median(self.walls) <= seconds:
            result = self.cli(w.argv, w.name)
            if result is None:
                break
            wall, rss, text = result
            self.walls.append(wall)
            self.rss_mb.append(rss)
            self.check_output(text)


def describe(name: str, values: list[float], unit: str) -> None:
    """Print a metric's median and quartiles over the commands of this run."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print(f"{name} median={statistics.median(values):.6g} q1={q1:.6g} q3={q3:.6g} "
          f"samples={len(values)} unit={unit} values={','.join(f'{v:.4g}' for v in values)}")


def end_to_end(run: Run) -> dict[str, list[float]]:
    return {
        "wall_s": run.walls,
        "graphs_per_s": [run.workload.graphs / w for w in run.walls],
        "peak_rss_mb": run.rss_mb,
        "setup_s": run.setups,
    }


def code_id() -> str:
    """Hash of the library source, so records only compare runs of one code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mismax").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_record(run: Run, seed: int, values: dict[str, object]) -> None:
    """Fail if a deterministic value differs from the one an earlier run of the
    same code, workload and seed recorded."""
    path = WORK / "records" / code_id() / f"{run.workload.name}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = json.loads(path.read_text()) if path.exists() else {}
    for key, value in values.items():
        if key in record and record[key] != value:
            run.fail(f"{key} is {value}, an earlier run recorded {record[key]}")
        record.setdefault(key, value)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mismax" / "cli.py").is_file():
        sys.exit(f"perfbench: no mismax source at {SRC / 'mismax'}; run from a repo checkout")
    os.chdir(ROOT)
    # started first, while this process is small (see launch.py)
    launcher = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        return measure_and_report(args, launcher)
    finally:
        launcher.stdin.close()
        launcher.wait()


def measure_and_report(args: argparse.Namespace, launcher: subprocess.Popen) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workload.generate(args.seed, WORK)
    run = Run(workload, launcher)
    run.measure(args.seconds)
    if not run.walls or not run.setups:
        run.fail("no successful command to measure")
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": len(run.failures), "metrics": {}}))
        return 0
    recorded: dict[str, object] = {"output_sha256": run.digest} if run.digest else {}
    if args.trace:
        from layers import traced_run

        describe("reference wall_s", run.walls, "s")
        metrics, counters = traced_run(run, args.seed, WORK)
        recorded.update(counters)
    else:
        metrics = {}
        for name, values in end_to_end(run).items():
            describe(name, values, END_TO_END_UNITS[name])
            metrics[name] = {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
    check_record(run, args.seed, recorded)
    failed = len(run.failures)
    print(f"workload={workload.name} seed={args.seed} attempted={run.attempted} "
          f"failed={failed} error_rate={failed / run.attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
