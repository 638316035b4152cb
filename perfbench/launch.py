"""Small launcher that runs each CLI command for run.py and reports its rusage.

A child's ru_maxrss starts from the size of the process that forked it, so
the commands are forked from this process, started before run.py grows,
rather than from run.py itself. Protocol: one JSON request per stdin line,
``{"argv": [...], "cwd": ..., "env": {...}, "out": path, "err": path,
"timeout": s}``; one JSON reply per stdout line, ``{"wall_s": ...,
"maxrss_kb": ..., "exit": ...}``. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["out"], "wb") as fo, open(request["err"], "wb") as fe:
        started = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
        )
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            # the rusage of this child alone, its pool workers included
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
