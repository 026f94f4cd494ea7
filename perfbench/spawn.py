"""Child-process launcher for the benchmark runner, ``run.py``.

Reads one JSON request per line on standard input, ``{"argv", "out", "err",
"timeout"}``, runs ``python <argv>`` to completion with standard output and
error going to the named files, and answers one JSON line: wall seconds, exit
code, whether it timed out, and the child's ``ru_maxrss`` in KiB from
``os.wait4``.

It is a process of its own because Linux starts a child's ``ru_maxrss`` at
the RSS high-water mark of the process that exec'd it. Children started by
``run.py``, which holds the generated models, would report its peak instead
of their own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], out: str, err: str, timeout: float) -> dict:
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=stdout, stderr=stderr)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "returncode": proc.returncode,
            "timed_out": proc.returncode == -9 and wall >= timeout,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
