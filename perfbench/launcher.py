"""Starts the benchmark's child processes from a process that stays small.

The peak RSS that ``wait4`` reports for a process includes the peak of the
address space it was started from: exec records the old address space's
high-water mark, and a child started with vfork or fork from the benchmark
process would carry the benchmark's own (fixtures, loaded models). This
launcher is started before the benchmark allocates anything, imports
nothing heavy, and starts each child itself, so the peak RSS it reports is
the child's own.

Protocol: one JSON list ``[argv, stderr_path, timeout_s]`` per stdin line;
one JSON object ``{code, wall_s, peak_rss_mb, cpu_s}`` per stdout line. It
exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], stderr_path: str, timeout_s: float) -> dict:
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
