"""Run one command; write its exit code, wall time and peak memory.

    python3 -I -S perfbench/launch.py RESULT.json TIMEOUT_S CMD [ARG...]

The benchmark starts every stage through this small, freshly started
process: exec records the parent's memory high-water mark as the
child's starting peak, so a stage started straight from the benchmark
(which holds pairs and spans in memory) would report the benchmark's
peak instead of its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    out, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out, "w") as fh:
        # ru_maxrss covers the stage and its waited-for --jobs workers
        json.dump({"returncode": proc.returncode, "wall_s": wall,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)


if __name__ == "__main__":
    main()
