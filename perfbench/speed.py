"""How fast a CPU is running the interpreter right now.

The benchmark's times swing with the CPU's speed, which on a shared
virtual machine drifts by 20-40% over seconds to minutes (frequency
boost, neighbours).  :func:`loop_ms` times a fixed pure-Python loop;
``run.py`` divides measured times by it to express them at a reference
speed.  As a script, this file is the sampler run.py keeps on each CPU:

    python3 perfbench/speed.py CPU PERIOD_S OUT

pins itself to ``CPU`` and, every ``PERIOD_S`` seconds, appends
``<monotonic time> <loop ms>`` to ``OUT`` until terminated.  The loop
is timed in thread CPU time, so neither stolen time nor waiting behind
the program's own processes counts as slowness.
"""

from __future__ import annotations

import os
import signal
import sys
import time

LOOP = 3000
# The loop's time at the reference speed (a 2 GHz vCPU outside boost).
REFERENCE_MS = 0.30


def loop_ms(clock=time.perf_counter) -> float:
    start = clock()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return (clock() - start) * 1000.0


def main(argv) -> int:
    cpu, period, out = int(argv[0]), float(argv[1]), argv[2]
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(out, "w", encoding="ascii", buffering=1) as handle:
        while True:
            handle.write(f"{time.monotonic():.6f} "
                         f"{loop_ms(time.thread_time):.6f}\n")
            time.sleep(period)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
