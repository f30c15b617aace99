"""Speed probe: time two fixed loops, again and again, until stopped.

    python3 perfbench/probe.py PERIOD_S

run.py starts one on the CPU that a round's process is pinned to.  Every
PERIOD_S it runs a pure-Python loop and a numpy loop once each and prints
one line, `<CLOCK_MONOTONIC at the middle> <cost>`, where cost is the
geometric mean of the CPU seconds the two loops took.  The workloads mix
interpreter-bound and numpy-bound work, and the two loops slow down by
different amounts when the machine does.  The probe times its own CPU
time, not wall time: the moments the round's process holds the CPU do not
count, but a CPU that runs slower makes the loops take longer.  It runs
until it is terminated.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

PY_ITERATIONS = 30_000
NP_REPEATS = 20
PHASES = np.linspace(0.0, 1.0, 2048)


def py_loop() -> int:
    acc = 0
    for i in range(PY_ITERATIONS):
        acc += i * i
    return acc


def np_loop() -> None:
    for _ in range(NP_REPEATS):
        np.exp(1j * PHASES)


def main() -> int:
    period = float(sys.argv[1])
    while True:
        wall0, cpu0 = time.monotonic(), time.process_time()
        py_loop()
        cpu1 = time.process_time()
        np_loop()
        cpu2, wall1 = time.process_time(), time.monotonic()
        cost = math.sqrt((cpu1 - cpu0) * (cpu2 - cpu1))
        print(f"{(wall0 + wall1) / 2.0!r} {cost!r}", flush=True)
        time.sleep(period)


if __name__ == "__main__":
    sys.exit(main())
