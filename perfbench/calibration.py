"""Machine-speed calibration, so that timings taken at different moments compare.

The benchmark runs on shared machines whose speed for allocation-heavy
Python drifts by tens of percent over minutes, while the job list is fixed.
Between jobs the benchmark asks a ``Sidecar`` for one ``sample()``: a fixed
9 x 9 ``Fraction`` elimination and a fixed 24 x 24 integer Bareiss
elimination, the same kinds of work as lefdist's exact kernels.  The sidecar
is a separate interpreter, started in isolated mode, that never imports
lefdist, so the samples share neither the program's heap nor its
garbage-collector state, and a change to the program cannot change them.
The caller waits while the sidecar works, so the two never compete for the
CPU.  ``pin_to_one_cpu()`` keeps the benchmark and every process it starts
on one CPU, so the samples time the CPU the jobs run on.
``slowdown(samples)`` is the median sample over REFERENCE_S; end-to-end
times are divided by it (and throughputs multiplied), which expresses them
at the reference speed.  The raw values are reported next to them.

Run as a script, this file is the sidecar: for each line on stdin it prints
the seconds one sample took.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# a typical median of sample() on the machine the benchmark was tuned on (x86_64 Xeon,
# 2 vCPU, Python 3.11); only a unit, it must never change
REFERENCE_S = 0.0022

_N = 9
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) + 3 * (i == j) for j in range(_N)]
           for i in range(_N)]
_INT_N = 24
_INT_MATRIX = [[(i * 31 + j * 17) % 23 - 11 + 60 * (i == j) for j in range(_INT_N)] for i in range(_INT_N)]


def _fraction_elimination() -> float:
    """Seconds taken by Gauss-Jordan elimination of _MATRIX over the rationals."""
    t0 = time.perf_counter()
    a = [row[:] for row in _MATRIX]
    for c in range(_N):
        p = next(i for i in range(c, _N) if a[i][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(_N):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return time.perf_counter() - t0


def _integer_elimination() -> float:
    """Seconds taken by fraction-free Bareiss elimination of _INT_MATRIX (no pivot is 0)."""
    t0 = time.perf_counter()
    a = [row[:] for row in _INT_MATRIX]
    prev = 1
    for c in range(_INT_N - 1):
        for i in range(c + 1, _INT_N):
            for j in range(c + 1, _INT_N):
                a[i][j] = (a[c][c] * a[i][j] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return time.perf_counter() - t0


def sample() -> float:
    """Geometric mean of the seconds taken by the two fixed exact eliminations.

    On the machine this was tuned on, over minutes of drift, job time grew
    about as the 0.8th power of the rational elimination's time, and about in
    proportion to the integer elimination's time but with more noise.  Their
    geometric mean tracked the jobs of all workloads best of the probes tried.
    """
    return math.sqrt(_fraction_elimination() * _integer_elimination())


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference the machine ran: median sample / REFERENCE_S."""
    return statistics.median(samples) / REFERENCE_S


def pin_to_one_cpu():
    """Run this process, and the processes it starts from now on, on one of its CPUs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sidecar:
    """A child interpreter that times ``sample()`` on request."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.sample()  # the first sample runs on cold caches; it is not used

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration sidecar exited with {self._proc.wait()}")
        return float(line)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(sample()), flush=True)
