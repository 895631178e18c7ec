"""Host-speed probe: a fixed slice of interpreter work timed while requests run.

The benchmark's host is a few vCPUs of a shared machine whose speed flips
between two levels about 2x apart, from one second to the next, and every
request running at the time slows alike.  While a request runs, a SIGPROF
interval timer times this fixed kernel after every INTERVAL_S of CPU time;
after the request the kernel runs AFTER more times (a short request gets no
sample of its own).  The request's slowdown is the median of those timings
over REFERENCE_S (2.0 while the host runs at half the reference speed),
and run.py reports each request's time in reference seconds: its measured
seconds, less the time the samples took, divided by its slowdown.  The
setup of a run is measured the same way.

The kernel does the kinds of work the program spends its time on (Fraction
and big-integer arithmetic in dicts, multiprecision floats through mpmath's
pure functions) and none of the program's code, so no change to abeldiff
can change it; it touches no global state (not mpmath's precision), and it
runs with the garbage collector off, so the size of the program's heap does
not reach into the measurement either.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_shift

# Median kernel time on the 2-vCPU host the benchmark was written on, at
# its faster level; a run there reads about the wall seconds it would take
# at full speed.
REFERENCE_S = 1.8e-4
INTERVAL_S = 0.05
AFTER = 5

_TWO = from_int(2)


def kernel():
    p = {i: Fraction(i + 1, 2 * i + 3) for i in range(6)}
    q = {}
    for i, a in p.items():
        for j, b in p.items():
            q[i + j] = q.get(i + j, 0) + a * b
    x = _TWO
    for _ in range(8):      # Newton steps towards sqrt(2) at 200 bits
        x = mpf_shift(mpf_add(x, mpf_div(_TWO, x, 200, "n"), 200, "n"), -1)
    return sum(q.values()), x


def _timed_kernel() -> float:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Sampler:
    """Samples the kernel while a call runs."""

    def __init__(self):
        self._times: list[float] = []
        self._inside = 0.0       # seconds the samples took during the call
        self._busy = False

    def _on_prof(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self._times.append(_timed_kernel())
        finally:
            self._inside += time.perf_counter() - start
            self._busy = False

    def measure(self, call):
        """Run call() under sampling; returns (its result, the slowdown
        while it ran, the seconds the samples took inside it)."""
        self._times, self._inside = [], 0.0
        previous = signal.signal(signal.SIGPROF, self._on_prof)
        try:
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        inside = self._inside
        self._times += [_timed_kernel() for _ in range(AFTER)]
        return result, statistics.median(self._times) / REFERENCE_S, inside
