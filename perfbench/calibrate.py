"""Fixed probe workloads that put the benchmark's times on one scale.

On a shared virtual machine the speed of the same code drifts by a
third, over seconds to minutes, with the load of the other guests.  A
run's median then reads the host's state more than the program.  The
benchmark therefore times a small fixed probe every ``PROBE_EVERY_S`` of
wall time, from a ``SIGALRM`` handler, so that the probes land inside
the job executions.  Each execution's time is then reported as

    seconds * nominal / mean probe seconds around the execution,

the time the execution would take on a host where the probe takes its
nominal time.  The probes share no code with qkcolor, so a change to the
program moves the scaled times as much as the raw ones; only the host's
drift cancels.  Time spent in probes is left out of every timed call
(see ``HostClock.now``), and raw times stay on the details line.

Set-up is timed in fresh processes, so its probe is a fresh process
too: an interpreter that imports numpy and exits, timed before and after
each set-up sample.

The drift does not slow all code alike, so each workload is scaled by a
probe of the kind of work that dominates it: interpreted Python for
routing and emission, small numpy vector updates for the simulator.
"""
from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

PROBE_EVERY_S = 0.05
# Probes are averaged over at least this much wall time around an interval.
MIN_WINDOW_S = 1.0
# The interpreter probe's median time on the 2-vCPU Xeon VM.
INTERPRETER_NOMINAL_S = 0.14


class _Node:
    __slots__ = ("key", "cost")

    def __init__(self, key, cost):
        self.key = key
        self.cost = cost

    def step(self, x):
        return (self.key + x) & 1023, self.cost ^ x


def python_probe() -> int:
    """Interpreted work: integer arithmetic, dict and set updates, list
    and tuple traffic, method calls on small objects and a heap."""
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    table, window = {}, []
    for i in range(1000):
        k = (i * 2654435761) & 4095
        table[k] = table.get(k, 0) + i
        window.append(k)
        if len(window) > 64:
            acc ^= window.pop(0)
    nodes = [_Node(i, i * 7) for i in range(100)]
    seen = set()
    for r in range(3):
        for node in nodes:
            key, cost = node.step(r)
            if cost & 3 == 0:
                seen.add((key, cost))
    heap = []
    for i in range(300):
        heapq.heappush(heap, ((i * 40503) & 65535, i))
    while heap:
        acc ^= heapq.heappop(heap)[1]
    return acc + len(table) + len(seen)


_DIM = 4096
_INDEX = np.arange(_DIM)
_H = 0.7071067811865476


def numpy_probe() -> float:
    """A Hadamard on each of 12 qubits of a 4096-amplitude vector, by
    masked gathers and scatters as a statevector simulator does them."""
    amps = np.zeros(_DIM, dtype=complex)
    amps[0] = 1.0
    for q in range(12):
        lo = _INDEX[(_INDEX & (1 << q)) == 0]
        hi = lo | (1 << q)
        a, b = amps[lo], amps[hi]
        amps[lo] = (a + b) * _H
        amps[hi] = (a - b) * _H
    return float(np.vdot(amps, amps).real)


# Each workload's probe and its median time on the 2-vCPU Xeon VM the
# bounds were set on.
PROBES = {
    "synth-wide": (python_probe, 0.001),
    "route-small": (python_probe, 0.001),
    "simulate": (numpy_probe, 0.0005),
    "check-small": (numpy_probe, 0.0005),
}


def interpreter_probe_s(timeout: float) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=timeout)
    return time.perf_counter() - start


class HostClock:
    """Probe times, taken on a timer while ``running``, and the scale
    factor they give an interval of wall time."""

    def __init__(self, probe, nominal_s: float):
        self.probe = probe
        self.nominal_s = nominal_s
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.stolen_s = 0.0

    def _probe(self, signum=None, frame=None):
        start = time.perf_counter()
        self.probe()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.seconds.append(took)
        self.stolen_s += took

    def now(self) -> float:
        """``perf_counter`` minus the time spent in probes so far."""
        return time.perf_counter() - self.stolen_s

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """The nominal probe time over the mean one in [start, end],
        widened about its middle to at least MIN_WINDOW_S."""
        half = max(end - start, MIN_WINDOW_S) / 2
        mid = (start + end) / 2
        lo = bisect.bisect_left(self.starts, mid - half)
        hi = bisect.bisect_right(self.starts, mid + half)
        if lo == hi:
            raise ValueError("no probe near the interval")
        return self.nominal_s / (sum(self.seconds[lo:hi]) / (hi - lo))

    def median_s(self) -> float:
        return statistics.median(self.seconds)
