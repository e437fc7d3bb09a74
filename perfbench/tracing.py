"""Timing and span recording around the benchmark's calls into qkcolor.

Every call the benchmark makes into the package goes through
``Recorder.call``.  The call's wall time always goes to the current job
execution's compile or verify total; with tracing on, the call is also
kept as a span.  Spans stay in memory and are written out when the
benchmark ends.

A call that takes less than ``REPEAT_UNTIL_S`` is run again, up to
``MAX_RUNS`` runs in all, and its time is the median run: single runs of
millisecond calls read the machine's noise more than the program.  The
package's functions return new objects and change none of their
arguments, so a repeat changes no result.

Span names are ``<layer>.<op>``, where the layer is the qkcolor module
that does the work.  Calls into the simulator, the brute-force
enumerator and the coupling-constraint checker are verification; every
other call is compilation.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

LAYERS = ("graphs", "classical", "oracle", "grover", "lowering", "routing",
          "qasm", "simulator")
OPS = frozenset({
    "graphs.parse", "graphs.make_instance", "classical.solutions",
    "oracle.plan", "oracle.build", "grover.make_job", "grover.assemble",
    "lowering.lower", "routing.coupling", "routing.route", "routing.check",
    "qasm.emit", "simulator.run", "simulator.pattern", "simulator.probabilities",
})
REPEAT_UNTIL_S = 0.02
MAX_RUNS = 5

VERIFY_OPS = frozenset({
    "classical.solutions", "routing.check", "simulator.run",
    "simulator.pattern", "simulator.probabilities",
})


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Times calls and, when ``trace`` is set, records them as spans.

    Spans of one job execution share its job id and hang under one root
    span named ``job``.  ``begin_job(..., traced=False)`` times a job
    execution without recording it, for measuring the tracing overhead.
    Times are read from ``now``, by default ``time.perf_counter``.
    """

    def __init__(self, trace: bool, now=time.perf_counter):
        self.trace = trace
        self.now = now
        self.recording = trace
        self.spans: list[Span] = []
        self.job = "setup"
        self.compile_s = 0.0
        self.verify_s = 0.0
        self._next_id = 0
        self._root: tuple[int, float] | None = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def begin_job(self, job_id: str, traced: bool) -> None:
        self.job = job_id
        self.compile_s = self.verify_s = 0.0
        self.recording = self.trace and traced
        if self.recording:
            self._root = (self._new_id(), self.now())

    def end_job(self) -> None:
        if self.recording:
            sid, start = self._root
            self.spans.append(Span(sid, "job", start, self.now(),
                                   None, self.job))
        self._root = None
        self.recording = self.trace
        self.job = "setup"

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, timed and, when recording, kept as a span
        that starts with the call and lasts its median run."""
        if name not in OPS:
            raise ValueError(f"unknown span name {name!r}")
        start = self.now()
        result = fn(*args, **kwargs)
        runs = [self.now() - start]
        while sum(runs) < REPEAT_UNTIL_S and len(runs) < MAX_RUNS:
            again = self.now()
            fn(*args, **kwargs)
            runs.append(self.now() - again)
        seconds = statistics.median(runs)
        if name in VERIFY_OPS:
            self.verify_s += seconds
        else:
            self.compile_s += seconds
        if self.recording:
            parent = self._root[0] if self._root else None
            self.spans.append(Span(self._new_id(), name, start, start + seconds,
                                   parent, self.job))
        return result

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def op_and_layer_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Summed duration per span name and summed self time per layer.

    The ``job`` root spans are benchmark glue and belong to no layer.
    """
    own = self_times(spans)
    ops = dict.fromkeys(OPS, 0.0)
    layers = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s.name == "job":
            continue
        ops[s.name] += s.duration
        layers[s.name.split(".", 1)[0]] += own[s.id]
    return ops, layers
