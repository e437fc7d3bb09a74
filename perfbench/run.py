"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a qkcolor checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it carries the run's
details: machine, seeds, exact counts, compile/verify split, tracing
overhead.

Load is a closed loop in one thread: jobs run one after another, round
after round, until the next job would end past ``--seconds`` of
measured time.  Round 0 is every job's cold run: it is checked and
counted but left out of the timings.  Every job runs at least twice
(three times with tracing: cold, traced and untraced).

Every time is scaled by a fixed probe workload timed on a timer during
the run (see ``calibrate.py``), so that the host's speed drift cancels.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.calibrate import (INTERPRETER_NOMINAL_S, PROBES,  # noqa: E402
                                 HostClock, interpreter_probe_s)
from perfbench.tracing import (LAYERS, OPS, Recorder,  # noqa: E402
                               op_and_layer_times)

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


@dataclass
class Execution:
    job: int
    cold: bool
    traced: bool
    compile_s: float = 0.0
    verify_s: float = 0.0
    wall_s: float = 0.0
    start: float = 0.0
    raw_pass_s: float = 0.0
    problems: list = field(default_factory=list)
    ops: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def pass_s(self):
        return self.compile_s + self.verify_s

    def rescale(self, factor):
        """Scale every time by ``factor``; keep the raw pass time."""
        self.raw_pass_s = self.pass_s
        self.compile_s *= factor
        self.verify_s *= factor
        self.ops = {k: v * factor for k, v in self.ops.items()}
        self.layers = {k: v * factor for k, v in self.layers.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (a setup_s sample)")
    return ap.parse_args(argv)


def setup(workload, seed, rec):
    """Inputs, coupling graphs and one untimed warm-up job per job kind."""
    from perfbench.workloads import Workload

    wl = Workload(workload, seed, rec)
    for job in wl.warmup:
        try:
            job.run(Recorder(trace=False))
        except Exception:  # the measured executions report it as a failure
            traceback.print_exc(file=sys.stderr)
    return wl


def probe_setup_s(workload, seed):
    """Wall time from process start to ready, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def execute(index, job, rec, round_no, traced, first_output):
    """One job execution: timed calls, then the untimed checks."""
    ex = Execution(index, round_no == 0, traced)
    mark = len(rec.spans)
    start = ex.start = time.perf_counter()
    rec.begin_job(f"{job.name}#{round_no}", traced)
    try:
        art = job.run(rec)
    except Exception as exc:  # the program raised where it must not
        traceback.print_exc(file=sys.stderr)
        art = None
        ex.problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        rec.end_job()
        ex.compile_s, ex.verify_s = rec.compile_s, rec.verify_s
    if art is not None:
        try:
            ex.problems.extend(job.check(art))
        except Exception as exc:  # an output too malformed to check
            traceback.print_exc(file=sys.stderr)
            ex.problems.append(f"check raised {type(exc).__name__}: {exc}")
        output = job.fingerprint(art)
        if output is not None:
            if first_output.setdefault(index, output) != output:
                ex.problems.append("output differs from the first execution")
    ex.wall_s = time.perf_counter() - start
    if traced:
        ex.ops, ex.layers = op_and_layer_times(rec.spans[mark:])
    return ex, art


def measure(wl, rec, seconds, trace):
    """Run rounds over the jobs; return the executions and each job's
    exact counts, taken from its first execution outside the window."""
    jobs = wl.jobs
    execs, counts, first_output = [], {}, {}
    estimate = [0.0] * len(jobs)
    min_rounds = 3 if trace else 2
    spent = 0.0
    for round_no in itertools.count():
        for i, job in enumerate(jobs):
            if round_no >= min_rounds and spent + estimate[i] > seconds:
                return execs, counts
            ex, art = execute(i, job, rec, round_no,
                              trace and round_no % 2 == 1, first_output)
            spent += ex.wall_s
            estimate[i] = ex.wall_s
            if art is not None and i not in counts:
                counts[i] = job.measure(art)
            del art
            execs.append(ex)
            if ex.problems:
                print(f"FAILED {job.name}: {'; '.join(ex.problems)}",
                      file=sys.stderr)


def per_job_sum(execs, value, traced):
    """Sum over jobs of the median of ``value(execution)`` over the job's
    warm executions that were traced (or not)."""
    by_job = defaultdict(list)
    for ex in execs:
        if not ex.cold and ex.traced == traced:
            by_job[ex.job].append(value(ex))
    return sum(statistics.median(v) for v in by_job.values())


def total_counts(counts):
    from perfbench.workloads import COUNT_KEYS

    out = dict.fromkeys(COUNT_KEYS, 0)
    for job_counts in counts.values():
        for key, value in job_counts.items():
            if key == "oracle.max_arity":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(execs, counts, rec):
    """Per-layer values per pass over the job list, from traced executions."""
    out = {f"{op}_s": per_job_sum(execs, lambda ex, op=op: ex.ops[op], True)
           for op in OPS}
    out.update({f"{layer}.self_s":
                per_job_sum(execs, lambda ex, l=layer: ex.layers[l], True)
                for layer in LAYERS})
    out["routing.coupling_s"] = sum(s.duration for s in rec.spans
                                    if s.name == "routing.coupling")
    out.update(counts)
    out["lowering.expansion"] = ratio(out["lowering.gates_out"],
                                      out["lowering.gates_in"])
    out["lowering.ns_per_gate_out"] = 1e9 * ratio(out["lowering.lower_s"],
                                                  out["lowering.gates_out"])
    out["qasm.ns_per_gate"] = 1e9 * ratio(out["qasm.emit_s"],
                                          out["qasm.statements"])
    out["routing.swaps_per_2q"] = ratio(out["routing.swaps"],
                                        out["routing.two_qubit_in"])
    out["routing.depth_ratio"] = ratio(out["routing.depth_out"],
                                       out["routing.depth_in"])
    out["simulator.ns_per_amp_update"] = 1e9 * ratio(out["simulator.run_s"],
                                                     out["simulator.amp_updates"])
    # overhead: traced minus untraced, over jobs that have both
    untraced = {ex.job for ex in execs if not ex.traced and not ex.cold}
    paired = [ex for ex in execs if ex.job in untraced]
    for phase in ("compile", "verify"):
        value = lambda ex, attr=f"{phase}_s": getattr(ex, attr)
        out[f"trace.{phase}_overhead_s"] = (per_job_sum(paired, value, True)
                                            - per_job_sum(paired, value, False))
    return out


def machine():
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "qkcolor" / "__init__.py").is_file():
        print(f"error: no qkcolor package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed, Recorder(trace=False))
        print("ready", flush=True)
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    interpreter = [interpreter_probe_s(PROBE_TIMEOUT_S)]
    raw_setup, setup_samples = [], []
    for _ in range(SETUP_PROBES):
        raw_setup.append(probe_setup_s(args.workload, args.seed))
        interpreter.append(interpreter_probe_s(PROBE_TIMEOUT_S))
        setup_samples.append(raw_setup[-1] * INTERPRETER_NOMINAL_S
                             / statistics.mean(interpreter[-2:]))
    clock = HostClock(*PROBES[args.workload])
    rec = Recorder(trace=bool(args.trace), now=clock.now)
    wl = setup(args.workload, args.seed, rec)
    with clock.running():
        execs, counts = measure(wl, rec, args.seconds, bool(args.trace))
    for ex in execs:
        ex.rescale(clock.scale(ex.start, ex.start + ex.wall_s))

    failed = sum(1 for ex in execs if ex.problems)
    totals = total_counts(counts)
    untraced = lambda attr: per_job_sum(execs, lambda ex: getattr(ex, attr), False)
    info = {
        "workload": args.workload, "seed": args.seed, "sabre_seed": wl.sabre_seed,
        "trace": args.trace, "machine": machine(), "jobs": len(wl.jobs),
        "executions_per_job": sorted({sum(ex.job == i for ex in execs)
                                      for i in range(len(wl.jobs))}),
        "setup_samples_s": setup_samples, "raw_setup_samples_s": raw_setup,
        "compile_s": untraced("compile_s"), "verify_s": untraced("verify_s"),
        "raw_pass_s": untraced("raw_pass_s"),
        "probe": {"samples": len(clock.seconds), "median_s": clock.median_s(),
                  "interpreter_median_s": statistics.median(interpreter)},
        "counts": totals,
    }
    if args.trace:
        values = layer_metrics(execs, totals, rec)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec.write(spans_file)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        info["tracing_overhead_s"] = {p: values[f"trace.{p}_overhead_s"]
                                      for p in ("compile", "verify")}
        for layer in LAYERS:
            print(f"self time {layer:<10} {values[f'{layer}.self_s']:.6f} s")
    else:
        values = {
            "pass_s": untraced("pass_s"),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": 1.0 - failed / len(execs),
            **totals,
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(execs), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
