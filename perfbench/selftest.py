"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file name keeps these out of the repository's default test run: the
pinned counts below are those of the lowering the benchmark was written
against, and change on purpose when the lowering does.
"""
from __future__ import annotations

import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

import qkcolor as qk  # noqa: E402
from qkcolor.cli import main as cli  # noqa: E402
from perfbench.calibrate import (MIN_WINDOW_S, PROBES,  # noqa: E402
                                HostClock, numpy_probe)
from perfbench.tracing import Recorder  # noqa: E402
from perfbench.workloads import (GraphInput, SynthJob, Workload,  # noqa: E402
                                 complete, coupling_text)


def _counts(workload, seed, pick):
    """Exact counts of the picked jobs of a workload, one execution each."""
    wl = Workload(workload, seed, Recorder(trace=False))
    out = {}
    for job in pick(wl.jobs):
        art = job.run(Recorder(trace=False))
        assert job.check(art) == [], job.name
        out[job.name] = job.measure(art)
    return out


# A cheap slice of every workload: synth-wide's paper job, the K3 routes,
# two simulations (one not colourable) and the first twenty oracle checks
# plus the Grover comparison.
SLICES = {
    "synth-wide": lambda jobs: [j for j in jobs if j.mode == "paper"],
    "route-small": lambda jobs: jobs[:2],
    "simulate": lambda jobs: [jobs[0], jobs[3]],
    "check-small": lambda jobs: jobs[:20] + jobs[-1:],
}


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_counts_repeat_for_one_seed(workload):
    pick = SLICES[workload]
    assert _counts(workload, 5, pick) == _counts(workload, 5, pick)


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_gate_counts_do_not_depend_on_the_seed(workload):
    keys = ("oracle.ir_gates", "grover.ir_gates", "lowering.gates_in",
            "lowering.gates_out")
    if workload != "route-small":  # routed gates include the seeded swaps
        keys += ("gates", "two_qubit_gates")
    a = _counts(workload, 0, SLICES[workload])
    b = _counts(workload, 1, SLICES[workload])
    assert [[c.get(k) for k in keys] for c in a.values()] == \
        [[c.get(k) for k in keys] for c in b.values()]


def test_seed0_counts_match_the_roadmap():
    k3 = _counts("route-small", 0, lambda jobs: jobs[:1])["K3-k3-line13"]
    assert k3["lowering.gates_out"] == 5_248
    c5 = _counts("synth-wide", 0, lambda jobs: jobs[:1])["C5-k3-strict"]
    assert c5["lowering.gates_out"] == c5["gates"] == 1_892_282
    assert c5["two_qubit_gates"] == 1_329_884


def _cli(tmp_path, *args):
    result = CliRunner().invoke(cli, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result


def test_qasm_is_byte_identical_to_the_cli(tmp_path):
    """The benchmark's call sequence writes what ``qkcolor synth``,
    ``grover`` and ``route`` write for the same K3/k=3 input."""
    out = tmp_path / "out"
    k3 = GraphInput("K3", complete(3), random.Random(0), "adj")
    graph_file = tmp_path / "k3.adj"
    graph_file.write_text(k3.text)

    art = SynthJob("K3-k3-strict", k3, 3).run(Recorder(trace=False))
    _cli(tmp_path, "synth", graph_file, "--k", 3, "--out-dir", out)
    assert (out / "k3.oracle.qasm").read_text() == \
        qk.emit_qasm(qk.lower_circuit(art["job"].oracle))
    _cli(tmp_path, "grover", graph_file, "--k", 3, "--out-dir", out)
    assert (out / "k3.grover.qasm").read_text() == art["qasm"]

    wl = Workload("route-small", 0, Recorder(trace=False))
    for job in wl.jobs[:2]:  # K3/k=3 on the line and on the grid
        graph_file = tmp_path / f"{job.name}.{job.graph.fmt}"
        graph_file.write_text(job.graph.text)
        topology = tmp_path / f"{job.coupling_name}.cpl"
        topology.write_text(coupling_text(job.coupling_name))
        _cli(tmp_path, "route", graph_file, "--k", 3, "--topology", topology,
             "--seed", job.sabre_seed, "--out-dir", out)
        routed = (out / f"{job.name}.routed.qasm").read_text()
        assert routed == job.run(Recorder(trace=False))["qasm"], job.name


def test_checks_catch_wrong_outputs():
    wl = Workload("route-small", 0, Recorder(trace=False))
    job = wl.jobs[0]
    art = job.run(Recorder(trace=False))
    assert job.check(art) == []
    assert job.check({**art, "constraints": False})
    assert job.check({**art, "qasm": art["qasm"].replace("swap ", "// ", 1)})
    gates = art["result"].routed.gates
    i = next(i for i in range(len(gates) - 1)  # two dependent gates
             if set(gates[i].operands) & set(gates[i + 1].operands)
             and "swap" not in (gates[i].kind.value, gates[i + 1].kind.value)
             and gates[i] != gates[i + 1])
    gates[i], gates[i + 1] = gates[i + 1], gates[i]
    assert job.check(art)

    wl = Workload("check-small", 0, Recorder(trace=False))
    for job in (wl.jobs[6], wl.jobs[7]):  # a 3-vertex graph, strict and paper
        art = job.run(Recorder(trace=False))
        assert job.check(art) == []
        wrong = set(art["pattern"]) ^ {"0" * (job.graph.n * 2)}
        assert job.check({**art, "pattern": wrong}), job.name

    wl = Workload("simulate", 0, Recorder(trace=False))
    job = wl.jobs[0]
    art = job.run(Recorder(trace=False))
    assert job.check(art) == []
    best = max(art["dist"], key=art["dist"].get)
    assert job.check({**art, "dist": {**art["dist"], best: 0.0}})


def test_scale_uses_the_probes_around_an_interval():
    clock = HostClock(numpy_probe, 0.5)
    clock.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    clock.seconds = [0.5] * 4 + [2.0]
    assert clock.scale(0.0, 3.0) == pytest.approx(1.0)
    assert clock.scale(9.9, 10.1) == pytest.approx(0.25)  # widened, one probe
    assert clock.scale(0.0, 10.0) == pytest.approx(1 / 1.6)
    with pytest.raises(ValueError):
        clock.scale(5.0 - MIN_WINDOW_S, 5.0)


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_timer_probes_are_left_out_of_the_clock(workload):
    clock = HostClock(*PROBES[workload])
    with clock.running():
        start, wall = clock.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.5:
            pass
    busy, elapsed = clock.now() - start, time.perf_counter() - wall
    assert len(clock.seconds) >= 5
    assert busy == pytest.approx(elapsed - sum(clock.seconds), abs=1e-4)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
