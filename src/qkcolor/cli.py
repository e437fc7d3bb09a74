"""End-to-end command line driver.

Subcommands: synth, grover, lower, route, simulate, run, cost.
Exit codes: 0 success (including "not k-colorable"), 2 input error,
3 resource limit.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import os
import sys
from pathlib import Path

import click

from . import classical
from .circuit import Gate
from .errors import InputError, NoSolutions, ResourceLimit
from .graphs import (Graph, Instance, edges_from_pairs, make_instance,
                     parse_graph_file)
from .grover import assemble, make_job
from .lowering import lower_circuit
from .oracle import build_oracle, plan_layout
from .qasm import emit_qasm
from .reports import validate_report
from .routing import parse_coupling, sabre_route, verify_constraints
from .simulator import probabilities, run as simulate_circuit


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputError, ResourceLimit, OSError, ValueError) as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3 if isinstance(exc, ResourceLimit) else 2)
    return wrapper


def _load_instance(graph_file: str, k: int) -> Instance:
    return make_instance(parse_graph_file(graph_file), k)


def _grover_job(instance: Instance, mode: str, iterations: int | None):
    """The instance's Grover job, or None after saying it has no coloring."""
    try:
        return make_job(instance, mode, iterations)
    except NoSolutions:
        click.echo(f"graph is not {instance.k}-colorable")
        return None


def _stem(graph_file: str) -> str:
    return os.path.splitext(os.path.basename(graph_file))[0]


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _print_report(report: dict, out_path: str | None = None) -> None:
    validate_report(report)
    text = json.dumps(report, indent=2)
    if out_path:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


def _gate_text(gate: Gate) -> str:
    parts = [gate.kind.value]
    if gate.angle is not None:
        parts[0] += f"({gate.angle:.6g})"
    for c in gate.controls:
        parts.append(f"{'+' if c.positive else '-'}q{c.qubit}")
    parts.append("->")
    parts.extend(f"q{t}" for t in gate.targets)
    return " ".join(parts)


def _layout_counts(layout) -> dict:
    counts = {
        "data": layout.num_data,
        "edge_ancilla": len(layout.edge_ancilla),
        "output": 1,
        "total": layout.num_qubits,
    }
    if layout.invalid_ancilla is not None:
        counts["invalid_ancilla"] = 1
    if layout.valid_flags is not None:
        counts["valid_flags"] = len(layout.valid_flags)
    return counts


mode_option = click.option("--mode", type=click.Choice(["strict", "paper"]),
                           default="strict", show_default=True)
k_option = click.option("--k", "k", type=int, required=True,
                        help="Number of colors (>= 2).")
out_dir_option = click.option("--out-dir", default=".", show_default=True,
                              help="Directory for emitted files.")
basis_option = click.option("--basis", type=click.Choice(["default", "cx"]),
                            default="default", show_default=True)


@click.group()
def main():
    """Grover-search circuit synthesis for graph k-coloring."""


@main.command()
@click.argument("graph_file")
@k_option
@mode_option
@out_dir_option
@_exit_codes
def synth(graph_file, k, mode, out_dir):
    """Synthesize the k-coloring oracle and emit lowered QASM."""
    instance = _load_instance(graph_file, k)
    plan = plan_layout(instance, mode)
    oracle = build_oracle(instance, mode, plan)
    lowered = lower_circuit(oracle)
    stem = _stem(graph_file)

    _write(out_dir, f"{stem}.oracle.txt",
           "\n".join(_gate_text(g) for g in oracle.gates) + "\n")
    _write(out_dir, f"{stem}.oracle.qasm", emit_qasm(lowered))

    stats = oracle.stats()
    report = {
        "report_type": "synth",
        "n": instance.graph.n,
        "k": k,
        "mode": mode,
        "invalid_colors": sorted(instance.invalid_colors),
        "qubits": _layout_counts(plan.layout),
        "gate_counts": {
            "pre_lowering": stats.gate_count,
            "post_lowering": lowered.stats().gate_count,
            "mct_count_by_arity": {str(a): c for a, c
                                   in sorted(stats.mct_count_by_arity.items())},
        },
    }
    _print_report(report, os.path.join(out_dir, f"{stem}.synth.json"))


@main.command()
@click.argument("graph_file")
@k_option
@mode_option
@click.option("--iterations", type=int, default=None,
              help="Override the floor((pi/4) sqrt(N/M)) iteration count.")
@out_dir_option
@_exit_codes
def grover(graph_file, k, mode, iterations, out_dir):
    """Assemble the full Grover circuit and emit lowered QASM."""
    instance = _load_instance(graph_file, k)
    job = _grover_job(instance, mode, iterations)
    if job is None:
        return
    circ = assemble(job)
    lowered = lower_circuit(circ)
    stem = _stem(graph_file)
    _write(out_dir, f"{stem}.grover.qasm", emit_qasm(lowered))
    report = {
        "report_type": "grover",
        "n": instance.graph.n,
        "k": k,
        "mode": mode,
        "N": 2 ** job.data_width,
        "M": job.solution_count,
        "iterations": job.iterations,
        "total_qubits": circ.num_qubits,
        "gate_counts": {
            "pre_lowering": len(circ.gates),
            "post_lowering": len(lowered.gates),
        },
    }
    _print_report(report, os.path.join(out_dir, f"{stem}.grover.json"))


@main.command()
@click.argument("graph_file")
@k_option
@mode_option
@click.option("--stage", type=click.Choice(["oracle", "grover"]),
              default="oracle", show_default=True)
@click.option("--iterations", type=int, default=None)
@basis_option
@out_dir_option
@_exit_codes
def lower(graph_file, k, mode, stage, iterations, basis, out_dir):
    """Lower the oracle or the full Grover circuit to the basis alphabet."""
    instance = _load_instance(graph_file, k)
    if stage == "oracle":
        circ = build_oracle(instance, mode)
    else:
        job = _grover_job(instance, mode, iterations)
        if job is None:
            return
        circ = assemble(job)
    lowered = lower_circuit(circ, basis)
    stem = _stem(graph_file)
    _write(out_dir, f"{stem}.{stage}.lowered.qasm", emit_qasm(lowered))
    report = {
        "report_type": "lower",
        "stage": stage,
        "basis": basis,
        "gate_counts": {
            "pre_lowering": len(circ.gates),
            "post_lowering": len(lowered.gates),
        },
    }
    _print_report(report)


@main.command()
@click.argument("graph_file")
@k_option
@mode_option
@click.option("--topology", required=True, help="Coupling-graph file (.cpl).")
@click.option("--iterations", type=int, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@basis_option
@out_dir_option
@_exit_codes
def route(graph_file, k, mode, topology, iterations, seed, basis, out_dir):
    """Lower the Grover circuit and route it onto a coupling graph."""
    instance = _load_instance(graph_file, k)
    coupling = parse_coupling(Path(topology).read_text())
    job = _grover_job(instance, mode, iterations)
    if job is None:
        return
    coupling.check_width(job.plan.layout.num_qubits)
    _print_report(_route_to_file(assemble(job), coupling, seed, basis,
                                 out_dir, _stem(graph_file)))


def _route_to_file(circ, coupling, seed, basis, out_dir, stem) -> dict:
    """Lower and route ``circ``, write ``<stem>.routed.qasm`` with the final
    layout as comments, and return the route report.  The router places
    the default-basis lowering, whose crx and swap cost no extra swaps;
    lowering the routed circuit to ``basis`` expands them afterwards."""
    result = sabre_route(lower_circuit(circ), coupling, seed)
    routed = lower_circuit(result.routed, basis)
    comments = [f"final_layout: logical {l} -> physical {p}"
                for l, p in result.final.as_dict().items()]
    _write(out_dir, f"{stem}.routed.qasm",
           emit_qasm(routed, comment_lines=comments))
    return {
        "report_type": "route",
        "swap_count": result.swap_count,
        "constraints_satisfied": verify_constraints(routed, coupling),
        "initial_layout": {str(l): p for l, p in result.initial.as_dict().items()},
        "final_layout": {str(l): p for l, p in result.final.as_dict().items()},
        "num_physical": coupling.num_physical,
        "seed": seed,
        "stall_walks": result.stall_walks,
    }


def _histogram(dist: dict[str, float], limit: int = 10) -> str:
    top = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    lines = []
    for bits, p in top:
        bar = "#" * max(1, int(round(p * 50)))
        lines.append(f"|{bits}>  {p:8.4f}  {bar}")
    return "\n".join(lines)


def _simulation_report(instance, mode, iterations, coupling=None):
    """Shared by simulate and run: build, simulate, compare to brute force.

    A ``coupling`` too small for the circuit is rejected before simulating.
    """
    try:
        job = make_job(instance, mode, iterations)
    except NoSolutions:
        job = None
        sols = frozenset()
    else:
        if coupling is not None:
            coupling.check_width(job.plan.layout.num_qubits)
        sols = (job.solutions if job.solutions is not None
                else classical.solutions(instance))
    M = len(sols)
    m = instance.num_data_qubits
    N = 2 ** m
    base = {
        "report_type": "run",
        "n": instance.graph.n,
        "k": instance.k,
        "mode": mode,
        "N": N,
        "M": M,
        "colorable": M > 0,
    }
    if job is None:
        base.update({"iterations": 0, "success_probability": None,
                     "top_states": [], "solution_match": None, "routing": None})
        return base, None, None

    circ = assemble(job)
    state = simulate_circuit(circ)
    dist = probabilities(state, circ.measured)
    top_all = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
    success = sum(dist.get(s, 0.0) for s in sols)
    match = {bits for bits, _ in top_all[:M]} == sols if M else None
    base.update({
        "iterations": job.iterations,
        "success_probability": success,
        "top_states": [{"bitstring": b, "probability": p}
                       for b, p in top_all[:10]],
        "solution_match": match,
        "routing": None,
    })
    return base, circ, dist


@main.command()
@click.argument("graph_file")
@k_option
@mode_option
@click.option("--iterations", type=int, default=None)
@_exit_codes
def simulate(graph_file, k, mode, iterations):
    """Build the Grover circuit and report its measurement distribution."""
    instance = _load_instance(graph_file, k)
    report, _, dist = _simulation_report(instance, mode, iterations)
    if not report["colorable"]:
        click.echo(f"graph is not {k}-colorable")
    _print_report(report)
    if dist:
        click.echo(_histogram(dist))


@main.command(name="run")
@click.argument("graph_file")
@k_option
@mode_option
@click.option("--iterations", type=int, default=None)
@click.option("--topology", default=None, help="Optional coupling-graph file.")
@click.option("--seed", type=int, default=0, show_default=True)
@basis_option
@out_dir_option
@_exit_codes
def run_cmd(graph_file, k, mode, iterations, topology, seed, basis, out_dir):
    """Full pipeline: synthesize, lower, optionally route, simulate."""
    instance = _load_instance(graph_file, k)
    coupling = (parse_coupling(Path(topology).read_text())
                if topology is not None else None)
    report, circ, dist = _simulation_report(instance, mode, iterations,
                                            coupling)
    stem = _stem(graph_file)
    if not report["colorable"]:
        click.echo(f"graph is not {k}-colorable")
    if circ is not None and coupling is not None:
        report["routing"] = _route_to_file(circ, coupling, seed, basis,
                                           out_dir, stem)
    _print_report(report, os.path.join(out_dir, f"{stem}.run.json"))
    if dist:
        click.echo(_histogram(dist))


@main.command()
@click.option("--vertices-range", "vertices_range", nargs=2, type=int,
              default=(2, 10), show_default=True,
              help="Inclusive n range for complete-graph oracles.")
@k_option
@click.option("--out", "out_file", default=None, help="CSV output path.")
@_exit_codes
def cost(vertices_range, k, out_file):
    """Qubit- and gate-cost table vs the SAT-reduction baseline."""
    lo, hi = vertices_range
    if not (2 <= lo <= hi <= 10):
        raise ValueError("vertices range must satisfy 2 <= lo <= hi <= 10")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "k", "data_qubits", "baseline_data_qubits",
                     "ancilla_qubits", "baseline_ancilla_qubits",
                     "total_qubits", "oracle_gates", "oracle_gates_lowered"])
    for n in range(lo, hi + 1):
        complete = Graph(n, edges_from_pairs(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]))
        instance = make_instance(complete, k)
        plan = plan_layout(instance, "paper")
        oracle = build_oracle(instance, "paper", plan)
        ancilla = plan.layout.num_qubits - plan.layout.num_data - 1
        lowered_count = len(lower_circuit(oracle).gates)
        writer.writerow([n, k, instance.num_data_qubits, n * k, ancilla,
                         (n * k) ** 2, plan.layout.num_qubits,
                         len(oracle.gates), lowered_count])
    text = buf.getvalue()
    if out_file:
        with open(out_file, "w") as fh:
            fh.write(text)
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
