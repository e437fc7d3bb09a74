"""End-to-end command line driver.

Subcommands: synth (the oracle), grover (the Grover circuit), route
(the routed circuit), run (the simulated run, routed too with
--topology) and cost.  Each is a selection over one chain of shared
steps: load the instance, make the Grover job (refusing a device too
small for it), lower to the default or the cx basis and write QASM,
route, simulate, and validate, write and print the JSON report.
N and t come from the job; for a graph with no coloring, grover and
route write nothing, and run still writes its report.

Exit codes: 0 success (including "not k-colorable"), 2 input or usage
error (an option the command would ignore is a usage error), 3 resource
limit.  The group maps errors to these codes for every subcommand.
"""
from __future__ import annotations

import csv
import io
import json
import os
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import classical
from .circuit import Circuit, Gate
from .errors import InputError, ResourceLimit
from .graphs import (Graph, Instance, edges_from_pairs, make_instance,
                     parse_graph_file)
from .grover import assemble, make_job
from .lowering import lower_circuit
from .oracle import build_oracle, plan_layout
from .qasm import emit_qasm
from .reports import validate_report
from .routing import parse_coupling, sabre_route, verify_constraints
from .simulator import probabilities, run as simulate_circuit


class _Main(click.Group):
    """Maps qkcolor's errors to exit codes once, for every subcommand."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InputError, ResourceLimit, OSError, ValueError) as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3 if isinstance(exc, ResourceLimit) else 2)


def _load_instance(graph_file: str, k: int) -> Instance:
    return make_instance(parse_graph_file(graph_file), k)


def _grover_job(instance: Instance, mode: str, iterations: int | None,
                coupling=None):
    """The instance's Grover job, after saying so if its count found no
    coloring.  Otherwise a ``coupling`` too small for the job's circuit
    is refused here, before anything is assembled, lowered or simulated.
    """
    job = make_job(instance, mode, iterations)
    if job.solution_count == 0:
        click.echo(f"graph is not {instance.k}-colorable")
    elif coupling is not None:
        coupling.check_width(job.plan.layout.num_qubits)
    return job


def _refuse_ignored(names: list[str], requirement: str) -> None:
    """Usage error for options given that take effect only with
    ``requirement``, which the command line lacks."""
    ctx = click.get_current_context()
    given = [f"--{name}" for name in names
             if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT]
    if given:
        raise click.UsageError(
            f"{', '.join(given)}: no effect without {requirement}", ctx)


def _stem(graph_file: str) -> str:
    return os.path.splitext(os.path.basename(graph_file))[0]


def _write(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir or ".", exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _lowered_qasm(out_dir: str, name: str, circ: Circuit, basis: str) -> dict:
    """Lower ``circ`` to ``basis``, write it as QASM to ``out_dir/name``,
    and return the report's pre- and post-lowering gate counts."""
    lowered = lower_circuit(circ, basis)
    _write(out_dir, name, emit_qasm(lowered))
    return {"pre_lowering": len(circ.gates),
            "post_lowering": len(lowered.gates)}


def _header(report_type: str, instance: Instance, mode: str,
            **fields) -> dict:
    return {"report_type": report_type, "n": instance.graph.n,
            "k": instance.k, "mode": mode, **fields}


def _print_report(report: dict, out_dir: str | None = None,
                  name: str | None = None) -> None:
    """Validate and print ``report``, write it to ``out_dir/name`` when a
    name is given, and print a histogram of its top states if it has any."""
    validate_report(report)
    text = json.dumps(report, indent=2)
    if name:
        _write(out_dir, name, text + "\n")
    click.echo(text)
    for state in report.get("top_states") or ():
        p = state["probability"]
        bar = "#" * max(1, int(round(p * 50)))
        click.echo(f"|{state['bitstring']}>  {p:8.4f}  {bar}")


def _gate_text(gate: Gate) -> str:
    parts = [gate.kind.value]
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
iterations_option = click.option(
    "--iterations", type=int, default=None,
    help="Override the floor((pi/4) sqrt(N/M)) iteration count.")
seed_option = click.option("--seed", type=int, default=0, show_default=True)


def graph_args(fn):
    """The graph file argument with --k and --mode."""
    return click.argument("graph_file")(k_option(mode_option(fn)))


@click.group(cls=_Main)
def main():
    """Grover-search circuit synthesis for graph k-coloring."""


@main.command()
@graph_args
@basis_option
@out_dir_option
def synth(graph_file, k, mode, basis, out_dir):
    """Synthesize the k-coloring oracle and emit lowered QASM."""
    instance = _load_instance(graph_file, k)
    plan = plan_layout(instance, mode)
    oracle = build_oracle(instance, mode, plan)
    stem = _stem(graph_file)
    _write(out_dir, f"{stem}.oracle.txt",
           "\n".join(_gate_text(g) for g in oracle.gates) + "\n")
    counts = _lowered_qasm(out_dir, f"{stem}.oracle.qasm", oracle, basis)
    by_arity = oracle.stats().mct_count_by_arity
    report = _header(
        "synth", instance, mode,
        invalid_colors=sorted(instance.invalid_colors),
        qubits=_layout_counts(plan.layout),
        gate_counts={**counts, "mct_count_by_arity": {
            str(a): c for a, c in sorted(by_arity.items())}})
    _print_report(report, out_dir, f"{stem}.synth.json")


@main.command()
@graph_args
@iterations_option
@basis_option
@out_dir_option
def grover(graph_file, k, mode, iterations, basis, out_dir):
    """Assemble the full Grover circuit and emit lowered QASM."""
    instance = _load_instance(graph_file, k)
    job = _grover_job(instance, mode, iterations)
    if job.solution_count == 0:
        return
    circ = assemble(job)
    stem = _stem(graph_file)
    counts = _lowered_qasm(out_dir, f"{stem}.grover.qasm", circ, basis)
    report = _header("grover", instance, mode, N=job.search_size,
                     M=job.solution_count, iterations=job.iterations,
                     total_qubits=circ.num_qubits, gate_counts=counts)
    _print_report(report, out_dir, f"{stem}.grover.json")


@main.command()
@graph_args
@click.option("--topology", required=True, help="Coupling-graph file (.cpl).")
@iterations_option
@seed_option
@basis_option
@out_dir_option
def route(graph_file, k, mode, topology, iterations, seed, basis, out_dir):
    """Lower the Grover circuit and route it onto a coupling graph."""
    instance = _load_instance(graph_file, k)
    coupling = parse_coupling(Path(topology).read_text())
    job = _grover_job(instance, mode, iterations, coupling)
    if job.solution_count != 0:
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


@main.command(name="run")
@graph_args
@iterations_option
@click.option("--topology", default=None, help="Optional coupling-graph file.")
@seed_option
@basis_option
@out_dir_option
def run_cmd(graph_file, k, mode, iterations, topology, seed, basis, out_dir):
    """Simulate the Grover circuit and check it against brute force.

    With --topology, also lower and route it as route does."""
    instance = _load_instance(graph_file, k)
    coupling = None
    if topology is None:
        _refuse_ignored(["basis", "seed"], "--topology")
    else:
        coupling = parse_coupling(Path(topology).read_text())
    job = _grover_job(instance, mode, iterations, coupling)
    sols = (job.solutions if job.solutions is not None
            else classical.solutions(instance))
    top, success, match, routing = [], None, None, None
    if job.solution_count != 0:
        circ = assemble(job)
        dist = probabilities(simulate_circuit(circ), circ.measured)
        top = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
        success = sum((dist.get(s, 0.0) for s in sorted(sols)), 0.0)
        match = {bits for bits, _ in top[:len(sols)]} == sols if sols else None
        if coupling is not None:
            routing = _route_to_file(circ, coupling, seed, basis, out_dir,
                                     _stem(graph_file))
    report = _header(
        "run", instance, mode, N=job.search_size, M=len(sols),
        colorable=bool(sols), iterations=job.iterations,
        success_probability=success,
        top_states=[{"bitstring": b, "probability": p} for b, p in top[:10]],
        solution_match=match, routing=routing)
    _print_report(report, out_dir, f"{_stem(graph_file)}.run.json")


@main.command()
@click.option("--vertices-range", "vertices_range", nargs=2, type=int,
              default=(2, 10), show_default=True,
              help="Inclusive n range for complete-graph oracles.")
@k_option
@click.option("--out", "out_file", default=None, help="CSV output path.")
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
        writer.writerow([n, k, plan.layout.num_data, n * k, ancilla,
                         (n * k) ** 2, plan.layout.num_qubits,
                         len(oracle.gates), lowered_count])
    text = buf.getvalue()
    if out_file:
        _write(os.path.dirname(out_file), os.path.basename(out_file), text)
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
