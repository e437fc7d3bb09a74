"""Acceptance gate: one test per release criterion.

Each test is self-contained and states its numeric bar inline; the
pytest -v line for each test is the pass/fail record.
"""
import math
import random
import time

import numpy as np
import pytest

from conftest import (LOWERED_POOL, TRIANGLE_K3_SOLUTIONS, all_graphs,
                      complete_graph, path_graph, phase_aligned_distance,
                      random_circuit, ref_gate_matrix, routed_max_error,
                      unitary_of)
from qasm_ref import check_qasm
from qkcolor import classical
from qkcolor.circuit import Circuit, Control, Gate, GateKind
from qkcolor.classical import decode_bitstring
from qkcolor.errors import UnloweredGate
from qkcolor.graphs import Graph, make_instance
from qkcolor.grover import (build_diffusion, make_job, assemble,
                            success_probability)
from qkcolor.lowering import lower_circuit
from qkcolor.oracle import build_oracle, plan_layout
from qkcolor.qasm import emit_qasm
from qkcolor.routing import (grid_coupling, line_coupling, ring_coupling,
                             sabre_route, verify_constraints)
from qkcolor.simulator import phase_pattern, probabilities, run


def test_01_marked_states_of_the_triangle():
    """Strict oracle for K3/k=3 marks exactly the six proper colorings."""
    start = time.perf_counter()
    inst = make_instance(complete_graph(3), 3)
    plan = plan_layout(inst, "strict")
    oracle = build_oracle(inst, "strict", plan)
    assert phase_pattern(oracle, plan.layout) == TRIANGLE_K3_SOLUTIONS
    assert time.perf_counter() - start < 5.0


def test_02_amplification_matches_closed_form():
    """Two Grover iterations lift the K3/k=3 solution mass above 0.99."""
    inst = make_instance(complete_graph(3), 3)
    job = make_job(inst)
    assert job.iterations == 2
    dist = probabilities(run(assemble(job)), list(range(6)))
    success = sum(dist.get(s, 0.0) for s in TRIANGLE_K3_SOLUTIONS)
    assert success >= 0.99
    assert abs(success - success_probability(64, 6, 2)) <= 1e-4


def test_03_triangle_cost_bounds():
    """Paper-mode K3/k=3 oracle: exactly 4 ancillas, at most 67 gates
    (multi-controlled gates counted once)."""
    inst = make_instance(complete_graph(3), 3)
    plan = plan_layout(inst, "paper")
    oracle = build_oracle(inst, "paper", plan)
    ancillas = plan.layout.num_qubits - plan.layout.num_data - 1
    assert ancillas == 4
    assert len(oracle.gates) <= 67


def test_04_qubit_cost_formulas():
    """Data-qubit cost n*ceil(log2 k) against the n*k one-hot baseline,
    exact integers for n in [2, 10] and k in {2, 3, 4, 8}."""
    for k in (2, 3, 4, 8):
        c = max(1, math.ceil(math.log2(k)))
        for n in range(2, 11):
            inst = make_instance(complete_graph(n), k)
            layout = plan_layout(inst, "paper").layout
            assert layout.num_data == n * c
            assert layout.num_data <= n * k


def test_05_oracle_equals_brute_force_exhaustively():
    """phase_pattern(strict oracle) == classical solutions for every graph
    on up to 4 vertices (all edge subsets) and k in {2, 3, 4}."""
    start = time.perf_counter()
    checked = 0
    for n in (2, 3, 4):
        for graph in all_graphs(n):
            for k in (2, 3, 4):
                inst = make_instance(graph, k)
                plan = plan_layout(inst, "strict")
                oracle = build_oracle(inst, "strict", plan)
                assert phase_pattern(oracle, plan.layout) == \
                    classical.solutions(inst), (n, sorted(graph.edges), k)
                checked += 1
    assert checked == (2 + 8 + 64) * 3
    assert time.perf_counter() - start < 600.0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_06_diffusion_matrix(m):
    """Diffusion equals the 2/N - delta_ij matrix entrywise to 1e-9."""
    want = np.full((2 ** m, 2 ** m), 2.0 / 2 ** m) - np.eye(2 ** m)
    got = unitary_of(build_diffusion(m))
    assert phase_aligned_distance(got, want) < 1e-9


def test_07_lowering_correctness():
    """MCT lowering is exact for 0..6 controls, at full width up to 2
    controls and with one idle qubit to borrow from 3 on; with no idle
    qubit 3 or more controls are refused; and the lowered triangle oracle
    keeps its phase pattern."""
    for q in range(0, 7):
        gate = Gate(GateKind.MCT,
                    controls=tuple(Control(i) for i in range(q)),
                    targets=(q,))
        width = q + 1 if q <= 2 else q + 2
        circ = Circuit(width)
        circ.append(gate)
        lowered = lower_circuit(circ)
        assert all(len(g.operands) <= 2 for g in lowered.gates)
        assert phase_aligned_distance(unitary_of(lowered),
                                      ref_gate_matrix(gate, width)) < 1e-9
        if q >= 3:
            full = Circuit(q + 1)
            full.append(gate)
            with pytest.raises(UnloweredGate):
                lower_circuit(full)

    inst = make_instance(complete_graph(3), 3)
    plan = plan_layout(inst, "strict")
    oracle = build_oracle(inst, "strict", plan)
    lowered = lower_circuit(oracle)
    assert phase_pattern(lowered, plan.layout,
                         allow_global_phase=True) == \
        phase_pattern(oracle, plan.layout)


def test_08_routing_correctness():
    """50 seeded random lowered circuits on line/ring/grid devices route
    to constraint-satisfying, simulation-equivalent circuits,
    deterministically per seed."""
    for case in range(50):
        rng = random.Random(5000 + case)
        width = rng.randint(4, 10)
        circ = random_circuit(width, rng.randint(10, 40), rng,
                              pool=LOWERED_POOL)
        coupling = (line_coupling(width), ring_coupling(width),
                    grid_coupling(2, (width + 1) // 2))[case % 3]
        result = sabre_route(circ, coupling, seed=case)
        assert verify_constraints(result.routed, coupling), case
        assert routed_max_error(circ, result, coupling.num_physical) < 1e-9
        if case % 10 == 0:
            again = sabre_route(circ, coupling, seed=case)
            assert again.routed.gates == result.routed.gates
            assert again.final == result.final


def _invalid_vertices(bits: str, n: int) -> int:
    return sum(1 for color in decode_bitstring(bits, n, 2) if color >= 3)


def test_09_paper_mode_fidelity_and_documented_defect():
    """Paper and strict oracles agree wherever at most one vertex carries
    an invalid color; two nonadjacent invalid vertices expose paper
    mode's parity blindness."""
    for n in (2, 3, 4):
        for graph in all_graphs(n):
            inst = make_instance(graph, 3)
            patterns = {}
            for mode in ("strict", "paper"):
                plan = plan_layout(inst, mode)
                oracle = build_oracle(inst, mode, plan)
                patterns[mode] = phase_pattern(oracle, plan.layout)
            for x in range(2 ** (2 * n)):
                bits = format(x, f"0{2 * n}b")
                if _invalid_vertices(bits, n) <= 1:
                    assert (bits in patterns["strict"]) == \
                        (bits in patterns["paper"]), (n, sorted(graph.edges), bits)

    # characterization: vertices 0 and 2 are isolated (hence nonadjacent)
    # and both carry the invalid pattern 11; the detections cancel and
    # paper mode marks a non-solution
    graph = Graph(4, frozenset({(1, 3)}))
    inst = make_instance(graph, 3)
    defect = "11001101"  # colors (3, 0, 3, 1)
    assert defect not in classical.solutions(inst)
    strict_plan = plan_layout(inst, "strict")
    paper_plan = plan_layout(inst, "paper")
    strict = phase_pattern(build_oracle(inst, "strict", strict_plan),
                           strict_plan.layout)
    paper = phase_pattern(build_oracle(inst, "paper", paper_plan),
                          paper_plan.layout)
    assert defect not in strict
    assert defect in paper


def test_10_qasm_validity_and_roundtrip():
    """Every emitted artifact passes the OpenQASM 2.0 grammar check with
    gate counts preserved."""
    artifacts = []

    k3 = make_instance(complete_graph(3), 3)
    for mode in ("strict", "paper"):
        artifacts.append(lower_circuit(build_oracle(k3, mode)))
    p3 = make_instance(path_graph(3), 2)
    grover_lowered = lower_circuit(assemble(make_job(p3)))
    artifacts.append(grover_lowered)
    artifacts.append(lower_circuit(assemble(make_job(p3)), basis="cx"))
    routed = sabre_route(grover_lowered, line_coupling(7)).routed
    artifacts.append(routed)

    for circ in artifacts:
        text = emit_qasm(circ, comment_lines=["acceptance artifact"])
        parsed = check_qasm(text)
        assert parsed.num_qubits == circ.num_qubits
        preamble = sum(circ.initial_state)
        assert len(parsed.gates) == preamble + len(circ.gates)
        assert parsed.measures == [(q, i) for i, q in enumerate(circ.measured)]
