import math

import numpy as np
import pytest

from conftest import (TRIANGLE_K3_SOLUTIONS, all_graphs, complete_graph,
                      phase_aligned_distance, path_graph, run_batch,
                      unitary_of)
from qkcolor import classical
from qkcolor.circuit import gH, gMCZ, gX
from qkcolor.errors import NoSolutions
from qkcolor.graphs import make_instance
from qkcolor.grover import (assemble, build_diffusion, make_job,
                            optimal_iterations, success_probability)
from qkcolor.lowering import lower_circuit
from qkcolor.simulator import probabilities, run


def diffusion_matrix(m: int) -> np.ndarray:
    n = 2 ** m
    return np.full((n, n), 2.0 / n) - np.eye(n)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_diffusion_unitary(m):
    u = unitary_of(build_diffusion(m))
    assert phase_aligned_distance(u, diffusion_matrix(m)) < 1e-12


def test_diffusion_needs_a_qubit():
    with pytest.raises(ValueError):
        build_diffusion(0)


def test_clean_qubits_lie_outside_the_data():
    with pytest.raises(ValueError):
        build_diffusion(4, [(3, 0)])


def _mcz_diffusion(m):
    """The diffusion with one MCZ on m-1 controls, written out."""
    hs, xs = [gH(q) for q in range(m)], [gX(q) for q in range(m)]
    return hs + xs + [gMCZ(range(m - 1), m - 1)] + xs + hs


@pytest.mark.parametrize("m", [4, 5, 6, 7])
@pytest.mark.parametrize("first", [0, 1])
def test_clean_ancilla_diffusion(m, first):
    # m-2 clean qubits whose declared bits alternate from ``first``: the
    # chain takes the first m-3 and leaves the last alone
    clean = [(m + i, (first + i) % 2) for i in range(m - 2)]
    chain = clean[:m - 3]
    diffusion = build_diffusion(m, clean)
    width = m + len(chain)
    assert diffusion.num_qubits == width
    assert diffusion.initial_state == [0] * m + [bit for _, bit in chain]
    # every data string with the ancillas in their declared state
    ancillas = int("".join(str(bit) for _, bit in chain), 2)
    rows = (np.arange(2 ** m) << len(chain)) | ancillas
    columns = np.zeros((2 ** width, 2 ** m), dtype=complex)
    columns[rows, np.arange(2 ** m)] = 1
    ones = sum(bit for _, bit in chain)
    lowered = lower_circuit(diffusion)
    for circ in (diffusion, lowered):
        out = run_batch(circ, columns)
        # 2|s><s| - I on the data, and every ancilla returned
        assert phase_aligned_distance(out[rows], diffusion_matrix(m)) < 1e-12
        assert np.abs(np.delete(out, rows, axis=0)).max() < 1e-12
    two_qubit = sum(len(g.operands) == 2 for g in lowered.gates)
    # 4m gates of the H and X layers around the chain, and the exact
    # 13-gate CCZ, 6 of them CX, at its centre
    assert (len(lowered.gates), two_qubit) == (
        4 * m + 14 * (m - 3) + 13 + 2 * ones, 6 * m - 12)


def test_too_few_clean_qubits_keep_the_mcz():
    for m in (1, 2, 3):
        assert build_diffusion(m).gates == _mcz_diffusion(m)
        assert build_diffusion(m, [(m + i, 1) for i in range(3)]).gates == \
            _mcz_diffusion(m)
    for m in (4, 5, 6, 7):
        assert build_diffusion(m, [(m + i, 1) for i in range(m - 4)]).gates \
            == _mcz_diffusion(m)
    # P5/k=4 has 4 slots and an idle qubit, 5 of the m-3 = 7 the chain needs
    job = make_job(make_instance(path_graph(5), 4))
    assert job.plan.layout.num_qubits - job.data_width == 5
    circ = assemble(job)
    want = _mcz_diffusion(10)
    assert job.iterations == 1 and circ.gates[-len(want):] == want


def test_lowered_grover_keeps_the_ir_state():
    # Every colorable Grover circuit on 1-4 vertices at k = 2..4: the
    # lowered diffusion's chain starts from the ancillas the lowered
    # oracle restores, so a leak there would show in the whole state.
    checked = 0
    for n in (1, 2, 3, 4):
        for graph in all_graphs(n):
            for k in (2, 3, 4):
                inst = make_instance(graph, k)
                for mode in ("strict", "paper"):
                    job = make_job(inst, mode)
                    if job.solution_count == 0:
                        continue
                    circ = assemble(job)
                    ir, lowered = run(circ), run(lower_circuit(circ))
                    assert phase_aligned_distance(
                        lowered.amplitudes, ir.amplitudes) < 1e-9, (
                        sorted(graph.edges), k, mode)
                    checked += 1
    # 75 graphs at 3 k in 2 modes, less the 24 graphs with an odd cycle
    # at k = 2 and K4 at k = 3
    assert checked == (75 * 3 - 24 - 1) * 2


@pytest.mark.parametrize("N,M,t", [
    (64, 6, 2),
    (4, 1, 1),
    (8, 8, 0),
    (8, 2, 1),
    (1024, 1, 25),
])
def test_optimal_iterations(N, M, t):
    assert optimal_iterations(N, M) == t


def test_optimal_iterations_errors():
    with pytest.raises(NoSolutions):
        optimal_iterations(8, 0)
    with pytest.raises(ValueError):
        optimal_iterations(8, 9)


def test_success_probability_closed_form():
    assert success_probability(4, 1, 1) == pytest.approx(1.0)
    assert success_probability(8, 8, 0) == pytest.approx(1.0)
    theta = math.asin(math.sqrt(6 / 64))
    assert success_probability(64, 6, 2) == pytest.approx(
        math.sin(5 * theta) ** 2)


def _solution_probability(instance, circuit):
    layout_width = instance.graph.n * instance.c
    dist = probabilities(run(circuit), list(range(layout_width)))
    return sum(dist.get(s, 0.0) for s in classical.solutions(instance))


def test_path_two_coloring_amplifies_to_certainty():
    # P3 with k=2: N=8, M=2, one iteration, success exactly 1
    inst = make_instance(path_graph(3), 2)
    job = make_job(inst)
    assert job.iterations == 1 and job.solution_count == 2
    assert _solution_probability(inst, assemble(job)) == pytest.approx(1.0)


def test_triangle_simulation_matches_closed_form():
    inst = make_instance(complete_graph(3), 3)
    job = make_job(inst)
    assert job.iterations == 2 and job.solution_count == 6
    p = _solution_probability(inst, assemble(job))
    assert p == pytest.approx(success_probability(64, 6, 2), abs=1e-9)


def test_iteration_override_skips_counting():
    inst = make_instance(complete_graph(3), 3)
    job = make_job(inst, iterations=1)
    assert job.iterations == 1
    assert job.solution_count is None
    circ = assemble(job)
    # the diffusion assemble writes: its AND chain on the 3 slots
    init = job.plan.layout.initial_state()
    diffusion = build_diffusion(6, [(q, init[q]) for q in range(6, 12)])
    assert diffusion.num_qubits == 9
    one_round = len(job.oracle.gates) + len(diffusion.gates)
    prep = len(circ.gates) - job.iterations * one_round
    # 6 H on the data; the 3 slots and 3 flags are declared |1>
    assert prep == 6
    assert circ.initial_state == init and sum(init) == 6
    assert circ.gates[prep + len(job.oracle.gates):] == diffusion.gates


def test_uncolorable_job_searches_nothing():
    # "not k-colorable" is an outcome: the job states N, with M = t = 0
    job = make_job(make_instance(complete_graph(3), 2))
    assert job.solution_count == 0 and job.iterations == 0
    assert job.search_size == 8 == 2 ** job.data_width


def test_uncolorable_instance_raises():
    with pytest.raises(NoSolutions):
        assemble(make_job(make_instance(complete_graph(3), 2)))


def test_grover_marks_only_solutions():
    inst = make_instance(complete_graph(3), 3)
    circ = assemble(make_job(inst))
    dist = probabilities(run(circ), list(range(6)))
    top = sorted(dist.items(), key=lambda kv: -kv[1])[:6]
    assert {bits for bits, _ in top} == TRIANGLE_K3_SOLUTIONS
