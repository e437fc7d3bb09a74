import math

import numpy as np
import pytest

from conftest import (TRIANGLE_K3_SOLUTIONS, complete_graph,
                      phase_aligned_distance, path_graph, unitary_of)
from qkcolor import classical
from qkcolor.errors import NoSolutions
from qkcolor.graphs import make_instance
from qkcolor.grover import (assemble, build_diffusion, make_job,
                            optimal_iterations, success_probability)
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
    one_round = len(job.oracle.gates) + len(build_diffusion(6).gates)
    prep = len(circ.gates) - job.iterations * one_round
    # 7 X seeds (3 slots, 3 flags, output) + 7 H (6 data, output)
    assert prep == 14


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
