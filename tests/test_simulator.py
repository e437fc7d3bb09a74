import math
import random

import numpy as np
import pytest

import qkcolor.simulator as sim
from conftest import (all_graphs, complete_graph, cycle_graph,
                      random_circuit, ref_unitary)
from qkcolor import classical
from qkcolor.circuit import Circuit, gCX, gH, gRY, gX
from qkcolor.errors import AncillaLeak, TooLarge, TooManyQubits, WidthMismatch
from qkcolor.graphs import Graph, make_instance
from qkcolor.lowering import lower_circuit
from qkcolor.oracle import build_oracle, plan_layout
from qkcolor.simulator import (Statevector, phase_pattern, probabilities,
                               run, run_batch, unitary_of)


def test_basis_state_msb_convention():
    state = Statevector.from_basis(3, [1, 0, 0])
    assert state.amplitudes[0b100] == 1.0
    assert state.bitstring(0b100) == "100"


_ONE_QUBIT_POOL = ("x", "h", "z", "s", "t", "sdg", "tdg", "rx", "ry", "rz",
                   "mct", "mcz")


def test_unitary_matches_independent_reference():
    # widths 1, 2 and 6 put qubit 0 and qubit q-1 in every role
    rng = random.Random(11)
    for width in (4, 1, 2, 6):
        pool = {"pool": _ONE_QUBIT_POOL} if width == 1 else {}
        for _ in range(20):
            circ = random_circuit(width, rng.randint(1, 15), rng,
                                  max_controls=width - 1, **pool)
            u = unitary_of(circ)
            assert np.max(np.abs(u - ref_unitary(circ))) < 1e-12


def test_unitarity_and_norm_preservation():
    rng = random.Random(3)
    for _ in range(10):
        circ = random_circuit(3, 10, rng)
        u = unitary_of(circ)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12
        state = run(circ, initial=[1, 0, 1])
        assert abs(state.norm() - 1.0) < 1e-12


def test_run_honors_declared_initial_state():
    circ = Circuit(2, initial_state=[1, 0])
    circ.append(gCX(0, 1))
    state = run(circ)
    assert abs(state.amplitudes[0b11]) == 1.0

    # explicit initial overrides the declaration
    state = run(circ, initial=[0, 0])
    assert abs(state.amplitudes[0b00]) == 1.0


def test_run_batch_agrees_with_run():
    rng = random.Random(5)
    circ = random_circuit(3, 12, rng)
    cols = unitary_of(Circuit(3).append(gH(0)).append(gH(1)))[:, :4]
    out = run_batch(circ, cols)
    for j in range(4):
        single = run(circ, initial=Statevector(3, cols[:, j]))
        assert np.max(np.abs(out[:, j] - single.amplitudes)) < 1e-12

    # the batch axis follows the qubit axes: check it against the reference
    nrng = np.random.default_rng(5)
    wide = random_circuit(6, 40, rng, max_controls=5)
    cols = nrng.normal(size=(64, 5)) + 1j * nrng.normal(size=(64, 5))
    out = run_batch(wide, cols)
    assert np.max(np.abs(out - ref_unitary(wide) @ cols)) < 1e-12
    for j in range(5):
        single = run(wide, initial=Statevector(6, cols[:, j]))
        assert np.array_equal(out[:, j], single.amplitudes)


def test_probabilities_marginal_and_order():
    circ = Circuit(2)
    circ.append(gRY(0, 2 * math.asin(math.sqrt(0.25))))
    circ.append(gX(1))
    state = run(circ)
    dist = probabilities(state)
    assert dist["01"] == pytest.approx(0.75)
    assert dist["11"] == pytest.approx(0.25)
    marg = probabilities(state, [0])
    assert marg["1"] == pytest.approx(0.25)
    # subset order is respected, not sorted
    swapped = probabilities(state, [1, 0])
    assert swapped["10"] == pytest.approx(0.75)


def test_qubit_ceiling_env(monkeypatch):
    monkeypatch.setenv("GKC_QUBIT_CEILING", "4")
    with pytest.raises(TooManyQubits):
        Statevector(5)
    with pytest.raises(TooManyQubits):
        run(Circuit(5))
    with pytest.raises(TooManyQubits):
        Statevector.from_basis(5, [0] * 5)
    with pytest.raises(TooManyQubits):
        run_batch(Circuit(5), np.eye(32, 2))
    # checked before the 2**50 amplitudes would be allocated
    with pytest.raises(TooManyQubits):
        Statevector.from_basis(50, [0] * 50)
    run(Circuit(4))  # at the ceiling is fine
    Statevector.from_basis(4, [1, 0, 0, 1])


def test_run_rejects_initial_of_wrong_width():
    circ = Circuit(2).append(gX(0))
    with pytest.raises(WidthMismatch):
        run(circ, initial=Statevector.from_basis(3, [0, 0, 1]))
    with pytest.raises(WidthMismatch):
        run(circ, initial=[1])
    with pytest.raises(WidthMismatch):
        run(circ, initial=[1, 0, 0])
    with pytest.raises(WidthMismatch):
        Statevector(2, np.ones(8) / math.sqrt(8))
    with pytest.raises(WidthMismatch):
        run_batch(circ, np.eye(8, 2))
    assert run(circ, initial=[0, 1]).amplitudes[0b11] == 1.0


def test_unitary_of_ceiling():
    with pytest.raises(TooManyQubits):
        unitary_of(Circuit(13))


def _k2_oracle(k=2):
    inst = make_instance(Graph(2, frozenset({(0, 1)})), k)
    plan = plan_layout(inst, "strict")
    return build_oracle(inst, "strict", plan), plan.layout


def _k2_lowered():
    # k = 3 lowers its Toffolis to H/CRX/RZ, which keep phase_pattern on
    # its statevector paths (k = 2 lowers to X and CX only)
    oracle, layout = _k2_oracle(3)
    lowered = lower_circuit(oracle)
    assert not all(g.kind in sim._CLASSICAL_KINDS for g in lowered.gates)
    return lowered, layout


def test_phase_pattern_single_edge():
    oracle, layout = _k2_oracle()
    assert phase_pattern(oracle, layout) == {"01", "10"}


def test_phase_pattern_probed_path_agrees(monkeypatch):
    lowered, layout = _k2_lowered()
    expected = phase_pattern(lowered, layout, allow_global_phase=True)
    monkeypatch.setattr(sim, "_EXACT_PATTERN_LIMIT", 0)
    assert phase_pattern(lowered, layout, allow_global_phase=True) == expected


@pytest.mark.parametrize("force_probe", [False, True])
def test_phase_pattern_detects_ancilla_leak(monkeypatch, force_probe):
    lowered, layout = _k2_lowered()
    if force_probe:
        monkeypatch.setattr(sim, "_EXACT_PATTERN_LIMIT", 0)
    truncated = Circuit(lowered.num_qubits, lowered.measured, lowered.initial_state)
    truncated.extend(lowered.gates[:len(lowered.gates) // 2])
    with pytest.raises(AncillaLeak):
        phase_pattern(truncated, layout, allow_global_phase=True)


def test_phase_pattern_rejects_non_phase_action(monkeypatch):
    lowered, layout = _k2_lowered()
    # gH: a data qubit is no longer diagonal; gX: data strings are permuted
    # inside the prepared support, so only per-string weights expose it
    for spoiler in (gH(0), gX(0)):
        spoiled = lowered.copy()
        spoiled.append(spoiler)
        for limit in (sim._EXACT_PATTERN_LIMIT, 0):
            monkeypatch.setattr(sim, "_EXACT_PATTERN_LIMIT", limit)
            with pytest.raises(AncillaLeak):
                phase_pattern(spoiled, layout, allow_global_phase=True)


def test_tracked_pattern_rejects_leaks(monkeypatch):
    oracle, layout = _k2_oracle()
    monkeypatch.setattr(sim, "_statevector_flips", None)  # tracking only
    truncated = Circuit(oracle.num_qubits, oracle.measured, oracle.initial_state)
    truncated.extend(oracle.gates[:len(oracle.gates) // 2])
    permuted = oracle.copy().append(gX(layout.data[0]))
    output_controlled = oracle.copy().append(gCX(layout.output, layout.data[0]))
    for spoiled in (truncated, permuted, output_controlled):
        for allow_global_phase in (False, True):
            with pytest.raises(AncillaLeak):
                phase_pattern(spoiled, layout, allow_global_phase)


def test_tracked_pattern_equals_statevector_pattern(monkeypatch):
    """Every oracle on up to 4 vertices: bit tracking and the statevector
    batch give the same pattern, with and without the global phase."""
    cases = []
    for n in (2, 3, 4):
        for graph in all_graphs(n):
            for k in (2, 3):
                inst = make_instance(graph, k)
                for mode in ("strict", "paper"):
                    plan = plan_layout(inst, mode)
                    cases.append((build_oracle(inst, mode, plan), plan.layout))
    assert len(cases) == (2 + 8 + 64) * 2 * 2
    tracked = [phase_pattern(o, layout, agp)
               for o, layout in cases for agp in (False, True)]
    monkeypatch.setattr(sim, "_CLASSICAL_KINDS", frozenset())
    simulated = [phase_pattern(o, layout, agp)
                 for o, layout in cases for agp in (False, True)]
    assert tracked == simulated


def test_tracked_pattern_past_the_qubit_ceiling(monkeypatch):
    # 26 and 25 qubits: past the statevector ceiling, not the data one
    for graph, k, width in ((complete_graph(5), 5, 26), (cycle_graph(8), 4, 25)):
        inst = make_instance(graph, k)
        plan = plan_layout(inst, "strict")
        oracle = build_oracle(inst, "strict", plan)
        assert oracle.num_qubits == width > sim.qubit_ceiling()
        assert phase_pattern(oracle, plan.layout) == classical.solutions(inst)
        with pytest.raises(TooManyQubits):
            phase_pattern(lower_circuit(oracle), plan.layout)
    # more data bits than the enumeration ceiling are refused, not tracked
    monkeypatch.setattr(classical, "ENUMERATION_CEILING", plan.layout.num_data - 1)
    with pytest.raises(TooLarge):
        phase_pattern(oracle, plan.layout)
