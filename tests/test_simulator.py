import math
import random

import numpy as np
import pytest

import qkcolor.simulator as sim
from conftest import (ONE_QUBIT_POOL, all_graphs, complete_graph,
                      cycle_graph, random_circuit, ref_gate_matrix,
                      ref_unitary)
from qkcolor import classical
from qkcolor.circuit import (MULTI_KINDS, ONE_QUBIT_KINDS, ROTATION_KINDS,
                             Circuit, Control, Gate, GateKind, gCX, gH, gRY,
                             gX)
from qkcolor.errors import (AncillaLeak, IndexOutOfRange, TooLarge,
                            TooManyQubits, WidthMismatch)
from qkcolor.graphs import Graph, make_instance
from qkcolor.lowering import lower_circuit
from qkcolor.oracle import build_oracle, plan_layout
from qkcolor.simulator import (Statevector, phase_pattern, probabilities,
                               run, run_batch, unitary_of)


def test_basis_state_msb_convention():
    state = Statevector.from_basis(3, [1, 0, 0])
    assert state.amplitudes[0b100] == 1.0
    assert state.bitstring(0b100) == "100"


def test_unitary_matches_independent_reference():
    # widths 1, 2 and 6 put qubit 0 and qubit q-1 in every role
    rng = random.Random(11)
    for width in (4, 1, 2, 6):
        pool = {"pool": ONE_QUBIT_POOL} if width == 1 else {}
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


def test_probabilities_refuses_a_bad_subset():
    state = run(Circuit(3))
    for subset in ([0, 0], [5], [-1]):
        with pytest.raises(IndexOutOfRange, match="must be distinct and inside"):
            probabilities(state, subset)


# Each gate kind with its target and every control at qubit 0, a middle
# qubit and qubit q-1, with mixed polarities on multi-controlled gates
# (and a third control at qubit 3 on 5 qubits).  On 1 to 3 qubits some
# gates act on every qubit, so their blocks are 0-d without a batch axis.
def _placed_gates(q):
    edges = sorted({0, q // 2, q - 1})
    for kind in GateKind:
        angles = (0.0, 0.7, -2.1) if kind in ROTATION_KINDS else (None,)
        if kind is GateKind.SWAP:
            placements = [((), (a, b)) for a in edges for b in edges if a != b]
        elif kind in MULTI_KINDS:
            placements = [
                (tuple(Control(c, p) for c, p in
                       zip([e for e in edges if e != t] + [3] * (q == 5),
                           polarity)), (t,))
                for t in edges
                for polarity in ((True, False, True), (False, True, False))]
        elif kind in (GateKind.CX, GateKind.CZ, GateKind.CRX):
            placements = [((Control(c),), (t,))
                          for c in edges for t in edges if c != t]
        else:
            placements = [((), (t,)) for t in edges]
        for controls, targets in placements:
            for angle in angles:
                yield Gate(kind, controls, targets, angle)


def _permuted(gate, amps, q):
    """``amps`` with the basis states moved as the permutation gate moves
    them, by bit arithmetic on the basis index."""
    out = np.empty_like(amps)
    for i in range(2 ** q):
        bits = [(i >> (q - 1 - b)) & 1 for b in range(q)]
        if all(bits[c.qubit] == c.positive for c in gate.controls):
            if gate.kind is GateKind.SWAP:
                a, b = gate.targets
                bits[a], bits[b] = bits[b], bits[a]
            else:
                bits[gate.targets[0]] ^= 1
        out[int("".join(map(str, bits)), 2)] = amps[i]
    return out


@pytest.mark.parametrize("q", [5, 3, 2, 1])
def test_every_gate_kind_at_every_position(q):
    nrng = np.random.default_rng(q)
    cols = nrng.normal(size=(2 ** q, 3)) + 1j * nrng.normal(size=(2 ** q, 3))
    cols /= np.linalg.norm(cols, axis=0)
    kinds = set()
    for gate in _placed_gates(q):
        kinds.add(gate.kind)
        circ = Circuit(q).append(gate)
        single = run(circ, initial=Statevector(q, cols[:, 0])).amplitudes
        batch = run_batch(circ, cols)
        want = ref_gate_matrix(gate, q) @ cols
        assert np.max(np.abs(single - want[:, 0])) < 1e-12, gate
        assert np.max(np.abs(batch - want)) < 1e-12, gate
        if gate.kind in (GateKind.X, GateKind.CX, GateKind.MCT, GateKind.SWAP):
            assert np.array_equal(single, _permuted(gate, cols[:, 0], q)), gate
            assert np.array_equal(batch, _permuted(gate, cols, q)), gate
    assert kinds == (set(GateKind) if q > 1 else
                     ONE_QUBIT_KINDS | MULTI_KINDS)


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
    # k = 3 lowers its Toffolis to H/CRX/RZ and, in V-chain sweeps, RY,
    # which keep phase_pattern on its statevector paths (k = 2 lowers to
    # X and CX only)
    oracle, layout = _k2_oracle(3)
    lowered = lower_circuit(oracle)
    assert not all(g.kind in sim.PERMUTATION_KINDS for g in lowered.gates)
    return lowered, layout


def test_phase_pattern_single_edge():
    oracle, layout = _k2_oracle()
    assert phase_pattern(oracle, layout) == {"01", "10"}


def test_phase_pattern_detects_ancilla_leak():
    lowered, layout = _k2_lowered()
    truncated = Circuit(lowered.num_qubits, lowered.measured, lowered.initial_state)
    truncated.extend(lowered.gates[:len(lowered.gates) // 2])
    with pytest.raises(AncillaLeak):
        phase_pattern(truncated, layout, allow_global_phase=True)


def test_phase_pattern_rejects_non_phase_action():
    lowered, layout = _k2_lowered()
    # gH: a data qubit is no longer diagonal; gX: data strings are permuted,
    # so each column comes back on the rows of another string
    for spoiler in (gH(0), gX(0)):
        spoiled = lowered.copy()
        spoiled.append(spoiler)
        with pytest.raises(AncillaLeak):
            phase_pattern(spoiled, layout, allow_global_phase=True)


def test_phase_pattern_refuses_a_batch_past_the_limit():
    # lowered K4/k=4 strict: 13 qubits, 8 data bits, 2**21 amplitudes
    inst = make_instance(complete_graph(4), 4)
    plan = plan_layout(inst, "strict")
    lowered = lower_circuit(build_oracle(inst, "strict", plan))
    assert (lowered.num_qubits, plan.layout.num_data) == (13, 8)
    assert 2 ** 21 > sim._EXACT_PATTERN_LIMIT
    with pytest.raises(TooLarge):
        phase_pattern(lowered, plan.layout, allow_global_phase=True)


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
    """Every oracle on up to 4 vertices at k = 2, 3 whose statevector batch
    fits the limit: bit tracking and the batch give the same pattern,
    with and without the global phase."""
    cases = []
    for n in (2, 3, 4):
        for graph in all_graphs(n):
            for k in (2, 3):
                inst = make_instance(graph, k)
                for mode in ("strict", "paper"):
                    plan = plan_layout(inst, mode)
                    layout = plan.layout
                    if (2 ** (layout.num_qubits + layout.num_data)
                            <= sim._EXACT_PATTERN_LIMIT):
                        cases.append((build_oracle(inst, mode, plan), layout))
    # n = 2, 3 at k = 2, 3 and n = 4 at k = 2, both modes; n = 4 at k = 3
    # only in paper mode with at most 2 edges
    assert len(cases) == (2 + 8) * 2 * 2 + 64 * 2 + 22
    tracked = [phase_pattern(o, layout, agp)
               for o, layout in cases for agp in (False, True)]
    monkeypatch.setattr(sim, "PERMUTATION_KINDS", frozenset())
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
