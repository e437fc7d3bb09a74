import itertools
import random

import numpy as np
import pytest

from conftest import (complete_graph, cycle_graph, phase_aligned_distance,
                      random_circuit, ref_gate_matrix, ref_unitary)
from qkcolor import lowering
from qkcolor.circuit import Circuit, Control, Gate, GateKind, gMCT, gSWAP
from qkcolor.graphs import make_instance
from qkcolor.grover import assemble, make_job
from qkcolor.lowering import decompose_mct, lower_circuit
from qkcolor.oracle import build_oracle, plan_layout
from qkcolor.simulator import phase_pattern, unitary_of

LOWERED_ALPHABET = {GateKind.X, GateKind.H, GateKind.Z, GateKind.S,
                    GateKind.T, GateKind.SDG, GateKind.TDG, GateKind.RX,
                    GateKind.RY, GateKind.RZ, GateKind.CX, GateKind.CZ,
                    GateKind.CRX, GateKind.SWAP}


def _decomposition_unitary(gate: Gate, width: int) -> np.ndarray:
    circ = Circuit(width)
    circ.extend(decompose_mct(gate))
    return unitary_of(circ)


@pytest.mark.parametrize("q", range(0, 7))
@pytest.mark.parametrize("kind", [GateKind.MCT, GateKind.MCZ])
def test_decompose_multi_controlled(q, kind):
    width = q + 1
    gate = Gate(kind, controls=tuple(Control(i) for i in range(q)),
                targets=(q,))
    lowered = decompose_mct(gate)
    assert all(g.kind in LOWERED_ALPHABET for g in lowered)
    assert all(len(g.operands) <= 2 for g in lowered)
    got = _decomposition_unitary(gate, width)
    want = ref_gate_matrix(gate, width)
    assert phase_aligned_distance(got, want) < 1e-9


@pytest.mark.parametrize("polarities", list(itertools.product([True, False],
                                                              repeat=3)))
def test_decompose_negative_controls(polarities):
    gate = Gate(GateKind.MCT,
                controls=tuple(Control(i, p) for i, p in enumerate(polarities)),
                targets=(3,))
    got = _decomposition_unitary(gate, 4)
    want = ref_gate_matrix(gate, 4)
    assert phase_aligned_distance(got, want) < 1e-9


def test_decompose_rejects_other_kinds():
    with pytest.raises(ValueError):
        decompose_mct(gSWAP(0, 1))


def test_lower_circuit_random_equivalence():
    rng = random.Random(23)
    for _ in range(10):
        circ = random_circuit(4, 10, rng)
        lowered = lower_circuit(circ)
        assert all(g.kind in LOWERED_ALPHABET for g in lowered.gates)
        assert phase_aligned_distance(unitary_of(lowered),
                                      ref_unitary(circ)) < 1e-9


def test_lowering_is_idempotent():
    rng = random.Random(31)
    circ = random_circuit(4, 15, rng)
    once = lower_circuit(circ)
    twice = lower_circuit(once)
    assert twice.gates == once.gates


def test_lowering_preserves_register_metadata():
    circ = Circuit(3, initial_state=[1, 0, 1])
    circ.append(gMCT([0, 1], 2))
    lowered = lower_circuit(circ)
    assert lowered.initial_state == [1, 0, 1]
    assert lowered.roles == circ.roles


def test_cx_basis_leaves_only_cx_two_qubit_gates():
    rng = random.Random(41)
    circ = random_circuit(4, 12, rng)
    lowered = lower_circuit(circ, basis="cx")
    for g in lowered.gates:
        if len(g.operands) == 2:
            assert g.kind is GateKind.CX
    assert phase_aligned_distance(unitary_of(lowered),
                                  ref_unitary(circ)) < 1e-9


def test_unknown_basis_rejected():
    with pytest.raises(ValueError):
        lower_circuit(Circuit(2), basis="iswap")


def test_lowered_oracle_preserves_phase_pattern():
    inst = make_instance(complete_graph(3), 3)
    plan = plan_layout(inst, "paper")
    oracle = build_oracle(inst, "paper", plan)
    pattern = phase_pattern(oracle, plan.layout)
    lowered = lower_circuit(oracle)
    assert phase_pattern(lowered, plan.layout,
                         allow_global_phase=True) == pattern


def _multi(kind, controls, target, width):
    circ = Circuit(width)
    circ.append(Gate(kind, controls=tuple(controls), targets=(target,)))
    return circ


# (width, controls): free = width - controls - 1 qubits to borrow.  Free
# >= controls - 2 takes the V-chain, 1 to controls - 3 the split.
BORROWED_SHAPES = [(5, 3), (6, 3), (7, 3), (7, 4), (6, 4), (7, 5)]


@pytest.mark.parametrize("width,n", BORROWED_SHAPES)
@pytest.mark.parametrize("kind", [GateKind.MCT, GateKind.MCZ])
def test_borrowed_lowering_is_exact(width, n, kind):
    # The full unitary covers every state of the borrowed qubits, so it
    # also shows that they come back unchanged.
    rng = random.Random(f"{width}:{n}:{kind.value}")
    for _ in range(2):
        qubits = rng.sample(range(width), n + 1)
        controls = [Control(q, rng.random() < 0.6) for q in qubits[:-1]]
        circ = _multi(kind, controls, qubits[-1], width)
        lowered = lower_circuit(circ)
        assert all(g.kind in LOWERED_ALPHABET for g in lowered.gates)
        fallback = Circuit(width)
        fallback.extend(decompose_mct(circ.gates[0]))
        # fewer 2-qubit gates: the borrowed path was taken
        assert (lowered.stats().two_qubit_count
                < fallback.stats().two_qubit_count)
        assert phase_aligned_distance(unitary_of(lowered),
                                      ref_unitary(circ)) < 1e-9


def test_borrowed_lowering_inside_a_circuit():
    rng = random.Random(53)
    for width in (6, 7):
        circ = random_circuit(width, 30, rng, max_controls=width - 2)
        assert phase_aligned_distance(unitary_of(lower_circuit(circ)),
                                      ref_unitary(circ)) < 1e-9


def _counts(circ):
    stats = circ.stats()
    return stats.gate_count, stats.two_qubit_count


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("kind", [GateKind.MCT, GateKind.MCZ])
def test_borrowed_count_never_exceeds_fallback(n, kind):
    controls = [Control(q) for q in range(n)]
    fallback = Circuit(n + 1)
    fallback.extend(decompose_mct(Gate(kind, tuple(controls), (n,))))
    limit = _counts(fallback)
    rng = random.Random(n)
    for free in range(n):
        width = n + 1 + free
        got = _counts(lower_circuit(_multi(kind, controls, n, width)))
        assert got[0] <= limit[0] and got[1] <= limit[1]
        if free >= n - 2:
            assert got[0] <= 36 * (n - 2) + 2
        # the count depends on the sizes only, not on the qubit labels
        perm = list(range(width))
        rng.shuffle(perm)
        shuffled = _multi(kind, [Control(perm[c.qubit]) for c in controls],
                          perm[n], width)
        assert _counts(lower_circuit(shuffled)) == got


LADDER = [("K3", complete_graph(3), 3), ("C6", cycle_graph(6), 2),
          ("K4", complete_graph(4), 4), ("C5", cycle_graph(5), 3),
          ("C10", cycle_graph(10), 2)]


def test_ladder_never_takes_the_exponential_path(monkeypatch):
    arities = []

    def recording(gate):
        arities.append(len(gate.controls))
        return decompose_mct(gate)

    monkeypatch.setattr(lowering, "decompose_mct", recording)
    sizes = {}
    for label, graph, k in LADDER:
        circ = assemble(make_job(make_instance(graph, k), "strict"))
        assert max(circ.stats().mct_count_by_arity) >= 3
        sizes[label] = len(lower_circuit(circ).gates)
    assert max(arities) <= 2
    assert sizes["C5"] <= 4000
