import itertools
import random

import pytest

from conftest import (all_graphs, complete_graph, cycle_graph,
                      phase_aligned_distance, random_circuit, ref_gate_matrix,
                      ref_unitary)
from qkcolor.circuit import MULTI_KINDS, Circuit, Control, Gate, GateKind, gMCT
from qkcolor.errors import UnloweredGate
from qkcolor.graphs import make_instance
from qkcolor.grover import assemble, make_job
from qkcolor.lowering import lower_circuit
from qkcolor.oracle import build_oracle, plan_layout
from qkcolor.simulator import phase_pattern, unitary_of

LOWERED_ALPHABET = {GateKind.X, GateKind.H, GateKind.Z, GateKind.S,
                    GateKind.T, GateKind.SDG, GateKind.TDG, GateKind.RX,
                    GateKind.RY, GateKind.RZ, GateKind.CX, GateKind.CZ,
                    GateKind.CRX, GateKind.SWAP}


def _multi(kind, controls, target, width):
    circ = Circuit(width)
    circ.append(Gate(kind, controls=tuple(controls), targets=(target,)))
    return circ


@pytest.mark.parametrize("q", range(0, 7))
@pytest.mark.parametrize("kind", [GateKind.MCT, GateKind.MCZ])
def test_decompose_multi_controlled(q, kind):
    # full width up to 2 controls; from 3 on, one idle qubit to borrow
    # (the V-chain at q = 3, the split from q = 4)
    width = q + 1 if q <= 2 else q + 2
    circ = _multi(kind, [Control(i) for i in range(q)], q, width)
    lowered = lower_circuit(circ)
    assert all(g.kind in LOWERED_ALPHABET for g in lowered.gates)
    assert all(len(g.operands) <= 2 for g in lowered.gates)
    want = ref_gate_matrix(circ.gates[0], width)
    assert phase_aligned_distance(unitary_of(lowered), want) < 1e-9


@pytest.mark.parametrize("polarities", list(itertools.product([True, False],
                                                              repeat=3)))
def test_decompose_negative_controls(polarities):
    circ = _multi(GateKind.MCT,
                  [Control(i, p) for i, p in enumerate(polarities)], 3, 5)
    got = unitary_of(lower_circuit(circ))
    want = ref_gate_matrix(circ.gates[0], 5)
    assert phase_aligned_distance(got, want) < 1e-9


@pytest.mark.parametrize("kind", [GateKind.MCT, GateKind.MCZ])
def test_no_idle_qubit_is_refused(kind):
    for q in range(3, 7):
        circ = _multi(kind, [Control(i) for i in range(q)], q, q + 1)
        message = f"{kind.value} with {q} controls on a {q + 1}-qubit"
        with pytest.raises(UnloweredGate, match=message):
            lower_circuit(circ)
    for q in range(0, 3):
        circ = _multi(kind, [Control(i) for i in range(q)], q, q + 1)
        assert lower_circuit(circ).gates


def test_lower_circuit_random_equivalence():
    rng = random.Random(23)
    for _ in range(10):
        circ = random_circuit(4, 10, rng, max_controls=2)
        lowered = lower_circuit(circ)
        assert all(g.kind in LOWERED_ALPHABET for g in lowered.gates)
        assert phase_aligned_distance(unitary_of(lowered),
                                      ref_unitary(circ)) < 1e-9


def test_lowering_is_idempotent():
    rng = random.Random(31)
    circ = random_circuit(4, 15, rng, max_controls=2)
    once = lower_circuit(circ)
    twice = lower_circuit(once)
    assert twice.gates == once.gates


def test_lowering_preserves_register_metadata():
    circ = Circuit(3, measured=[2, 0], initial_state=[1, 0, 1])
    circ.append(gMCT([0, 1], 2))
    for basis in ("default", "cx"):
        lowered = lower_circuit(circ, basis)
        assert lowered.initial_state == [1, 0, 1]
        assert lowered.measured == (2, 0)


def test_cx_basis_leaves_only_cx_two_qubit_gates():
    rng = random.Random(41)
    circ = random_circuit(4, 12, rng, max_controls=2)
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


def _expected_counts(n, free):
    """Gates and 2-qubit gates of a positive-control C^nX with ``free``
    idle qubits, 1 <= free: 9 and 6 per Toffoli.  Both are at most what
    the ancilla-free recursion this lowering replaced gave, the fallback
    of the test name."""
    if free >= n - 2:
        toffolis = 4 * (n - 2)  # V-chain
    elif n == 4:
        toffolis = 10  # split into V-chains of 2 and 3 controls, twice
    else:
        toffolis = 8 * (n - 3)  # split
    return 9 * toffolis, 6 * toffolis


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("kind", [GateKind.MCT, GateKind.MCZ])
def test_borrowed_count_never_exceeds_fallback(n, kind):
    controls = [Control(q) for q in range(n)]
    rng = random.Random(n)
    with pytest.raises(UnloweredGate):
        lower_circuit(_multi(kind, controls, n, n + 1))
    for free in range(1, n):
        width = n + 1 + free
        got = _counts(lower_circuit(_multi(kind, controls, n, width)))
        gates, two = _expected_counts(n, free)
        # MCZ adds the two H on its target
        assert got == (gates + 2 * (kind is GateKind.MCZ), two)
        # the count depends on the sizes only, not on the qubit labels
        perm = list(range(width))
        rng.shuffle(perm)
        shuffled = _multi(kind, [Control(perm[c.qubit]) for c in controls],
                          perm[n], width)
        assert _counts(lower_circuit(shuffled)) == got


LADDER = [("K3", complete_graph(3), 3), ("C6", cycle_graph(6), 2),
          ("K4", complete_graph(4), 4), ("C5", cycle_graph(5), 3),
          ("C10", cycle_graph(10), 2)]


def test_ladder_lowers_linearly():
    sizes = {}
    for label, graph, k in LADDER:
        circ = assemble(make_job(make_instance(graph, k), "strict"))
        assert max(circ.stats().mct_count_by_arity) >= 3
        sizes[label] = len(lower_circuit(circ).gates)
    assert sizes["C5"] <= 4000


def test_every_wide_mct_leaves_a_qubit_idle():
    # A gate with 3 or more controls and no idle qubit is refused, so no
    # oracle or Grover circuit may contain one.
    checked = 0
    for n in range(1, 5):
        for graph in all_graphs(n):
            for k in range(2, 6):
                for mode in ("strict", "paper"):
                    job = make_job(make_instance(graph, k), mode, iterations=1)
                    circ = assemble(job)
                    for gate in circ.gates:
                        if gate.kind in MULTI_KINDS and len(gate.controls) >= 3:
                            assert len(gate.operands) < circ.num_qubits
                    checked += 1
    assert checked == 600
