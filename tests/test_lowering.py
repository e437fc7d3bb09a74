import cmath
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from conftest import (all_graphs, complete_graph, cycle_graph,
                      phase_aligned_distance, random_circuit, ref_gate_matrix,
                      ref_unitary, unitary_of)
from qkcolor import lowering
from qkcolor.circuit import (LOWERED_KINDS, MULTI_KINDS, Circuit, Control,
                             Gate, GateKind, gCX, gMCT, gMCZ, gX)
from qkcolor.errors import UnloweredGate
from qkcolor.graphs import Graph, make_instance
from qkcolor.grover import assemble, make_job
from qkcolor.lowering import _phase_top, lower_circuit
from qkcolor.oracle import build_comparator, build_oracle, plan_layout
from qkcolor.qasm import emit_qasm
from qkcolor.routing import line_coupling, sabre_route, verify_constraints
from qkcolor.simulator import _HELD_LIMIT, phase_pattern, probabilities, run

# The lowered alphabet, written out once: what lower_circuit emits, and
# all that LOWERED_KINDS admits (test_pipeline_emits_the_whole_alphabet).
LOWERED_ALPHABET = {GateKind(name) for name in
                    ("x", "h", "z", "ry", "rz", "cx", "swap")}


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
    for kind in (GateKind.MCT, GateKind.MCZ):
        circ = _multi(kind, [Control(i, p) for i, p in enumerate(polarities)],
                      3, 5)
        got = unitary_of(lower_circuit(circ))
        want = ref_gate_matrix(circ.gates[0], 5)
        assert phase_aligned_distance(got, want) < 1e-9


@pytest.mark.parametrize("kind,gates,hs", [(GateKind.MCZ, 13, 0),
                                           (GateKind.MCT, 15, 2)])
def test_exact_two_control_gate(kind, gates, hs):
    # a lone 2-control gate has no mirror window, so it is exact: the CCZ
    # is a phase top and a controlled S, of CX and RZ only, and the
    # Toffoli is that CCZ in H on its target; each negative control adds
    # an X pair
    for polarities in itertools.product([True, False], repeat=2):
        circ = _multi(kind, [Control(i, p) for i, p in enumerate(polarities)],
                      2, 3)
        lowered = lower_circuit(circ).gates
        negatives = polarities.count(False)
        assert len(lowered) == gates + 2 * negatives
        assert [sum(g.kind is k for g in lowered)
                for k in (GateKind.CX, GateKind.H, GateKind.X)] == [
                    6, hs, 2 * negatives]
        assert {g.kind for g in lowered} <= {GateKind.CX, GateKind.RZ,
                                             GateKind.H, GateKind.X}
        got = unitary_of(Circuit(3).extend(lowered))
        assert phase_aligned_distance(got, ref_gate_matrix(circ.gates[0],
                                                           3)) < 1e-9


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
    for basis in ("default", "cx"):
        once = lower_circuit(circ, basis)
        assert lower_circuit(once, basis).gates == once.gates


def test_routed_circuits_pass_unchanged():
    # With no MCT or MCZ there is no mirror window, so nothing is folded:
    # a fold on a routed circuit could put a CX on an uncoupled pair.
    ladder = Circuit(3).extend([gCX(0, 1), gX(1), gCX(1, 2), gCX(0, 1)])
    assert lower_circuit(ladder).gates == ladder.gates
    circ = assemble(make_job(make_instance(complete_graph(3), 3), "strict"))
    coupling = line_coupling(13)
    routed = sabre_route(lower_circuit(circ), coupling, seed=0).routed
    assert lower_circuit(routed).gates == routed.gates
    assert verify_constraints(lower_circuit(routed, "cx"), coupling)


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
BORROWED_SHAPES = [(5, 3), (6, 3), (7, 3), (7, 4), (6, 4), (7, 5),
                   (8, 4), (8, 5), (8, 6), (9, 5)]


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


def _expected_counts(n, free, kind):
    """Gates and 2-qubit gates of a positive-control C^nX or C^nZ with
    ``free`` idle qubits, 1 <= free.  A V-chain on m >= 3 controls has 2
    exact Toffolis (15 gates, 6 of them CX) and 4(m-2)-2 Margolus
    sweep Toffolis (7 gates, 3 of them 2-qubit); on 2 controls it is one
    exact Toffoli.  The split is two V-chains, on the first half of the
    controls and on the rest plus the borrowed qubit, twice.  A C^nZ is
    the C^nX and 2 H on its target, but on the V-chain, where its tops
    are two 8-gate phase tops, 4 of them CX: 28n-54 gates, 12n-22 of
    them 2-qubit.  All counts are below what the ancilla-free recursion
    this lowering replaced gave, the fallback of the test name."""
    def vchain(m):
        exact, margolus = (1, 0) if m == 2 else (2, 4 * (m - 2) - 2)
        return 15 * exact + 7 * margolus, 6 * exact + 3 * margolus
    if free >= n - 2:
        if kind is GateKind.MCZ:
            return 28 * n - 54, 12 * n - 22
        return vchain(n)
    half = (n + 1) // 2
    chains = (vchain(half), vchain(n - half + 1))
    # a split MCZ adds the two H on its target
    return (2 * sum(c[0] for c in chains) + 2 * (kind is GateKind.MCZ),
            2 * sum(c[1] for c in chains))


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
        assert got == _expected_counts(n, free, kind)
        # the count depends on the sizes only, not on the qubit labels
        perm = list(range(width))
        rng.shuffle(perm)
        shuffled = _multi(kind, [Control(perm[c.qubit]) for c in controls],
                          perm[n], width)
        assert _counts(lower_circuit(shuffled)) == got


def test_phase_top_is_ccz_times_a_phase_on_c_and_t():
    # exactly exp(i(pi act - pi/2 ct)): CCZ(c, a, t) and a phase on c and t
    # alone, which T^-1 cancels; no global phase, its RZ angles sum to 0
    c, a, t = 2, 0, 1
    got = unitary_of(Circuit(3).extend(_phase_top(c, a, t)))

    def bit(i, q):
        return (i >> (2 - q)) & 1

    want = np.diag([cmath.exp(1j * math.pi * bit(i, c) * bit(i, t)
                              * (bit(i, a) - 0.5)) for i in range(8)])
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", range(3, 7))
def test_borrowed_mcz_is_exact(n):
    # n-2 free qubits, so T S T^-1 S^-1 with no H on the target; random
    # polarities and labels.  An MCZ is diagonal, so the lowered unitary
    # must be the diagonal of signs up to one global phase.  (The dense
    # unitary on 11 qubits, n = 6, takes about 5 s.)
    rng = random.Random(f"mcz:{n}")
    width = 2 * n - 1
    qubits = rng.sample(range(width), n + 1)
    controls = [Control(q, rng.random() < 0.5) for q in qubits[:-1]]
    lowered = lower_circuit(_multi(GateKind.MCZ, controls, qubits[-1], width))
    assert not any(g.kind is GateKind.H for g in lowered.gates)
    got = unitary_of(lowered)
    diagonal = np.diag(got).copy()
    assert np.max(np.abs(got - np.diag(diagonal))) < 1e-9
    index = np.arange(2 ** width)
    marked = np.ones(2 ** width, dtype=bool)
    for q, positive in [(c.qubit, c.positive) for c in controls] + [
            (qubits[-1], True)]:
        marked &= ((index >> (width - 1 - q)) & 1) == positive
    want = np.where(marked, -1.0, 1.0) * diagonal[0]
    assert np.max(np.abs(diagonal - want)) < 1e-9


def _fold_window(rng, width, kind):
    """W K W^-1 with W of comparator-like runs: a CX ladder onto the
    controls of a 2-control MCT, the MCT, and the ladder again, with X
    and CX gates strewn in; off K's target under an MCT."""
    tau = rng.randrange(width)
    others = [q for q in range(width) if kind is GateKind.MCZ or q != tau]
    w = []
    for _ in range(rng.randint(1, 3)):
        qubits = rng.sample(others, 3)
        sources = [q for q in others if q not in qubits]
        ladder = [gCX(rng.choice(sources), q) for q in qubits[:2]
                  if rng.random() < 0.8]
        w += ladder + [gMCT([(q, rng.random() < 0.5) for q in qubits[:2]],
                            qubits[2])] + ladder[::-1]
        for _ in range(rng.randint(0, 2)):
            at = rng.randrange(len(w) + 1)
            w.insert(at, gX(rng.choice(others)) if rng.random() < 0.5
                     else gCX(*rng.sample(others, 2)))
    controls = rng.sample([q for q in range(width) if q != tau],
                          rng.randint(0, width - 2))
    k = Gate(kind, controls=tuple(Control(q, rng.random() < 0.7)
                                  for q in controls), targets=(tau,))
    return _window(w, k, width)


@pytest.mark.parametrize("width", [5, 6, 7])
@pytest.mark.parametrize("kind", [GateKind.MCT, GateKind.MCZ])
def test_folded_windows_are_exact(width, kind, monkeypatch):
    rng = random.Random(f"fold:{width}:{kind.value}")
    circuits = [_fold_window(rng, width, kind) for _ in range(6)]
    folded = [lower_circuit(circ) for circ in circuits]
    for circ, lowered in zip(circuits, folded):
        assert all(g.kind in LOWERED_ALPHABET for g in lowered.gates)
        assert phase_aligned_distance(unitary_of(lowered),
                                      ref_unitary(circ)) < 1e-9
    # the same windows with the fold turned off have more 2-qubit gates
    monkeypatch.setattr(lowering, "_folded", list)
    unfolded = [lower_circuit(circ) for circ in circuits]
    fewer = [_counts(b)[1] - _counts(a)[1] for a, b in zip(folded, unfolded)]
    assert min(fewer) >= 0 and sum(fewer) > 0


@pytest.mark.parametrize("c,cx", [(1, 2), (2, 6)])
def test_comparator_folds_in_a_window(c, cx):
    # c = 1: X CX(b, f) CX(a, f) X, not CX(a, b) X CX(b, f) X CX(a, b);
    # c = 2: the ladder CX onto the Margolus control used once folds
    f = 2 * c
    comparator = build_comparator(range(c), range(c, 2 * c), f)
    circ = _window(comparator, gMCZ([], f), 2 * c + 1)
    lowered = lower_circuit(circ).gates
    centre = lowered.index(Gate(GateKind.Z, targets=(f,)))
    assert [sum(g.kind is GateKind.CX for g in side)
            for side in (lowered[:centre], lowered[centre + 1:])] == [cx, cx]
    got = unitary_of(Circuit(2 * c + 1).extend(lowered))
    assert phase_aligned_distance(got, ref_unitary(circ)) < 1e-9


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


# (gates, 2-qubit gates) lowered, every 2-qubit gate a CX, and the
# sha256 of the emitted QASM, so the lowered output is pinned byte for
# byte.  A lowering change must re-pin them deliberately.  basis="cx"
# rewrites only swaps, so it leaves these unrouted circuits as they are.
LADDER_COUNTS = {
    "K3": ((600, 232),
           "29f98a725522716bc6082efed7cef07486b35e782507abc7da6bf2afaddbfbbd"),
    "C6": ((882, 344),
           "50232e9c4af1255925216a4fcf169a3fa942adc777f3a5eb8aea761007325c27"),
    "K4": ((918, 348),
           "aba5fbc189ef8f00277aea213896b2a4b8507ccceee2af1557f0e769ce6b8e01"),
    "C5": ((2302, 896),
           "1b4dc7850a206007beb1319baaf450160cacc042eba05f2a7454e91a4a7bbbbd"),
    "C10": ((7541, 2958),
            "ca9b772673c78ac9bbdb19452f90b877d477189dc7ed8092fe9c34ffbfc3dc78"),
}


@pytest.mark.parametrize("label", sorted(LADDER_COUNTS))
def test_ladder_lowered_counts(label):
    graph, k = next((g, k) for name, g, k in LADDER if name == label)
    circ = assemble(make_job(make_instance(graph, k), "strict"))
    counts, digest = LADDER_COUNTS[label]
    lowered = lower_circuit(circ)
    assert _counts(lowered) == counts
    assert {g.kind for g in lowered.gates if len(g.operands) == 2} == {
        GateKind.CX}
    assert lower_circuit(circ, "cx").gates == lowered.gates
    assert hashlib.sha256(emit_qasm(lowered).encode()).hexdigest() == digest


def test_pipeline_emits_the_whole_alphabet():
    # The ladder in both modes, the routed K3/k=3 circuit for swap, and a
    # Grover circuit on 1 data qubit, whose diffusion MCZ has no control,
    # for z.
    circuits = [assemble(make_job(make_instance(graph, k), mode))
                for _, graph, k in LADDER for mode in ("strict", "paper")]
    circuits.append(sabre_route(lower_circuit(circuits[0]), line_coupling(13),
                                seed=0).routed)
    circuits.append(assemble(make_job(make_instance(Graph(1, frozenset()), 2),
                                      iterations=1)))
    emitted = {gate.kind for circ in circuits
               for gate in lower_circuit(circ).gates}
    assert emitted == LOWERED_KINDS == LOWERED_ALPHABET


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


def test_edgeless_paper_detector_lowers_in_a_window():
    # with no edge the paper kickback is a control-free MCZ on the shared
    # valid flag, so the detector is the W of a mirror window and its
    # Toffolis are Margolus: no RZ, which only an exact CCZ or Toffoli
    # and a phase top emit
    for n in range(1, 5):
        inst = make_instance(Graph(n, frozenset()), 3)
        lowered = lower_circuit(build_oracle(inst, "paper"))
        assert not any(g.kind is GateKind.RZ for g in lowered.gates), n
        assert len(lowered.gates) == 1 + 14 * n


def _gate_by_gate(circ):
    """Each gate lowered on its own: no mirror window spans two gates."""
    width = circ.num_qubits
    return [low for gate in circ.gates
            for low in lower_circuit(Circuit(width).append(gate)).gates]


def _window(w, k, width):
    circ = Circuit(width)
    circ.extend(w + [k] + [g.adjoint() for g in reversed(w)])
    return circ


def _random_window(rng, width, kind):
    """W K W^-1 with W of X, CX and MCTs on 2-4 controls, none of them
    on K's target."""
    tau = rng.randrange(width)
    others = [q for q in range(width) if q != tau]
    w = []
    for _ in range(rng.randint(2, 5)):
        pick = rng.random()
        if pick < 0.2:
            w.append(gX(rng.choice(others)))
        elif pick < 0.4:
            w.append(gCX(*rng.sample(others, 2)))
        else:
            n = rng.randint(2, min(4, len(others) - 1))
            qubits = rng.sample(others, n + 1)
            w.append(gMCT([(q, rng.random() < 0.7) for q in qubits[:-1]],
                          qubits[-1]))
    # at most width - 2 controls, so a wide K has a qubit to borrow
    controls = rng.sample(others, rng.randint(0, width - 2))
    k = Gate(kind, controls=tuple(Control(q, rng.random() < 0.7)
                                  for q in controls), targets=(tau,))
    return _window(w, k, width)


@pytest.mark.parametrize("width", [5, 6, 7])
@pytest.mark.parametrize("kind", [GateKind.MCT, GateKind.MCZ])
def test_mirror_windows_are_exact(width, kind):
    # W's gates may leave K's target as their only free qubit (3 controls
    # on 5 qubits, 4 on 6), and the wider ones take the V-chain or split.
    rng = random.Random(f"window:{width}:{kind.value}")
    saved = 0
    for _ in range(4):
        circ = _random_window(rng, width, kind)
        lowered = lower_circuit(circ)
        assert all(g.kind in LOWERED_ALPHABET for g in lowered.gates)
        assert phase_aligned_distance(unitary_of(lowered),
                                      ref_unitary(circ)) < 1e-9
        fewer = (sum(len(g.operands) == 2 for g in _gate_by_gate(circ))
                 - _counts(lowered)[1])
        assert fewer >= 0
        saved += fewer
    assert saved > 0


def test_near_mirrors_lower_gate_by_gate():
    k = gMCT([0, 2], 5)
    w = [gMCT([0, 1], 2), gMCT([1, 2, 3], 4)]
    # the W gate next to K has K's target as an operand
    touching = _window(w + [gCX(4, 5)], k, 6)
    # the gate after K is not the adjoint of the one before it
    near = Circuit(6)
    near.extend(w + [gCX(1, 3), k, gCX(3, 1)] + w[::-1])
    for circ in (touching, near):
        lowered = lower_circuit(circ)
        assert lowered.gates == _gate_by_gate(circ)
        assert phase_aligned_distance(unitary_of(lowered),
                                      ref_unitary(circ)) < 1e-9
    # the same W with an exact mirror does take the rule
    assert len(lower_circuit(_window(w, k, 6)).gates) < len(
        _gate_by_gate(_window(w, k, 6)))


def test_mcz_window_borrows_its_target():
    # the compute side's relative phase is diagonal, so it commutes with
    # an MCZ wherever it sits: W's MCT borrows K's target, qubit 4, and is
    # a V-chain of Margolus Toffolis only, 28 gates and 12 of them 2-qubit
    # on each side; K is one cx in h
    circ = _window([gMCT([0, 1, 2], 3)], gMCZ([3], 4), 5)
    lowered = lower_circuit(circ)
    assert _counts(lowered) == (2 * 28 + 3, 2 * 12 + 1)
    assert not any(g.kind is GateKind.RZ for g in lowered.gates)
    assert phase_aligned_distance(unitary_of(lowered),
                                  ref_unitary(circ)) < 1e-9


def test_window_gate_with_only_the_target_free():
    # the MCT in W leaves only qubit 4, K's target, to borrow, so it is
    # lowered exactly on it instead of raising UnloweredGate
    w = [gMCT([0, 1, 2], 3), gMCT([0, 1], 2)]
    circ = _window(w, gMCT([1, 3], 4), 5)
    lowered = lower_circuit(circ)
    exact = lower_circuit(Circuit(5).append(w[0])).gates
    assert lowered.gates[:len(exact)] == exact
    assert phase_aligned_distance(unitary_of(lowered),
                                  ref_unitary(circ)) < 1e-9


@pytest.mark.parametrize("n", range(3, 8))
def test_relative_vchain_count(n):
    # W has n controls and n-2 free qubits besides K's target 2n-1, so
    # each side is a V-chain of Margolus Toffolis only, 28n-56 gates and
    # 12n-24 of them 2-qubit; K is one exact Toffoli, 15 gates and 6
    w = gMCT(list(range(n)), n)
    circ = _window([w], gMCT([0, n], 2 * n - 1), 2 * n)
    assert _counts(lower_circuit(circ)) == (2 * (28 * n - 56) + 15,
                                            2 * (12 * n - 24) + 6)


def test_lowered_oracles_keep_the_ir_pattern():
    # The mirror cancels the compute section's relative phases; a leak or
    # a wrong sign on any data string would show here.  Every oracle on
    # 2-4 vertices at k = 2..4 with at most 2**20 rows in all, 2**(q+m);
    # of the other 150, 128 check in about 20 s (2-vCPU Xeon) and 22 are
    # refused.
    checked = past_limit = 0
    for n in (2, 3, 4):
        for graph in all_graphs(n):
            for k in (2, 3, 4):
                inst = make_instance(graph, k)
                for mode in ("strict", "paper"):
                    plan = plan_layout(inst, mode)
                    layout = plan.layout
                    if (2 ** (layout.num_qubits + layout.num_data)
                            > _HELD_LIMIT):
                        past_limit += 1
                        continue
                    oracle = build_oracle(inst, mode, plan)
                    assert (phase_pattern(lower_circuit(oracle), layout,
                                          allow_global_phase=True)
                            == phase_pattern(oracle, layout,
                                             allow_global_phase=True))
                    checked += 1
    # 60 on 2-3 vertices and 234 on 4; only 4-vertex cases have more
    assert (checked, past_limit) == (60 + 234, 150)


@pytest.mark.parametrize("label", ["K3", "C6", "K4", "C5", "C10"])
def test_lowered_grover_keeps_the_data_distribution(label):
    graph, k = next((g, k) for name, g, k in LADDER if name == label)
    circ = assemble(make_job(make_instance(graph, k), "strict"))
    data = circ.measured
    lowered, ir = run(lower_circuit(circ)), run(circ)
    # run drops only round-off residues (lowered C5/k=3 and C10/k=2: 20
    # qubits, 2,304 and 7,517 gates)
    assert lowered.dropped <= 1e-20 and ir.dropped <= 1e-20
    # the whole state, ancillas included, up to the lowering's global phase
    assert phase_aligned_distance(lowered.amplitudes, ir.amplitudes) < 1e-9
    got = probabilities(lowered, data)
    want = probabilities(ir, data)
    assert got.keys() == want.keys()
    assert max(abs(got[s] - want[s]) for s in want) < 1e-9
