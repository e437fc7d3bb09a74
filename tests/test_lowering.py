import hashlib
import itertools
import random

import pytest

from conftest import (all_graphs, complete_graph, cycle_graph, path_graph,
                      phase_aligned_distance, random_circuit, ref_gate_matrix,
                      ref_unitary, unitary_of)
from qkcolor.circuit import (LOWERED_KINDS, MULTI_KINDS, Circuit, Control,
                             Gate, GateKind, gCX, gMCT, gX)
from qkcolor.errors import UnloweredGate
from qkcolor.graphs import Graph, make_instance
from qkcolor.grover import assemble, make_job
from qkcolor.lowering import lower_circuit
from qkcolor.oracle import build_oracle, plan_layout
from qkcolor.qasm import emit_qasm
from qkcolor.routing import line_coupling, sabre_route
from qkcolor.simulator import (_EXACT_PATTERN_LIMIT, phase_pattern,
                               probabilities, run)

# The lowered alphabet, written out once: what lower_circuit emits, and
# all that LOWERED_KINDS admits (test_pipeline_emits_the_whole_alphabet).
LOWERED_ALPHABET = {GateKind(name) for name in
                    ("x", "h", "z", "ry", "rz", "cx", "cz", "crx", "swap")}


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


def _expected_counts(n, free):
    """Gates and 2-qubit gates of a positive-control C^nX with ``free``
    idle qubits, 1 <= free.  A V-chain on m >= 3 controls has 2 exact
    Toffolis (9 gates, 6 of them 2-qubit) and 4(m-2)-2 Margolus sweep
    Toffolis (7 gates, 3 of them 2-qubit); on 2 controls it is one exact
    Toffoli.  The split is two V-chains, on the first half of the
    controls and on the rest plus the borrowed qubit, twice.  Both counts
    are below what the ancilla-free recursion this lowering replaced
    gave, the fallback of the test name."""
    def vchain(m):
        exact, margolus = (1, 0) if m == 2 else (2, 4 * (m - 2) - 2)
        return 9 * exact + 7 * margolus, 6 * exact + 3 * margolus
    if free >= n - 2:
        return vchain(n)
    half = (n + 1) // 2
    chains = (vchain(half), vchain(n - half + 1))
    return 2 * sum(c[0] for c in chains), 2 * sum(c[1] for c in chains)


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


# (gates, 2-qubit gates) lowered in the default basis, the CX count
# under basis="cx", and the sha256 of the emitted QASM in the default
# and the cx basis, so the lowered output is pinned byte for byte.  A
# lowering change must re-pin them deliberately.
LADDER_COUNTS = {
    "K3": ((738, 312), 344,
           ("55c4106f66b1fdaa06c85701e41121bbbc9cd7831adfcd2f4cf0d8a921254e0a",
            "055811d6de66e80d62b3d70234c89eb6bed7ae07673799ce11b32000693bcef0")),
    "C6": ((1174, 528), None,
           ("58208234280148b04442dc59eb9846e9c596ac073f998919d97fc022d7a737a5",
            "1d624ccc71048ee72df3a418f14fb3a11e3417e386ef150f0edd4eb9b8862ee1")),
    "K4": ((1146, 492), 524,
           ("30257e37342372e84c9fe23f15b54e52d0cc60d3236359aa7807c430686caf7f",
            "728f566c56b1eac6d2f751bb1190374e8e683451fc6e0bcb0ec9251101b16de4")),
    "C5": ((2782, 1168), 1232,
           ("841ca693aed3075b19039ffe98e62f279471db688fbd546cdf76ac3781d21514",
            "8e083d8cd0648f005128e6c24157ab5abf1fcc4031100ffdeff7064c05f72fc1")),
    "C10": ((9712, 4284), 4556,
            ("95272bc1e02a777c5f4eef2ca459007380d5a18f0cfaf50934259aaf4d494688",
             "e2594ff6a7bad04b5120a93767385b742bf846e97db8d1372f131d7cf02dbdd8")),
}


@pytest.mark.parametrize("label", sorted(LADDER_COUNTS))
def test_ladder_lowered_counts(label):
    graph, k = next((g, k) for name, g, k in LADDER if name == label)
    circ = assemble(make_job(make_instance(graph, k), "strict"))
    counts, cx, digests = LADDER_COUNTS[label]
    assert _counts(lower_circuit(circ)) == counts
    if cx is not None:
        assert sum(g.kind is GateKind.CX
                   for g in lower_circuit(circ, "cx").gates) == cx
    assert tuple(hashlib.sha256(emit_qasm(lower_circuit(circ, basis))
                                .encode()).hexdigest()
                 for basis in ("default", "cx")) == digests


def test_pipeline_emits_the_whole_alphabet():
    # The ladder in both modes, the routed K3/k=3 circuit for swap, a
    # Grover circuit on 2 data qubits, whose diffusion MCZ has 1 control,
    # for cz, and one on 1 data qubit, where it has none, for z.
    circuits = [assemble(make_job(make_instance(graph, k), mode))
                for _, graph, k in LADDER for mode in ("strict", "paper")]
    circuits.append(sabre_route(lower_circuit(circuits[0]), line_coupling(13),
                                seed=0).routed)
    circuits.append(assemble(make_job(make_instance(path_graph(2), 2))))
    circuits.append(assemble(make_job(make_instance(Graph(1, frozenset()), 2),
                                      iterations=1)))
    emitted = {gate.kind for circ in circuits for basis in ("default", "cx")
               for gate in lower_circuit(circ, basis).gates}
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
    # 12n-24 of them 2-qubit; K is one exact Toffoli, 9 gates and 6
    w = gMCT(list(range(n)), n)
    circ = _window([w], gMCT([0, n], 2 * n - 1), 2 * n)
    assert _counts(lower_circuit(circ)) == (2 * (28 * n - 56) + 9,
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
                            > _EXACT_PATTERN_LIMIT):
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


@pytest.mark.parametrize("label", ["K3", "C6", "K4", "C5"])
def test_lowered_grover_keeps_the_data_distribution(label):
    graph, k = next((g, k) for name, g, k in LADDER if name == label)
    circ = assemble(make_job(make_instance(graph, k), "strict"))
    data = circ.measured
    lowered, ir = run(lower_circuit(circ)), run(circ)
    # run drops only round-off residues (lowered C5/k=3: 21 qubits)
    assert lowered.dropped <= 1e-20 and ir.dropped <= 1e-20
    # the whole state, ancillas included, up to the lowering's global phase
    assert phase_aligned_distance(lowered.amplitudes, ir.amplitudes) < 1e-9
    got = probabilities(lowered, data)
    want = probabilities(ir, data)
    assert got.keys() == want.keys()
    assert max(abs(got[s] - want[s]) for s in want) < 1e-9
