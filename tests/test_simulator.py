import math
import random
import tracemalloc

import numpy as np
import pytest

import qkcolor.simulator as sim
from conftest import (ONE_QUBIT_POOL, all_graphs, complete_graph,
                      cycle_graph, random_circuit, ref_gate_matrix,
                      ref_unitary, run_batch, unitary_of)
from qkcolor import classical
from qkcolor.circuit import (MULTI_KINDS, ONE_QUBIT_KINDS, ROTATION_KINDS,
                             Circuit, Control, Gate, GateKind, gCRX, gCX, gH,
                             gMCT, gRY, gX)
from qkcolor.errors import (AncillaLeak, IndexOutOfRange, TooLarge,
                            TooManyQubits)
from qkcolor.graphs import Graph, make_instance
from qkcolor.lowering import lower_circuit
from qkcolor.oracle import build_oracle, plan_layout
from qkcolor.simulator import phase_pattern, probabilities, run


def _declared(circ, bits):
    """The circuit's gates on a register declared to start in ``bits``."""
    return Circuit(circ.num_qubits, initial_state=bits).extend(circ.gates)


def _bits(index, q):
    """Qubit values of basis state ``index``, qubit 0 the top bit."""
    return [(index >> (q - 1 - b)) & 1 for b in range(q)]


def test_basis_state_msb_convention():
    state = run(Circuit(3, initial_state=[1, 0, 0]))
    assert state.amplitudes[0b100] == 1.0
    assert probabilities(state)["100"] == 1.0


def test_unitary_matches_independent_reference():
    # widths 1, 2 and 6 put qubit 0 and qubit q-1 in every role; run gives
    # each basis column, the dense reference the whole matrix
    rng = random.Random(11)
    for width in (4, 1, 2, 6):
        pool = {"pool": ONE_QUBIT_POOL} if width == 1 else {}
        for _ in range(20):
            circ = random_circuit(width, rng.randint(1, 15), rng,
                                  max_controls=width - 1, **pool)
            want = ref_unitary(circ)
            assert np.max(np.abs(unitary_of(circ) - want)) < 1e-12
            for j in range(2 ** width):
                got = run(_declared(circ, _bits(j, width))).amplitudes
                assert np.max(np.abs(got - want[:, j])) < 1e-12


def test_unitarity_and_norm_preservation():
    rng = random.Random(3)
    for _ in range(10):
        circ = random_circuit(3, 10, rng)
        u = unitary_of(circ)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12
        state = run(_declared(circ, [1, 0, 1]))
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12


def test_run_honors_declared_initial_state():
    circ = Circuit(2, initial_state=[1, 0])
    circ.append(gCX(0, 1))
    state = run(circ)
    assert abs(state.amplitudes[0b11]) == 1.0

    # the default declaration is all zeros
    state = run(_declared(circ, None))
    assert abs(state.amplitudes[0b00]) == 1.0


def test_run_drops_round_off_and_states_it():
    # RY(2a) on |0> puts sin(a) on |1>: at most 1e-12 is dropped, with its
    # square added to ``dropped``; nothing is renormalised
    for angle, held in ((2e-13, False), (2e-11, True)):
        circ = Circuit(1).append(gRY(0, angle))
        state = run(circ)
        tiny = math.sin(angle / 2)
        assert state.amplitudes[0] == math.cos(angle / 2)
        if held:
            assert (state.amplitudes[1], state.dropped) == (tiny, 0)
        else:
            assert (state.amplitudes[1], state.dropped) == (0, tiny ** 2)
        # the pattern batch drops only exact zeros
        keys, _ = sim._run_sparse(circ, np.zeros(1, dtype=np.int64),
                                  np.ones(1, dtype=complex))
        assert keys.size == 2


def test_run_batch_agrees_with_run():
    rng = random.Random(5)
    circ = random_circuit(3, 12, rng)
    cols = unitary_of(Circuit(3).append(gH(0)).append(gH(1)))[:, :4]
    out = run_batch(circ, cols)
    for j in range(4):
        single = run_batch(circ, cols[:, j])
        assert np.max(np.abs(out[:, j] - single)) < 1e-12
    # run starts from the declared basis state: column j of the unitary,
    # bit for bit, since it drops nothing on this circuit
    u = unitary_of(circ)
    for j in range(8):
        state = run(_declared(circ, _bits(j, 3)))
        assert state.dropped == 0
        assert np.array_equal(state.amplitudes, u[:, j])

    # the batch axis follows the qubit axes: check it against the reference
    nrng = np.random.default_rng(5)
    wide = random_circuit(6, 40, rng, max_controls=5)
    cols = nrng.normal(size=(64, 5)) + 1j * nrng.normal(size=(64, 5))
    out = run_batch(wide, cols)
    assert np.max(np.abs(out - ref_unitary(wide) @ cols)) < 1e-12
    for j in range(5):
        single = run_batch(wide, cols[:, j])
        assert np.array_equal(out[:, j], single)


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


def test_probabilities_over_no_qubits():
    state = run(Circuit(2).append(gH(0)))
    assert probabilities(state, []) == {"": pytest.approx(1.0)}


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
    rows, columns = np.indices(cols.shape)
    keys = (columns << q | rows).ravel().astype(np.int64)
    kinds = set()
    for gate in _placed_gates(q):
        kinds.add(gate.kind)
        circ = Circuit(q).append(gate)
        # the sparse kernel on every amplitude of three random columns
        batch = _dense(*sim._run_sparse(circ, keys.copy(), cols.flatten()),
                       q, cols.shape[1])
        matrix = ref_gate_matrix(gate, q)
        assert np.max(np.abs(batch - matrix @ cols)) < 1e-12, gate
        assert np.array_equal(batch, run_batch(circ, cols)), gate
        if gate.kind in (GateKind.X, GateKind.CX, GateKind.MCT, GateKind.SWAP):
            assert np.array_equal(batch, _permuted(gate, cols, q)), gate
        # and run from every basis state, which drops nothing here: bit for
        # bit a column of the dense reference
        dense = unitary_of(circ)
        for j in range(2 ** q):
            state = run(_declared(circ, _bits(j, q)))
            assert state.dropped == 0, gate
            assert np.array_equal(state.amplitudes, dense[:, j]), gate
    assert kinds == (set(GateKind) if q > 1 else
                     ONE_QUBIT_KINDS | MULTI_KINDS)


def test_dense_ceiling(monkeypatch):
    assert sim.QUBIT_CEILING == 24
    # checked before the 2**50 amplitudes would be allocated
    with pytest.raises(TooManyQubits, match="^50 qubits exceeds ceiling 24$"):
        run(Circuit(50))
    monkeypatch.setattr(sim, "QUBIT_CEILING", 4)
    for bits in ([0] * 5, [1, 0, 0, 0, 1]):
        with pytest.raises(TooManyQubits, match="^5 qubits exceeds ceiling 4$"):
            run(Circuit(5, initial_state=bits))
    run(Circuit(4))  # at the ceiling is fine
    assert run(Circuit(4, initial_state=[1, 0, 0, 1])).amplitudes[0b1001] == 1.0


def test_run_rejects_initial_of_wrong_width():
    # a declaration of the wrong width never reaches run
    for bits in ([1], [1, 0, 0]):
        with pytest.raises(IndexOutOfRange, match="length must equal"):
            Circuit(2, initial_state=bits)
    circ = Circuit(2).append(gX(0))
    assert run(_declared(circ, [0, 1])).amplitudes[0b11] == 1.0


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


def test_phase_pattern_rejects_a_leak_past_x0():
    # Both spoilers act only where data bit 0 is set (x >= 8), so the x=0
    # anchor passes.  The MCT moves those columns off their prepared rows;
    # the small CRX keeps their signs within tolerance but puts some
    # amplitude outside the prepared rows.
    lowered, layout = _k2_lowered()
    data, ancilla = layout.data[0], layout.edge_ancilla[0]
    for spoiler, message in (
            (gMCT([data], ancilla), "not a \\+/-1 phase on data string x=8"),
            (gCRX(data, ancilla, 1e-4),
             "leaves support outside the prepared subspace")):
        spoiled = lowered.copy().append(spoiler)
        with pytest.raises(AncillaLeak, match=message):
            phase_pattern(spoiled, layout, allow_global_phase=True)


def test_phase_pattern_refuses_a_batch_past_the_limit(monkeypatch):
    # lowered K4/k=4 strict: 13 qubits and 8 data bits, so 2**21 rows in
    # all, but the batch never holds more than 23,932 amplitudes at once
    inst = make_instance(complete_graph(4), 4)
    plan = plan_layout(inst, "strict")
    oracle = build_oracle(inst, "strict", plan)
    lowered = lower_circuit(oracle)
    assert (lowered.num_qubits, plan.layout.num_data) == (13, 8)
    assert 2 ** 21 > sim._EXACT_PATTERN_LIMIT
    assert (phase_pattern(lowered, plan.layout, allow_global_phase=True)
            == phase_pattern(oracle, plan.layout, allow_global_phase=True))
    # the prepared batch (512 amplitudes) fits a 2**14 limit; a gate that
    # could double the batch past it is refused before it runs
    monkeypatch.setattr(sim, "_EXACT_PATTERN_LIMIT", 2 ** 14)
    with pytest.raises(TooLarge, match="could pass the 16384-amplitude"):
        phase_pattern(lowered, plan.layout, allow_global_phase=True)
    # and so is a prepared batch past the limit
    monkeypatch.setattr(sim, "_EXACT_PATTERN_LIMIT", 2 ** 9 - 1)
    with pytest.raises(TooLarge, match="256 columns"):
        phase_pattern(lowered, plan.layout, allow_global_phase=True)
    # two H gates take one held amplitude to 4: a limit of 4 lets both
    # run, one of 3 refuses the second before it runs
    circ = Circuit(2).append(gH(0)).append(gH(1))
    keys, amps = np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)
    monkeypatch.setattr(sim, "_EXACT_PATTERN_LIMIT", 4)
    assert sim._run_sparse(circ, keys.copy(), amps.copy())[0].size == 4
    monkeypatch.setattr(sim, "_EXACT_PATTERN_LIMIT", 3)
    with pytest.raises(TooLarge, match="H on 2 held amplitudes"):
        sim._run_sparse(circ, keys, amps)


def _dense(keys, amps, num_qubits, num_columns):
    """Scatter a sparse batch into its (2**q, columns) array."""
    out = np.zeros((2 ** num_qubits, num_columns), dtype=complex)
    out[keys & (2 ** num_qubits - 1), keys >> num_qubits] = amps
    return out


def _assert_sparse_equals_run_batch(circuit, keys, amps, num_columns):
    q = circuit.num_qubits
    want = run_batch(circuit, _dense(keys, amps, q, num_columns))
    keys, amps = sim._run_sparse(circuit, keys, amps)
    assert np.unique(keys).size == keys.size
    assert np.array_equal(_dense(keys, amps, q, num_columns), want)


def test_sparse_batch_is_bit_identical_to_run_batch():
    # every lowered oracle on 1-3 vertices, k = 2..4, from its prepared
    # pattern batch
    cases = 0
    for n in (1, 2, 3):
        for graph in all_graphs(n):
            for k in (2, 3, 4):
                inst = make_instance(graph, k)
                for mode in ("strict", "paper"):
                    plan = plan_layout(inst, mode)
                    lowered = lower_circuit(build_oracle(inst, mode, plan))
                    rows0, _, keys, amps = sim._prepared_batch(plan.layout)
                    _assert_sparse_equals_run_batch(lowered, keys, amps,
                                                    rows0.size)
                    cases += 1
    assert cases == 66
    # random circuits of every kind, mixed-polarity MCT/MCZ and SWAP, run
    # on every basis column and on random columns about half of whose
    # amplitudes are not held
    rng = random.Random(18)
    values = np.random.default_rng(18)
    for width in range(3, 8):
        dim = 2 ** width
        for _ in range(12):
            circ = random_circuit(width, rng.randint(1, 40), rng,
                                  max_controls=width - 1)
            basis = np.arange(dim, dtype=np.int64)
            _assert_sparse_equals_run_batch(
                circ, basis << width | basis, np.ones(dim, dtype=complex), dim)
            held = np.flatnonzero(values.random(4 * dim) < 0.5)
            amps = [1, 1j] @ values.normal(size=(2, held.size))
            _assert_sparse_equals_run_batch(circ, held.astype(np.int64),
                                            amps, 4)


@pytest.mark.parametrize("mode", ["strict", "paper"])
def test_lowered_pattern_check_holds_less_than_a_dense_batch(mode):
    # lowered K3/k=3: a dense batch of 2**q rows per data string would be
    # 8 MB in strict mode (13 qubits) and 2 MB in paper mode (11 qubits)
    inst = make_instance(complete_graph(3), 3)
    plan = plan_layout(inst, mode)
    lowered = lower_circuit(build_oracle(inst, mode, plan))
    dense_bytes = 16 * 2 ** (lowered.num_qubits + plan.layout.num_data)
    assert dense_bytes == {"strict": 8, "paper": 2}[mode] * 2 ** 20
    tracemalloc.start()
    try:
        phase_pattern(lowered, plan.layout, allow_global_phase=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


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
    """Every oracle on up to 4 vertices at k = 2..4 whose statevector batch
    fits the limit: bit tracking and the batch give the same pattern,
    with and without the global phase."""
    cases = []
    for n in (2, 3, 4):
        for graph in all_graphs(n):
            for k in (2, 3, 4):
                inst = make_instance(graph, k)
                for mode in ("strict", "paper"):
                    plan = plan_layout(inst, mode)
                    layout = plan.layout
                    if (2 ** (layout.num_qubits + layout.num_data)
                            <= sim._EXACT_PATTERN_LIMIT):
                        cases.append((build_oracle(inst, mode, plan), layout))
    # n = 2, 3 at k = 2..4 and n = 4 at k = 2, both modes; n = 4 at k = 3
    # only in paper mode with at most 2 edges, and at k = 4 in both modes
    # with at most 3 edges
    assert len(cases) == (2 + 8) * 3 * 2 + 64 * 2 + 22 + 42 * 2
    tracked = [phase_pattern(o, layout, agp)
               for o, layout in cases for agp in (False, True)]
    monkeypatch.setattr(sim, "PERMUTATION_KINDS", frozenset())
    simulated = [phase_pattern(o, layout, agp)
                 for o, layout in cases for agp in (False, True)]
    assert tracked == simulated


def test_tracked_pattern_past_the_dense_ceiling(monkeypatch):
    # 26 and 25 qubits: past the statevector ceiling, not the data one
    for graph, k, width in ((complete_graph(5), 5, 26), (cycle_graph(8), 4, 25)):
        inst = make_instance(graph, k)
        plan = plan_layout(inst, "strict")
        oracle = build_oracle(inst, "strict", plan)
        assert oracle.num_qubits == width > sim.QUBIT_CEILING
        assert phase_pattern(oracle, plan.layout) == classical.solutions(inst)
        with pytest.raises(TooManyQubits):
            phase_pattern(lower_circuit(oracle), plan.layout)
    # more data bits than the enumeration ceiling are refused, not tracked
    monkeypatch.setattr(classical, "ENUMERATION_CEILING", plan.layout.num_data - 1)
    with pytest.raises(TooLarge):
        phase_pattern(oracle, plan.layout)


def test_index_rows_hold_the_column_bits():
    # bit j of _index_row(b, n) is bit b of j, also below one byte
    for width in range(1, 13):
        n_cols = 2 ** width
        for b in range(width):
            want = sum(1 << j for j in range(n_cols) if (j >> b) & 1)
            assert sim._index_row(b, n_cols) == want, (b, n_cols)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tracked_pattern_on_one_vertex(monkeypatch, k):
    # 1 or 2 data bits: 4 or 8 tracked columns, at most one byte
    inst = make_instance(Graph(1, frozenset()), k)
    cases = []
    for mode in ("strict", "paper"):
        plan = plan_layout(inst, mode)
        cases.append((build_oracle(inst, mode, plan), plan.layout))
        assert plan.layout.num_data == (1 if k == 2 else 2)
    tracked = [phase_pattern(o, layout, agp)
               for o, layout in cases for agp in (False, True)]
    assert tracked[0] == tracked[2] == classical.solutions(inst)
    monkeypatch.setattr(sim, "PERMUTATION_KINDS", frozenset())
    assert tracked == [phase_pattern(o, layout, agp)
                       for o, layout in cases for agp in (False, True)]


def test_tracked_pattern_at_twenty_data_bits():
    # C10/k=4 strict: 2**21 tracked columns, 4**10 data strings
    inst = make_instance(cycle_graph(10), 4)
    plan = plan_layout(inst, "strict")
    assert plan.layout.num_data == 20
    oracle = build_oracle(inst, "strict", plan)
    assert phase_pattern(oracle, plan.layout) == classical.solutions(inst)
