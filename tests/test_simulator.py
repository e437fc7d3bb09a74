import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

import qkcolor.simulator as sim
from conftest import (ONE_QUBIT_POOL, all_graphs, complete_graph,
                      cycle_graph, path_graph, random_circuit,
                      ref_gate_matrix, ref_marginal, ref_unitary, run_batch,
                      unitary_of)
from qkcolor import classical
from qkcolor.circuit import (MULTI_KINDS, ONE_QUBIT_KINDS, ROTATION_KINDS,
                             Circuit, Control, Gate, GateKind, gCX, gH,
                             gMCT, gRY, gRZ, gX)
from qkcolor.errors import (AncillaLeak, IndexOutOfRange, TooLarge,
                            TooManyQubits)
from qkcolor.graphs import Graph, make_instance
from qkcolor.grover import assemble, make_job
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
        keys, _, _ = sim._run_sparse(circ, np.zeros(1, dtype=np.int64),
                                     np.ones(1, dtype=complex))
        assert keys.size == 2
    # a residue made inside a run of gates on one qubit is dropped before
    # the next gate: X moves the 1 to |1>, so the last RY gives exactly
    # (-sin, cos) of its half angle, and the residue would have shown
    circ = Circuit(1).append(gRY(0, 2e-13)).append(gX(0)).append(gRY(0, 1.0))
    state = run(circ)
    assert state.dropped == math.sin(1e-13) ** 2
    assert np.array_equal(state.amplitudes, [-math.sin(0.5), math.cos(0.5)])
    keys, amps, _ = sim._run_sparse(circ, np.zeros(1, dtype=np.int64),
                                    np.ones(1, dtype=complex))
    assert amps[keys == 0] != -math.sin(0.5)


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


def test_probabilities_match_a_dense_marginal():
    # the subset's bits of each held key, summed by bincount, against sums
    # over the dense tensor: every outcome listed in order, over the whole
    # register, no qubit, and subsets in register order, reversed and
    # permuted
    rng = random.Random(17)
    for width in (1, 2, 4, 7):
        pool = {"pool": ONE_QUBIT_POOL} if width == 1 else {}
        for _ in range(10):
            circ = random_circuit(width, rng.randint(1, 25), rng,
                                  max_controls=min(width - 1, 3), **pool)
            state = run(_declared(circ, _bits(rng.randrange(2 ** width),
                                              width)))
            dense = state.amplitudes
            picked = sorted(rng.sample(range(width), rng.randint(1, width)))
            for subset in (None, [], picked, picked[::-1],
                           rng.sample(range(width), width)):
                got = probabilities(state, subset)
                subset = range(width) if subset is None else subset
                outcomes = [format(i, f"0{len(subset)}b") if subset else ""
                            for i in range(2 ** len(subset))]
                assert list(got) == outcomes
                want = ref_marginal(dense, width, subset)
                assert np.max(np.abs(list(got.values()) - want)) <= 1e-15


def test_probabilities_refuses_a_bad_subset():
    state = run(Circuit(3))
    for subset in ([0, 0], [5], [-1]):
        with pytest.raises(IndexOutOfRange, match="must be distinct and inside"):
            probabilities(state, subset)


def test_probabilities_bounded_by_the_held_limit(monkeypatch):
    # the outcomes a marginal lists count against the held limit, however
    # few amplitudes the state holds: the default subset of a 33-qubit
    # state is refused before bincount is asked for 2^33 floats
    with pytest.raises(TooLarge, match="^a marginal over 33 qubits lists "
                       "8589934592 outcomes, past the 1048576-amplitude "
                       "limit$"):
        probabilities(run(Circuit(33)))
    monkeypatch.setattr(sim, "_HELD_LIMIT", 2 ** 6)
    state = run(Circuit(8, initial_state=[1, 0, 1, 0, 0, 0, 0, 1]))
    got = probabilities(state, [7, 0, 1, 2, 3, 4])
    assert list(got) == [format(i, "06b") for i in range(64)]
    assert got["110100"] == 1.0 and sum(got.values()) == 1.0
    with pytest.raises(TooLarge, match="^a marginal over 7 qubits lists 128 "
                       "outcomes, past the 64-amplitude limit$"):
        probabilities(state, range(7))


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
        elif kind is GateKind.CX:
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
        batch = _dense(*sim._run_sparse(circ, keys.copy(), cols.flatten())[:2],
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


def test_one_held_amplitude_limit(monkeypatch):
    # H on every qubit fills the register: run refuses the H that could
    # double the held amplitudes past the limit before it runs, as the
    # pattern batch does, with the same message
    assert sim._HELD_LIMIT == 2 ** 20
    pairings = []
    pair = sim._pair

    def counted(keys, amps, t):
        pairings.append(keys.size)
        return pair(keys, amps, t)

    monkeypatch.setattr(sim, "_pair", counted)
    monkeypatch.setattr(sim, "_HELD_LIMIT", 2 ** 6)
    fill = Circuit(8).extend(gH(qubit) for qubit in range(8))
    message = "^H on 64 held amplitudes could pass the 64-amplitude limit$"
    with pytest.raises(TooLarge, match=message):
        run(fill)
    # six H gates ran on 1 to 32 held amplitudes, the seventh never did
    assert pairings == [2 ** n for n in range(6)]
    with pytest.raises(TooLarge, match=message):
        sim._run_sparse(fill, np.zeros(1, dtype=np.int64),
                        np.ones(1, dtype=complex))
    assert run(Circuit(6).extend(fill.gates[:6])).keys.size == 2 ** 6
    # the one width bound is the int64 key's, checked before anything runs
    with pytest.raises(TooManyQubits,
                       match="^63 qubits exceed the 62-bit batch key$"):
        run(Circuit(63))
    flip = Circuit(62).extend(gX(qubit) for qubit in range(62))
    state = run(flip)
    assert (state.keys.tolist(), state.amps.tolist()) == ([2 ** 62 - 1], [1])
    assert probabilities(state, [61, 0, 30]) == {
        format(i, "03b"): float(i == 7) for i in range(8)}
    assert run(_declared(flip, [1] + [0] * 61)).keys.tolist() == [
        2 ** 61 - 1]
    # a pattern batch keys q + m bits: P13 at k = 4 has 39 qubits and 26
    # data bits; an RZ puts its oracle on the batch path
    inst = make_instance(path_graph(13), 4)
    plan = plan_layout(inst, "strict")
    oracle = build_oracle(inst, "strict", plan).append(gRZ(0, 0.5))
    with pytest.raises(TooManyQubits, match="^39 qubits and 26 data bits "
                                            "exceed the 62-bit batch key$"):
        phase_pattern(oracle, plan.layout)


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
    # k = 3 lowers its Toffolis to CX with RY (Margolus) or RZ (exact
    # CCZ and phase tops), which keep phase_pattern on its statevector
    # paths (k = 2 lowers to X and CX only)
    oracle, layout = _k2_oracle(3)
    lowered = lower_circuit(oracle)
    assert not all(g.kind in sim._TRACKED_KINDS for g in lowered.gates)
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
    # the small controlled RY(-2 eps), CX RY(eps) CX RY(-eps), keeps their
    # signs within tolerance but puts some amplitude outside the prepared
    # rows.
    lowered, layout = _k2_lowered()
    data, ancilla = layout.data[0], layout.edge_ancilla[0]
    eps = 5e-6
    for spoiler, message in (
            ([gMCT([data], ancilla)], "not a \\+/-1 phase on data string x=8"),
            ([gCX(data, ancilla), gRY(ancilla, eps), gCX(data, ancilla),
              gRY(ancilla, -eps)],
             "leaves support outside the prepared subspace")):
        spoiled = lowered.copy().extend(spoiler)
        with pytest.raises(AncillaLeak, match=message):
            phase_pattern(spoiled, layout, allow_global_phase=True)


def test_phase_pattern_refuses_a_batch_past_the_limit(monkeypatch):
    # lowered K4/k=4 strict: 13 qubits and 8 data bits, so 2**21 rows in
    # all, but the batch never holds more than 7,588 amplitudes at once
    inst = make_instance(complete_graph(4), 4)
    plan = plan_layout(inst, "strict")
    oracle = build_oracle(inst, "strict", plan)
    lowered = lower_circuit(oracle)
    assert (lowered.num_qubits, plan.layout.num_data) == (13, 8)
    assert 2 ** 21 > sim._HELD_LIMIT
    assert (phase_pattern(lowered, plan.layout, allow_global_phase=True)
            == phase_pattern(oracle, plan.layout, allow_global_phase=True))
    # so it runs under a limit of twice that; the prepared batch (256
    # amplitudes) fits a 2**13 limit, but a gate that could double the
    # batch past it is refused before it runs
    monkeypatch.setattr(sim, "_HELD_LIMIT", 2 * 7588)
    assert (phase_pattern(lowered, plan.layout, allow_global_phase=True)
            == phase_pattern(oracle, plan.layout, allow_global_phase=True))
    monkeypatch.setattr(sim, "_HELD_LIMIT", 2 ** 13)
    with pytest.raises(TooLarge, match="could pass the 8192-amplitude"):
        phase_pattern(lowered, plan.layout, allow_global_phase=True)
    # and so is a prepared batch past the limit
    monkeypatch.setattr(sim, "_HELD_LIMIT", 2 ** 8 - 1)
    with pytest.raises(TooLarge, match="256 columns"):
        phase_pattern(lowered, plan.layout, allow_global_phase=True)
    # two H gates take one held amplitude to 4: a limit of 4 lets both
    # run, one of 3 refuses the second before it runs
    circ = Circuit(2).append(gH(0)).append(gH(1))
    keys, amps = np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)
    monkeypatch.setattr(sim, "_HELD_LIMIT", 4)
    assert sim._run_sparse(circ, keys.copy(), amps.copy())[0].size == 4
    monkeypatch.setattr(sim, "_HELD_LIMIT", 3)
    with pytest.raises(TooLarge, match="H on 2 held amplitudes"):
        sim._run_sparse(circ, keys.copy(), amps.copy())
    # a second gate on the qubit the batch is paired on is refused alike
    same = Circuit(1).append(gRY(0, 0.5)).append(gRY(0, 0.5))
    with pytest.raises(TooLarge, match="RY on 2 held amplitudes"):
        sim._run_sparse(same, keys.copy(), amps.copy())
    # while paired, a pair slot that is 0 is not held: H on qubit 0 of
    # |000> + |001> + |010> + |110> cancels exactly on |110>, so it holds
    # 5 amplitudes in 6 slots, and the next H (which cancels on |100> and
    # |101>) runs under a limit of 11 and is refused under one of 9
    twice = Circuit(3).append(gH(0)).append(gH(0))
    keys = np.array([0b000, 0b001, 0b010, 0b110], dtype=np.int64)
    amps = np.ones(4, dtype=complex)
    monkeypatch.setattr(sim, "_HELD_LIMIT", 11)
    assert sim._run_sparse(twice, keys.copy(), amps.copy())[0].size == 4
    monkeypatch.setattr(sim, "_HELD_LIMIT", 9)
    with pytest.raises(TooLarge, match="H on 5 held amplitudes"):
        sim._run_sparse(twice, keys, amps)


def _dense(keys, amps, num_qubits, num_columns):
    """Scatter a sparse batch into its (2**q, columns) array."""
    out = np.zeros((2 ** num_qubits, num_columns), dtype=complex)
    out[keys & (2 ** num_qubits - 1), keys >> num_qubits] = amps
    return out


def _assert_sparse_equals_run_batch(circuit, keys, amps, num_columns):
    q = circuit.num_qubits
    want = run_batch(circuit, _dense(keys, amps, q, num_columns))
    keys, amps, _ = sim._run_sparse(circuit, keys, amps)
    assert np.unique(keys).size == keys.size
    assert np.all(amps != 0)
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
                    prepared, keys, amps = sim._prepared_batch(plan.layout)
                    _assert_sparse_equals_run_batch(lowered, keys, amps,
                                                    prepared.size)
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


# How a gate after an H or RY on qubit t keeps the sparse batch
# paired on t, or flattens it
_STAYS = ("swap rows", "update", "xor keys")
_FLATTENS = ("control on t", "swap touching t", "diagonal elsewhere",
             "mixed elsewhere")
_MIXED = (GateKind.H, GateKind.RY)
_DIAGONAL = (GateKind.Z, GateKind.RZ, GateKind.MCZ)
_MOVES = (GateKind.X, GateKind.CX, GateKind.MCT)


def _gate_on(kind, target, others, rng, control=None):
    """A gate of ``kind`` on ``target`` whose controls are drawn from
    ``others``, one of them on ``control`` if it is given."""
    if kind in MULTI_KINDS:
        count = rng.randint(control is not None, min(3, len(others)))
    else:
        count = int(kind is GateKind.CX)
    picked = [control] if control is not None else []
    picked += rng.sample([o for o in others if o != control],
                         count - len(picked))
    controls = tuple(Control(c, kind not in MULTI_KINDS or rng.random() < 0.8)
                     for c in picked)
    angle = rng.uniform(-math.pi, math.pi) if kind in ROTATION_KINDS else None
    return Gate(kind, controls, (target,), angle)


def _paired_runs(q, num_runs, rng):
    """Random runs of gates on one qubit t.  An H or RY on t pairs the
    batch, gates that keep it paired follow, and a gate that flattens
    it ends the run; one that is an H or RY itself pairs the batch on
    its own target and opens the next run.  Returns the circuit, the
    ways each gate after the first of a run was drawn, and how many
    times the kernel must pair the batch."""
    circ, ways, pairings, t = Circuit(q), [], 0, None
    for _ in range(num_runs):
        if t is None:
            for _ in range(rng.randint(0, 2)):  # gates on the flat batch
                u = rng.randrange(q)
                circ.append(_gate_on(rng.choice(_MOVES + _DIAGONAL), u,
                                     [o for o in range(q) if o != u], rng))
            t = rng.randrange(q)
            circ.append(_gate_on(rng.choice(_MIXED), t,
                                 [o for o in range(q) if o != t], rng))
            pairings += 1
        rest = [o for o in range(q) if o != t]
        for _ in range(rng.randint(0, 6)):
            way = rng.choice(_STAYS)
            u = rng.choice(rest)
            if way == "swap rows":
                gate = _gate_on(rng.choice(_MOVES), t, rest, rng)
            elif way == "update":
                gate = _gate_on(rng.choice(_DIAGONAL + _MIXED), t, rest, rng)
            elif rng.random() < 0.25:  # xor keys: SWAP of two other qubits
                gate = Gate(GateKind.SWAP, targets=tuple(rng.sample(rest, 2)))
            else:
                gate = _gate_on(rng.choice(_MOVES), u,
                                [o for o in rest if o != u], rng)
            circ.append(gate)
            ways.append(way)
        way = rng.choice(_FLATTENS)
        u = rng.choice(rest)
        others = [o for o in rest if o != u]
        if way == "control on t":
            kind = rng.choice((GateKind.CX, GateKind.MCT, GateKind.MCZ))
            gate = _gate_on(kind, u, others + [t], rng, control=t)
        elif way == "swap touching t":
            gate = Gate(GateKind.SWAP, targets=rng.choice(((t, u), (u, t))))
        else:
            kinds = _DIAGONAL if way == "diagonal elsewhere" else _MIXED
            gate = _gate_on(rng.choice(kinds), u, others, rng)
        circ.append(gate)
        ways.append(way)
        t = None
        if gate.kind in _MIXED:
            t = u
            pairings += 1
    return circ, ways, pairings


def test_paired_batch_is_bit_identical_to_run_batch(monkeypatch):
    # every way a run of gates on one qubit keeps the batch paired or
    # flattens it, bit for bit on basis columns and on random columns about
    # half of whose amplitudes are not held, and in run from every basis
    # state; the kernel pairs the batch only where a run opens
    pairings = []
    pair = sim._pair

    def counted(keys, amps, t):
        pairings.append(t)
        return pair(keys, amps, t)

    monkeypatch.setattr(sim, "_pair", counted)
    rng = random.Random(25)
    values = np.random.default_rng(25)
    ways = set()
    for width in (3, 4, 5, 6):
        dim = 2 ** width
        for _ in range(10):
            circ, used, expected = _paired_runs(width, rng.randint(1, 8), rng)
            ways.update(used)
            basis = np.arange(dim, dtype=np.int64)
            pairings.clear()
            _assert_sparse_equals_run_batch(
                circ, basis << width | basis, np.ones(dim, dtype=complex), dim)
            assert len(pairings) == expected
            held = np.flatnonzero(values.random(4 * dim) < 0.5)
            amps = [1, 1j] @ values.normal(size=(2, held.size))
            _assert_sparse_equals_run_batch(circ, held.astype(np.int64),
                                            amps, 4)
            # numpy rounds a complex product on a one-element block apart
            # from one on a longer block, so run, which holds a single
            # column, agrees with the unitary to round-off only
            dense = unitary_of(circ)
            for j in range(dim):
                state = run(_declared(circ, _bits(j, width)))
                assert state.dropped == 0
                assert np.max(np.abs(state.amplitudes - dense[:, j])) < 1e-12
    assert ways == set(_STAYS + _FLATTENS)


@pytest.mark.parametrize("mode", ["strict", "paper"])
def test_lowered_pattern_check_holds_less_than_a_dense_batch(mode):
    # lowered K3/k=3: a dense batch of 2**q rows per data string would be
    # 4 MB in strict mode (12 qubits) and 1 MB in paper mode (10 qubits)
    inst = make_instance(complete_graph(3), 3)
    plan = plan_layout(inst, mode)
    lowered = lower_circuit(build_oracle(inst, mode, plan))
    dense_bytes = 16 * 2 ** (lowered.num_qubits + plan.layout.num_data)
    assert dense_bytes == {"strict": 4, "paper": 1}[mode] * 2 ** 20
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
    ancilla_spoiled = oracle.copy().append(gCX(layout.data[0],
                                               layout.edge_ancilla[0]))
    for spoiled in (truncated, permuted, ancilla_spoiled):
        for allow_global_phase in (False, True):
            with pytest.raises(AncillaLeak):
                phase_pattern(spoiled, layout, allow_global_phase)


def test_tracked_pattern_equals_statevector_pattern(monkeypatch):
    """Every oracle on up to 4 vertices at k = 2..4 whose sparse batch
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
                    # an IR oracle is a signed permutation, so the batch
                    # holds one amplitude per data string throughout
                    if 2 ** layout.num_data <= sim._HELD_LIMIT:
                        cases.append((build_oracle(inst, mode, plan), layout))
    # all of them: 2-, 3- and 4-vertex graphs at 3 k in both modes
    assert len(cases) == (2 + 8 + 64) * 3 * 2
    tracked = [phase_pattern(o, layout, agp)
               for o, layout in cases for agp in (False, True)]
    monkeypatch.setattr(sim, "_TRACKED_KINDS", frozenset())
    simulated = [phase_pattern(o, layout, agp)
                 for o, layout in cases for agp in (False, True)]
    assert tracked == simulated


def test_tracked_pattern_past_the_held_limit(monkeypatch):
    # 26 and 25 qubits: the IR oracles are tracked as bits, and their
    # lowered forms are refused before a gate could hold past the limit
    for graph, k, width, held in ((complete_graph(5), 5, 26, 885760),
                                  (cycle_graph(8), 4, 25, 663552)):
        inst = make_instance(graph, k)
        plan = plan_layout(inst, "strict")
        oracle = build_oracle(inst, "strict", plan)
        assert oracle.num_qubits == width
        assert phase_pattern(oracle, plan.layout) == classical.solutions(inst)
        with pytest.raises(TooLarge, match=f"^RY on {held} held amplitudes"):
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
    # 1 or 2 data bits: 2 or 4 tracked columns, less than one byte
    inst = make_instance(Graph(1, frozenset()), k)
    cases = []
    for mode in ("strict", "paper"):
        plan = plan_layout(inst, mode)
        cases.append((build_oracle(inst, mode, plan), plan.layout))
        assert plan.layout.num_data == (1 if k == 2 else 2)
    tracked = [phase_pattern(o, layout, agp)
               for o, layout in cases for agp in (False, True)]
    assert tracked[0] == tracked[2] == classical.solutions(inst)
    monkeypatch.setattr(sim, "_TRACKED_KINDS", frozenset())
    assert tracked == [phase_pattern(o, layout, agp)
                       for o, layout in cases for agp in (False, True)]


def test_tracked_pattern_at_twenty_data_bits():
    # C10/k=4 strict: 2**20 tracked columns, 4**10 data strings
    inst = make_instance(cycle_graph(10), 4)
    plan = plan_layout(inst, "strict")
    assert plan.layout.num_data == 20
    oracle = build_oracle(inst, "strict", plan)
    assert phase_pattern(oracle, plan.layout) == classical.solutions(inst)


def test_pattern_strings_match_format():
    """Every IR oracle on 2-4 vertices at k = 2..5, both modes: the
    tracked pattern is the set of strings format writes for the data
    strings whose phase it flips, and a strict one is the set format
    writes for the proper colorings, as is ``classical.solutions``."""
    cases = 0
    for n in (2, 3, 4):
        for graph in all_graphs(n):
            for k in (2, 3, 4, 5):
                inst = make_instance(graph, k)
                c = inst.c
                m = n * c
                proper = {format(x, f"0{m}b") for x in range(2 ** m)
                          if classical.is_proper(graph, [
                              (x >> c * (n - 1 - v)) & (2 ** c - 1)
                              for v in range(n)], k)}
                assert classical.solutions(inst) == proper
                for mode in ("strict", "paper"):
                    plan = plan_layout(inst, mode)
                    oracle = build_oracle(inst, mode, plan)
                    for agp in (False, True):
                        flipped = sim._tracked_flips(oracle, plan.layout, agp)
                        want = {format(x, f"0{m}b")
                                for x in np.flatnonzero(flipped).tolist()}
                        assert phase_pattern(oracle, plan.layout, agp) == want
                        if mode == "strict" and not agp:
                            assert want == proper
                    cases += 1
    assert cases == (2 + 8 + 64) * 4 * 2


def _kernel_platform():
    """The numpy minor version and whether it dispatches x86-64-v3 (AVX2
    and FMA3) loops, or None where numpy does not report that level."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        return None
    if "X86_V3" not in __cpu_features__:
        return None
    return ".".join(np.__version__.split(".")[:2]), __cpu_features__["X86_V3"]


# sha256 of keys.tobytes() + amps.tobytes(), the held count and the
# dropped squared norm of three sparse runs.  The key order is pinned
# too, since ``probabilities`` sums the amplitudes in key order.
# The bits follow numpy's complex loops, which fuse multiply-adds where
# the CPU has FMA3, so they are pinned per numpy version and x86-64
# level; numpy 2.4 without x86-64-v3 was measured with
# NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR".
KERNEL_PINS = {
    ("2.4", True): {
        "K3/k=3 run": ("f0b2082837a4c13e1207ce3e13947d4a"
                       "d30f2a4acac3f467357c4a82d015ff7c",
                       64, 2.709274135377189e-31),
        "C6/k=2 run": ("96f84e7e8adbbbcec98cb3ee1707b8ef"
                       "f627592f128bf4c539aa357b96560351",
                       64, 6.9942366951534415e-31),
        "K3/k=3 paper pattern batch": ("50d818d4447965795e4b8bf4ca29ea56"
                                       "4a982cd5cb8b77cef13ef047a5a28d39",
                                       1215, 0.0),
    },
    ("2.4", False): {
        "K3/k=3 run": ("4a62d10948b298562939124f5db4ee81"
                       "1da40fd33c0567df0cc423ca518c5ac5",
                       64, 2.795487314278073e-31),
        "C6/k=2 run": ("e0827a03db43982adaab5bdbd576a03a"
                       "4795b956f75fc9dedfa9415887b8ee6c",
                       64, 7.071721352399965e-31),
        "K3/k=3 paper pattern batch": ("c3b506e0f80444d134e864caea138d04"
                                       "230fafd1ca95e89916d66aa843bd25a1",
                                       1027, 0.0),
    },
}


@pytest.mark.skipif(_kernel_platform() not in KERNEL_PINS,
                    reason="kernel bits pinned only for numpy 2.4 on x86-64")
def test_kernel_bits_are_pinned():
    def summary(keys, amps, dropped):
        digest = hashlib.sha256(keys.tobytes() + amps.tobytes()).hexdigest()
        return digest, keys.size, dropped

    got = {}
    for label, graph, k in (("K3/k=3", complete_graph(3), 3),
                            ("C6/k=2", cycle_graph(6), 2)):
        state = run(lower_circuit(assemble(make_job(make_instance(graph, k)))))
        got[f"{label} run"] = summary(state.keys, state.amps, state.dropped)
    inst = make_instance(complete_graph(3), 3)
    plan = plan_layout(inst, "paper")
    _, keys, amps = sim._prepared_batch(plan.layout)
    got["K3/k=3 paper pattern batch"] = summary(*sim._run_sparse(
        lower_circuit(build_oracle(inst, "paper", plan)), keys, amps))
    assert got == KERNEL_PINS[_kernel_platform()]


def test_pair_matches_unique():
    # the pairing np.unique gave: the sorted distinct keys with bit t
    # clear, and each amplitude in the row of its bit t at its key's slot
    rng = np.random.default_rng(28)
    for size in (0, 1, 2, 5, 64, 300):
        for t in (1, 2, 8, 1 << 40):
            keys = rng.choice(2 ** 12, size=size, replace=False).astype(np.int64)
            keys[::3] |= 1 << 40
            amps = rng.normal(size=size) + 1j * rng.normal(size=size)
            want_pairs, slot = np.unique(keys & ~t, return_inverse=True)
            want = np.zeros((2, want_pairs.size), dtype=complex)
            want[((keys & t) != 0).astype(np.intp), slot] = amps
            pairs, rows = sim._pair(keys, amps, t)
            assert np.array_equal(pairs, want_pairs) and pairs.dtype == np.int64
            assert np.array_equal(rows, want), (size, t)
