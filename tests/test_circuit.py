import dataclasses

import numpy as np
import pytest

from qkcolor.circuit import (CONTROLLED_KINDS, MULTI_KINDS, ONE_QUBIT_KINDS,
                             ROTATION_KINDS, Circuit, Control, Gate, GateKind,
                             QubitLayout, gCX, gH, gMCT, gMCZ, gRY, gRZ,
                             gSWAP, gX, gZ)
from qkcolor.errors import IndexOutOfRange, OverlappingOperands


def test_gate_operand_arity_enforced():
    with pytest.raises(ValueError):
        Gate(GateKind.X, targets=(0, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.CX, targets=(0,))
    with pytest.raises(ValueError):
        Gate(GateKind.SWAP, targets=(0,))
    with pytest.raises(ValueError):
        Gate(GateKind.MCT, controls=(Control(0),), targets=(1, 2))


def test_gate_angle_rules():
    with pytest.raises(ValueError):
        Gate(GateKind.X, targets=(0,), angle=1.0)
    with pytest.raises(ValueError):
        Gate(GateKind.RY, targets=(0,))
    assert gRY(0, 0.5).angle == 0.5


def test_negative_polarity_only_on_multi_controlled():
    with pytest.raises(ValueError):
        Gate(GateKind.CX, controls=(Control(0, positive=False),), targets=(1,))
    g = gMCT([(0, False), 1], 2)
    assert [c.positive for c in g.controls] == [False, True]


def test_overlapping_operands_rejected():
    with pytest.raises(OverlappingOperands):
        gCX(1, 1)
    with pytest.raises(OverlappingOperands):
        gMCT([0, 1], 1)


C1, C2 = Control(1), Control(2)
N0, N1 = Control(0, positive=False), Control(1, positive=False)

# Malformed gates by shape: (controls, targets, whether the angle is the
# one the kind needs, error, message), where {k} is the kind's name.  A gate with two faults raises the error
# of the first check it fails: shape, angle, polarity, overlap.
MALFORMED = (
    (ONE_QUBIT_KINDS, (
        ((C1,), (0,), True, ValueError, "{k} takes 0 controls and 1 target"),
        ((), (), True, ValueError, "{k} takes 0 controls and 1 target"),
        ((), (0, 1), False, ValueError, "{k} takes 0 controls and 1 target"),
        ((), (0,), False, ValueError, "angle must be present iff {k} is a rotation"),
    )),
    (CONTROLLED_KINDS, (
        ((), (0,), True, ValueError, "{k} takes 1 control and 1 target"),
        ((C1, C2), (0,), True, ValueError, "{k} takes 1 control and 1 target"),
        ((C1,), (0, 2), False, ValueError, "{k} takes 1 control and 1 target"),
        ((C1,), (0,), False, ValueError, "angle must be present iff {k} is a rotation"),
        ((N1,), (0,), True, ValueError, "negative polarity is permitted only on MCT/MCZ"),
        ((N0,), (0,), True, ValueError, "negative polarity is permitted only on MCT/MCZ"),
        ((C1,), (1,), True, OverlappingOperands, "{k} operands overlap: [1, 1]"),
    )),
    ({GateKind.SWAP}, (
        ((C2,), (0, 1), True, ValueError, "swap takes 0 controls and 2 targets"),
        ((), (0,), True, ValueError, "swap takes 0 controls and 2 targets"),
        ((), (0, 1, 2), False, ValueError, "swap takes 0 controls and 2 targets"),
        ((), (0, 1), False, ValueError, "angle must be present iff swap is a rotation"),
        ((), (1, 1), True, OverlappingOperands, "swap operands overlap: [1, 1]"),
    )),
    (MULTI_KINDS, (
        ((C1,), (), True, ValueError, "{k} takes exactly 1 target"),
        ((C1,), (0, 2), False, ValueError, "{k} takes exactly 1 target"),
        ((C1,), (0,), False, ValueError, "angle must be present iff {k} is a rotation"),
        ((C1, N0), (0,), True, OverlappingOperands, "{k} operands overlap: [1, 0, 0]"),
        ((C1, C2, C1), (0,), True, OverlappingOperands,
         "{k} operands overlap: [1, 2, 1, 0]"),
    )),
)


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda kind: kind.value)
def test_gate_validation(kind):
    [cases] = [cases for kinds, cases in MALFORMED if kind in kinds]
    good = 0.5 if kind in ROTATION_KINDS else None
    bad = None if kind in ROTATION_KINDS else 0.5
    for controls, targets, angle_ok, error, message in cases:
        with pytest.raises(error) as info:
            Gate(kind, controls, targets, good if angle_ok else bad)
        assert str(info.value) == message.format(k=kind.value)


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda kind: kind.value)
def test_malformed_by_keyword(kind):
    [cases] = [cases for kinds, cases in MALFORMED if kind in kinds]
    good = 0.5 if kind in ROTATION_KINDS else None
    bad = None if kind in ROTATION_KINDS else 0.5
    for controls, targets, angle_ok, error, message in cases:
        with pytest.raises(error) as info:
            Gate(kind=kind, controls=controls, targets=targets,
                 angle=good if angle_ok else bad)
        assert str(info.value) == message.format(k=kind.value)


def test_replace_is_checked():
    with pytest.raises(OverlappingOperands, match=r"^cx operands overlap: "
                       r"\[0, 0\]$"):
        dataclasses.replace(gCX(0, 1), targets=(0,))
    with pytest.raises(ValueError, match="^angle must be present iff ry"):
        dataclasses.replace(gRY(0, 0.5), angle=None)
    moved = dataclasses.replace(gMCT([(2, False), 0], 1), targets=(3,))
    assert moved.operands == (2, 0, 3)


def test_operands_are_controls_then_targets():
    built = [gMCT([(2, False), 0, 4], 1), gMCZ([3], 0), gSWAP(3, 1),
             gCX(0, 2), gRY(1, -0.4)]
    perm = [5, 6, 7, 8, 9]
    gates = (built + [g.remapped(perm) for g in built]
             + [g.adjoint() for g in built]
             + [dataclasses.replace(built[0], targets=(3,))])
    for gate in gates:
        assert gate.operands == (tuple(c.qubit for c in gate.controls)
                                 + gate.targets)
    assert gates[5].operands == (7, 5, 9, 6)
    assert gates[-1].operands == (2, 0, 4, 3)


def test_adjoint_pairs():
    assert gRY(0, 0.7).adjoint().angle == -0.7
    assert gX(0).adjoint() == gX(0)


# One gate of each kind on qubits 0..4: controls, targets, angle.
REMAP_CASES = {
    GateKind.X: ((), (1,), None),
    GateKind.H: ((), (4,), None),
    GateKind.Z: ((), (0,), None),
    GateKind.RY: ((), (2,), 0.25),
    GateKind.RZ: ((), (3,), -1.5),
    GateKind.CX: ((C2,), (0,), None),
    GateKind.SWAP: ((), (3, 1), None),
    GateKind.MCT: ((Control(2, positive=False), Control(0), Control(4)),
                   (1,), None),
    GateKind.MCZ: ((Control(3), N0), (2,), None),
}


def _mapped_fields(controls, targets, perm):
    return (tuple(Control(perm[c.qubit], c.positive) for c in controls),
            tuple(perm[t] for t in targets))


def test_remapped():
    assert set(REMAP_CASES) == set(GateKind)
    perm = [5, 9, 7, 6, 8]
    collapse = [0] * 5  # sends every operand to one qubit
    for kind, (controls, targets, angle) in REMAP_CASES.items():
        gate = Gate(kind, controls, targets, angle)
        for qubit_map in (perm, dict(enumerate(perm))):
            got = gate.remapped(qubit_map)
            want = Gate(kind, *_mapped_fields(controls, targets, perm), angle)
            assert got == want and hash(got) == hash(want), kind
            assert got.operands == want.operands, kind
            assert repr(got) == repr(want), kind
            assert (got.controls, got.targets, got.angle) == (
                want.controls, want.targets, want.angle), kind
        if len(gate.operands) == 1:
            continue
        # the error and message a validated construction raises
        with pytest.raises(OverlappingOperands) as want:
            Gate(kind, *_mapped_fields(controls, targets, collapse), angle)
        with pytest.raises(OverlappingOperands) as got:
            gate.remapped(collapse)
        assert str(got.value) == str(want.value), kind
    g = gMCT([(2, False), 0], 1).remapped({0: 5, 1: 3, 2: 4})
    assert g.operands == (4, 5, 3)
    assert [c.positive for c in g.controls] == [False, True]
    with pytest.raises(OverlappingOperands, match=r"^mct operands overlap: "
                       r"\[4, 5, 5\]$"):
        gMCT([(2, False), 0], 1).remapped({0: 5, 1: 5, 2: 4})


# The helper call that builds each REMAP_CASES gate.
HELPER_CASES = {
    GateKind.X: lambda: gX(1),
    GateKind.H: lambda: gH(4),
    GateKind.Z: lambda: gZ(0),
    GateKind.RY: lambda: gRY(2, 0.25),
    GateKind.RZ: lambda: gRZ(3, -1.5),
    GateKind.CX: lambda: gCX(2, 0),
    GateKind.SWAP: lambda: gSWAP(3, 1),
    GateKind.MCT: lambda: gMCT([(2, False), 0, 4], 1),
    GateKind.MCZ: lambda: gMCZ([3, (0, 0)], 2),
}


def test_helpers_and_constructor_agree():
    assert set(HELPER_CASES) == set(REMAP_CASES) == set(GateKind)
    for kind, (controls, targets, angle) in REMAP_CASES.items():
        gates = (Gate(kind, controls, targets, angle),
                 Gate(kind=kind, controls=controls, targets=targets,
                      angle=angle),
                 HELPER_CASES[kind]())
        for gate in gates:
            assert gate == gates[0] and hash(gate) == hash(gates[0]), kind
            assert gate.operands == gates[0].operands, kind
            assert repr(gate) == repr(gates[0]), kind
            assert (gate.kind, gate.controls, gate.targets, gate.angle) == (
                kind, controls, targets, angle), kind
    # the helpers' controls hold Python ints, whatever index type named
    # them first
    for gate in (gCX(np.int64(1234), 0), gMCT([(np.int64(1235), True)], 0),
                 gCX(1234, 0)):
        assert all(type(c.qubit) is int for c in gate.controls)


def test_helpers_refuse_a_control_that_is_no_index():
    # checked on every call: a float equal to a qubit already in the
    # shared Control table, a bool and a float among MCT controls would
    # otherwise build a control on qubit 2, 1 and 1
    gCX(2, 5)
    for build in (lambda: gCX(2.0, 5), lambda: gCX(True, 5),
                  lambda: gMCT([1.7, 3], 5),
                  lambda: gMCZ([(np.bool_(True), False)], 5)):
        with pytest.raises(IndexOutOfRange, match="is not an index"):
            build()
    assert gCX(np.int64(2), 5) == gCX(2, 5)


def test_circuit_bounds_checked():
    circ = Circuit(2)
    with pytest.raises(IndexOutOfRange):
        circ.append(gX(2))
    with pytest.raises(IndexOutOfRange):
        Circuit(0)
    with pytest.raises(IndexOutOfRange):
        Circuit(2, initial_state=[0])
    for measured in ([1, 1], [0, 2], [-1]):
        with pytest.raises(IndexOutOfRange):
            Circuit(2, measured=measured)
    assert Circuit(3).measured == (0, 1, 2)
    assert Circuit(3, measured=[2, 0]).copy().measured == (2, 0)


def test_extend_checks_the_batch_first():
    circ = Circuit(2).extend([gX(0), gCX(0, 1)])
    # the first qubit out of range, in gate and operand order, is named,
    # and no gate of the batch is appended
    for batch, bad in (([gX(1), gCX(1, 2), gX(3)], 2), ([gSWAP(0, 5)], 5),
                       ([gMCT([(3, False), 0], 1)], 3)):
        with pytest.raises(IndexOutOfRange, match=f"^qubit {bad} outside "
                           "register of 2$"):
            circ.extend(iter(batch))
        assert circ.gates == [gX(0), gCX(0, 1)]
    # in range but no index: a float or a bool qubit would be written
    # into the QASM as q[1.5] or q[True]
    for batch, bad in (([gX(1), gX(1.5)], 1.5), ([gX(True)], True),
                       ([gCX(0, np.bool_(True))], True),
                       ([gH(np.float64(0.0))], 0.0)):
        with pytest.raises(IndexOutOfRange, match=f"^qubit {bad} outside "
                           "register of 2$"):
            circ.extend(batch)
        assert circ.gates == [gX(0), gCX(0, 1)]
    assert circ.extend(g for g in [gH(1)]) is circ
    assert circ.gates == [gX(0), gCX(0, 1), gH(1)]
    # numpy integers are indices, as in the helpers' controls
    circ.extend([gX(np.int64(0)), gCX(np.uint8(1), np.int32(0))])
    assert circ.gates[3:] == [gX(0), gCX(1, 0)]


def test_initial_state_entries_must_be_bits():
    # a run indexes the amplitude tensor by these: 2 would be out of
    # range, -1 would wrap around to 1, and 0.5 is no index
    for bit in (2, -1, 0.5, "1"):
        with pytest.raises(IndexOutOfRange, match="entries must be 0 or 1"):
            Circuit(2, initial_state=[bit, 0])
    assert Circuit(2, initial_state=[True, 1.0]).initial_state == [1, 1]


def test_stats():
    circ = Circuit(4)
    circ.extend([gH(0), gCX(0, 1), gSWAP(2, 3), gMCT([0, 1], 2),
                 gMCT([0, 1, 3], 2), gX(3)])
    st = circ.stats()
    assert st.gate_count == 6
    assert st.two_qubit_count == 2
    assert st.mct_count_by_arity == {2: 1, 3: 1}
    # longest chain: h; cx; mct; mct; x
    assert st.depth == 5


def test_layout_data_and_initials():
    layout = QubitLayout(n=2, c=2, data=range(0, 4), edge_ancilla=range(4, 5),
                         valid_flags=range(5, 7),
                         num_qubits=8)
    init = layout.initial_state()
    assert init == [0, 0, 0, 0, 1, 1, 1, 0]
    assert list(layout.vertex_qubits(1)) == [2, 3]
    assert layout.num_qubits == 8
    assert layout.num_data == 4
