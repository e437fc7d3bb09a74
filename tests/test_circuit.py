import pytest

from qkcolor.circuit import (Circuit, Control, Gate, GateKind, QubitLayout,
                             gCX, gH, gMCT, gRY, gSWAP, gX)
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


def test_adjoint_pairs():
    assert gRY(0, 0.7).adjoint().angle == -0.7
    assert gX(0).adjoint() == gX(0)


def test_remapped():
    g = gMCT([(2, False), 0], 1).remapped({0: 5, 1: 3, 2: 4})
    assert g.operands == (4, 5, 3)
    assert [c.positive for c in g.controls] == [False, True]


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
                         invalid_ancilla=None, valid_flags=range(5, 7),
                         output=7)
    init = layout.initial_state()
    assert init == [0, 0, 0, 0, 1, 1, 1, 1]
    assert list(layout.vertex_qubits(1)) == [2, 3]
    assert layout.num_qubits == 8
    assert layout.num_data == 4
