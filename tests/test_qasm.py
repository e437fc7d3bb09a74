import math

import pytest

from conftest import complete_graph, path_graph
from qasm_ref import KNOWN_GATES, check_qasm
from qkcolor.circuit import (CONTROLLED_KINDS, LOWERED_KINDS, ROTATION_KINDS,
                             Circuit, Control, Gate, GateKind, gCX, gH, gMCT,
                             gMCZ, gRY, gRZ)
from qkcolor.errors import UnloweredGate
from qkcolor.graphs import make_instance
from qkcolor.lowering import lower_circuit
from qkcolor.oracle import build_oracle
from qkcolor.qasm import _statement, emit_qasm


def test_emit_minimal_circuit():
    circ = Circuit(2, measured=[0], initial_state=[0, 1])
    circ.append(gH(0))
    circ.append(gCX(0, 1))
    text = emit_qasm(circ)
    parsed = check_qasm(text)
    assert parsed.num_qubits == 2
    assert parsed.num_clbits == 1
    # X preamble for the |1> seed, then the two gates
    assert parsed.gates == [("x", (1,), ()), ("h", (0,), ()),
                            ("cx", (0, 1), ())]
    assert parsed.measures == [(0, 0)]


def test_emit_angle_roundtrip():
    angle = math.pi / 7
    circ = Circuit(2)
    circ.append(gRZ(0, angle))
    circ.append(gRY(1, -angle))
    parsed = check_qasm(emit_qasm(circ))
    assert parsed.gates[0][2][0] == pytest.approx(angle, abs=0)
    assert parsed.gates[1][2][0] == pytest.approx(-angle, abs=0)


def test_emit_degenerate_multi_controlled():
    # 0- and 1-control MCT/MCZ lower to x/cx and z/(cx in h); unlowered,
    # they are refused like any other MCT/MCZ
    circ = Circuit(2)
    circ.append(gMCT([], 0))
    circ.append(gMCT([0], 1))
    circ.append(gMCZ([], 0))
    circ.append(gMCZ([0], 1))
    names = [g[0] for g in check_qasm(emit_qasm(lower_circuit(circ))).gates]
    assert names == ["x", "cx", "z", "h", "cx", "h"]
    with pytest.raises(UnloweredGate, match="gate 0 is mct with 0 controls"):
        emit_qasm(circ)


def test_emit_rejects_wide_multi_controlled():
    circ = Circuit(3)
    circ.append(gMCT([0, 1], 2))
    with pytest.raises(UnloweredGate):
        emit_qasm(circ)


def test_emit_rejects_negative_controls():
    circ = Circuit(2)
    circ.append(gMCT([(0, False)], 1))
    with pytest.raises(UnloweredGate):
        emit_qasm(circ)


def test_checker_knows_only_the_lowered_alphabet():
    # the independent parse takes each LOWERED_KINDS statement and no
    # other, so a stray crx, which is no lowered kind, fails it
    assert set(KNOWN_GATES) == {kind.value for kind in LOWERED_KINDS}
    text = emit_qasm(Circuit(2)).replace(
        "measure", "crx(0.5) q[0], q[1];\nmeasure", 1)
    with pytest.raises(ValueError, match="unknown gate 'crx'"):
        check_qasm(text)


def test_comment_lines_are_ignored_by_the_checker():
    circ = Circuit(1)
    circ.append(gH(0))
    text = emit_qasm(circ, comment_lines=["layout: 0 -> 0"])
    assert "// layout: 0 -> 0" in text
    check_qasm(text)


@pytest.mark.parametrize("builder,k", [
    (lambda: path_graph(3), 2),
    (lambda: complete_graph(3), 3),
])
def test_lowered_oracle_emits_valid_qasm(builder, k):
    inst = make_instance(builder(), k)
    lowered = lower_circuit(build_oracle(inst))
    text = emit_qasm(lowered)
    parsed = check_qasm(text)
    assert parsed.num_qubits == lowered.num_qubits
    preamble = sum(lowered.initial_state)
    assert len(parsed.gates) == preamble + len(lowered.gates)
    assert len(parsed.measures) == inst.graph.n * inst.c


@pytest.mark.parametrize("kind", sorted(LOWERED_KINDS, key=lambda k: k.value),
                         ids=lambda kind: kind.value)
def test_statement_matches_the_generic_form(kind):
    # the golden shas cover the kinds a ladder route uses; this covers
    # every lowered kind, its operand count and its angle text
    angles = ((math.pi / 4, -math.pi / 4, 0.1, 1e-300)
              if kind in ROTATION_KINDS else (None,))
    if kind in CONTROLLED_KINDS:
        controls, targets = (Control(10),), (7,)
    else:
        controls, targets = (), (12, 3) if kind is GateKind.SWAP else (11,)
    for angle in angles:
        gate = Gate(kind, controls, targets, angle)
        name = kind.value
        if angle is not None:
            name += "(" + format(angle, ".17g") + ")"
        args = ", ".join("q[%d]" % q for q in gate.operands)
        assert _statement(gate) == name + " " + args + ";"
