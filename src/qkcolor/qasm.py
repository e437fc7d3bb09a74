"""OpenQASM 2.0 emission.

Only lowered circuits are accepted (``check_lowered``); each gate is
written as its ``GateKind`` value, plus the angle of a rotation.  Qubits
declared in |1> get an X preamble; classical bit i is measured from
qubit ``circuit.measured[i]``.
"""
from __future__ import annotations

from .circuit import Circuit, Gate, GateKind, check_lowered

# each kind's statement name, read once here rather than through the
# Enum ``value`` property for every gate
_NAMES = {kind: kind.value for kind in GateKind}


def _statement(gate: Gate) -> str:
    name = _NAMES[gate.kind]
    if gate.angle is not None:
        name = f"{name}({format(gate.angle, '.17g')})"
    # a lowered gate has one or two operands
    ops = gate.operands
    if len(ops) == 1:
        return f"{name} q[{ops[0]}];"
    return f"{name} q[{ops[0]}], q[{ops[1]}];"


def emit_qasm(circuit: Circuit, comment_lines=()) -> str:
    """Render a lowered circuit as OpenQASM 2.0 text.

    Raises UnloweredGate if a gate lies outside ``LOWERED_KINDS``.
    """
    check_lowered(circuit)
    measured = circuit.measured
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";',
             f"qreg q[{circuit.num_qubits}];", f"creg c[{max(len(measured), 1)}];"]
    lines.extend(f"x q[{q}];" for q, bit in enumerate(circuit.initial_state)
                 if bit)
    lines.extend(map(_statement, circuit.gates))
    lines.extend(f"measure q[{q}] -> c[{pos}];" for pos, q in enumerate(measured))
    lines.extend(f"// {comment}" for comment in comment_lines)
    return "\n".join(lines) + "\n"
