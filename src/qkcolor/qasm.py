"""OpenQASM 2.0 emission.

Only lowered circuits are accepted (``check_lowered``); each gate is
written as its ``GateKind`` value, plus the angle of a rotation.  Qubits
declared in |1> get an X preamble; classical bit i is measured from
qubit ``circuit.measured[i]``.
"""
from __future__ import annotations

from .circuit import Circuit, Gate, check_lowered


def _statement(gate: Gate) -> str:
    name = gate.kind.value
    if gate.angle is not None:
        name = f"{name}({format(gate.angle, '.17g')})"
    args = ", ".join(f"q[{q}]" for q in gate.operands)
    return f"{name} {args};"


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
    lines.extend(_statement(gate) for gate in circuit.gates)
    lines.extend(f"measure q[{q}] -> c[{pos}];" for pos, q in enumerate(measured))
    lines.extend(f"// {comment}" for comment in comment_lines)
    return "\n".join(lines) + "\n"
