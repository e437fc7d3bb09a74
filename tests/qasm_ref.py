"""Stand-alone OpenQASM 2.0 grammar checker used by the tests.

Intentionally independent of qkcolor.qasm: a line-oriented recognizer
for the subset of OpenQASM 2.0 the emitter is allowed to produce.
Raises ValueError on the first violation.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

_QREG = re.compile(r"^qreg\s+(\w+)\[(\d+)\];$")
_CREG = re.compile(r"^creg\s+(\w+)\[(\d+)\];$")
_INCLUDE = re.compile(r'^include\s+"[\w.]+";$')
_MEASURE = re.compile(r"^measure\s+(\w+)\[(\d+)\]\s*->\s*(\w+)\[(\d+)\];$")
_GATE = re.compile(
    r"^(?P<name>[a-z]+)"
    r"(?:\((?P<params>[^()]*)\))?"
    r"\s+(?P<args>\w+\[\d+\](?:\s*,\s*\w+\[\d+\])*);$")
_ARG = re.compile(r"(\w+)\[(\d+)\]")
_FLOAT = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

# name -> (operand count, parameter count)
KNOWN_GATES = {
    "x": (1, 0), "h": (1, 0), "z": (1, 0), "ry": (1, 1), "rz": (1, 1),
    "cx": (2, 0), "cz": (2, 0), "crx": (2, 1), "swap": (2, 0),
}


@dataclass
class ParsedQasm:
    num_qubits: int = 0
    num_clbits: int = 0
    gates: list = field(default_factory=list)   # (name, operands, params)
    measures: list = field(default_factory=list)  # (qubit, clbit)


def check_qasm(text: str) -> ParsedQasm:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("//")]
    if not lines or lines[0] != "OPENQASM 2.0;":
        raise ValueError("missing OPENQASM 2.0 header")
    pos = 1
    if pos < len(lines) and _INCLUDE.match(lines[pos]):
        pos += 1

    parsed = ParsedQasm()
    qreg_name = creg_name = None
    for line in lines[pos:]:
        m = _QREG.match(line)
        if m:
            if qreg_name is not None:
                raise ValueError("duplicate qreg declaration")
            qreg_name, parsed.num_qubits = m.group(1), int(m.group(2))
            continue
        m = _CREG.match(line)
        if m:
            if creg_name is not None:
                raise ValueError("duplicate creg declaration")
            creg_name, parsed.num_clbits = m.group(1), int(m.group(2))
            continue
        m = _MEASURE.match(line)
        if m:
            q, c = int(m.group(2)), int(m.group(4))
            if m.group(1) != qreg_name or m.group(3) != creg_name:
                raise ValueError(f"measure references unknown register: {line}")
            if q >= parsed.num_qubits or c >= parsed.num_clbits:
                raise ValueError(f"measure index out of range: {line}")
            parsed.measures.append((q, c))
            continue
        m = _GATE.match(line)
        if not m:
            raise ValueError(f"unrecognized statement: {line!r}")
        name = m.group("name")
        if name not in KNOWN_GATES:
            raise ValueError(f"unknown gate {name!r}")
        want_ops, want_params = KNOWN_GATES[name]
        params = []
        if m.group("params") is not None:
            params = [p.strip() for p in m.group("params").split(",")]
            for p in params:
                if not _FLOAT.match(p):
                    raise ValueError(f"bad parameter {p!r} in: {line}")
        if len(params) != want_params:
            raise ValueError(f"{name} takes {want_params} params: {line}")
        operands = []
        for reg, idx in _ARG.findall(m.group("args")):
            if reg != qreg_name:
                raise ValueError(f"unknown register {reg!r} in: {line}")
            idx = int(idx)
            if idx >= parsed.num_qubits:
                raise ValueError(f"qubit index {idx} out of range: {line}")
            operands.append(idx)
        if len(operands) != want_ops:
            raise ValueError(f"{name} takes {want_ops} operands: {line}")
        if len(set(operands)) != len(operands):
            raise ValueError(f"repeated operand in: {line}")
        parsed.gates.append((name, tuple(operands),
                             tuple(float(p) for p in params)))
    if qreg_name is None:
        raise ValueError("no qreg declared")
    return parsed
