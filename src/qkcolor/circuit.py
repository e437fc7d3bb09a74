"""Quantum circuit intermediate representation.

A Circuit is an ordered gate list over a fixed register.  Each qubit
has a declared initial basis state, and the circuit names the qubits it
reads out: classical bit i is measured from ``measured[i]``.  The
simulator honors ``initial_state`` directly; the QASM emitter realizes
it as an X preamble.

Negative-polarity controls are first-class on MCT/MCZ and are eliminated
during lowering by X-conjugation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .errors import IndexOutOfRange, OverlappingOperands, UnloweredGate


class GateKind(Enum):
    X = "x"
    H = "h"
    Z = "z"
    RY = "ry"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"
    CRX = "crx"
    SWAP = "swap"
    MCT = "mct"
    MCZ = "mcz"


ONE_QUBIT_KINDS = frozenset({
    GateKind.X, GateKind.H, GateKind.Z, GateKind.RY, GateKind.RZ})
ROTATION_KINDS = frozenset({GateKind.RY, GateKind.RZ, GateKind.CRX})
CONTROLLED_KINDS = frozenset({GateKind.CX, GateKind.CZ, GateKind.CRX})
MULTI_KINDS = frozenset({GateKind.MCT, GateKind.MCZ})
# Gates that map basis states to basis states with no phase: what the W
# of a mirror window may hold, and the oracles phase_pattern tracks as bits.
PERMUTATION_KINDS = frozenset({GateKind.X, GateKind.CX, GateKind.MCT})

# The lowered alphabet, 1- and 2-qubit gates only: what lower_circuit
# produces, and the only kinds emit_qasm and sabre_route accept.
LOWERED_KINDS = ONE_QUBIT_KINDS | CONTROLLED_KINDS | {GateKind.SWAP}


def check_lowered(circuit: Circuit) -> None:
    """Raise UnloweredGate naming the first gate outside LOWERED_KINDS."""
    for index, gate in enumerate(circuit.gates):
        if gate.kind not in LOWERED_KINDS:
            raise UnloweredGate(
                f"gate {index} is {gate.kind.value} with {len(gate.controls)} "
                f"controls; lower the circuit first")


def check_qubit_subset(qubits: tuple[int, ...], num_qubits: int,
                       what: str) -> None:
    """Raise IndexOutOfRange unless ``qubits`` are distinct and inside a
    register of ``num_qubits``; ``what`` names them in the message."""
    if (len(set(qubits)) != len(qubits)
            or not all(0 <= q < num_qubits for q in qubits)):
        raise IndexOutOfRange(f"{what} {qubits} must be distinct and inside "
                              f"a register of {num_qubits}")


@dataclass(frozen=True)
class Control:
    qubit: int
    positive: bool = True


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    controls: tuple[Control, ...] = ()
    targets: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self):
        k = self.kind
        nc, nt = len(self.controls), len(self.targets)
        if k in ONE_QUBIT_KINDS and (nc, nt) != (0, 1):
            raise ValueError(f"{k.value} takes 0 controls and 1 target")
        if k in CONTROLLED_KINDS and (nc, nt) != (1, 1):
            raise ValueError(f"{k.value} takes 1 control and 1 target")
        if k is GateKind.SWAP and (nc, nt) != (0, 2):
            raise ValueError("swap takes 0 controls and 2 targets")
        if k in MULTI_KINDS and nt != 1:
            raise ValueError(f"{k.value} takes exactly 1 target")
        if (self.angle is not None) != (k in ROTATION_KINDS):
            raise ValueError(f"angle must be present iff {k.value} is a rotation")
        if k not in MULTI_KINDS and any(not c.positive for c in self.controls):
            raise ValueError("negative polarity is permitted only on MCT/MCZ")
        operands = [c.qubit for c in self.controls] + list(self.targets)
        if len(set(operands)) != len(operands):
            raise OverlappingOperands(f"{k.value} operands overlap: {operands}")

    @property
    def operands(self) -> tuple[int, ...]:
        return tuple(c.qubit for c in self.controls) + self.targets

    def adjoint(self) -> "Gate":
        """Inverse gate: a rotation by the negated angle; every other kind
        is self-inverse."""
        if self.kind in ROTATION_KINDS:
            return replace(self, angle=-self.angle)
        return self

    def remapped(self, perm) -> "Gate":
        """Gate with every operand q replaced by perm[q]."""
        return Gate(self.kind,
                    tuple(Control(perm[c.qubit], c.positive) for c in self.controls),
                    tuple(perm[t] for t in self.targets),
                    self.angle)


# Gate construction helpers; angles in radians.

def gX(t): return Gate(GateKind.X, targets=(t,))
def gH(t): return Gate(GateKind.H, targets=(t,))
def gZ(t): return Gate(GateKind.Z, targets=(t,))
def gRY(t, angle): return Gate(GateKind.RY, targets=(t,), angle=angle)
def gRZ(t, angle): return Gate(GateKind.RZ, targets=(t,), angle=angle)
def gCX(c, t): return Gate(GateKind.CX, controls=(Control(c),), targets=(t,))
def gCZ(c, t): return Gate(GateKind.CZ, controls=(Control(c),), targets=(t,))
def gCRX(c, t, angle): return Gate(GateKind.CRX, controls=(Control(c),), targets=(t,), angle=angle)
def gSWAP(a, b): return Gate(GateKind.SWAP, targets=(a, b))


def gMCT(controls, target) -> Gate:
    """MCT with mixed-polarity controls; each control is an index or
    (index, positive) pair."""
    return Gate(GateKind.MCT, controls=_as_controls(controls), targets=(target,))


def gMCZ(controls, target) -> Gate:
    return Gate(GateKind.MCZ, controls=_as_controls(controls), targets=(target,))


def _as_controls(controls) -> tuple[Control, ...]:
    out = []
    for c in controls:
        if isinstance(c, Control):
            out.append(c)
        elif isinstance(c, tuple):
            out.append(Control(c[0], bool(c[1])))
        else:
            out.append(Control(int(c)))
    return tuple(out)


@dataclass(frozen=True)
class QubitLayout:
    """Register map of a synthesized oracle.

    Data qubits come first: vertex v's color bits occupy
    ``[v*c, (v+1)*c)``, most significant bit first.
    """

    n: int
    c: int
    data: range
    edge_ancilla: range
    invalid_ancilla: int | None
    valid_flags: range | None
    output: int

    @property
    def num_qubits(self) -> int:
        return self.output + 1

    @property
    def num_data(self) -> int:
        return len(self.data)

    def vertex_qubits(self, v: int) -> range:
        return range(v * self.c, (v + 1) * self.c)

    def initial_state(self) -> list[int]:
        """Edge ancillas, valid flags and the output start in |1>."""
        init = [0] * self.num_qubits
        for q in self.edge_ancilla:
            init[q] = 1
        if self.valid_flags is not None:
            for q in self.valid_flags:
                init[q] = 1
        init[self.output] = 1
        return init


@dataclass
class CircuitStats:
    gate_count: int
    two_qubit_count: int
    mct_count_by_arity: dict[int, int]
    depth: int


class Circuit:
    """Ordered gate list over a declared register.

    ``measured`` is the readout: classical bit i is read from qubit
    ``measured[i]``.  It defaults to every qubit in register order.
    """

    def __init__(self, num_qubits: int, measured=None, initial_state=None):
        if num_qubits <= 0:
            raise IndexOutOfRange(f"register width must be positive, got {num_qubits}")
        self.num_qubits = num_qubits
        self.gates: list[Gate] = []
        self.measured: tuple[int, ...] = (tuple(measured) if measured is not None
                                          else tuple(range(num_qubits)))
        self.initial_state: list[int] = (list(initial_state) if initial_state is not None
                                         else [0] * num_qubits)
        if len(self.initial_state) != num_qubits:
            raise IndexOutOfRange("initial_state length must equal num_qubits")
        check_qubit_subset(self.measured, num_qubits, "measured qubits")

    def append(self, gate: Gate) -> "Circuit":
        for q in gate.operands:
            if not (0 <= q < self.num_qubits):
                raise IndexOutOfRange(f"qubit {q} outside register of {self.num_qubits}")
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        for g in gates:
            self.append(g)
        return self

    def copy(self) -> "Circuit":
        out = Circuit(self.num_qubits, self.measured, self.initial_state)
        out.gates = list(self.gates)
        return out

    def stats(self) -> CircuitStats:
        two_q = 0
        by_arity: dict[int, int] = {}
        frontier = [0] * self.num_qubits
        depth = 0
        for g in self.gates:
            ops = g.operands
            if len(ops) == 2:
                two_q += 1
            if g.kind in MULTI_KINDS:
                arity = len(g.controls)
                by_arity[arity] = by_arity.get(arity, 0) + 1
            level = 1 + max((frontier[q] for q in ops), default=0)
            for q in ops:
                frontier[q] = level
            depth = max(depth, level)
        return CircuitStats(len(self.gates), two_q, by_arity, depth)

    def __len__(self):
        return len(self.gates)

    def __repr__(self):
        return f"Circuit(num_qubits={self.num_qubits}, gates={len(self.gates)})"
