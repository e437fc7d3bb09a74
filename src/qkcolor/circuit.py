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

import operator
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral

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

    # Enum.__hash__ hashes the member name in Python code; members are
    # singletons, so identity hashing keeps equality and is a C call for
    # every frozenset test on a kind.
    __hash__ = object.__hash__


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

# Operand shape of each kind: (controls, targets, message), controls None
# for any number, then whether it is a rotation.
_SHAPES = {
    **{k: (0, 1, f"{k.value} takes 0 controls and 1 target")
       for k in ONE_QUBIT_KINDS},
    **{k: (1, 1, f"{k.value} takes 1 control and 1 target")
       for k in CONTROLLED_KINDS},
    GateKind.SWAP: (0, 2, "swap takes 0 controls and 2 targets"),
    **{k: (None, 1, f"{k.value} takes exactly 1 target") for k in MULTI_KINDS},
}
_SHAPES = {k: (*shape, k in ROTATION_KINDS) for k, shape in _SHAPES.items()}


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


@dataclass(frozen=True, init=False)
class Gate:
    """One gate: its kind, controls, targets and rotation angle.

    Every gate is checked by the one ``__init__``: the operand shape of
    its kind, the angle (present iff the kind is a rotation), positive
    polarity on single-controlled kinds and distinct operands, in that
    order, raising ValueError or OverlappingOperands for the first
    check it fails.  ``dataclasses.replace`` calls it too.  ``operands``
    (control qubits, then targets) is derived, so it is neither
    compared nor printed."""
    kind: GateKind
    controls: tuple[Control, ...] = ()
    targets: tuple[int, ...] = ()
    angle: float | None = None
    operands: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, kind: GateKind, controls: tuple[Control, ...] = (),
                 targets: tuple[int, ...] = (), angle: float | None = None):
        nc_want, nt_want, message, rotation = _SHAPES[kind]
        if len(targets) != nt_want or (
                nc_want is not None and len(controls) != nc_want):
            raise ValueError(message)
        if (angle is None) == rotation:
            raise ValueError(
                f"angle must be present iff {kind.value} is a rotation")
        if nc_want == 0:
            operands = targets
        elif nc_want == 1:
            control = controls[0]
            if not control.positive:
                raise ValueError(
                    "negative polarity is permitted only on MCT/MCZ")
            operands = (control.qubit, targets[0])
        else:
            operands = tuple([c.qubit for c in controls]) + targets
        if len(operands) == 2:
            if operands[0] == operands[1]:
                _check_distinct(kind, operands)
        elif len(operands) > 2:
            _check_distinct(kind, operands)
        fields = self.__dict__
        fields["kind"] = kind
        fields["controls"] = controls
        fields["targets"] = targets
        fields["angle"] = angle
        fields["operands"] = operands

    def adjoint(self) -> "Gate":
        """Inverse gate: a rotation by the negated angle; every other kind
        is self-inverse."""
        if self.kind in ROTATION_KINDS:
            return _built(self.kind, self.controls, self.targets, -self.angle,
                          self.operands)
        return self

    def remapped(self, perm) -> "Gate":
        """Gate with every operand q replaced by perm[q].

        A qubit map cannot change kind, arity, angle or polarity, so of
        ``__init__``'s checks only the operand overlap is made
        again: a map that sends two operands to one qubit raises
        OverlappingOperands.  A 1-qubit gate is mapped directly, and each
        control is the one shared ``Control`` of its (qubit, polarity)."""
        operands = self.operands
        if len(operands) == 1:
            operands = (perm[operands[0]],)
            return _built(self.kind, (), operands, self.angle, operands)
        if len(operands) == 2:
            a, b = operands
            operands = (perm[a], perm[b])
            if operands[0] == operands[1]:
                _check_distinct(self.kind, operands)
        else:
            operands = tuple([perm[q] for q in operands])
            _check_distinct(self.kind, operands)
        controls = self.controls
        if len(controls) == 1:
            controls = (_control(operands[0], controls[0].positive),)
        elif controls:
            controls = tuple([_control(q, c.positive)
                              for q, c in zip(operands, controls)])
        return _built(self.kind, controls, operands[len(controls):],
                      self.angle, operands)


# One Control per (qubit, polarity), shared by every gate the helpers
# build or remapped derives: a Control is frozen, so no gate can change
# one under another, and the table grows only with the qubit indices
# used.  Its qubits are Python ints, whatever integer type first named
# them, so one caller's numpy index does not reach another's gates.
_CONTROLS: dict[tuple[int, bool], Control] = {}


def _control(qubit: int, positive: bool) -> Control:
    control = _CONTROLS.get((qubit, positive))
    if control is None:
        qubit = operator.index(qubit)
        control = _CONTROLS[qubit, positive] = Control(qubit, positive)
    return control


def _built(kind, controls, targets, angle, operands) -> Gate:
    """A Gate with these fields, set as __init__ would set them but
    without its checks: for gates derived from a checked one."""
    gate = object.__new__(Gate)
    fields = gate.__dict__
    fields["kind"] = kind
    fields["controls"] = controls
    fields["targets"] = targets
    fields["angle"] = angle
    fields["operands"] = operands
    return gate


def _check_distinct(kind: GateKind, operands: tuple[int, ...]) -> None:
    if len(operands) > 1 and len(set(operands)) != len(operands):
        raise OverlappingOperands(
            f"{kind.value} operands overlap: {list(operands)}")


# Gate construction helpers; angles in radians.

def gX(t): return Gate(GateKind.X, (), (t,))
def gH(t): return Gate(GateKind.H, (), (t,))
def gZ(t): return Gate(GateKind.Z, (), (t,))
def gRY(t, angle): return Gate(GateKind.RY, (), (t,), angle)
def gRZ(t, angle): return Gate(GateKind.RZ, (), (t,), angle)
def gCX(c, t): return Gate(GateKind.CX, (_control(c, True),), (t,))
def gCZ(c, t): return Gate(GateKind.CZ, (_control(c, True),), (t,))
def gCRX(c, t, angle): return Gate(GateKind.CRX, (_control(c, True),), (t,), angle)
def gSWAP(a, b): return Gate(GateKind.SWAP, (), (a, b))


def gMCT(controls, target) -> Gate:
    """MCT with mixed-polarity controls; each control is an index or
    (index, positive) pair."""
    return Gate(GateKind.MCT, _as_controls(controls), (target,))


def gMCZ(controls, target) -> Gate:
    return Gate(GateKind.MCZ, _as_controls(controls), (target,))


def _as_controls(controls) -> tuple[Control, ...]:
    return tuple([_control(c[0], bool(c[1])) if isinstance(c, tuple)
                  else _control(int(c), True) for c in controls])


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
        init = list(initial_state) if initial_state is not None else [0] * num_qubits
        if len(init) != num_qubits:
            raise IndexOutOfRange("initial_state length must equal num_qubits")
        if any(bit not in (0, 1) for bit in init):
            raise IndexOutOfRange(f"initial_state entries must be 0 or 1, got {init}")
        self.initial_state: list[int] = [int(bit) for bit in init]
        check_qubit_subset(self.measured, num_qubits, "measured qubits")

    def append(self, gate: Gate) -> "Circuit":
        return self.extend((gate,))

    def extend(self, gates) -> "Circuit":
        """Append every gate, or none if any names a qubit that is not an
        int or numpy integer (a bool is not one) in the register's range."""
        gates = list(gates)
        n = self.num_qubits
        for g in gates:
            for q in g.operands:
                if not 0 <= q < n or type(q) is not int and (
                        type(q) is bool or not isinstance(q, Integral)):
                    raise IndexOutOfRange(f"qubit {q} outside register of {n}")
        self.gates.extend(gates)
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

    def __repr__(self):
        return f"Circuit(num_qubits={self.num_qubits}, gates={len(self.gates)})"
