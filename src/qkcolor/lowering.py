"""Lowering pass: rewrite MCT/MCZ and negative controls into 1- and
2-qubit gates, ancilla-free.

The multi-controlled X is built from the chain

    C^qX = [phase +i on the all-ones control subspace] . C^qRx(pi)

where C^qRx(theta) uses the exact controlled-half-angle recursion
(CRx(theta/2) conjugated by smaller MCTs, then recurse with theta/2) and
the control-subspace phase is itself a smaller multi-controlled rotation.
Every branch composes to exactly Rx angles that sum correctly, so the
result equals the MCT unitary up to global phase with no approximation.
Each extra control multiplies the gate count by about 3.73 (the ratio
tends to 2+sqrt(3)): 9 gates at 2 controls, 372,857 at 10.  Fine for the
desk-scale arities this pipeline produces.
"""
from __future__ import annotations

import math

from .circuit import (Circuit, Gate, GateKind, LOWERED_KINDS, gCX, gCRX, gCZ,
                      gH, gRZ, gX, gZ)
from .errors import UnloweredGate


def _mcrx(controls: list[int], target: int, theta: float) -> list[Gate]:
    """Exact multi-controlled Rx(theta) over {CRX, CX}."""
    if not controls:
        return [Gate(GateKind.RX, targets=(target,), angle=theta)]
    if len(controls) == 1:
        return [gCRX(controls[0], target, theta)]
    rest, last = controls[:-1], controls[-1]
    inner_mcx = _mcx(rest, last)
    return ([gCRX(last, target, theta / 2)]
            + inner_mcx
            + [gCRX(last, target, -theta / 2)]
            + inner_mcx
            + _mcrx(rest, target, theta / 2))


def _mcphase(qubits: list[int], lam: float) -> list[Gate]:
    """Phase e^{i lam} on the all-ones subspace of ``qubits`` (up to a
    global phase)."""
    if not qubits:
        return []
    if len(qubits) == 1:
        return [gRZ(qubits[0], lam)]
    rest, last = qubits[:-1], qubits[-1]
    # H-conjugated multi-controlled Rx gives a multi-controlled Rz; its
    # leftover e^{i lam/2} on the control subspace recurses with lam/2.
    return ([gH(last)] + _mcrx(rest, last, lam) + [gH(last)]
            + _mcphase(rest, lam / 2))


def _mcx(controls: list[int], target: int) -> list[Gate]:
    if not controls:
        return [gX(target)]
    if len(controls) == 1:
        return [gCX(controls[0], target)]
    # C^qRx(pi) applies -iX on the marked subspace; cancel the -i there.
    return _mcphase(list(controls), math.pi / 2) + _mcrx(list(controls), target, math.pi)


def _mcz(controls: list[int], target: int) -> list[Gate]:
    if not controls:
        return [gZ(target)]
    if len(controls) == 1:
        return [gCZ(controls[0], target)]
    return _mcphase(list(controls) + [target], math.pi)


def decompose_mct(gate: Gate) -> list[Gate]:
    """Elementary realization of one MCT/MCZ gate.

    Negative controls are rewritten first by X-conjugation.
    """
    if gate.kind not in (GateKind.MCT, GateKind.MCZ):
        raise ValueError(f"expected MCT/MCZ, got {gate.kind.value}")
    target = gate.targets[0]
    controls = [c.qubit for c in gate.controls]
    flips = [gX(c.qubit) for c in gate.controls if not c.positive]
    body = (_mcx if gate.kind is GateKind.MCT else _mcz)(controls, target)
    return flips + body + list(reversed(flips))


def lower_circuit(circuit: Circuit, basis: str = "default") -> Circuit:
    """Rewrite to the 1-/2-qubit alphabet; structure-preserving elsewhere.

    basis="default" keeps crx and swap as primitives; basis="cx" expands
    both so cx is the only 2-qubit gate left.
    """
    if basis not in ("default", "cx"):
        raise ValueError(f"unknown basis {basis!r}")
    out = Circuit(circuit.num_qubits, roles=circuit.roles,
                  initial_state=circuit.initial_state)
    for gate in circuit.gates:
        if gate.kind in (GateKind.MCT, GateKind.MCZ):
            lowered = decompose_mct(gate)
        elif gate.kind in LOWERED_KINDS:
            lowered = [gate]
        else:
            raise UnloweredGate(f"cannot lower {gate.kind.value}")
        for g in lowered:
            if basis == "cx" and g.kind is GateKind.CRX:
                out.extend(_crx_to_cx(g))
            elif basis == "cx" and g.kind is GateKind.SWAP:
                a, b = g.targets
                out.extend([gCX(a, b), gCX(b, a), gCX(a, b)])
            elif basis == "cx" and g.kind is GateKind.CZ:
                c, t = g.controls[0].qubit, g.targets[0]
                out.extend([gH(t), gCX(c, t), gH(t)])
            else:
                out.append(g)
    return out


def _crx_to_cx(gate: Gate) -> list[Gate]:
    """CRx(theta) by the standard ABC identity: Rx = Rz(-pi/2) Ry(theta) Rz(pi/2)
    with the controlled Ry split across two CX."""
    c = gate.controls[0].qubit
    t = gate.targets[0]
    theta = gate.angle
    return [
        gRZ(t, math.pi / 2),
        Gate(GateKind.RY, targets=(t,), angle=theta / 2),
        gCX(c, t),
        Gate(GateKind.RY, targets=(t,), angle=-theta / 2),
        gCX(c, t),
        gRZ(t, -math.pi / 2),
    ]
