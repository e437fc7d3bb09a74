"""Lowering pass: rewrite MCT/MCZ and negative controls into 1- and
2-qubit gates, exactly (up to a global phase), without adding qubits.

A gate with 0 or 1 control becomes X/CX (MCT) or Z/CZ (MCZ), and one
with 2 controls becomes the 9-gate exact Toffoli below.  A gate with
n >= 3 controls is lowered on the qubits it leaves free, borrowed dirty:
they may hold any state and are restored (Barenco et al. 1995,
quant-ph/9503016):

* n-2 or more free qubits: the V-chain of Lemma 7.2, 4(n-2) Toffolis;
* 1 to n-3 free qubits: the split of Lemma 7.3, which borrows one
  qubit and lowers each half of the controls by Lemma 7.2 with the other
  half and the target as dirty qubits, about 8n Toffolis;
* no free qubit: ``UnloweredGate``.  Oracle and Grover circuits leave
  at least one qubit out of every MCT (tested on all graphs with up to
  4 vertices), so they never reach it.

In each V-chain only the two Toffolis on the target are exact; the
sweep Toffolis are 7-gate relative-phase (Margolus) Toffolis, undone by
their exact inverse in the mirrored sweep (Maslov 2016,
arXiv:1508.03273).  So the count is linear in n: 28n-52 gates, 12n-18
of them 2-qubit, for a positive-control MCT with n-2 free qubits.  An
MCZ with 2 or more controls is the MCT conjugated by H on its target;
negative controls are conjugated by X.

The same cancellation is lifted to whole mirror windows W K W^-1, such
as an oracle's compute, kickback and uncompute: K is an MCT/MCZ on
target t and W a run of X/CX/MCT gates off t.  Every Toffoli in W is
Margolus (a 2-control MCT is 7 gates, 3 of them CX; a V-chain 28n-56,
12n-24 of them 2-qubit), t is never borrowed, K is exact, and the right
side is the exact adjoint of the lowered W, so the phases cancel across
the window.
"""
from __future__ import annotations

import math

from .circuit import (MULTI_KINDS, Circuit, Gate, GateKind, gCX, gCRX, gCZ,
                      gH, gRY, gRZ, gX, gZ)
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


def _margolus(a: int, b: int, t: int) -> list[Gate]:
    """Toffoli up to a relative phase (Margolus): 7 gates, 3 of them CX.

    It is the exact Toffoli times a -1 on a = 1, b = 0, t = 1, so it is
    only exact when its inverse follows.
    """
    quarter = math.pi / 4
    return [gRY(t, quarter), gCX(b, t), gRY(t, quarter), gCX(a, t),
            gRY(t, -quarter), gCX(b, t), gRY(t, -quarter)]


def _vchain(controls: list[int], target: int, dirty: list[int],
            relative: bool = False) -> list[Gate]:
    """Lemma 7.2: C^nX from 4(n-2) Toffolis on n-2 dirty qubits, which
    come back in their input state.

    The sweep toggles the last dirty qubit by the AND of all controls
    but the last, whatever the dirty qubits hold; the top Toffoli is
    applied before and after it, and a second sweep undoes the first.
    Only the two top Toffolis act on the target and must be exact.  The
    4(n-2)-2 sweep Toffolis are Margolus, so the sweep is S = D S0 with
    S0 the exact sweep and D diagonal off the target.  D commutes with
    the top Toffoli, so the second sweep, the exact adjoint S^-1, cancels
    it: top S top S^-1 = C^nX.  That is 28n-52 gates, 12n-18 of them
    2-qubit.  ``relative`` makes the tops Margolus too: C^nX up to a
    diagonal, 28n-56 gates and 12n-24 2-qubit, for a mirrored window.
    """
    n = len(controls)
    toffoli = _margolus if relative else _toffoli
    if n == 2:
        return toffoli(*controls, target)
    a = dirty[:n - 2]
    down = [(controls[i + 2], a[i], a[i + 1]) for i in reversed(range(n - 3))]
    sweep = [g for c1, c2, t in down + [(controls[0], controls[1], a[0])]
             + down[::-1] for g in _margolus(c1, c2, t)]
    top = toffoli(controls[-1], a[-1], target)
    return top + sweep + top + [g.adjoint() for g in reversed(sweep)]


def _split(controls: list[int], target: int, spare: int,
           relative: bool = False) -> list[Gate]:
    """Lemma 7.3: C^nX on one dirty qubit ``spare``.  The first half of
    the controls toggles ``spare``, then ``spare`` and the second half
    toggle the target; doing both twice restores ``spare``."""
    half = (len(controls) + 1) // 2
    first, second = controls[:half], controls[half:]
    step = (_vchain(first, spare, second + [target], relative)
            + _vchain(second + [spare], target, first, relative))
    return step + step


def _lower_multi(gate: Gate, num_qubits: int,
                 avoid: int | None = None) -> list[Gate]:
    """One MCT/MCZ lowered by its number of controls; 3 or more borrow
    the qubits it leaves free, and none free raises ``UnloweredGate``.

    Given ``avoid``, the MCT is lowered only up to a diagonal that does
    not act on ``avoid``: every Toffoli is Margolus, and ``avoid`` is
    never borrowed.  Where ``avoid`` is the only free qubit, the gate is
    lowered exactly instead.
    """
    n = len(gate.controls)
    mcz = gate.kind is GateKind.MCZ
    target = gate.targets[0]
    controls = [c.qubit for c in gate.controls]
    relative = avoid is not None
    if n == 0:
        return [gZ(target) if mcz else gX(target)]
    if n == 1:
        return _flipped(gate, [(gCZ if mcz else gCX)(controls[0], target)])
    if n == 2:
        body = (_margolus if relative else _toffoli)(*controls, target)
    else:
        busy = set(gate.operands)
        free = [q for q in range(num_qubits) if q not in busy]
        if not free:
            raise UnloweredGate(
                f"{gate.kind.value} with {n} controls on a {num_qubits}-qubit "
                f"register leaves no idle qubit to borrow")
        if relative:
            kept = [q for q in free if q != avoid]
            relative = bool(kept)
            free = kept or free
        # Nearest indices first: the oracle keeps related qubits adjacent,
        # so routing tends to place these near the gate (6 % fewer swaps
        # than index order on K3/k=3, C6/k=2 and K4/k=4).
        free.sort(key=lambda q: min(abs(q - o) for o in busy))
        body = (_vchain(controls, target, free, relative)
                if len(free) >= n - 2
                else _split(controls, target, free[0], relative))
    if mcz:
        body = [gH(target)] + body + [gH(target)]
    return _flipped(gate, body)


# What the W of a window W K W^-1 may hold: gates that permute basis
# states, so that their relative-phase lowering is diagonal times that
# permutation.
_COMPUTE_KINDS = frozenset({GateKind.X, GateKind.CX, GateKind.MCT})


def _mirror_windows(gates: list[Gate]) -> dict[int, int]:
    """Start -> centre of the longest window W K W^-1 at each start.

    K is an MCT/MCZ on target t, W a run of X/CX/MCT gates none of which
    has t as an operand, and the gates after K are W's, reversed, each
    replaced by its adjoint.  Windows with an empty W are left out.
    """
    windows = {}
    for centre, gate in enumerate(gates):
        if gate.kind not in MULTI_KINDS:
            continue
        tau = gate.targets[0]
        w = 0
        while w < centre and centre + w + 1 < len(gates):
            g = gates[centre - w - 1]
            if (g.kind not in _COMPUTE_KINDS or tau in g.operands
                    or gates[centre + w + 1] != g.adjoint()):
                break
            w += 1
        if w:
            # a later centre at the same start is a longer window
            windows[centre - w] = centre
    return windows


def _lowered_gates(circuit: Circuit):
    """The circuit's gates with every MCT/MCZ lowered; the outermost
    mirror window wins, and the windows nested in it are part of its W.

    In a window W K W^-1 the W is lowered with ``avoid`` set to K's
    target, so it is D P with P the exact W and D diagonal off that
    target; K is lowered exactly, and the right side is the exact
    adjoint of the lowered W.  D commutes with K, so the window is
    (D P)^-1 K (D P) = P^-1 K P exactly.
    """
    gates, width = circuit.gates, circuit.num_qubits

    def lowered(gate, avoid=None):
        return (_lower_multi(gate, width, avoid)
                if gate.kind in MULTI_KINDS else [gate])

    windows = _mirror_windows(gates)
    i = 0
    while i < len(gates):
        centre = windows.get(i)
        if centre is None:
            yield from lowered(gates[i])
            i += 1
            continue
        tau = gates[centre].targets[0]
        compute = [low for g in gates[i:centre] for low in lowered(g, tau)]
        yield from compute
        yield from lowered(gates[centre])
        yield from (g.adjoint() for g in reversed(compute))
        i = 2 * centre - i + 1


def lower_circuit(circuit: Circuit, basis: str = "default") -> Circuit:
    """Rewrite MCT/MCZ into ``LOWERED_KINDS``; other gates pass through.

    An MCT/MCZ with 3 or more controls borrows the qubits it leaves
    free, and raises ``UnloweredGate`` if it leaves none.  The compute
    part W of each mirror window W K W^-1 is lowered with relative-phase
    Toffolis, whose phases the mirror cancels (see ``_lowered_gates``).

    basis="default" keeps crx, cz and swap; basis="cx" expands them so
    cx is the only 2-qubit gate left.  Both are idempotent, so a routed
    circuit can pass again to expand the router's swaps.
    """
    if basis not in ("default", "cx"):
        raise ValueError(f"unknown basis {basis!r}")
    out = Circuit(circuit.num_qubits, measured=circuit.measured,
                  initial_state=circuit.initial_state)
    for g in _lowered_gates(circuit):
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
        gRY(t, theta / 2),
        gCX(c, t),
        gRY(t, -theta / 2),
        gCX(c, t),
        gRZ(t, -math.pi / 2),
    ]
