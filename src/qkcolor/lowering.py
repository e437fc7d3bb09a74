"""Lowering pass: rewrite MCT/MCZ and negative controls into 1- and
2-qubit gates, exactly (up to a global phase), without adding qubits.

A gate with no control becomes X (MCT) or Z (MCZ), and an MCT with
one control a CX.  Any other MCZ is the MCT conjugated by H on its
target, but where it is an exact CCZ or on a V-chain (below), and
negative controls are conjugated by X.  So CX is the one 2-qubit gate
written.  A gate with n >= 3 controls is a network of Toffolis on the
qubits it leaves free, borrowed dirty: they may hold any state and are
restored (Barenco et al. 1995, quant-ph/9503016):

* n-2 or more free qubits: the V-chain of Lemma 7.2, 4(n-2) Toffolis;
* 1 to n-3 free qubits: the split of Lemma 7.3, which borrows one
  qubit and lowers each half of the controls by Lemma 7.2 with the other
  half and the target as dirty qubits, about 8n Toffolis;
* no free qubit: ``UnloweredGate``.  Oracle and Grover circuits leave
  at least one qubit out of every MCT (tested on all graphs with up to
  4 vertices), so they never reach it.

One rule then picks each Toffoli (Maslov 2016, arXiv:1508.03273).  In a
mirror window W K W^-1, with K an MCT/MCZ on target t and W a run of
X/CX/MCT gates (off t under an MCT), every Toffoli of W is a 7-gate
relative-phase (Margolus) Toffoli, 3 of them CX, t is never borrowed
under an MCT (an MCZ is diagonal, so W may borrow any qubit), and the
right side is the exact adjoint of the lowered W, so the phases cancel
across the window.  Any other Toffoli is exact: ``_ccz``, the
Clifford+T CCZ with each T as RZ(pi/4) (Nielsen & Chuang Fig. 4.9), 13
gates, 6 of them CX, in H on its target; an exact 2-control MCZ is that
CCZ alone.  An oracle's compute, MCZ kickback and uncompute is such a
window, so is the diffusion's AND chain around its 2-control Z, and so
is the sweep, top and mirrored sweep of every V-chain: a
positive-control MCT with n-2 free qubits is 28n-40 gates, 12n-18 of
them 2-qubit, with only its two tops exact, and 28n-56 gates, 12n-24 of
them 2-qubit, on the compute side of a window, where its tops are
Margolus too.  An MCZ with n-2 free qubits has no exact Toffoli and no
H: its tops are a CCZ times a phase on two qubits the sweep leaves
alone, and its inverse, so the phases cancel (``_phase_vchain``): 28n-54
gates, 12n-22 of them 2-qubit.

The lowered W of a window is then folded (``_folded``): a CX pair
conjugating gates that commute with it, but one CX, is dropped and that
CX gets a CX after it.  So a comparator's CX ladder onto the Margolus
control it uses once costs 1 CX instead of 2, and a ladder CX undone
before anything else needs its target cancels.  Only the W of a window
is folded, so a circuit with no MCT or MCZ, a routed one say, passes
unchanged.
"""
from __future__ import annotations

import math

from .circuit import (MULTI_KINDS, PERMUTATION_KINDS, Circuit, Gate, GateKind,
                      gCX, gH, gMCT, gRY, gRZ, gX, gZ)
from .errors import UnloweredGate


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


def _sweep(controls: list[int], dirty: list[int]) -> list[Gate]:
    """Toffolis that toggle ``dirty[len(controls) - 2]`` by the AND of
    ``controls``, whatever the dirty qubits hold; a palindrome, so its
    own inverse."""
    a = dirty[:len(controls) - 1]
    down = [gMCT([controls[i + 2], a[i]], a[i + 1])
            for i in reversed(range(len(controls) - 2))]
    return down + [gMCT(controls[:2], a[0])] + down[::-1]


def _vchain(controls: list[int], target: int,
            dirty: list[int]) -> list[Gate]:
    """Lemma 7.2: C^nX as 4(n-2) Toffolis on n-2 dirty qubits, which
    come back in their input state.

    The sweep S toggles the last dirty qubit by the AND of all controls
    but the last, whatever the dirty qubits hold; the top Toffoli is
    applied before and after it, and a second sweep undoes the first:
    top S top S^-1.  S is a palindrome of Toffolis, so S^-1 is S, and
    S top S^-1 is a mirror window: ``_lowered_gates`` makes its sweep
    Toffolis Margolus, so the chain lowers to 28n-40 gates, 12n-18 of
    them 2-qubit.  A C^nZ takes the same sweep with phase tops instead
    (``_phase_vchain``).
    """
    n = len(controls)
    if n == 2:
        return [gMCT(controls, target)]
    sweep = _sweep(controls[:-1], dirty)
    top = gMCT([controls[-1], dirty[n - 3]], target)
    return [top] + sweep + [top] + sweep


def _phase_top(c: int, a: int, t: int) -> list[Gate]:
    """CCZ(c, a, t) times a phase on (c, t) alone: 8 gates, 4 of them CX.

    Its phase is pi/4 (a - a^c + a^c^t - a^t) = pi act - pi/2 ct; the
    RZ angles sum to 0, so it carries no global phase.
    """
    quarter = math.pi / 4
    return [gRZ(a, quarter), gCX(c, a), gRZ(a, -quarter), gCX(t, a),
            gRZ(a, quarter), gCX(c, a), gRZ(a, -quarter), gCX(t, a)]


def _ccz(a: int, b: int, t: int) -> list[Gate]:
    """Exact CCZ, up to a global phase: 13 gates, 6 of them CX, no H.

    ``_phase_top`` is CCZ(a, b, t) times a -pi/2 on a = t = 1; the
    controlled-S that follows, pi/4 (a + t - a^t), puts it back.  An
    exact Toffoli is this CCZ in H on its target.
    """
    quarter = math.pi / 4
    return _phase_top(a, b, t) + [gRZ(a, quarter), gRZ(t, quarter), gCX(a, t),
                                  gRZ(t, -quarter), gCX(a, t)]


def _phase_vchain(controls: list[int], target: int, dirty: list[int],
                  width: int) -> list[Gate]:
    """C^nZ, n >= 3, on n-2 dirty qubits: T S T^-1 S^-1 with S the
    V-chain's sweep onto a, the last dirty qubit, in Margolus Toffolis,
    and T ``_phase_top`` on the last control c, a and the target t.

    T^-1 T multiplies (-1)^(ct a) by (-1)^(ct (a ^ AND)), leaving the
    C^nZ, and cancels T's phase on (c, t), which S does not touch; S's
    relative phase is diagonal, so it commutes with T^-1 and the exact
    S^-1 cancels it.  28n-54 gates, 12n-22 of them 2-qubit.
    """
    top = _phase_top(controls[-1], dirty[len(controls) - 3], target)
    sweep = list(_lowered_gates(_sweep(controls[:-1], dirty), width, target))
    return (top + sweep + [g.adjoint() for g in reversed(top)]
            + [g.adjoint() for g in reversed(sweep)])


def _split(controls: list[int], target: int, spare: int) -> list[Gate]:
    """Lemma 7.3: C^nX on one dirty qubit ``spare``.  The first half of
    the controls toggles ``spare``, then ``spare`` and the second half
    toggle the target; doing both twice restores ``spare``."""
    half = (len(controls) + 1) // 2
    first, second = controls[:half], controls[half:]
    step = (_vchain(first, spare, second + [target])
            + _vchain(second + [spare], target, first))
    return step + step


def _lower_multi(gate: Gate, num_qubits: int,
                 avoid: int | None = None) -> list[Gate]:
    """One MCT/MCZ lowered by its number of controls; 3 or more borrow
    the qubits it leaves free, and none free raises ``UnloweredGate``.

    A 2-control gate is the exact ``_ccz`` (in H for an MCT), or the
    Margolus Toffoli given ``avoid``.  A wider one is a V-chain or split
    of 2-control MCTs, lowered in turn by ``_lowered_gates``, so given
    ``avoid`` it is lowered only up to a diagonal that does not act on
    ``avoid``, and ``avoid`` is never borrowed.  Where ``avoid`` is the
    only free qubit, the gate is lowered exactly instead.  An MCZ is the
    MCT in H on its target, but exact on 2 controls, where it is
    ``_ccz``, and with n-2 free qubits, where it is the exact
    ``_phase_vchain``.
    """
    n = len(gate.controls)
    mcz = gate.kind is GateKind.MCZ
    target = gate.targets[0]
    controls = [c.qubit for c in gate.controls]
    if n == 0:
        return [gZ(target) if mcz else gX(target)]
    if n == 2 and avoid is None:
        body = _ccz(*controls, target)
        return _flipped(gate, body if mcz else
                        [gH(target)] + body + [gH(target)])
    if n == 1:
        body = [gCX(controls[0], target)]
    elif n == 2:
        body = _margolus(*controls, target)
    else:
        busy = set(gate.operands)
        free = [q for q in range(num_qubits) if q not in busy]
        if not free:
            raise UnloweredGate(
                f"{gate.kind.value} with {n} controls on a {num_qubits}-qubit "
                f"register leaves no idle qubit to borrow")
        if free == [avoid]:  # borrowed after all, so lowered exactly
            avoid = None
        free = [q for q in free if q != avoid]
        # Nearest indices first: the oracle keeps related qubits adjacent,
        # so routing tends to place these near the gate (6 % fewer swaps
        # than index order on K3/k=3, C6/k=2 and K4/k=4).
        free.sort(key=lambda q: min(abs(q - o) for o in busy))
        if len(free) < n - 2:
            chain = _split(controls, target, free[0])
        elif mcz:
            return _flipped(gate, _phase_vchain(controls, target, free,
                                                num_qubits))
        else:
            chain = _vchain(controls, target, free)
        body = list(_lowered_gates(chain, num_qubits, avoid))
    if mcz:
        body = [gH(target)] + body + [gH(target)]
    return _flipped(gate, body)


def _mirror_windows(gates: list[Gate]) -> dict[int, int]:
    """Start -> centre of the longest window W K W^-1 at each start.

    K is an MCT/MCZ on target t, W a run of X/CX/MCT gates, off t under
    an MCT, and the gates after K are W's, reversed, each replaced by its
    adjoint.  Windows with an empty W are left out.
    """
    windows = {}
    for centre, gate in enumerate(gates):
        if gate.kind not in MULTI_KINDS:
            continue
        tau = gate.targets[0] if gate.kind is GateKind.MCT else None
        w = 0
        while w < centre and centre + w + 1 < len(gates):
            g = gates[centre - w - 1]
            if (g.kind not in PERMUTATION_KINDS or tau in g.operands
                    or gates[centre + w + 1] != g.adjoint()):
                break
            w += 1
        if w:
            # a later centre at the same start is a longer window
            windows[centre - w] = centre
    return windows


def _lowered_gates(gates: list[Gate], width: int, avoid: int | None = None):
    """The gates with every MCT/MCZ lowered, each given ``avoid``; the
    outermost mirror window wins, and the windows nested in it are part
    of its W.

    In a window W K W^-1 the W is lowered with ``avoid`` set to K's
    target under an MCT, and to -1, no qubit, under an MCZ, so it is D P
    with P the exact W and D diagonal (off that target under an MCT);
    W's gates only permute basis states, so their relative-phase
    lowering is a diagonal times that permutation.
    ``_folded`` then rewrites it into fewer CX with the same unitary.  K is
    lowered as any other gate, and the right side is the exact adjoint
    of the lowered W.  D commutes with K, so the window is
    (D P)^-1 K (D P) = P^-1 K P.
    """
    def lowered(gate, off):
        return (_lower_multi(gate, width, off)
                if gate.kind in MULTI_KINDS else [gate])

    windows = _mirror_windows(gates)
    i = 0
    while i < len(gates):
        centre = windows.get(i)
        if centre is None:
            yield from lowered(gates[i], avoid)
            i += 1
            continue
        k = gates[centre]
        off = k.targets[0] if k.kind is GateKind.MCT else -1
        compute = _folded([low for g in gates[i:centre]
                           for low in lowered(g, off)])
        yield from compute
        yield from lowered(gates[centre], avoid)
        yield from (g.adjoint() for g in reversed(compute))
        i = 2 * centre - i + 1


def _folded(gates: list[Gate]) -> list[Gate]:
    """``gates`` with each pair CX(x, y) ... CX(x, y) conjugated away
    where, between the two, y is touched only by X and by at most one
    CX(y, t) with t != x, and x only as a CX control or by Z/RZ.

    Every gate between commutes with CX(x, y) but that CX(y, t), which
    the pair turns into CX(y, t) CX(x, t); with no CX(y, t) the pair
    cancels.  Pairs are taken left to right on the list as folded so far.
    """
    gates = list(gates)
    i = 0
    while i < len(gates):
        if gates[i].kind is GateKind.CX:
            partner, through = _fold_partner(gates, i)
            if partner is not None:
                if through is not None:
                    gates.insert(through + 1, gCX(gates[i].operands[0],
                                                  gates[through].targets[0]))
                    partner += 1
                del gates[partner], gates[i]
                continue
        i += 1
    return gates


def _fold_partner(gates: list[Gate], i: int) -> tuple[int | None, int | None]:
    """(partner, through) for the CX(x, y) at ``i``: the index of the
    next CX(x, y), if ``_folded`` may drop the pair, and of the one
    CX(y, t) between them, if any; (None, None) if it may not."""
    x, y = gates[i].operands
    through = None
    for j in range(i + 1, len(gates)):
        gate = gates[j]
        ops = gate.operands
        if x not in ops and y not in ops:
            continue
        kind = gate.kind
        if kind is GateKind.CX:
            control, target = ops
            if control == x:
                if target == y:
                    return j, through
                continue
            if control == y and target != x and through is None:
                through = j
                continue
        elif ops == (y,) and kind is GateKind.X:
            continue
        elif ops == (x,) and kind in (GateKind.Z, GateKind.RZ):
            continue
        return None, None
    return None, None


def lower_circuit(circuit: Circuit, basis: str = "default") -> Circuit:
    """Rewrite MCT/MCZ into ``LOWERED_KINDS``; other gates pass through.

    An MCT/MCZ with 3 or more controls borrows the qubits it leaves
    free, and raises ``UnloweredGate`` if it leaves none.  The compute
    part W of each mirror window W K W^-1 is lowered with relative-phase
    Toffolis, whose phases the mirror cancels, and folded (see
    ``_lowered_gates``); a circuit with no MCT or MCZ has no window.

    Only the router writes swap: basis="default" keeps it, and
    basis="cx" expands each into three cx, so cx is the only 2-qubit
    gate left.  Both are idempotent, so a routed circuit can pass again
    to expand the router's swaps.
    """
    if basis not in ("default", "cx"):
        raise ValueError(f"unknown basis {basis!r}")
    out = Circuit(circuit.num_qubits, measured=circuit.measured,
                  initial_state=circuit.initial_state)
    gates = _lowered_gates(circuit.gates, circuit.num_qubits)
    if basis == "cx":
        gates = [low for g in gates for low in _cx_basis(g)]
    return out.extend(gates)


def _cx_basis(gate: Gate) -> list[Gate]:
    """The gate, or a swap as three cx."""
    if gate.kind is GateKind.SWAP:
        a, b = gate.targets
        return [gCX(a, b), gCX(b, a), gCX(a, b)]
    return [gate]

