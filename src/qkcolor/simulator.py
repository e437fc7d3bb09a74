"""Dense statevector simulator used as the verification engine.

Bit convention: qubit 0 is the most significant bit of the basis-state
index, so ``format(index, f"0{q}b")`` reads off qubit values in register
order, and qubit i is axis i of the amplitude tensor
``amps.reshape((2,) * q)``.  MCT/MCZ and negative controls are applied
directly from the IR -- no lowering is required, which keeps the
simulator independent of the lowering pass it is used to check.

Each gate updates the two blocks of the amplitude tensor it mixes, found
by basic slicing: controls fix their axes, and the target axis splits
into its 0 and 1 halves.  There are three update paths, chosen by gate
kind.  Permutation gates (X, CX, MCT, SWAP) swap the blocks with one
block copy and no arithmetic.  Diagonal gates (Z, RZ, CZ, MCZ) scale
each block in place, skipping a factor of exactly 1.  The rest (H, RY,
CRX) take the dense 2x2 update, in place but for one copy of the
0-block.

``phase_pattern`` has two paths, both exact.  An oracle of X, CX and
MCT gates only (every IR oracle) is a classical reversible circuit: it
is run on bit-packed basis states, with no statevector and no qubit
ceiling.  Any other oracle (a lowered one, with H/CRX/RZ/RY) is run as
one statevector batch with a column per data string; a batch of more
than ``_EXACT_PATTERN_LIMIT`` amplitudes raises TooLarge.
"""
from __future__ import annotations

import math
import os

import numpy as np

from . import classical
from .circuit import (PERMUTATION_KINDS, ROTATION_KINDS, Circuit, Gate,
                      GateKind, QubitLayout, check_qubit_subset)
from .errors import AncillaLeak, TooLarge, TooManyQubits, WidthMismatch

DEFAULT_CEILING = 24
UNITARY_CEILING = 12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# How _apply_gate updates the two blocks a gate mixes: swapped with no
# arithmetic, scaled in place, or mixed by the dense 2x2 update (the rest).
_SWAPPED_KINDS = PERMUTATION_KINDS | {GateKind.SWAP}
_DIAGONAL_KINDS = frozenset({GateKind.Z, GateKind.RZ, GateKind.CZ, GateKind.MCZ})

_FIXED_1Q = {
    GateKind.H: np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def qubit_ceiling() -> int:
    return int(os.environ.get("GKC_QUBIT_CEILING", DEFAULT_CEILING))


def _check_ceiling(num_qubits: int) -> None:
    ceiling = qubit_ceiling()
    if num_qubits > ceiling:
        raise TooManyQubits(f"{num_qubits} qubits exceeds ceiling {ceiling}")


def _rotation_matrix(kind: GateKind, angle: float) -> np.ndarray:
    half = angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if kind is GateKind.CRX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex)


def gate_1q_matrix(gate: Gate) -> np.ndarray:
    """2x2 matrix applied to the target (controls handled separately).
    X, CX, MCT and SWAP have none: ``_apply_gate`` swaps their blocks."""
    if gate.kind in _FIXED_1Q:
        return _FIXED_1Q[gate.kind]
    if gate.kind in ROTATION_KINDS:
        return _rotation_matrix(gate.kind, gate.angle)
    if gate.kind is GateKind.CZ or gate.kind is GateKind.MCZ:
        return _FIXED_1Q[GateKind.Z]
    raise ValueError(f"no 1q matrix for {gate.kind}")


class Statevector:
    """Unit-norm complex amplitude array over 2**q basis states."""

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None):
        _check_ceiling(num_qubits)
        if amplitudes is None:
            amplitudes = np.zeros(2 ** num_qubits, dtype=complex)
            amplitudes[0] = 1.0
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (2 ** num_qubits,):
            raise WidthMismatch(f"amplitudes of shape {amplitudes.shape} "
                                f"for {num_qubits} qubits")
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes

    @classmethod
    def from_basis(cls, num_qubits: int, bits) -> "Statevector":
        """Basis state from per-qubit bit values (qubit 0 first)."""
        bits = tuple(1 if b else 0 for b in bits)
        if len(bits) != num_qubits:
            raise WidthMismatch(f"{len(bits)} bits for {num_qubits} qubits")
        state = cls(num_qubits)
        state.amplitudes[0] = 0.0
        state.amplitudes.reshape((2,) * num_qubits)[bits] = 1.0
        return state

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def bitstring(self, index: int) -> str:
        return format(index, f"0{self.num_qubits}b")


def _apply_gate(view: np.ndarray, gate: Gate) -> None:
    """Apply one gate in place to the amplitude tensor ``view``: axis i is
    qubit i, followed by the batch axis if there is one."""
    i0 = [slice(None)] * view.ndim
    for ctl in gate.controls:
        i0[ctl.qubit] = int(ctl.positive)
    # the two blocks the gate mixes: target bit 0 and 1, or |01> and |10>
    i1 = list(i0)
    for n, t in enumerate(gate.targets):
        i0[t], i1[t] = n, 1 - n
    # ``...`` makes a fully indexed block a 0-d view, not a scalar copy;
    # the updates below write through these views, never by ``view[i] =``
    b0, b1 = view[(*i0, ...)], view[(*i1, ...)]
    if gate.kind in _SWAPPED_KINDS:
        a0 = b0.copy()  # basic slices alias: keep a0 past the first write
        b0[...] = b1
        b1[...] = a0
        return
    m = gate_1q_matrix(gate)
    if gate.kind in _DIAGONAL_KINDS:
        if m[0, 0] != 1:
            b0 *= m[0, 0]
        if m[1, 1] != 1:
            b1 *= m[1, 1]
        return
    a0 = b0 * m[1, 0]  # the 0-block's share of the new 1-block
    b0 *= m[0, 0]
    b0 += m[0, 1] * b1
    b1 *= m[1, 1]
    b1 += a0


def _run_gates(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """Apply every gate of the circuit in place.  ``amps`` has shape
    (2**q,) or (2**q, batch) and must be C-contiguous, so that its
    reshape to the (2,)*q tensor is a view."""
    view = amps.reshape((2,) * circuit.num_qubits + amps.shape[1:])
    for gate in circuit.gates:
        _apply_gate(view, gate)
    return amps


def run(circuit: Circuit, initial=None) -> Statevector:
    """Simulate the circuit.

    ``initial`` may be a bit sequence, a Statevector, or None (use the
    circuit's declared initial_state); its width must match the circuit's.
    """
    q = circuit.num_qubits
    if isinstance(initial, Statevector):
        state = Statevector(q, initial.amplitudes.copy())
    else:
        state = Statevector.from_basis(
            q, circuit.initial_state if initial is None else initial)
    _run_gates(circuit, state.amplitudes)
    return state


def run_batch(circuit: Circuit, columns: np.ndarray) -> np.ndarray:
    """Simulate many initial vectors at once; columns has shape (2**q, b)."""
    q = circuit.num_qubits
    _check_ceiling(q)
    amps = np.array(columns, dtype=complex, order="C")
    if amps.shape[:1] != (2 ** q,):
        raise WidthMismatch(f"columns of shape {amps.shape} for {q} qubits")
    return _run_gates(circuit, amps)


def probabilities(state: Statevector, qubit_subset=None) -> dict[str, float]:
    """Marginal Born-rule distribution over the given qubits (register
    order preserved).  A repeated qubit, or one outside the register,
    raises IndexOutOfRange."""
    q = state.num_qubits
    subset = tuple(range(q) if qubit_subset is None else qubit_subset)
    check_qubit_subset(subset, q, "qubit subset")
    probs = np.abs(state.amplitudes.reshape([2] * q)) ** 2
    drop = tuple(ax for ax in range(q) if ax not in subset)
    marginal = probs.sum(axis=drop) if drop else probs
    # axes after summing are the kept qubits in ascending order
    kept_sorted = sorted(subset)
    order = [kept_sorted.index(s) for s in subset]
    marginal = np.transpose(marginal, order).reshape(-1)
    width = len(subset)
    return {format(i, f"0{width}b"): float(p) for i, p in enumerate(marginal)}


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit, one simulated basis column at a time."""
    q = circuit.num_qubits
    if q > UNITARY_CEILING:
        raise TooManyQubits(f"unitary_of limited to {UNITARY_CEILING} qubits")
    return run_batch(circuit, np.eye(2 ** q, dtype=complex))


def phase_pattern(oracle: Circuit, layout: QubitLayout,
                  allow_global_phase: bool = False) -> set[str]:
    """Data basis strings whose phase the oracle flips.

    For each data string x the initial state is |x> on data qubits, the
    layout's declared ancilla initials, and |-> on the output qubit.  The
    oracle must act diagonally: any amplitude outside the prepared
    (x, ancilla, output) pair is an ancilla leak.

    Lowered circuits acquire a circuit-wide global phase, only from the
    RZ in each exact lowered Toffoli: every Margolus Toffoli is on the
    compute side of a mirrored window (an oracle's compute around its
    kickback, or a V-chain's sweep around its top), and its relative
    phase cancels across that window.  ``allow_global_phase=True``
    divides it out, anchored so the all-zeros data string counts as
    unflipped; use it only to compare two patterns relative to each other.

    There are two paths, both exact:

    * An oracle of X, CX and MCT gates only permutes basis states, so
      every data string is tracked exactly as bits, with no statevector
      and no qubit ceiling.  More data bits than
      ``classical.ENUMERATION_CEILING`` raise TooLarge.
    * Any other oracle is simulated under the qubit ceiling, one basis
      column per data string.  A batch of more than
      ``_EXACT_PATTERN_LIMIT`` amplitudes (2**q per column) raises
      TooLarge.

    A layout for another register width raises WidthMismatch.
    """
    q = oracle.num_qubits
    if layout.num_qubits != q:
        raise WidthMismatch(f"{layout.num_qubits}-qubit layout for a "
                            f"{q}-qubit oracle")
    if all(gate.kind in PERMUTATION_KINDS for gate in oracle.gates):
        flipped = _tracked_flips(oracle, layout, allow_global_phase)
    else:
        flipped = _statevector_flips(oracle, layout, allow_global_phase)
    return {format(int(x), f"0{layout.num_data}b")
            for x in np.flatnonzero(flipped)}


def _tracked_flips(oracle, layout, allow_global_phase):
    """Per data string x, whether the X/CX/MCT oracle flips its phase.

    Row i of a bit-packed array holds qubit i; column j holds the basis
    state with data string j mod 2**m, output bit (j >> m) & 1 and the
    declared ancilla initials.  Each gate XORs the AND of its
    polarity-adjusted controls into its target row.  On |-> the phase
    flips iff the output toggles for both output values and nothing else
    changes; any other outcome is a leak.
    """
    m = layout.num_data
    if m > classical.ENUMERATION_CEILING:
        raise TooLarge(f"{m} data bits exceeds enumeration ceiling "
                       f"{classical.ENUMERATION_CEILING}")
    n_cols = max(2 ** (m + 1), 8)  # whole bytes; extra columns repeat

    def index_bit(b):  # packed row whose column j holds bit b of j
        return np.packbits(np.tile(np.repeat([False, True], 1 << b),
                                   n_cols >> (b + 1)))

    start = np.array([np.full(n_cols // 8, 0xFF * bit, dtype=np.uint8)
                      for bit in layout.initial_state()])
    for pos, qubit in enumerate(layout.data):
        start[qubit] = index_bit(m - 1 - pos)
    start[layout.output] = index_bit(m)
    rows = start.copy()
    for gate in oracle.gates:
        hit = np.full(n_cols // 8, 0xFF, dtype=np.uint8)
        for ctl in gate.controls:
            hit &= rows[ctl.qubit] if ctl.positive else ~rows[ctl.qubit]
        rows[gate.targets[0]] ^= hit

    rows ^= start  # now the bits each column changed
    toggled = np.unpackbits(rows[layout.output], count=2 ** (m + 1))
    rows[layout.output] = 0
    leaked = np.flatnonzero(rows.any(axis=1))
    if leaked.size:
        raise AncillaLeak(f"oracle leaves qubit {int(leaked[0])} changed")
    flipped, flipped_from_one = toggled.astype(bool).reshape(2, -1)
    if (flipped != flipped_from_one).any():
        raise AncillaLeak("oracle toggles the output for one half of |->")
    if allow_global_phase and flipped[0]:
        flipped = ~flipped
    return flipped


def _statevector_flips(oracle, layout, allow_global_phase):
    """Per data string x, whether the oracle flips its phase.

    Column x of one batch is |x, ancillas> (|0> - |1>)/sqrt(2), and it
    must come back as itself times +1 or -1: any other amplitude on its
    two prepared rows, or any amplitude elsewhere, is a leak.
    """
    q = oracle.num_qubits
    _check_ceiling(q)
    m = layout.num_data
    n_data = 2 ** m
    if 2 ** q * n_data > _EXACT_PATTERN_LIMIT:
        raise TooLarge(f"{n_data} columns of {q} qubits exceed the "
                       f"{_EXACT_PATTERN_LIMIT}-amplitude pattern batch")

    base = 0
    for qubit, bit in enumerate(layout.initial_state()):
        if bit and qubit not in layout.data and qubit != layout.output:
            base |= 1 << (q - 1 - qubit)
    xs = np.arange(n_data, dtype=np.int64)
    rows0 = np.full(n_data, base, dtype=np.int64)
    for pos, dq in enumerate(layout.data):
        rows0 |= ((xs >> (m - 1 - pos)) & 1) << (q - 1 - dq)
    rows1 = rows0 | (1 << (q - 1 - layout.output))

    cols = np.zeros((2 ** q, n_data), dtype=complex)
    cols[rows0, xs] = _INV_SQRT2
    cols[rows1, xs] = -_INV_SQRT2
    out = run_batch(oracle, cols)
    tol = _PATTERN_TOL

    if allow_global_phase:
        ref = out[rows0[0], 0] / _INV_SQRT2
        if abs(abs(ref) - 1.0) > tol:
            raise AncillaLeak("oracle output is not a pure phase on x=0")
        out /= ref

    got0, got1 = out[rows0, xs], out[rows1, xs]
    flipped = got0.real < 0
    expected = np.where(flipped, -_INV_SQRT2, _INV_SQRT2)
    bad = np.flatnonzero((np.abs(got0 - expected) > tol)
                         | (np.abs(got1 + expected) > tol))
    if bad.size:
        raise AncillaLeak(
            f"oracle is not a +/-1 phase on data string x={int(bad[0])}")
    out[rows0, xs] = 0.0  # what remains lies outside the prepared rows
    out[rows1, xs] = 0.0
    if np.abs(out).max() > tol:
        raise AncillaLeak("oracle leaves support outside the prepared subspace")
    return flipped


# most amplitudes in one pattern batch, 2**q per data string
_EXACT_PATTERN_LIMIT = 2 ** 20
_PATTERN_TOL = 1e-9  # amplitude tolerance of the sign and leak checks
