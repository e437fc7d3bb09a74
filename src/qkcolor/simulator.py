"""Statevector simulators used as the verification engine.

``run`` starts from the basis state a circuit's ``initial_state``
declares.  A dense state holds at most ``QUBIT_CEILING`` qubits (a
unitary half as many); more raise TooManyQubits before any allocation.

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
is run on all prepared basis states at once, one Python int per qubit
with a bit per basis state, with no statevector and no qubit ceiling.
Any other oracle (a lowered one, with H/CRX/RZ/RY) is run as one sparse
statevector batch with a column per data string: it holds only the
amplitudes that are not exactly 0, each under an integer key (column
index above the row bits).  Controls select entries by bit
tests, permutation gates XOR the keys, diagonal gates scale the held
amplitudes, and H/RY/CRX pair each entry with its target-flipped
partner (0 when not held) and drop results that are exactly 0.  Both
kernels update amplitudes through one helper, so the sparse batch is
bit-identical to ``run_batch`` on the same columns.  A gate that could
grow the batch past ``_EXACT_PATTERN_LIMIT`` held amplitudes raises
TooLarge before it runs.
"""
from __future__ import annotations

import math

import numpy as np

from . import classical
from .circuit import (PERMUTATION_KINDS, ROTATION_KINDS, Circuit, Gate,
                      GateKind, QubitLayout, check_qubit_subset)
from .errors import AncillaLeak, TooLarge, TooManyQubits, WidthMismatch

QUBIT_CEILING = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# How _apply_gate updates the two blocks a gate mixes: swapped with no
# arithmetic, scaled in place, or mixed by the dense 2x2 update (the rest).
_SWAPPED_KINDS = PERMUTATION_KINDS | {GateKind.SWAP}
_DIAGONAL_KINDS = frozenset({GateKind.Z, GateKind.RZ, GateKind.CZ, GateKind.MCZ})
_MIXED_KINDS = frozenset(GateKind) - _SWAPPED_KINDS - _DIAGONAL_KINDS

_H = np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _check_ceiling(num_qubits: int) -> None:
    if num_qubits > QUBIT_CEILING:
        raise TooManyQubits(f"{num_qubits} qubits exceeds ceiling {QUBIT_CEILING}")


def _matrix(gate: Gate) -> np.ndarray:
    """2x2 matrix a gate that is not a permutation applies to its target
    (its controls select the blocks it applies to)."""
    kind = gate.kind
    if kind is GateKind.H:
        return _H
    if kind not in ROTATION_KINDS:
        return _Z  # Z, CZ and MCZ
    half = gate.angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if kind is GateKind.CRX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex)


class Statevector:
    """What a run returns: 2**q complex amplitudes, qubit 0 the most
    significant bit of the basis-state index."""

    def __init__(self, num_qubits: int, amplitudes: np.ndarray):
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes


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
    _update_blocks(b0, b1, gate)


def _update_blocks(b0, b1, gate: Gate) -> None:
    """Update in place the two blocks a non-permutation gate mixes, the
    target-bit-0 and target-bit-1 amplitudes in matching order.  Both
    kernels call this, so their amplitudes agree bit for bit."""
    m = _matrix(gate)
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


def _sparse_gate(keys: np.ndarray, amps: np.ndarray, gate: Gate,
                 num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply one gate to a sparse batch and return the new batch.

    ``keys`` holds the column index above the ``num_qubits`` row bits of
    each held amplitude, no key twice; an amplitude not held is exactly
    0.  Permutation gates XOR the keys and diagonal gates scale the held
    amplitudes.  H, RY and CRX pair each held entry with its
    target-flipped partner, taken as 0 when not held, and drop the
    results that are exactly 0.
    """
    def bit(qubit):
        return 1 << (num_qubits - 1 - qubit)

    care = want = 0
    for ctl in gate.controls:
        care |= bit(ctl.qubit)
        want |= bit(ctl.qubit) if ctl.positive else 0
    hit = (keys & care) == want
    if gate.kind is GateKind.SWAP:
        a, b = (bit(t) for t in gate.targets)
        hit &= ((keys & a) == 0) != ((keys & b) == 0)
        keys[hit] ^= a | b
        return keys, amps
    t = bit(gate.targets[0])
    if gate.kind in _SWAPPED_KINDS:
        keys[hit] ^= t
        return keys, amps
    one = (keys & t) != 0
    if gate.kind in _DIAGONAL_KINDS:
        i0, i1 = np.flatnonzero(hit & ~one), np.flatnonzero(hit & one)
        b0, b1 = amps[i0], amps[i1]
        _update_blocks(b0, b1, gate)
        amps[i0], amps[i1] = b0, b1
        return keys, amps
    pairs, slot = np.unique(keys[hit] & ~t, return_inverse=True)
    b0 = np.zeros(pairs.size, dtype=complex)
    b1 = np.zeros(pairs.size, dtype=complex)
    held, held_one = amps[hit], one[hit]
    b0[slot[~held_one]] = held[~held_one]
    b1[slot[held_one]] = held[held_one]
    _update_blocks(b0, b1, gate)
    kept0, kept1 = b0 != 0, b1 != 0
    return (np.concatenate((keys[~hit], pairs[kept0], pairs[kept1] | t)),
            np.concatenate((amps[~hit], b0[kept0], b1[kept1])))


def _run_sparse(circuit: Circuit, keys: np.ndarray,
                amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply every gate of the circuit to a sparse batch (see
    ``_sparse_gate``); the inputs may be overwritten.  H, RY and CRX can
    at most double the amplitudes held, so one that could grow them past
    ``_EXACT_PATTERN_LIMIT`` raises TooLarge before it runs."""
    for gate in circuit.gates:
        if gate.kind in _MIXED_KINDS and 2 * keys.size > _EXACT_PATTERN_LIMIT:
            raise TooLarge(f"{gate.kind.name} on {keys.size} held amplitudes "
                           f"could pass the {_EXACT_PATTERN_LIMIT}-amplitude "
                           f"pattern batch")
        keys, amps = _sparse_gate(keys, amps, gate, circuit.num_qubits)
    return keys, amps


def _run_gates(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """Apply every gate of the circuit in place.  ``amps`` has shape
    (2**q,) or (2**q, batch) and must be C-contiguous, so that its
    reshape to the (2,)*q tensor is a view."""
    view = amps.reshape((2,) * circuit.num_qubits + amps.shape[1:])
    for gate in circuit.gates:
        _apply_gate(view, gate)
    return amps


def run(circuit: Circuit) -> Statevector:
    """Simulate the circuit from its declared ``initial_state``."""
    q = circuit.num_qubits
    _check_ceiling(q)
    amps = np.zeros((2,) * q, dtype=complex)
    amps[tuple(circuit.initial_state)] = 1.0
    return Statevector(q, _run_gates(circuit, amps.reshape(-1)))


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
    # format(0, "00b") is "0", but the one outcome over no qubits is ""
    return {format(i, f"0{len(subset)}b") if subset else "": float(p)
            for i, p in enumerate(marginal)}


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit, one simulated basis column at a time."""
    q = circuit.num_qubits
    if 2 * q > QUBIT_CEILING:  # as many amplitudes as a 2q-qubit state
        raise TooManyQubits(f"unitary of {q} qubits exceeds ceiling {QUBIT_CEILING // 2}")
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
    * Any other oracle is simulated under the qubit ceiling as one
      sparse batch, one basis column per data string, holding only the
      amplitudes that are not exactly 0.  It matches ``run_batch`` bit
      for bit.  A gate that could grow it past ``_EXACT_PATTERN_LIMIT``
      held amplitudes (H, RY and CRX at most double them) raises
      TooLarge before it runs.

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
    spec = f"0{layout.num_data}b"
    return {format(x, spec) for x in np.flatnonzero(flipped).tolist()}


def _tracked_flips(oracle, layout, allow_global_phase):
    """Per data string x, whether the X/CX/MCT oracle flips its phase.

    Each qubit's row is one Python int over 2**(m+1) columns: bit j is
    the qubit's value in the basis state with data string j mod 2**m,
    output bit (j >> m) & 1 and the declared ancilla initials.  Each gate
    XORs the AND of its polarity-adjusted controls into its target row.
    On |-> the phase flips iff the output toggles for both output values
    and nothing else changes; any other outcome is a leak.
    """
    m = layout.num_data
    if m > classical.ENUMERATION_CEILING:
        raise TooLarge(f"{m} data bits exceeds enumeration ceiling "
                       f"{classical.ENUMERATION_CEILING}")
    n_cols = 2 ** (m + 1)
    ones = (1 << n_cols) - 1

    start = [ones * bit for bit in layout.initial_state()]
    for pos, qubit in enumerate(layout.data):
        start[qubit] = _index_row(m - 1 - pos, n_cols)
    start[layout.output] = _index_row(m, n_cols)
    rows = list(start)
    for gate in oracle.gates:
        hit = ones
        for ctl in gate.controls:
            row = rows[ctl.qubit] if ctl.positive else ones ^ rows[ctl.qubit]
            hit = row if hit is ones else hit & row  # skip ones & row
        rows[gate.targets[0]] ^= hit

    changed = [row ^ first for row, first in zip(rows, start)]
    toggled = changed[layout.output]
    changed[layout.output] = 0
    leaked = next((qubit for qubit, row in enumerate(changed) if row), None)
    if leaked is not None:
        raise AncillaLeak(f"oracle leaves qubit {leaked} changed")
    half = n_cols // 2
    low_half = (1 << half) - 1
    flipped = toggled & low_half
    if flipped != toggled >> half:
        raise AncillaLeak("oracle toggles the output for one half of |->")
    if allow_global_phase and flipped & 1:
        flipped ^= low_half
    return np.unpackbits(
        np.frombuffer(flipped.to_bytes((half + 7) // 8, "little"), np.uint8),
        count=half, bitorder="little").astype(bool)


def _index_row(b, n_cols):
    """Row whose bit j is bit b of j, for j < n_cols, built in linear
    time from one repeated byte period (bit t of byte i is column 8i+t)."""
    if b < 3:
        period = bytes([(0xAA, 0xCC, 0xF0)[b]])
    else:
        run = 1 << (b - 3)
        period = bytes(run) + b"\xff" * run
    repeats = max(n_cols // (8 * len(period)), 1)
    return int.from_bytes(period * repeats, "little") & ((1 << n_cols) - 1)


def _statevector_flips(oracle, layout, allow_global_phase):
    """Per data string x, whether the oracle flips its phase.

    Column x of one sparse batch is |x, ancillas> (|0> - |1>)/sqrt(2),
    and it must come back as itself times +1 or -1: any other amplitude
    on its two prepared rows, or any amplitude elsewhere, is a leak.
    """
    q = oracle.num_qubits
    _check_ceiling(q)
    m = layout.num_data
    n_data = 2 ** m
    if 2 * n_data > _EXACT_PATTERN_LIMIT:
        raise TooLarge(f"{n_data} columns of 2 amplitudes exceed the "
                       f"{_EXACT_PATTERN_LIMIT}-amplitude pattern batch")

    rows0, rows1, keys, amps = _prepared_batch(layout)
    keys, amps = _run_sparse(oracle, keys, amps)
    tol = _PATTERN_TOL

    cols, rows = keys >> q, keys & ((1 << q) - 1)
    on0, on1 = rows == rows0[cols], rows == rows1[cols]
    got0 = np.zeros(n_data, dtype=complex)
    got1 = np.zeros(n_data, dtype=complex)
    got0[cols[on0]], got1[cols[on1]] = amps[on0], amps[on1]
    if allow_global_phase:
        ref = got0[0] / _INV_SQRT2
        if abs(abs(ref) - 1.0) > tol:
            raise AncillaLeak("oracle output is not a pure phase on x=0")
        got0 /= ref
        got1 /= ref
        amps /= ref

    flipped = got0.real < 0
    expected = np.where(flipped, -_INV_SQRT2, _INV_SQRT2)
    bad = np.flatnonzero((np.abs(got0 - expected) > tol)
                         | (np.abs(got1 + expected) > tol))
    if bad.size:
        raise AncillaLeak(
            f"oracle is not a +/-1 phase on data string x={int(bad[0])}")
    # what remains lies outside the prepared rows
    if (np.abs(amps[~(on0 | on1)]) > tol).any():
        raise AncillaLeak("oracle leaves support outside the prepared subspace")
    return flipped


def _prepared_batch(layout):
    """Rows of |x, ancillas, 0> and |x, ancillas, 1> per data string x,
    and the sparse batch whose column x is their difference over sqrt(2)."""
    q, m = layout.num_qubits, layout.num_data
    base = 0
    for qubit, bit in enumerate(layout.initial_state()):
        if bit and qubit not in layout.data and qubit != layout.output:
            base |= 1 << (q - 1 - qubit)
    xs = np.arange(2 ** m, dtype=np.int64)
    rows0 = np.full(2 ** m, base, dtype=np.int64)
    for pos, dq in enumerate(layout.data):
        rows0 |= ((xs >> (m - 1 - pos)) & 1) << (q - 1 - dq)
    rows1 = rows0 | (1 << (q - 1 - layout.output))
    keys = np.concatenate(((xs << q) | rows0, (xs << q) | rows1))
    amps = np.repeat(np.array([_INV_SQRT2, -_INV_SQRT2], dtype=complex),
                     2 ** m)
    return rows0, rows1, keys, amps


# most amplitudes one sparse pattern batch may hold at once
_EXACT_PATTERN_LIMIT = 2 ** 20
_PATTERN_TOL = 1e-9  # amplitude tolerance of the sign and leak checks
