"""Sparse statevector simulator used as the verification engine.

Bit convention: qubit 0 is the most significant bit of the basis-state
index, so ``format(index, f"0{q}b")`` reads off qubit values in register
order.  MCT/MCZ and negative controls are applied directly from the IR
-- no lowering is required, which keeps the simulator independent of
the lowering pass it is used to check.

One kernel, ``_run_sparse``, runs every statevector: a sparse batch
that holds only the amplitudes it has not dropped, each under an int64
key (column index above the row bits).  Controls select entries by bit
tests, permutation gates (X, CX, MCT, SWAP) XOR the keys, and diagonal
gates (Z, RZ, MCZ) scale the held amplitudes.  H and RY, which
take no control, pair the batch on their target qubit t: the keys with
bit t clear, once each, and a (2, pairs) array of their bit-0 and bit-1
amplitudes, 0 where not held.  The batch stays paired through the
gates after them with target t, which update the two rows in place (a
permutation swaps them), and through X, CX, MCT and SWAP of other
qubits with no control on t, which XOR the pair keys; so a run of gates
on one target (a Margolus Toffoli is seven) sorts the keys once.  Any
other gate first flattens the batch back to keys, dropping exact zeros.

One rule bounds every batch: an H or RY, which at most doubles the
amplitudes held, raises TooLarge before it runs if it could take
them past ``_HELD_LIMIT``.  The only width bound is ``_KEY_BITS``, the
column and row bits an int64 key holds (TooManyQubits past it).

``run`` starts one column at the basis state a circuit's
``initial_state`` declares.  After each H or RY it also drops held
amplitudes of magnitude at most ``_DROP_TOL``: the round-off residues of
gates that cancel, which would otherwise fill the register (a lowered
circuit's Toffolis leave ~1e-17 behind).  The squared magnitudes it
drops are summed on the returned ``Statevector`` as ``dropped``, so the
error of a run is stated, not assumed.  It returns the held batch;
only ``Statevector.amplitudes`` writes out all 2**q amplitudes.

``phase_pattern`` has two paths, both exact.  An oracle of X, CX and
MCT gates and Z and MCZ phases only (every IR oracle) maps basis
states to basis states up to a sign: it is run on all prepared basis
states at once, one Python int per qubit and one for the sign, with a
bit per basis state, with no statevector and no width bound.  Any
other oracle (a lowered one, with H/RZ/RY) is run as one sparse
batch with a column per data string, which drops only exact zeros.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import classical
from .circuit import (PERMUTATION_KINDS, ROTATION_KINDS, Circuit, Gate,
                      GateKind, QubitLayout, check_qubit_subset)
from .errors import AncillaLeak, TooLarge, TooManyQubits, WidthMismatch

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# How _run_sparse applies a gate: XOR of the keys, in-place scaling of
# the held amplitudes, or (the rest: H and RY) the 2x2 update of the
# batch paired on its target, which stays paired for the next gate on it.
_SWAPPED_KINDS = PERMUTATION_KINDS | {GateKind.SWAP}
_SIGN_KINDS = frozenset({GateKind.Z, GateKind.MCZ})
_DIAGONAL_KINDS = _SIGN_KINDS | {GateKind.RZ}
_MIXED_KINDS = frozenset(GateKind) - _SWAPPED_KINDS - _DIAGONAL_KINDS
# The oracles phase_pattern tracks as bit rows; any other is simulated.
_TRACKED_KINDS = PERMUTATION_KINDS | _SIGN_KINDS

# _matrix entries of H and of Z and MCZ
_H = (complex(_INV_SQRT2), complex(_INV_SQRT2), complex(_INV_SQRT2),
      complex(-_INV_SQRT2))
_Z = (1 + 0j, 0j, 0j, -1 + 0j)

# run drops held amplitudes of at most this magnitude after each H or RY
_DROP_TOL = 1e-12
# most amplitudes any batch may hold at once
_HELD_LIMIT = 2 ** 20
# widest batch key (column bits above row bits): int64, one bit spare
_KEY_BITS = 62


def _matrix(gate: Gate) -> tuple[complex, complex, complex, complex]:
    """Entries m00, m01, m10, m11 of the 2x2 matrix a gate that is not a
    permutation applies to its target (its controls select the blocks it
    applies to), as Python complex numbers: the values a complex128
    array of the same expressions holds, without building one."""
    kind = gate.kind
    if kind is GateKind.H:
        return _H
    if kind not in ROTATION_KINDS:
        return _Z  # Z and MCZ
    half = gate.angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if kind is GateKind.RY:
        return complex(c), complex(-s), complex(s), complex(c)
    return complex(np.exp(-1j * half)), 0j, 0j, complex(np.exp(1j * half))


@dataclass(eq=False)
class Statevector:
    """What a run returns: the amplitudes ``amps`` it holds, each under
    its basis-state index in ``keys`` (qubit 0 the most significant bit,
    no index twice, 0 at every index not held), and ``dropped``, the
    sum of the squared magnitudes the run dropped as round-off."""
    num_qubits: int
    keys: np.ndarray
    amps: np.ndarray
    dropped: float

    @property
    def amplitudes(self) -> np.ndarray:
        """All 2**q amplitudes as a dense vector, written on each call."""
        out = np.zeros(2 ** self.num_qubits, dtype=complex)
        out[self.keys] = self.amps
        return out


def _update_blocks(b0, b1, gate: Gate) -> None:
    """Update in place the two blocks a non-permutation gate mixes, the
    target-bit-0 and target-bit-1 amplitudes in matching order, by the
    four ``_matrix`` entries, each a Python complex that numpy applies as
    a complex128 scalar.  Dense and sparse batches that call it agree bit
    for bit, but ``run``'s single column may differ in the last bit: numpy
    rounds an in-place product on a one-element array apart from the same
    product in a longer one."""
    m00, m01, m10, m11 = _matrix(gate)
    if gate.kind in _DIAGONAL_KINDS:
        if m00 != 1:
            b0 *= m00
        if m11 != 1:
            b1 *= m11
        return
    a0 = b0 * m10  # the 0-block's share of the new 1-block
    b0 *= m00
    b0 += m01 * b1
    b1 *= m11
    b1 += a0


def _pair(keys: np.ndarray, amps: np.ndarray,
          t: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair a flat batch on the target bit ``t``: each key with bit t
    clear, once, in ascending order, and a (2, pairs) array of the
    amplitudes with bit t 0 and 1, exactly 0 where not held."""
    base = keys & ~t
    ordered = np.sort(base)
    first = np.ones(base.size, dtype=bool)  # first of its value in ordered
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    pairs = ordered[first]
    rows = np.zeros((2, pairs.size), dtype=complex)
    bit = (keys >> (t.bit_length() - 1)) & 1
    rows[bit, np.searchsorted(pairs, base)] = amps
    return pairs, rows


def _flatten(pairs: np.ndarray, rows: np.ndarray,
             t: int) -> tuple[np.ndarray, np.ndarray]:
    """The batch paired on ``t`` as keys and amplitudes, without the
    exact zeros."""
    held = rows != 0
    return np.concatenate((pairs[held[0]], pairs[held[1]] | t)), rows[held]


def _paired_gate(pairs: np.ndarray, rows: np.ndarray, care: int, want: int,
                 gate: Gate) -> np.ndarray:
    """Apply a gate on the paired target to the pairs its controls select,
    in place where it can, and return the rows."""
    swap = gate.kind in _SWAPPED_KINDS
    if not care:
        if swap:
            return rows[::-1]
        _update_blocks(rows[0], rows[1], gate)
        return rows
    hit = (pairs & care) == want
    if swap:
        return np.where(hit, rows[::-1], rows)
    hit = np.flatnonzero(hit)
    block = rows[:, hit]
    _update_blocks(block[0], block[1], gate)
    rows[:, hit] = block
    return rows


def _run_sparse(circuit: Circuit, keys: np.ndarray, amps: np.ndarray,
                drop_tol: float | None = None
                ) -> tuple[np.ndarray, np.ndarray, float]:
    """Apply every gate of the circuit to a sparse batch, as the module
    docstring describes, and return the batch and the squared norm
    dropped; the inputs may be overwritten.

    ``keys`` holds the column index above the row bits of each held
    amplitude, no key twice; an amplitude not held is exactly 0, and no
    held one is.  While the batch is paired on a target bit t, ``keys``
    holds the pair keys and ``rows`` their amplitudes (see ``_pair``),
    and a pair slot that is 0 is not held.

    Each H or RY is first checked against ``_HELD_LIMIT``, and with
    ``drop_tol`` (``run``) followed by a drop of the held amplitudes of
    magnitude at most ``drop_tol``, their squared magnitudes summed into
    what is returned; without it only exact zeros are dropped.
    """
    q = circuit.num_qubits
    t = 0  # the target bit the batch is paired on, 0 while it is flat
    rows = None
    dropped = 0.0
    for gate in circuit.gates:
        kind = gate.kind
        care = want = moved = 0
        for ctl in gate.controls:
            bit = 1 << (q - 1 - ctl.qubit)
            care |= bit
            if ctl.positive:
                want |= bit
        for target in gate.targets:
            moved |= 1 << (q - 1 - target)
        mixed = kind in _MIXED_KINDS
        if mixed:
            held = rows.size if t else keys.size
            if t and 2 * held > _HELD_LIMIT:
                held = int(np.count_nonzero(rows))
            if 2 * held > _HELD_LIMIT:
                raise TooLarge(f"{kind.name} on {held} held amplitudes could "
                               f"pass the {_HELD_LIMIT}-amplitude limit")
        if t and (care & t or moved != t
                  and (kind not in _SWAPPED_KINDS or moved & t)):
            keys, amps = _flatten(keys, rows, t)
            t = 0
        if mixed and not t:
            t = moved
            keys, rows = _pair(keys, amps, t)
        if moved == t:
            rows = _paired_gate(keys, rows, care, want, gate)
            if mixed and drop_tol is not None:
                mags = np.abs(rows)
                small = mags <= drop_tol
                # every slot not held is exactly 0, and so small: drop
                # only if small counts more than those
                if np.count_nonzero(small) > mags.size - np.count_nonzero(mags):
                    small &= mags != 0
                    dropped += float((mags[small] ** 2).sum())
                    rows[small] = 0
        elif kind in _SWAPPED_KINDS:  # the flat keys, or the pair keys
            if not care and kind is not GateKind.SWAP:
                keys ^= moved  # X, or an MCT with no control, moves all
            else:
                hit = (keys & care) == want
                if kind is GateKind.SWAP:
                    both = keys & moved
                    hit &= (both != 0) & (both != moved)
                keys ^= np.where(hit, moved, 0)
        else:
            hit = (keys & care) == want
            one = (keys & moved) != 0
            i0, i1 = np.flatnonzero(hit & ~one), np.flatnonzero(hit & one)
            b0, b1 = amps[i0], amps[i1]
            _update_blocks(b0, b1, gate)
            amps[i0], amps[i1] = b0, b1
    if t:
        keys, amps = _flatten(keys, rows, t)
    return keys, amps, dropped


def run(circuit: Circuit) -> Statevector:
    """Simulate the circuit from its declared ``initial_state`` as a
    one-column sparse batch under ``_HELD_LIMIT``, and return what it
    holds and the squared norm it dropped as round-off."""
    q = circuit.num_qubits
    if q > _KEY_BITS:
        raise TooManyQubits(f"{q} qubits exceed the {_KEY_BITS}-bit batch key")
    start = sum(bit << (q - 1 - i) for i, bit in enumerate(circuit.initial_state))
    keys, amps, dropped = _run_sparse(
        circuit, np.array([start], dtype=np.int64), np.ones(1, dtype=complex),
        _DROP_TOL)
    return Statevector(q, keys, amps, dropped)


def probabilities(state: Statevector, qubit_subset=None) -> dict[str, float]:
    """Marginal Born-rule distribution over the given qubits (register
    order preserved), every outcome listed.  A repeated qubit, or one
    outside the register, raises IndexOutOfRange; a subset with more
    outcomes than ``_HELD_LIMIT`` raises TooLarge before anything is
    allocated, whatever the state holds."""
    q = state.num_qubits
    subset = tuple(range(q) if qubit_subset is None else qubit_subset)
    check_qubit_subset(subset, q, "qubit subset")
    outcomes = 2 ** len(subset)
    if outcomes > _HELD_LIMIT:
        raise TooLarge(f"a marginal over {len(subset)} qubits lists "
                       f"{outcomes} outcomes, past the "
                       f"{_HELD_LIMIT}-amplitude limit")
    # each held amplitude's outcome: the subset's bits of its key, in order
    outcome = np.zeros(state.keys.size, dtype=np.int64)
    for qubit in subset:
        outcome = outcome << 1 | (state.keys >> (q - 1 - qubit)) & 1
    marginal = np.bincount(outcome, weights=np.abs(state.amps) ** 2,
                           minlength=outcomes)
    # format(0, "00b") is "0", but the one outcome over no qubits is ""
    return {format(i, f"0{len(subset)}b") if subset else "": float(p)
            for i, p in enumerate(marginal)}


def phase_pattern(oracle: Circuit, layout: QubitLayout,
                  allow_global_phase: bool = False) -> set[str]:
    """Data basis strings whose phase the oracle flips.

    For each data string x the initial state is |x> on data qubits and
    the layout's declared ancilla initials.  The oracle must act
    diagonally: any amplitude outside the prepared basis state is an
    ancilla leak.

    Lowered circuits acquire a circuit-wide global phase, only from the
    RZ in each exact lowered CCZ (an exact Toffoli is one in H): every
    Margolus Toffoli is on the compute side of a mirrored window (an
    oracle's compute around its kickback, or a V-chain's sweep around
    its top), and its relative phase cancels across that window.
    ``allow_global_phase=True`` divides it out, anchored so the all-zeros
    data string counts as unflipped; use it only to compare two patterns
    relative to each other.

    There are two paths, both exact:

    * An oracle of ``_TRACKED_KINDS`` gates only (X, CX, MCT, Z and MCZ)
      maps basis states to signed basis states, so every data string
      is tracked exactly as bits, with no statevector; more than
      ``classical.ENUMERATION_CEILING`` data bits raise TooLarge.
    * Any other oracle is simulated as one sparse batch, one basis
      column per data string, holding only the amplitudes that are not
      exactly 0, under ``_HELD_LIMIT`` (TooLarge); its keys need q + m
      bits, and more than ``_KEY_BITS`` raise TooManyQubits.

    A layout for another register width raises WidthMismatch.
    """
    q = oracle.num_qubits
    if layout.num_qubits != q:
        raise WidthMismatch(f"{layout.num_qubits}-qubit layout for a "
                            f"{q}-qubit oracle")
    if all(gate.kind in _TRACKED_KINDS for gate in oracle.gates):
        flipped = _tracked_flips(oracle, layout, allow_global_phase)
    else:
        flipped = _statevector_flips(oracle, layout, allow_global_phase)
    return set(classical.bitstrings(np.flatnonzero(flipped), layout.num_data))


def _tracked_flips(oracle, layout, allow_global_phase):
    """Per data string x, whether a ``_TRACKED_KINDS`` oracle flips it.

    Each qubit's row is one Python int over 2**m columns: bit j is the
    qubit's value in the basis state with data string j and the declared
    ancilla initials; one more row holds the sign.  A permutation gate
    XORs the AND of its polarity-adjusted controls into its target row,
    and a sign gate XORs that AND with its target row into the sign
    row.  A change to any qubit's row is a leak.
    """
    m = layout.num_data
    if m > classical.ENUMERATION_CEILING:
        raise TooLarge(f"{m} data bits exceeds enumeration ceiling "
                       f"{classical.ENUMERATION_CEILING}")
    n_cols = 2 ** m
    ones = (1 << n_cols) - 1

    start = [ones * bit for bit in layout.initial_state()]
    for pos, qubit in enumerate(layout.data):
        start[qubit] = _index_row(m - 1 - pos, n_cols)
    rows = list(start)
    flipped = 0
    for gate in oracle.gates:
        hit = ones
        for ctl in gate.controls:
            row = rows[ctl.qubit] if ctl.positive else ones ^ rows[ctl.qubit]
            hit = row if hit is ones else hit & row  # skip ones & row
        if gate.kind in _SIGN_KINDS:
            flipped ^= hit & rows[gate.targets[0]]
        else:
            rows[gate.targets[0]] ^= hit

    for qubit, (row, first) in enumerate(zip(rows, start)):
        if row != first:
            raise AncillaLeak(f"oracle leaves qubit {qubit} changed")
    if allow_global_phase and flipped & 1:
        flipped ^= ones
    return np.unpackbits(
        np.frombuffer(flipped.to_bytes((n_cols + 7) // 8, "little"), np.uint8),
        count=n_cols, bitorder="little").astype(bool)


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

    Column x of one sparse batch is |x, ancillas>, and it must come back
    as itself times +1 or -1: any other amplitude on its prepared row,
    or any amplitude elsewhere, is a leak.
    """
    q, m = oracle.num_qubits, layout.num_data
    if q + m > _KEY_BITS:
        raise TooManyQubits(f"{q} qubits and {m} data bits exceed the "
                            f"{_KEY_BITS}-bit batch key")
    n_data = 2 ** m
    if n_data > _HELD_LIMIT:
        raise TooLarge(f"{n_data} columns exceed the "
                       f"{_HELD_LIMIT}-amplitude limit")

    prepared, keys, amps = _prepared_batch(layout)
    keys, amps, _ = _run_sparse(oracle, keys, amps)
    tol = _PATTERN_TOL

    cols, rows = keys >> q, keys & ((1 << q) - 1)
    on = rows == prepared[cols]
    got = np.zeros(n_data, dtype=complex)
    got[cols[on]] = amps[on]
    if allow_global_phase:
        ref = got[0]
        if abs(abs(ref) - 1.0) > tol:
            raise AncillaLeak("oracle output is not a pure phase on x=0")
        got /= ref
        amps /= ref

    flipped = got.real < 0
    bad = np.flatnonzero(np.abs(got - np.where(flipped, -1.0, 1.0)) > tol)
    if bad.size:
        raise AncillaLeak(
            f"oracle is not a +/-1 phase on data string x={int(bad[0])}")
    # what remains lies outside the prepared rows
    if (np.abs(amps[~on]) > tol).any():
        raise AncillaLeak("oracle leaves support outside the prepared subspace")
    return flipped


def _prepared_batch(layout):
    """The row of |x, ancillas> per data string x, and the sparse batch
    whose column x is that basis state."""
    q, m = layout.num_qubits, layout.num_data
    xs = np.arange(2 ** m, dtype=np.int64)
    base = int("".join(map(str, layout.initial_state())), 2)  # qubit 0 first
    prepared = np.full(2 ** m, base, dtype=np.int64)
    for pos, dq in enumerate(layout.data):
        prepared |= ((xs >> (m - 1 - pos)) & 1) << (q - 1 - dq)
    return prepared, (xs << q) | prepared, np.ones(2 ** m, dtype=complex)


_PATTERN_TOL = 1e-9  # amplitude tolerance of the sign and leak checks
