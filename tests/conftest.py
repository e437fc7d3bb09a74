"""Shared fixtures and two dense reference simulators.

``ref_unitary`` builds dense gate matrices one basis column at a time
from the gate semantics, on purpose sharing no code with
qkcolor.simulator.  ``run_batch`` and ``unitary_of`` run a dense
amplitude tensor through the library's own 2x2 block update, so the
sparse kernel can be compared with a dense one bit for bit.  Tests
compare the library with both.
"""
from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

import qkcolor.simulator as sim
from qkcolor.circuit import (LOWERED_KINDS, MULTI_KINDS, ONE_QUBIT_KINDS,
                             Circuit, Gate, GateKind)
from qkcolor.graphs import Graph, Instance, edges_from_pairs, make_instance

# Reference gate semantics (independent of qkcolor.simulator)

_SQ2 = 1.0 / math.sqrt(2.0)

_REF_1Q = {
    "x": [[0, 1], [1, 0]],
    "h": [[_SQ2, _SQ2], [_SQ2, -_SQ2]],
    "z": [[1, 0], [0, -1]],
}


def _ref_target_matrix(gate: Gate) -> np.ndarray:
    name = gate.kind.value
    if name in _REF_1Q:
        return np.array(_REF_1Q[name], dtype=complex)
    if name in ("cx", "mct"):
        return np.array(_REF_1Q["x"], dtype=complex)
    if name in ("cz", "mcz"):
        return np.array(_REF_1Q["z"], dtype=complex)
    half = gate.angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if name == "crx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.array([[cmath.exp(-1j * half), 0], [0, cmath.exp(1j * half)]])
    raise ValueError(name)


def ref_gate_matrix(gate: Gate, num_qubits: int) -> np.ndarray:
    """Full 2^q x 2^q matrix of one gate, built basis state by basis state."""
    dim = 2 ** num_qubits
    out = np.zeros((dim, dim), dtype=complex)

    def bit(i, q):
        return (i >> (num_qubits - 1 - q)) & 1

    def with_bit(i, q, v):
        mask = 1 << (num_qubits - 1 - q)
        return (i | mask) if v else (i & ~mask)

    for i in range(dim):
        active = all(bit(i, c.qubit) == (1 if c.positive else 0)
                     for c in gate.controls)
        if not active:
            out[i, i] = 1.0
            continue
        if gate.kind is GateKind.SWAP:
            a, b = gate.targets
            j = with_bit(with_bit(i, a, bit(i, b)), b, bit(i, a))
            out[j, i] = 1.0
            continue
        m = _ref_target_matrix(gate)
        t = gate.targets[0]
        tb = bit(i, t)
        for new in (0, 1):
            out[with_bit(i, t, new), i] += m[new, tb]
    return out


def ref_unitary(circuit: Circuit) -> np.ndarray:
    dim = 2 ** circuit.num_qubits
    acc = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        acc = ref_gate_matrix(gate, circuit.num_qubits) @ acc
    return acc


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
    if gate.kind in sim._SWAPPED_KINDS:
        a0 = b0.copy()  # basic slices alias: keep a0 past the first write
        b0[...] = b1
        b1[...] = a0
        return
    sim._update_blocks(b0, b1, gate)


def run_batch(circuit: Circuit, columns) -> np.ndarray:
    """Dense reference run of many vectors at once: ``columns`` has shape
    (2**q, b), or (2**q,) for one vector."""
    amps = np.array(columns, dtype=complex, order="C")
    view = amps.reshape((2,) * circuit.num_qubits + amps.shape[1:])
    for gate in circuit.gates:
        _apply_gate(view, gate)
    return amps


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit by the dense reference run."""
    return run_batch(circuit, np.eye(2 ** circuit.num_qubits, dtype=complex))


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max |u - e^{i phi} v| with phi chosen from the largest entry of v."""
    flat = np.argmax(np.abs(v))
    idx = np.unravel_index(flat, v.shape)
    if abs(v[idx]) < 1e-12:
        return float(np.max(np.abs(u - v)))
    phase = u[idx] / v[idx]
    phase /= abs(phase)
    return float(np.max(np.abs(u - phase * v)))


# Random circuit generation for property tests

# Gate-name pools, in GateKind order so that a seed draws the same
# circuit on every run: every kind; the lowered alphabet, which is what
# the router accepts; and the kinds that fit a 1-qubit register.
RANDOM_POOL = tuple(kind.value for kind in GateKind)
LOWERED_POOL = tuple(kind.value for kind in GateKind if kind in LOWERED_KINDS)
ONE_QUBIT_POOL = tuple(kind.value for kind in GateKind
                       if kind in ONE_QUBIT_KINDS | MULTI_KINDS)


def random_circuit(num_qubits: int, num_gates: int, rng: random.Random,
                   pool=RANDOM_POOL, max_controls: int = 3) -> Circuit:
    from qkcolor.circuit import Control
    circ = Circuit(num_qubits)
    for _ in range(num_gates):
        name = rng.choice(pool)
        kind = GateKind(name)
        if name in ("cx", "cz", "crx"):
            c, t = rng.sample(range(num_qubits), 2)
            angle = rng.uniform(-math.pi, math.pi) if name == "crx" else None
            circ.append(Gate(kind, controls=(Control(c),), targets=(t,),
                             angle=angle))
        elif name == "swap":
            a, b = rng.sample(range(num_qubits), 2)
            circ.append(Gate(kind, targets=(a, b)))
        elif name in ("mct", "mcz"):
            nc = rng.randint(0, min(max_controls, num_qubits - 1))
            qubits = rng.sample(range(num_qubits), nc + 1)
            controls = tuple(Control(q, rng.random() < 0.8)
                             for q in qubits[:-1])
            circ.append(Gate(kind, controls=controls, targets=(qubits[-1],)))
        else:
            t = rng.randrange(num_qubits)
            angle = (rng.uniform(-math.pi, math.pi)
                     if name in ("ry", "rz") else None)
            circ.append(Gate(kind, targets=(t,), angle=angle))
    return circ


def routed_max_error(logical: Circuit, result, num_physical: int) -> float:
    """Permuted-simulation distance between a circuit and its routed form.

    The routed statevector must equal the logical one with each logical
    qubit read at its final physical position and every idle physical
    qubit in |0>.
    """
    from qkcolor.simulator import run
    a = run(logical).amplitudes
    b = run(result.routed).amplitudes
    w = logical.num_qubits
    mapped = np.zeros_like(b)
    for x in range(2 ** w):
        y = 0
        for q in range(w):
            if (x >> (w - 1 - q)) & 1:
                y |= 1 << (num_physical - 1 - result.final.physical(q))
        mapped[y] = a[x]
    return float(np.max(np.abs(b - mapped)))


# Common graph fixtures

def complete_graph(n: int) -> Graph:
    return Graph(n, edges_from_pairs(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]))


def path_graph(n: int) -> Graph:
    return Graph(n, edges_from_pairs(n, [(i, i + 1) for i in range(n - 1)]))


def cycle_graph(n: int) -> Graph:
    return Graph(n, edges_from_pairs(n, [(i, (i + 1) % n) for i in range(n)]))


def all_graphs(n: int):
    """Every labeled graph on n vertices (edge-subset enumeration)."""
    import itertools
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(pairs)):
        yield Graph(n, frozenset(p for idx, p in enumerate(pairs)
                                 if (bits >> idx) & 1))


@pytest.fixture
def triangle() -> Graph:
    return complete_graph(3)


@pytest.fixture
def triangle_k3(triangle) -> Instance:
    return make_instance(triangle, 3)


# Known-good marked set for the triangle with 3 colors: the 3! proper
# colorings under the 2-bit, vertex-0-first, MSB-first encoding.
TRIANGLE_K3_SOLUTIONS = frozenset(
    {"011000", "100100", "000110", "010010", "001001", "100001"})
