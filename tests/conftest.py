"""Shared fixtures, two dense reference simulators and a reference
SABRE pass.

``ref_unitary`` builds dense gate matrices one basis column at a time
from the gate semantics, on purpose sharing no code with
qkcolor.simulator.  ``run_batch`` and ``unitary_of`` run a dense
amplitude tensor through the library's own 2x2 block update, so the
sparse kernel can be compared with a dense one bit for bit.  Tests
compare the library with both, and its marginals, summed from the
sparse keys, with ``ref_marginal``'s sums over the dense tensor.
``ref_route_pass`` is the router's pass as rounds over the whole front,
which the FIFO drain of ``routing._route_pass`` must match decision for
decision.
"""
from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

import qkcolor.simulator as sim
from qkcolor import routing
from qkcolor.circuit import (LOWERED_KINDS, MULTI_KINDS, ONE_QUBIT_KINDS,
                             Circuit, Gate, GateKind, gSWAP)
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
    if name == "mcz":
        return np.array(_REF_1Q["z"], dtype=complex)
    half = gate.angle / 2.0
    c, s = math.cos(half), math.sin(half)
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


def ref_marginal(amplitudes: np.ndarray, num_qubits: int,
                 subset) -> np.ndarray:
    """Dense reference marginal over ``subset``: |a|^2 of the dense vector
    as a [2]*q tensor, summed over the other qubits, with the axes put in
    subset order; index i is outcome ``format(i, f"0{len(subset)}b")``."""
    probs = np.abs(amplitudes.reshape([2] * num_qubits)) ** 2
    rest = tuple(ax for ax in range(num_qubits) if ax not in subset)
    # the kept axes are in ascending order after the sum
    kept = sorted(subset)
    return np.transpose(probs.sum(axis=rest),
                        [kept.index(s) for s in subset]).reshape(-1)


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
        if name == "cx":
            c, t = rng.sample(range(num_qubits), 2)
            circ.append(Gate(kind, controls=(Control(c),), targets=(t,)))
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


# Reference SABRE pass (the round-based loop the router replaced)

def ref_route_pass(dag, coupling, mapping_seed, rng, gates=None):
    """``routing._route_pass`` as it was before the FIFO drain: rounds
    that each check every front gate, commit every ready one, and then
    append the successors freed, in commit order.  The same decisions,
    read from the same module constants, so a test may patch them."""
    ops, succ, two_qubit = dag.ops, dag.succ, dag.two_qubit
    dist, adj = coupling.distance, coupling.adjacency
    n_phys = coupling.num_physical
    # the coupling pairs on each physical qubit, as candidate swaps
    incident = [[(p, nb) if p < nb else (nb, p) for nb in adj[p]]
                for p in range(n_phys)]
    l2p = list(mapping_seed)
    p2l = [0] * n_phys
    for logical, phys in enumerate(l2p):
        p2l[phys] = logical
    indegree = list(dag.indegree)
    front = [i for i in range(len(ops)) if indegree[i] == 0]
    if gates is None:
        out = None
    else:
        out = []
        # one SWAP gate per coupled pair and operand order
        swap_gates = {(p, nb): gSWAP(p, nb)
                      for p in range(n_phys) for nb in adj[p]}
    decay = [1.0] * n_phys
    swaps_since_reset = 0  # also 0 exactly when every decay is 1.0
    swaps_since_commit = 0
    stall_walks = 0
    stall_limit = routing.STALL_BASE + routing.STALL_PER_QUBIT * n_phys
    # Built when the front changes: the blocked and lookahead operand
    # pairs, each logical qubit's partners in them, and their distance
    # sums, which each swap then moves by its change.  The sums are exact
    # ints, so every float score equals that of a full recount.
    blocked = None
    visited = [0] * len(ops)  # lookahead BFS generation of each node
    generation = 0

    def swap(p, q):
        lp, lq = p2l[p], p2l[q]
        p2l[p], p2l[q] = lq, lp
        l2p[lp], l2p[lq] = q, p
        if out is not None:
            out.append(swap_gates[p, q])

    while front:
        ready = [i for i in front if not two_qubit[i]
                 or dist[l2p[ops[i][0]]][l2p[ops[i][1]]] == 1]
        if ready:
            # the gates left in the front keep their order, and the
            # successors each commit frees follow them in commit order
            if len(ready) == len(front):
                front = []
            else:
                done = set(ready)
                front = [i for i in front if i not in done]
            for i in ready:
                if out is not None:
                    out.append(gates[i].remapped(l2p))
                for s in succ[i]:
                    indegree[s] -= 1
                    if indegree[s] == 0:
                        front.append(s)
            if swaps_since_reset:
                decay = [1.0] * n_phys
                swaps_since_reset = 0
            swaps_since_commit = 0
            blocked = None
            continue

        if blocked is None:
            # nothing is ready, so every front gate is a blocked 2q gate;
            # the lookahead is the nearest 2q successors in BFS order
            generation += 1
            blocked = []
            partner_b = [None] * n_phys  # front gates share no qubit
            partner_e = [()] * n_phys
            sum_b = sum_e = n_e = 0
            for i in front:
                visited[i] = generation
                a, b = pair = ops[i]
                blocked.append(pair)
                partner_b[a], partner_b[b] = b, a
                sum_b += dist[l2p[a]][l2p[b]]
            queue = list(front)
            for i in queue:
                if n_e >= routing.EXTENDED_SIZE:
                    break
                for s in succ[i]:
                    if visited[s] == generation:
                        continue
                    visited[s] = generation
                    if two_qubit[s]:
                        a, b = ops[s]
                        partner_e[a] += (b,)
                        partner_e[b] += (a,)
                        sum_e += dist[l2p[a]][l2p[b]]
                        n_e += 1
                        if n_e >= routing.EXTENDED_SIZE:
                            break
                    queue.append(s)
            n_b = len(blocked)
        if swaps_since_commit >= stall_limit:
            # heuristic is oscillating: walk the first blocked gate's
            # operands together along a shortest path
            a, b = blocked[0]
            pa, pb = l2p[a], l2p[b]
            while dist[pa][pb] != 1:
                step = min(adj[pa], key=lambda nb: dist[nb][pb])
                swap(pa, step)
                pa = step
            swaps_since_commit = 0
            stall_walks += 1
            # blocked[0] is now executable, so the next step commits it
            # and rebuilds what depends on the front and the layout
            blocked = None
            continue

        candidates = set()
        for a, b in blocked:
            candidates.update(incident[l2p[a]])
            candidates.update(incident[l2p[b]])
        # A candidate SWAP changes only the terms of pairs on its qubits;
        # a pair on both keeps its distance.
        best_swaps, best_score = [], None
        for p, q in sorted(candidates):
            lp, lq = p2l[p], p2l[q]
            dp, dq = dist[p], dist[q]
            d_b = d_e = 0
            other = partner_b[lp]
            if other is not None and other != lq:
                o = l2p[other]
                d_b += dq[o] - dp[o]
            other = partner_b[lq]
            if other is not None and other != lp:
                o = l2p[other]
                d_b += dp[o] - dq[o]
            score = (sum_b + d_b) / n_b
            if n_e:
                for other in partner_e[lp]:
                    if other != lq:
                        o = l2p[other]
                        d_e += dq[o] - dp[o]
                for other in partner_e[lq]:
                    if other != lp:
                        o = l2p[other]
                        d_e += dp[o] - dq[o]
                score += routing.EXTENDED_WEIGHT * (sum_e + d_e) / n_e
            decay_p, decay_q = decay[p], decay[q]
            score = (decay_p if decay_p > decay_q else decay_q) * score
            if best_score is None or score < best_score - 1e-12:
                best_swaps, best_score = [(p, q, d_b, d_e)], score
            elif abs(score - best_score) <= 1e-12:
                best_swaps.append((p, q, d_b, d_e))
        p, q, d_b, d_e = rng.choice(best_swaps)
        swap(p, q)
        sum_b += d_b
        sum_e += d_e
        decay[p] += routing.DECAY_INCREMENT
        decay[q] += routing.DECAY_INCREMENT
        swaps_since_reset += 1
        swaps_since_commit += 1
        if swaps_since_reset >= routing.DECAY_RESET_INTERVAL:
            decay = [1.0] * n_phys
            swaps_since_reset = 0
    return l2p, out, stall_walks


# Common graph fixtures

def complete_graph(n: int) -> Graph:
    return Graph(n, edges_from_pairs([(i, j) for i in range(n)
                                      for j in range(i + 1, n)]))


def path_graph(n: int) -> Graph:
    return Graph(n, edges_from_pairs([(i, i + 1) for i in range(n - 1)]))


def cycle_graph(n: int) -> Graph:
    return Graph(n, edges_from_pairs([(i, (i + 1) % n) for i in range(n)]))


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
