"""SABRE-style qubit mapping: SWAP insertion for a coupling graph.

Forward-backward-forward reverse traversal refines the initial mapping;
the per-step heuristic scores candidate SWAPs by front-layer plus
discounted lookahead distance, scaled by decay factors that spread SWAPs
across qubits.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .circuit import Circuit, Gate, Role, gSWAP
from .errors import (Disconnected, IndexOutOfRange, TooFewPhysicalQubits,
                     UnloweredGate)


@dataclass(frozen=True)
class CouplingGraph:
    num_physical: int
    pairs: frozenset[tuple[int, int]]
    distance: tuple[tuple[int, ...], ...] = field(repr=False)

    @classmethod
    def from_pairs(cls, num_physical: int, pairs) -> "CouplingGraph":
        canon = set()
        for a, b in pairs:
            if not (0 <= a < num_physical and 0 <= b < num_physical):
                raise IndexOutOfRange(f"pair ({a}, {b}) out of range")
            if a == b:
                raise IndexOutOfRange(f"pair ({a}, {b}) is a self-loop")
            canon.add((min(a, b), max(a, b)))
        dist = _all_pairs_bfs(num_physical, canon)
        return cls(num_physical, frozenset(canon), dist)

    def coupled(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.pairs

    def neighbors(self, p: int) -> list[int]:
        return [b if a == p else a for a, b in self.pairs if p in (a, b)]


def _all_pairs_bfs(n: int, pairs) -> tuple[tuple[int, ...], ...]:
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    rows = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if any(d < 0 for d in dist):
            raise Disconnected("coupling graph is not connected")
        rows.append(tuple(dist))
    return tuple(rows)


def parse_coupling(text: str) -> CouplingGraph:
    """First non-comment line: physical qubit count; then one pair per line."""
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append(line.split())
    if not tokens or len(tokens[0]) != 1:
        raise IndexOutOfRange("expected a leading physical-qubit count line")
    num_physical = int(tokens[0][0])
    pairs = []
    for parts in tokens[1:]:
        if len(parts) != 2:
            raise IndexOutOfRange(f"expected 'a b' pair, got {' '.join(parts)!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return CouplingGraph.from_pairs(num_physical, pairs)


def line_coupling(n: int) -> CouplingGraph:
    return CouplingGraph.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def ring_coupling(n: int) -> CouplingGraph:
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return CouplingGraph.from_pairs(n, pairs)


def grid_coupling(rows: int, cols: int) -> CouplingGraph:
    pairs = []
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            if c + 1 < cols:
                pairs.append((p, p + 1))
            if r + 1 < rows:
                pairs.append((p, p + cols))
    return CouplingGraph.from_pairs(rows * cols, pairs)


@dataclass(frozen=True)
class Mapping:
    """Injective logical -> physical assignment."""

    logical_to_physical: tuple[int, ...]

    def physical(self, logical: int) -> int:
        return self.logical_to_physical[logical]

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.logical_to_physical))


@dataclass
class RoutingResult:
    routed: Circuit
    initial: Mapping
    final: Mapping
    swap_count: int


EXTENDED_SIZE = 20           # 2-qubit gates in the lookahead window
EXTENDED_WEIGHT = 0.5        # weight of the lookahead term in a swap's score
DECAY_INCREMENT = 0.001      # per-swap penalty on the swapped physical qubits
DECAY_RESET_INTERVAL = 5     # swaps between decay resets


def verify_constraints(circuit: Circuit, coupling: CouplingGraph) -> bool:
    for gate in circuit.gates:
        ops = gate.operands
        if len(ops) == 2 and not coupling.coupled(*ops):
            return False
    return True


class _Dag:
    """Dependency DAG over the gate list (operand overlap ordering)."""

    def __init__(self, gates: list[Gate]):
        self.gates = gates
        n = len(gates)
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.indegree = [0] * n
        last_on: dict[int, int] = {}
        for i, g in enumerate(gates):
            preds = {last_on[q] for q in g.operands if q in last_on}
            for p in preds:
                self.succ[p].append(i)
            self.indegree[i] = len(preds)
            for q in g.operands:
                last_on[q] = i


def sabre_route(circuit: Circuit, coupling: CouplingGraph,
                seed: int = 0) -> RoutingResult:
    """Route a lowered circuit onto the coupling graph.

    Reverse traversal: forward pass from the identity mapping, backward
    pass seeded with its final mapping, then a final forward pass whose
    initial mapping is kept and reported.
    """
    width = circuit.num_qubits
    if coupling.num_physical < width:
        raise TooFewPhysicalQubits(
            f"{width} logical qubits, {coupling.num_physical} physical")
    for gate in circuit.gates:
        if len(gate.operands) > 2:
            raise UnloweredGate(f"{gate.kind.value} has >2 operands; lower first")
        if any(not c.positive for c in gate.controls):
            raise UnloweredGate("negative control; lower first")

    rng = random.Random(seed)
    identity = list(range(width)) + list(range(width, coupling.num_physical))
    reverse_gates = list(reversed(circuit.gates))

    _, m1 = _route_pass(circuit.gates, width, coupling, identity, rng)
    _, m2 = _route_pass(reverse_gates, width, coupling, m1, rng)
    out_gates, m_final = _route_pass(circuit.gates, width, coupling, m2, rng)

    initial = Mapping(tuple(m2[:width]))
    final = Mapping(tuple(m_final[:width]))
    routed = _routed_circuit(circuit, coupling.num_physical, out_gates,
                             initial, final)
    swap_count = len(out_gates) - len(circuit.gates)
    return RoutingResult(routed=routed, initial=initial, final=final,
                         swap_count=swap_count)


def _routed_circuit(logical: Circuit, num_physical: int, gates,
                    initial: Mapping, final: Mapping) -> Circuit:
    roles = [Role.IDLE] * num_physical
    init = [0] * num_physical
    for l in range(logical.num_qubits):
        roles[final.physical(l)] = logical.roles[l]
        init[initial.physical(l)] = logical.initial_state[l]
    out = Circuit(num_physical, roles=roles, initial_state=init)
    out.extend(gates)
    return out


def _route_pass(gates, width, coupling, mapping_seed, rng):
    """One SABRE sweep.  Returns (physical gate list, full l2p mapping)."""
    dag = _Dag(list(gates))
    l2p = list(mapping_seed)
    front = deque(i for i in range(len(dag.gates)) if dag.indegree[i] == 0)
    remaining_indegree = list(dag.indegree)
    out: list[Gate] = []
    decay = [1.0] * coupling.num_physical
    swaps_since_reset = 0
    swaps_since_commit = 0
    stall_limit = 10 + 4 * coupling.num_physical

    def executable(i: int) -> bool:
        ops = dag.gates[i].operands
        if len(ops) < 2:
            return True
        return coupling.coupled(l2p[ops[0]], l2p[ops[1]])

    while front:
        ready = [i for i in front if executable(i)]
        if ready:
            for i in ready:
                front.remove(i)
                out.append(dag.gates[i].remapped(l2p))
                for s in dag.succ[i]:
                    remaining_indegree[s] -= 1
                    if remaining_indegree[s] == 0:
                        front.append(s)
            decay = [1.0] * coupling.num_physical
            swaps_since_reset = 0
            swaps_since_commit = 0
            continue

        blocked = [i for i in front if len(dag.gates[i].operands) == 2]
        if swaps_since_commit >= stall_limit:
            # heuristic is oscillating: walk the first blocked gate's
            # operands together along a shortest path
            a, b = dag.gates[blocked[0]].operands
            pa, pb = l2p[a], l2p[b]
            while not coupling.coupled(pa, pb):
                step = min(coupling.neighbors(pa),
                           key=lambda nb: coupling.distance[nb][pb])
                out.append(gSWAP(pa, step))
                _apply_swap(l2p, pa, step)
                pa = step
            swaps_since_commit = 0
            continue
        extended = _extended_set(dag, front, remaining_indegree)
        candidates = _candidate_swaps(blocked, dag, l2p, coupling)
        best_swaps, best_score = [], None
        for swap in candidates:
            score = _score(swap, blocked, extended, dag, l2p, coupling, decay)
            if best_score is None or score < best_score - 1e-12:
                best_swaps, best_score = [swap], score
            elif abs(score - best_score) <= 1e-12:
                best_swaps.append(swap)
        p, q = rng.choice(best_swaps)
        out.append(gSWAP(p, q))
        _apply_swap(l2p, p, q)
        decay[p] += DECAY_INCREMENT
        decay[q] += DECAY_INCREMENT
        swaps_since_reset += 1
        swaps_since_commit += 1
        if swaps_since_reset >= DECAY_RESET_INTERVAL:
            decay = [1.0] * coupling.num_physical
            swaps_since_reset = 0
    return out, l2p


def _apply_swap(l2p, p, q):
    # invert, swap the physical slots, re-invert -- done directly
    for logical, phys in enumerate(l2p):
        if phys == p:
            l2p[logical] = q
        elif phys == q:
            l2p[logical] = p


def _extended_set(dag, front, indegree):
    """Lookahead window: nearest successors of the front layer (2q only)."""
    seen = set(front)
    queue = deque(front)
    out = []
    while queue and len(out) < EXTENDED_SIZE:
        i = queue.popleft()
        for s in dag.succ[i]:
            if s in seen:
                continue
            seen.add(s)
            if len(dag.gates[s].operands) == 2:
                out.append(s)
                if len(out) >= EXTENDED_SIZE:
                    break
            queue.append(s)
    return out


def _candidate_swaps(blocked, dag, l2p, coupling):
    involved = set()
    for i in blocked:
        for q in dag.gates[i].operands:
            involved.add(l2p[q])
    swaps = set()
    for p in involved:
        for nb in coupling.neighbors(p):
            swaps.add((min(p, nb), max(p, nb)))
    return sorted(swaps)


def _score(swap, blocked, extended, dag, l2p, coupling, decay):
    p, q = swap
    trial = list(l2p)
    _apply_swap(trial, p, q)
    dist = coupling.distance

    def total(indices):
        s = 0.0
        for i in indices:
            a, b = dag.gates[i].operands
            s += dist[trial[a]][trial[b]]
        return s

    score = total(blocked) / len(blocked)
    if extended:
        score += EXTENDED_WEIGHT * total(extended) / len(extended)
    return max(decay[p], decay[q]) * score
