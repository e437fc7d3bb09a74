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

from .circuit import Circuit, check_lowered, gSWAP
from .errors import Disconnected, IndexOutOfRange, TooFewPhysicalQubits


@dataclass(frozen=True)
class CouplingGraph:
    num_physical: int
    pairs: frozenset[tuple[int, int]]
    distance: tuple[tuple[int, ...], ...] = field(repr=False)
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)

    @classmethod
    def from_pairs(cls, num_physical: int, pairs) -> "CouplingGraph":
        if num_physical < 1:
            raise IndexOutOfRange(
                f"physical-qubit count {num_physical} is below 1")
        canon = set()
        for a, b in pairs:
            if not (0 <= a < num_physical and 0 <= b < num_physical):
                raise IndexOutOfRange(f"pair ({a}, {b}) out of range")
            if a == b:
                raise IndexOutOfRange(f"pair ({a}, {b}) is a self-loop")
            canon.add((min(a, b), max(a, b)))
        canon = frozenset(canon)
        # neighbour order follows the iteration order of ``pairs``; the
        # stall walk's tie-breaking depends on it
        adj = [[] for _ in range(num_physical)]
        for a, b in canon:
            adj[a].append(b)
            adj[b].append(a)
        adjacency = tuple(tuple(nbs) for nbs in adj)
        return cls(num_physical, canon, _all_pairs_bfs(adjacency), adjacency)

    def coupled(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.pairs

    def neighbors(self, p: int) -> tuple[int, ...]:
        return self.adjacency[p]

    def check_width(self, num_logical: int) -> None:
        """Raise TooFewPhysicalQubits unless ``num_logical`` qubits fit."""
        if self.num_physical < num_logical:
            raise TooFewPhysicalQubits(
                f"{num_logical} logical qubits, {self.num_physical} physical")


def _all_pairs_bfs(adj) -> tuple[tuple[int, ...], ...]:
    n = len(adj)
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
    for parts in tokens[1:]:
        if len(parts) != 2:
            raise IndexOutOfRange(f"expected 'a b' pair, got {' '.join(parts)!r}")
    try:
        num_physical = int(tokens[0][0])
        pairs = [(int(a), int(b)) for a, b in tokens[1:]]
    except ValueError as exc:
        raise IndexOutOfRange(f"non-integer token: {exc}")
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
    stall_walks: int  # stall fallbacks taken by the final pass


EXTENDED_SIZE = 20           # 2-qubit gates in the lookahead window
EXTENDED_WEIGHT = 0.5        # weight of the lookahead term in a swap's score
DECAY_INCREMENT = 0.001      # per-swap penalty on the swapped physical qubits
DECAY_RESET_INTERVAL = 5     # swaps between decay resets
STALL_BASE = 10              # swaps without a committed gate before the
STALL_PER_QUBIT = 4          # stall walk: BASE + PER_QUBIT * num_physical


def verify_constraints(circuit: Circuit, coupling: CouplingGraph) -> bool:
    for gate in circuit.gates:
        ops = gate.operands
        if len(ops) == 2 and not coupling.coupled(*ops):
            return False
    return True


class _Dag:
    """Dependency DAG over operand tuples (operand overlap ordering)."""

    def __init__(self, ops: list[tuple[int, ...]]):
        self.ops = ops
        n = len(ops)
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.indegree = [0] * n
        last_on: dict[int, int] = {}
        for i, g in enumerate(ops):
            preds = {last_on[q] for q in g if q in last_on}
            for p in preds:
                self.succ[p].append(i)
            self.indegree[i] = len(preds)
            for q in g:
                last_on[q] = i


def sabre_route(circuit: Circuit, coupling: CouplingGraph,
                seed: int = 0) -> RoutingResult:
    """Route a lowered circuit onto the coupling graph; a gate outside
    ``LOWERED_KINDS`` raises UnloweredGate.

    Reverse traversal: forward pass from the identity mapping, backward
    pass seeded with its final mapping, then a final forward pass whose
    initial mapping is kept and reported.  Only the final pass builds
    gates; the first two move the layout.  The routed circuit reads each
    measured qubit at its final physical position, in the same order.
    """
    width = circuit.num_qubits
    coupling.check_width(width)
    check_lowered(circuit)
    ops = [g.operands for g in circuit.gates]

    rng = random.Random(seed)
    forward = _Dag(ops)
    m1, _, _ = _route_pass(forward, coupling, range(coupling.num_physical), rng)
    m2, _, _ = _route_pass(_Dag(ops[::-1]), coupling, m1, rng)
    m_final, out_gates, stall_walks = _route_pass(forward, coupling, m2, rng,
                                                  circuit.gates)

    initial = Mapping(tuple(m2[:width]))
    final = Mapping(tuple(m_final[:width]))
    routed = _routed_circuit(circuit, coupling.num_physical, out_gates,
                             initial, final)
    swap_count = len(out_gates) - len(circuit.gates)
    return RoutingResult(routed=routed, initial=initial, final=final,
                         swap_count=swap_count, stall_walks=stall_walks)


def _routed_circuit(logical: Circuit, num_physical: int, gates,
                    initial: Mapping, final: Mapping) -> Circuit:
    init = [0] * num_physical
    for l in range(logical.num_qubits):
        init[initial.physical(l)] = logical.initial_state[l]
    measured = [final.physical(q) for q in logical.measured]
    out = Circuit(num_physical, measured=measured, initial_state=init)
    out.extend(gates)
    return out


def _route_pass(dag, coupling, mapping_seed, rng, gates=None):
    """One SABRE sweep from the full l2p mapping ``mapping_seed``.

    Returns (final l2p mapping, physical gate list, stall walks).  The
    gate list is built only when ``gates``, the circuit's gates in DAG
    order, is given; otherwise it is None.
    """
    ops, succ = dag.ops, dag.succ
    dist, adj = coupling.distance, coupling.adjacency
    n_phys = coupling.num_physical
    l2p = list(mapping_seed)
    p2l = [0] * n_phys
    for logical, phys in enumerate(l2p):
        p2l[phys] = logical
    indegree = list(dag.indegree)
    front = deque(i for i in range(len(ops)) if indegree[i] == 0)
    out = [] if gates is not None else None
    decay = [1.0] * n_phys
    swaps_since_reset = 0
    swaps_since_commit = 0
    stall_walks = 0
    stall_limit = STALL_BASE + STALL_PER_QUBIT * n_phys
    blocked = extended = None  # operand pairs; valid until the front changes

    def swap(p, q):
        lp, lq = p2l[p], p2l[q]
        p2l[p], p2l[q] = lq, lp
        l2p[lp], l2p[lq] = q, p
        if out is not None:
            out.append(gSWAP(p, q))

    while front:
        ready = [i for i in front if len(ops[i]) < 2
                 or dist[l2p[ops[i][0]]][l2p[ops[i][1]]] == 1]
        if ready:
            for i in ready:
                front.remove(i)
                if out is not None:
                    out.append(gates[i].remapped(l2p))
                for s in succ[i]:
                    indegree[s] -= 1
                    if indegree[s] == 0:
                        front.append(s)
            decay = [1.0] * n_phys
            swaps_since_reset = 0
            swaps_since_commit = 0
            blocked = None
            continue

        if blocked is None:
            # nothing is ready, so every front gate is a blocked 2q gate
            blocked = [ops[i] for i in front]
            extended = _extended_set(dag, front)
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
            continue

        # Distance sums at the current layout; a candidate SWAP changes
        # only the terms of gates that touch its pair.  Exact ints keep
        # the float scores equal to a full recount.
        ends_b = _ends(blocked, l2p, n_phys)
        ends_e = _ends(extended, l2p, n_phys)
        sum_b = sum(dist[l2p[a]][l2p[b]] for a, b in blocked)
        sum_e = sum(dist[l2p[a]][l2p[b]] for a, b in extended)
        involved = {l2p[q] for pair in blocked for q in pair}
        candidates = sorted({(p, nb) if p < nb else (nb, p)
                             for p in involved for nb in adj[p]})
        best_swaps, best_score = [], None
        for p, q in candidates:
            score = (sum_b + _delta(ends_b, dist, p, q)) / len(blocked)
            if extended:
                se = sum_e + _delta(ends_e, dist, p, q)
                score += EXTENDED_WEIGHT * se / len(extended)
            score = max(decay[p], decay[q]) * score
            if best_score is None or score < best_score - 1e-12:
                best_swaps, best_score = [(p, q)], score
            elif abs(score - best_score) <= 1e-12:
                best_swaps.append((p, q))
        p, q = rng.choice(best_swaps)
        swap(p, q)
        decay[p] += DECAY_INCREMENT
        decay[q] += DECAY_INCREMENT
        swaps_since_reset += 1
        swaps_since_commit += 1
        if swaps_since_reset >= DECAY_RESET_INTERVAL:
            decay = [1.0] * n_phys
            swaps_since_reset = 0
    return l2p, out, stall_walks


def _ends(pairs, l2p, n_phys):
    """For each physical qubit, the far physical end of every pair on it."""
    ends = [[] for _ in range(n_phys)]
    for a, b in pairs:
        pa, pb = l2p[a], l2p[b]
        ends[pa].append(pb)
        ends[pb].append(pa)
    return ends


def _delta(ends, dist, p, q):
    """Change of a distance sum when physical qubits p and q trade places."""
    dp, dq = dist[p], dist[q]
    d = 0
    for o in ends[p]:
        if o != q:
            d += dq[o] - dp[o]
    for o in ends[q]:
        if o != p:
            d += dp[o] - dq[o]
    return d


def _extended_set(dag, front):
    """Lookahead window: operand pairs of the nearest 2q successors of the
    front layer."""
    succ, ops = dag.succ, dag.ops
    seen = set(front)
    queue = deque(front)
    out = []
    while queue:
        for s in succ[queue.popleft()]:
            if s in seen:
                continue
            seen.add(s)
            if len(ops[s]) == 2:
                out.append(ops[s])
                if len(out) >= EXTENDED_SIZE:
                    return out
            queue.append(s)
    return out
