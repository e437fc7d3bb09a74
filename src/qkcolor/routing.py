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
        adj = [[] for _ in range(num_physical)]
        for a, b in canon:
            adj[a].append(b)
            adj[b].append(a)
        adjacency = tuple(tuple(sorted(nbs)) for nbs in adj)
        return cls(num_physical, canon, _all_pairs_bfs(adjacency), adjacency)

    def coupled(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.pairs

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
    if n < 2:
        raise IndexOutOfRange(f"ring size {n} is below 2")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return CouplingGraph.from_pairs(n, pairs)


def grid_coupling(rows: int, cols: int) -> CouplingGraph:
    for name, size in (("rows", rows), ("cols", cols)):
        if size < 1:
            raise IndexOutOfRange(f"grid {name} {size} is below 1")
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
    pairs = coupling.pairs
    for gate in circuit.gates:
        ops = gate.operands
        if len(ops) == 2:
            a, b = ops
            if ((a, b) if a < b else (b, a)) not in pairs:
                return False
    return True


class _Dag:
    """Dependency DAG over 1- and 2-qubit operand tuples (operand
    overlap ordering)."""

    def __init__(self, ops: list[tuple[int, ...]]):
        self.ops = ops
        n = len(ops)
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.indegree = [0] * n
        succ, indegree = self.succ, self.indegree
        last_on: dict[int, int] = {}
        last = last_on.get
        for i, g in enumerate(ops):
            if len(g) == 1:
                p = last(g[0])
                if p is not None:
                    succ[p].append(i)
                    indegree[i] = 1
                last_on[g[0]] = i
                continue
            a, b = g
            pa, pb = last(a), last(b)
            if pa is not None:
                succ[pa].append(i)
                indegree[i] = 1
            # back to back on one pair: a single edge
            if pb is not None and pb != pa:
                succ[pb].append(i)
                indegree[i] += 1
            last_on[a] = last_on[b] = i
        self.two_qubit = [len(g) == 2 for g in ops]  # the rest are 1q


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
    # every operand is a physical qubit, so append's range check is skipped
    out.gates = gates
    return out


def _route_pass(dag, coupling, mapping_seed, rng, gates=None):
    """One SABRE sweep from the full l2p mapping ``mapping_seed``.

    Returns (final l2p mapping, physical gate list, stall walks).  The
    gate list is built only when ``gates``, the circuit's gates in DAG
    order, is given; otherwise it is None.

    The front is ``waiting``, the gates found blocked, in front order,
    followed by ``unchecked``, the gates not yet checked.  One drain per
    layout takes ``unchecked`` first in, first out: a ready gate commits
    and queues the successors it frees, a blocked one joins ``waiting``.
    A commit does not move the layout, so a gate is checked once until a
    swap does.  Front gates share no qubit and a swap moves two logical
    qubits, so after a swap only the blocked gates on those two are
    checked again; a stall walk moves many, so it checks the whole front
    again.  The drain commits the gates, in the order, and leaves the
    front in the order, of rounds that each commit every ready front
    gate and then append the successors freed, in commit order.
    """
    ops, succ, two_qubit = dag.ops, dag.succ, dag.two_qubit
    dist, adj = coupling.distance, coupling.adjacency
    n_phys = coupling.num_physical
    # the coupling pairs on each physical qubit, as candidate swaps
    incident = [[(p, nb) if p < nb else (nb, p) for nb in adj[p]]
                for p in range(n_phys)]
    # each candidate with how the swap moves a distance: a qubit on p
    # moves to q and gains shift[x] to each physical qubit x, and one on
    # q loses it
    with_shift = {(p, q): (p, q, tuple([dq - dp for dp, dq in
                                        zip(dist[p], dist[q])]))
                  for p in range(n_phys) for q in adj[p] if p < q}
    # the sorted candidate swaps of a single-gate front, by its physical pair
    single_candidates = {}
    l2p = list(mapping_seed)
    p2l = [0] * n_phys
    for logical, phys in enumerate(l2p):
        p2l[phys] = logical
    indegree = list(dag.indegree)
    unchecked = [i for i in range(len(ops)) if indegree[i] == 0]
    waiting = []
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
    stall_limit = STALL_BASE + STALL_PER_QUBIT * n_phys
    # Built when the front changes: the blocked and lookahead operand
    # pairs, each logical qubit's partners in them and blocked gate, and
    # their distance sums, which each swap then moves by its change.  The
    # sums are exact ints, so every float score equals that of a full
    # recount.
    blocked = None
    visited = [0] * len(ops)  # lookahead BFS generation of each node
    generation = 0

    def swap(p, q):
        lp, lq = p2l[p], p2l[q]
        p2l[p], p2l[q] = lq, lp
        l2p[lp], l2p[lq] = q, p
        if out is not None:
            out.append(swap_gates[p, q])

    while True:
        if unchecked:
            committed = False
            for i in unchecked:  # grows by the successors each commit frees
                if two_qubit[i]:
                    a, b = ops[i]
                    if dist[l2p[a]][l2p[b]] != 1:
                        waiting.append(i)
                        continue
                committed = True
                if out is not None:
                    out.append(gates[i].remapped(l2p))
                for s in succ[i]:
                    indegree[s] -= 1
                    if indegree[s] == 0:
                        unchecked.append(s)
            unchecked = []
            if committed:
                if swaps_since_reset:
                    decay = [1.0] * n_phys
                    swaps_since_reset = 0
                swaps_since_commit = 0
                blocked = None
        if not waiting:
            break

        if blocked is None:
            # every front gate is a blocked 2q gate; the lookahead is the
            # nearest 2q successors in BFS order
            generation += 1
            blocked = []
            partner_b = [None] * n_phys  # front gates share no qubit
            gate_on = [None] * n_phys
            partner_e = [()] * n_phys
            sum_b = sum_e = n_e = 0
            for i in waiting:
                visited[i] = generation
                a, b = pair = ops[i]
                blocked.append(pair)
                partner_b[a], partner_b[b] = b, a
                gate_on[a] = gate_on[b] = i
                sum_b += dist[l2p[a]][l2p[b]]
            queue = list(waiting)
            for i in queue:
                if n_e >= EXTENDED_SIZE:
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
                        if n_e >= EXTENDED_SIZE:
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
            # the walk moved many qubits, so the whole front is checked
            # again; blocked[0] is now executable, and its commit has the
            # sums rebuilt
            unchecked, waiting = waiting, []
            continue

        if n_b == 1:
            a, b = blocked[0]
            key = l2p[a], l2p[b]
            candidates = single_candidates.get(key)
            if candidates is None:
                candidates = [with_shift[pair] for pair in sorted(
                    {*incident[key[0]], *incident[key[1]]})]
                single_candidates[key] = candidates
        else:
            pairs = set()
            for a, b in blocked:
                pairs.update(incident[l2p[a]])
                pairs.update(incident[l2p[b]])
            candidates = [with_shift[pair] for pair in sorted(pairs)]
        # A candidate SWAP changes only the terms of pairs on its qubits;
        # a pair on both keeps its distance.
        best_swaps, best_score = [], None
        for p, q, shift in candidates:
            lp, lq = p2l[p], p2l[q]
            d_b = d_e = 0
            other = partner_b[lp]
            if other is not None and other != lq:
                d_b += shift[l2p[other]]
            other = partner_b[lq]
            if other is not None and other != lp:
                d_b -= shift[l2p[other]]
            score = (sum_b + d_b) / n_b
            if n_e:
                for other in partner_e[lp]:
                    if other != lq:
                        d_e += shift[l2p[other]]
                for other in partner_e[lq]:
                    if other != lp:
                        d_e -= shift[l2p[other]]
                score += EXTENDED_WEIGHT * (sum_e + d_e) / n_e
            decay_p, decay_q = decay[p], decay[q]
            score = (decay_p if decay_p > decay_q else decay_q) * score
            if best_score is None or score < best_score - 1e-12:
                best_swaps, best_score = [(p, q, d_b, d_e)], score
            elif abs(score - best_score) <= 1e-12:
                best_swaps.append((p, q, d_b, d_e))
        p, q, d_b, d_e = rng.choice(best_swaps)
        lp, lq = p2l[p], p2l[q]
        swap(p, q)
        sum_b += d_b
        sum_e += d_e
        decay[p] += DECAY_INCREMENT
        decay[q] += DECAY_INCREMENT
        swaps_since_reset += 1
        swaps_since_commit += 1
        if swaps_since_reset >= DECAY_RESET_INTERVAL:
            decay = [1.0] * n_phys
            swaps_since_reset = 0
        # lp is now on q and lq on p; a gate on both keeps its distance
        ready = []
        other = partner_b[lp]
        if other is not None and other != lq and dist[q][l2p[other]] == 1:
            ready.append(gate_on[lp])
        other = partner_b[lq]
        if other is not None and other != lp and dist[p][l2p[other]] == 1:
            ready.append(gate_on[lq])
        if ready:
            unchecked = [i for i in waiting if i in ready]
            waiting = [i for i in waiting if i not in ready]
    return l2p, out, stall_walks
