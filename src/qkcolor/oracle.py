"""Comparator-based Grover oracle synthesis for graph k-coloring.

The oracle marks (phase-flips) exactly the data basis states that encode
proper colorings using valid colors.  Structure:

    invalid-color detection  ->  edge comparators (with ancilla
    aggregation when the slot budget is exhausted)  ->  one MCZ on the
    final checks (Nielsen & Chuang 6.1, with no output qubit)  ->
    mirror of the comparators and the detection.

Both invalid-color strategies write valid flags that start in |1> and
are positive checks of the kickback.  ``paper`` mode keeps one shared
flag that every invalid-vertex detection toggles, which is parity
blind: an even number of invalidly colored, pairwise nonadjacent
vertices cancels out and the state is falsely marked.  ``strict`` mode
(the default) keeps one valid flag per vertex and is exact.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate, QubitLayout, gCX, gMCT, gMCZ, gX, gZ
from .errors import NoInvalidColors, WidthMismatch
from .graphs import Instance

MODES = ("strict", "paper")


@dataclass(frozen=True)
class ComparatorRound:
    """One batch of edge comparators sharing live ancilla slots.

    ``edges`` maps each edge to the slot qubit holding its comparator
    result; ``aggregate_slot`` is the qubit absorbing the batch AND when
    the batch must be uncomputed to free its slots (None for the final,
    persistent batch).
    """

    edges: tuple[tuple[tuple[int, int], int], ...]
    aggregate_slot: int | None


@dataclass(frozen=True)
class OraclePlan:
    layout: QubitLayout
    mode: str
    edge_schedule: tuple[ComparatorRound, ...]

    def surviving_slots(self) -> list[int]:
        """Ancilla qubits that are live checks of the kickback."""
        out = []
        for rnd in self.edge_schedule:
            if rnd.aggregate_slot is not None:
                out.append(rnd.aggregate_slot)
            else:
                out.extend(slot for _, slot in rnd.edges)
        return out


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def plan_layout(instance: Instance, mode: str = "strict") -> OraclePlan:
    """Assign qubit ranges and the edge-comparator schedule.  An idle
    qubit is kept where fewer than max(m - 3, 2) sit beside the m data
    qubits: the diffusion's AND chain takes m - 3 as clean ancillas,
    14(m-3)+13 gates lowered, 6m-12 of them 2-qubit, plus 2 X per
    ancilla that holds 1; a one-vertex detector borrows 1."""
    _check_mode(mode)
    graph = instance.graph
    n, c, e = graph.n, instance.c, graph.num_edges
    m = n * c
    r = min(e, n)
    flags = (n if mode == "strict" else 1) if instance.invalid_colors else 0
    cursor = m + r + flags
    layout = QubitLayout(n=n, c=c, data=range(0, m),
                         edge_ancilla=range(m, m + r),
                         valid_flags=range(m + r, cursor),
                         num_qubits=cursor + (cursor - m < max(m - 3, 2)))

    schedule = _schedule_edges(graph.sorted_edges(), list(layout.edge_ancilla))
    return OraclePlan(layout=layout, mode=mode, edge_schedule=schedule)


def _schedule_edges(edges, slots) -> tuple[ComparatorRound, ...]:
    """Greedy lexicographic schedule.

    Comparators fill free slots; when the remaining edges exceed the free
    slots, one slot is reserved as the aggregation target for the batch
    and the batch's comparators are uncomputed afterwards.
    """
    rounds = []
    free = list(slots)
    remaining = list(edges)
    while remaining:
        if len(remaining) <= len(free):
            assigned = tuple((edge, slot) for edge, slot in zip(remaining, free))
            rounds.append(ComparatorRound(assigned, None))
            break
        if len(free) < 2:
            raise AssertionError("edge budget r=min(e,n) cannot be exhausted")
        batch_size = len(free) - 1
        assigned = tuple((remaining[i], free[i]) for i in range(batch_size))
        aggregate = free[batch_size]
        rounds.append(ComparatorRound(assigned, aggregate))
        remaining = remaining[batch_size:]
        free = free[:batch_size]  # comparator slots are uncomputed and reused
    return tuple(rounds)


def build_comparator(a_qubits, b_qubits, f: int) -> list[Gate]:
    """Flip ancilla f iff the two color registers are equal.

    CX ladder writes a XOR b onto the b register (low-order bit last, the
    ladder runs most significant bit first), an all-negative-control MCT
    flips f when every XOR bit is zero, then the ladder is uncomputed.
    """
    a, b = list(a_qubits), list(b_qubits)
    if len(a) != len(b):
        raise WidthMismatch(f"register widths differ: {len(a)} vs {len(b)}")
    ladder = [gCX(ai, bi) for ai, bi in zip(a, b)]
    mct = gMCT([(bi, False) for bi in b], f)
    return ladder + [mct] + [g for g in reversed(ladder)]


def _pattern_controls(layout: QubitLayout, vertex: int,
                      pattern: int) -> list[tuple[int, bool]]:
    """Controls on a vertex's color bits matching an invalid bit pattern."""
    qubits = layout.vertex_qubits(vertex)
    c = layout.c
    return [(q, bool((pattern >> (c - 1 - pos)) & 1))
            for pos, q in enumerate(qubits)]


def build_invalid_color_detector(plan: OraclePlan, instance: Instance) -> list[Gate]:
    """Detect vertices carrying a bit pattern >= k.

    Every (vertex, invalid pattern) match toggles a valid flag, which
    starts in |1>: vertex v's own in strict mode, so it reads 1 iff v's
    color is valid, and the one shared flag in paper mode, so it reads 1
    iff an even number of vertices match.
    """
    if not instance.invalid_colors:
        raise NoInvalidColors(f"k={instance.k} is a power of two")
    layout = plan.layout
    flags = layout.valid_flags
    gates = []
    for v in range(instance.graph.n):
        target = flags[v if plan.mode == "strict" else 0]
        for pattern in sorted(instance.invalid_colors):
            gates.append(gMCT(_pattern_controls(layout, v, pattern), target))
    return gates


def build_oracle(instance: Instance, mode: str = "strict",
                 plan: OraclePlan | None = None) -> Circuit:
    """Full phase oracle over the plan's register.

    With the ancillas in their declared states it acts diagonally on the
    data: a basis state gets phase -1 iff it encodes a proper, validly
    colored assignment (in strict mode).  The checks are the surviving
    comparator slots, then the valid flags, and each reads 1 when it
    passes: the kickback is an MCZ on the last, controlled by the others,
    or with no check Z X Z X (a global -1) on qubit 0.

    A ``plan`` made for another instance or mode raises ValueError.
    """
    if plan is None:
        plan = plan_layout(instance, mode)
    else:
        _check_plan(plan, instance, mode)
    layout = plan.layout
    circuit = Circuit(layout.num_qubits, measured=layout.data,
                      initial_state=layout.initial_state())

    compute: list[Gate] = []
    if instance.invalid_colors:
        compute.extend(build_invalid_color_detector(plan, instance))
    compute.extend(_edge_phase_gates(plan, layout))

    checks = plan.surviving_slots() + list(layout.valid_flags)
    if checks:
        kickback = [gMCZ(checks[:-1], checks[-1])]
    else:  # nothing to check: every string is marked
        kickback = [gZ(0), gX(0), gZ(0), gX(0)]

    circuit.extend(compute + kickback)
    circuit.extend(g.adjoint() for g in reversed(compute))
    return circuit


def _check_plan(plan: OraclePlan, instance: Instance, mode: str) -> None:
    """Raise ValueError unless ``plan`` was planned for this instance and
    mode.  plan_layout's plan follows from the mode, n, c, the edges and
    whether any color is invalid, so these are compared instead."""
    layout = plan.layout
    edges = sorted(edge for rnd in plan.edge_schedule for edge, _ in rnd.edges)
    if ((plan.mode, layout.n, layout.c, bool(layout.valid_flags), edges)
            != (mode, instance.graph.n, instance.c,
                bool(instance.invalid_colors), instance.graph.sorted_edges())):
        raise ValueError(f"the {plan.mode}-mode plan for {layout.n} vertices "
                         f"does not fit this {mode}-mode instance")


def _edge_phase_gates(plan: OraclePlan, layout: QubitLayout) -> list[Gate]:
    gates: list[Gate] = []
    for rnd in plan.edge_schedule:
        batch: list[Gate] = []
        for (i, j), slot in rnd.edges:
            batch.extend(build_comparator(layout.vertex_qubits(i),
                                          layout.vertex_qubits(j), slot))
        gates.extend(batch)
        if rnd.aggregate_slot is not None:
            # slot holds 1 iff its edge is bichromatic; the MCT drops the
            # |1>-seeded target to 0 on all-good, so an X renormalizes it
            gates.append(gMCT([slot for _, slot in rnd.edges], rnd.aggregate_slot))
            gates.append(gX(rnd.aggregate_slot))
            gates.extend(g.adjoint() for g in reversed(batch))
    return gates
