import itertools

import pytest

from conftest import all_graphs, complete_graph, cycle_graph, path_graph
from qkcolor import classical
from qkcolor.circuit import (PERMUTATION_KINDS, Circuit, GateKind, gMCZ,
                             gX, gZ)
from qkcolor.errors import NoInvalidColors, WidthMismatch
from qkcolor.graphs import Graph, make_instance
from qkcolor.oracle import (MODES, build_comparator,
                            build_invalid_color_detector, build_oracle,
                            plan_layout)
from qkcolor.simulator import phase_pattern, run


def test_strict_layout_triangle_k3():
    plan = plan_layout(make_instance(complete_graph(3), 3), "strict")
    layout = plan.layout
    assert list(layout.data) == list(range(6))
    assert list(layout.edge_ancilla) == [6, 7, 8]
    assert layout.valid_flags == range(9, 12)
    assert layout.num_qubits == 12


def test_paper_layout_triangle_k3():
    plan = plan_layout(make_instance(complete_graph(3), 3), "paper")
    layout = plan.layout
    assert layout.valid_flags == range(9, 10)
    assert layout.num_qubits == 10
    # 3 comparator slots + the one shared valid flag
    assert layout.num_qubits - layout.num_data == 4


def test_power_of_two_k_needs_no_invalid_tracking():
    for mode in MODES:
        layout = plan_layout(make_instance(complete_graph(3), 4), mode).layout
        assert not layout.valid_flags


def test_bad_mode_rejected():
    inst = make_instance(complete_graph(3), 3)
    with pytest.raises(ValueError):
        plan_layout(inst, "lenient")


def test_comparator_truth_table():
    # a on qubits 0-1, b on 2-3, flag on 4: flag toggles iff a == b
    gates = build_comparator([0, 1], [2, 3], 4)
    for a, b in itertools.product(range(4), repeat=2):
        bits = [a >> 1, a & 1, b >> 1, b & 1, 0]
        state = run(Circuit(5, initial_state=bits).extend(gates))
        out = [int(x) for x in format(int(abs(state.amplitudes).argmax()), "05b")]
        assert out[:4] == bits[:4], "operands must be restored"
        assert out[4] == (1 if a == b else 0)


def test_comparator_width_mismatch():
    with pytest.raises(WidthMismatch):
        build_comparator([0, 1], [2], 3)


def _detector_output(mode, colors, k=3):
    graph = Graph(len(colors), frozenset())
    inst = make_instance(graph, k)
    plan = plan_layout(inst, mode)
    init = plan.layout.initial_state()
    for v, color in enumerate(colors):
        for pos, q in enumerate(plan.layout.vertex_qubits(v)):
            init[q] = (color >> (inst.c - 1 - pos)) & 1
    circ = Circuit(plan.layout.num_qubits, initial_state=init)
    circ.extend(build_invalid_color_detector(plan, inst))
    idx = int(abs(run(circ).amplitudes).argmax())
    return format(idx, f"0{circ.num_qubits}b"), plan.layout


def test_strict_detector_clears_flags_of_invalid_vertices():
    bits, layout = _detector_output("strict", [3, 3, 1])
    flags = [int(bits[q]) for q in layout.valid_flags]
    assert flags == [0, 0, 1]


def test_paper_detector_is_parity_blind():
    # one invalid vertex clears the shared flag ...
    bits, layout = _detector_output("paper", [3, 0, 1])
    assert [bits[q] for q in layout.valid_flags] == ["0"]
    # ... two invalid vertices cancel out
    bits, layout = _detector_output("paper", [3, 3, 1])
    assert [bits[q] for q in layout.valid_flags] == ["1"]


def test_detector_rejects_power_of_two_k():
    inst = make_instance(complete_graph(3), 4)
    plan = plan_layout(inst, "strict")
    with pytest.raises(NoInvalidColors):
        build_invalid_color_detector(plan, inst)


def test_edge_schedule_aggregates_when_slots_run_out():
    # K4 with k=2: 6 edges against r = min(6, 4) = 4 slots
    plan = plan_layout(make_instance(complete_graph(4), 2))
    rounds = plan.edge_schedule
    assert len(rounds) == 2
    assert len(rounds[0].edges) == 3 and rounds[0].aggregate_slot is not None
    assert len(rounds[1].edges) == 3 and rounds[1].aggregate_slot is None
    surviving = plan.surviving_slots()
    assert rounds[0].aggregate_slot in surviving
    assert len(surviving) == 4


def test_edge_schedule_without_pressure_is_flat():
    plan = plan_layout(make_instance(path_graph(4), 2))
    assert len(plan.edge_schedule) == 1
    assert plan.edge_schedule[0].aggregate_slot is None


@pytest.mark.parametrize("graph_builder,k", [
    (lambda: complete_graph(4), 2),                      # aggregation, M = 0
    (lambda: Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)})), 3),
    (lambda: complete_graph(5), 2),                      # two aggregation rounds
])
def test_aggregated_oracle_matches_brute_force(graph_builder, k):
    inst = make_instance(graph_builder(), k)
    plan = plan_layout(inst, "strict")
    oracle = build_oracle(inst, "strict", plan)
    assert phase_pattern(oracle, plan.layout) == classical.solutions(inst)


def test_oracle_is_self_mirrored():
    inst = make_instance(complete_graph(3), 3)
    oracle = build_oracle(inst, "strict")
    gates = oracle.gates
    half = len(gates) // 2
    assert len(gates) % 2 == 1  # single kickback MCZ in the middle
    assert gates[half].kind is GateKind.MCZ
    for before, after in zip(gates[:half], reversed(gates[half + 1:])):
        assert after == before.adjoint()


def test_paper_oracle_stays_within_gate_budget():
    inst = make_instance(complete_graph(3), 3)
    oracle = build_oracle(inst, "paper")
    assert len(oracle.gates) <= 67


@pytest.mark.parametrize("k", [2, 3])
def test_small_graph_oracles_match_brute_force(k):
    for graph in all_graphs(3):
        inst = make_instance(graph, k)
        plan = plan_layout(inst, "strict")
        oracle = build_oracle(inst, "strict", plan)
        assert phase_pattern(oracle, plan.layout) == classical.solutions(inst)


def _kickback(plan):
    """The kickback build_oracle must write: an MCZ on the final checks,
    the surviving slots then the valid flags, targeting the last, else a
    global -1 as Z X Z X on qubit 0."""
    checks = plan.surviving_slots() + list(plan.layout.valid_flags)
    if checks:
        return [gMCZ(checks[:-1], checks[-1])]
    return [gZ(0), gX(0), gZ(0), gX(0)]


def test_every_oracle_is_permutations_around_one_kickback():
    # phase_pattern tracks oracles of X, CX, MCT, Z, CZ and MCZ as bits,
    # and cli's oracle listing prints no angles.  Every check is a
    # positive control, so each non-data qubit but the idle one starts
    # in |1>.
    checked = {}
    for n in range(1, 5):
        for graph in all_graphs(n):
            for k in range(2, 6):
                for mode in MODES:
                    inst = make_instance(graph, k)
                    plan = plan_layout(inst, mode)
                    oracle = build_oracle(inst, mode, plan)
                    gates = oracle.gates
                    kickback = _kickback(plan)
                    half = (len(gates) - len(kickback)) // 2
                    compute = gates[:half]
                    assert {g.kind for g in compute} <= PERMUTATION_KINDS
                    assert gates[half:len(gates) - half] == kickback
                    assert gates[len(gates) - half:] == \
                        [g.adjoint() for g in reversed(compute)]
                    assert all(c.positive for g in kickback
                               for c in g.controls)
                    layout = plan.layout
                    ancillas = (len(layout.edge_ancilla)
                                + len(layout.valid_flags))
                    idle = layout.num_qubits - layout.num_data - ancillas
                    assert idle in (0, 1)
                    assert oracle.initial_state[layout.num_data:] == \
                        [1] * ancillas + [0] * idle
                    form = len(kickback)
                    checked[form] = checked.get(form, 0) + 1
    # the global -1: the edgeless graphs at k = 2, 4 in both modes
    assert checked == {1: 600 - 16, 4: 16}


def _parent_width(inst, mode):
    """The register with an output qubit: data, comparator slots, the
    invalid-color qubits of the mode, and the output."""
    n, m = inst.graph.n, inst.graph.n * inst.c
    invalid = (n if mode == "strict" else 1) if inst.invalid_colors else 0
    return m + min(inst.graph.num_edges, n) + invalid + 1


def test_register_is_never_wider_than_with_an_output_qubit():
    for n in range(1, 5):
        for graph in all_graphs(n):
            for k in range(2, 8):
                for mode in MODES:
                    inst = make_instance(graph, k)
                    width = plan_layout(inst, mode).layout.num_qubits
                    assert width <= _parent_width(inst, mode), (graph, k, mode)
    for graph, k, mode in ((complete_graph(3), 3, "strict"),
                           (cycle_graph(6), 2, "strict"),
                           (cycle_graph(5), 3, "strict"),
                           (cycle_graph(10), 2, "strict"),
                           (complete_graph(3), 3, "paper")):
        inst = make_instance(graph, k)
        assert plan_layout(inst, mode).layout.num_qubits == \
            _parent_width(inst, mode) - 1


@pytest.mark.parametrize("oracle_mode, layout_mode", [("strict", "paper"),
                                                      ("paper", "strict")])
def test_phase_pattern_refuses_a_layout_of_another_width(oracle_mode,
                                                         layout_mode):
    # K3/k=3: 12 qubits strict, 10 paper
    inst = make_instance(complete_graph(3), 3)
    oracle = build_oracle(inst, oracle_mode)
    layout = plan_layout(inst, layout_mode).layout
    with pytest.raises(WidthMismatch):
        phase_pattern(oracle, layout)


def test_build_oracle_refuses_a_plan_of_another_mode_or_graph():
    inst = make_instance(complete_graph(3), 3)
    with pytest.raises(ValueError, match="paper-mode plan"):
        build_oracle(inst, "strict", plan_layout(inst, "paper"))
    for other in (make_instance(path_graph(3), 3),
                  make_instance(complete_graph(3), 4)):
        with pytest.raises(ValueError):
            build_oracle(inst, "strict", plan_layout(other, "strict"))
    plan = plan_layout(inst, "strict")
    assert build_oracle(inst, "strict", plan).gates == \
        build_oracle(inst, "strict").gates


def _paper_model_pattern(graph, k):
    """The strings a paper-mode oracle marks, from its definition alone:
    every edge joins two different bit patterns, and an even number of
    vertices carry a pattern >= k."""
    c = (k - 1).bit_length()
    marked = set()
    for bits in itertools.product("01", repeat=graph.n * c):
        s = "".join(bits)
        colors = [int(s[v * c:(v + 1) * c], 2) for v in range(graph.n)]
        if (all(colors[i] != colors[j] for i, j in graph.edges)
                and sum(color >= k for color in colors) % 2 == 0):
            marked.add(s)
    return marked


def test_paper_oracle_matches_its_model():
    cases = [(graph, 3) for n in (2, 3, 4) for graph in all_graphs(n)]
    cases += [(graph, k) for k in (5, 6) for n in (2, 3)
              for graph in all_graphs(n)]
    assert len(cases) == 94
    for graph, k in cases:
        inst = make_instance(graph, k)
        plan = plan_layout(inst, "paper")
        oracle = build_oracle(inst, "paper", plan)
        assert phase_pattern(oracle, plan.layout) == \
            _paper_model_pattern(graph, k), (sorted(graph.edges), k)
