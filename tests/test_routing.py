import hashlib
import random

import pytest

from conftest import (LOWERED_POOL, complete_graph, cycle_graph,
                      random_circuit, ref_route_pass, routed_max_error)
from qasm_ref import check_qasm
from qkcolor import routing
from qkcolor.circuit import Circuit, GateKind, gCX, gH, gMCT, gRZ
from qkcolor.errors import (Disconnected, IndexOutOfRange,
                            TooFewPhysicalQubits, UnloweredGate)
from qkcolor.graphs import make_instance
from qkcolor.grover import assemble, make_job
from qkcolor.lowering import lower_circuit
from qkcolor.qasm import emit_qasm
from qkcolor.routing import (CouplingGraph, grid_coupling, line_coupling,
                             parse_coupling, ring_coupling, sabre_route,
                             verify_constraints)
from qkcolor.simulator import probabilities, run


def test_coupling_constructors():
    line = line_coupling(4)
    assert line.coupled(1, 2) and not line.coupled(0, 3)
    assert line.distance[0][3] == 3

    ring = ring_coupling(5)
    assert ring.coupled(4, 0)
    assert ring.distance[0][3] == 2

    grid = grid_coupling(2, 3)
    assert grid.num_physical == 6
    assert grid.coupled(0, 3) and grid.coupled(1, 2)
    assert grid.distance[0][5] == 3


def test_coupling_validation():
    with pytest.raises(IndexOutOfRange):
        CouplingGraph.from_pairs(2, [(0, 2)])
    with pytest.raises(IndexOutOfRange):
        CouplingGraph.from_pairs(2, [(1, 1)])
    with pytest.raises(Disconnected):
        CouplingGraph.from_pairs(4, [(0, 1), (2, 3)])
    # a device needs at least one qubit, however it is built
    for build in (lambda: line_coupling(0), lambda: grid_coupling(0, 3),
                  lambda: CouplingGraph.from_pairs(-2, [])):
        with pytest.raises(IndexOutOfRange, match="below 1"):
            build()
    # each grid dimension on its own, and a ring of at least two qubits
    for build, message in ((lambda: grid_coupling(-1, -1), "grid rows -1 "),
                           (lambda: grid_coupling(3, -2), "grid cols -2 "),
                           (lambda: ring_coupling(1), "ring size 1 "),
                           (lambda: ring_coupling(0), "ring size 0 ")):
        with pytest.raises(IndexOutOfRange, match=message):
            build()
    assert ring_coupling(2).pairs == frozenset({(0, 1)})


def test_parse_coupling():
    cg = parse_coupling("# line of three\n3\n0 1\n1 2  # tail\n")
    assert cg.num_physical == 3
    assert cg.pairs == frozenset({(0, 1), (1, 2)})
    with pytest.raises(IndexOutOfRange):
        parse_coupling("0 1\n1 2\n")  # missing count line
    for text in ("x\n", "3\n0 a\n", "-2\n", "0\n"):
        with pytest.raises(IndexOutOfRange):
            parse_coupling(text)


def test_parse_coupling_refuses_a_pair_line_of_the_wrong_width():
    for pair_line in ("1", "0 1 2"):
        with pytest.raises(IndexOutOfRange, match="expected 'a b' pair"):
            parse_coupling(f"3\n0 1\n{pair_line}\n")


def test_verify_constraints():
    circ = Circuit(3)
    circ.append(gCX(0, 2))
    assert not verify_constraints(circ, line_coupling(3))
    assert verify_constraints(circ, ring_coupling(3))


def test_distant_cx_costs_at_most_one_swap():
    # the reverse traversal may find a mapping needing no swap at all
    circ = Circuit(3)
    circ.append(gCX(0, 2))
    result = sabre_route(circ, line_coupling(3))
    assert result.swap_count <= 1
    assert verify_constraints(result.routed, line_coupling(3))
    assert routed_max_error(circ, result, 3) < 1e-12


def test_adjacent_circuit_needs_no_swaps():
    circ = Circuit(3)
    circ.extend([gH(0), gCX(0, 1), gCX(1, 2)])
    result = sabre_route(circ, line_coupling(3))
    assert result.swap_count == 0
    assert result.initial.logical_to_physical == result.final.logical_to_physical


def test_rejects_unlowered_input():
    circ = Circuit(3)
    circ.append(gMCT([0, 1], 2))
    with pytest.raises(UnloweredGate):
        sabre_route(circ, line_coupling(3))
    neg = Circuit(2)
    neg.append(gMCT([(0, False)], 1))
    with pytest.raises(UnloweredGate):
        sabre_route(neg, line_coupling(2))
    one = Circuit(2)
    one.append(gMCT([0], 1))
    with pytest.raises(UnloweredGate, match="gate 0 is mct with 1 controls"):
        sabre_route(one, line_coupling(2))


def test_rejects_small_device():
    with pytest.raises(TooFewPhysicalQubits):
        sabre_route(Circuit(4), line_coupling(3))
    with pytest.raises(TooFewPhysicalQubits):
        line_coupling(3).check_width(4)
    line_coupling(3).check_width(3)


def test_neighbors_do_not_depend_on_pair_order():
    pairs = [(i, i + 1) for i in range(12)] + [(0, 5), (3, 9)]
    forward = CouplingGraph.from_pairs(13, pairs)
    backward = CouplingGraph.from_pairs(13, pairs[::-1])
    assert forward.adjacency == backward.adjacency
    assert forward.adjacency[3] == (2, 4, 9)


def test_determinism_per_seed():
    rng = random.Random(99)
    circ = random_circuit(5, 30, rng, pool=LOWERED_POOL)
    coupling = ring_coupling(6)
    first = sabre_route(circ, coupling, seed=13)
    second = sabre_route(circ, coupling, seed=13)
    assert first.routed.gates == second.routed.gates
    assert first.initial == second.initial
    assert first.final == second.final


def test_extra_physical_qubits_stay_idle():
    circ = Circuit(2)
    circ.append(gCX(0, 1))
    result = sabre_route(circ, line_coupling(5))
    assert result.routed.num_qubits == 5
    assert verify_constraints(result.routed, line_coupling(5))
    assert routed_max_error(circ, result, 5) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_random_circuits_route_correctly(seed):
    rng = random.Random(1000 + seed)
    width = rng.randint(4, 7)
    circ = random_circuit(width, 25, rng, pool=LOWERED_POOL)
    for coupling in (line_coupling(width), ring_coupling(width),
                     grid_coupling(2, (width + 1) // 2)):
        result = sabre_route(circ, coupling, seed=seed)
        assert verify_constraints(result.routed, coupling)
        assert routed_max_error(circ, result, coupling.num_physical) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_stall_walk_routes_correctly(monkeypatch, seed):
    # limits of 0 make every blocked step take the stall walk
    monkeypatch.setattr(routing, "STALL_BASE", 0)
    monkeypatch.setattr(routing, "STALL_PER_QUBIT", 0)
    rng = random.Random(2000 + seed)
    width = rng.randint(4, 6)
    circ = random_circuit(width, 25, rng, pool=LOWERED_POOL)
    for device, coupling in (("line", line_coupling(width)),
                             ("grid", grid_coupling(2, (width + 1) // 2))):
        result = sabre_route(circ, coupling, seed=seed)
        assert result.stall_walks > 0
        assert verify_constraints(result.routed, coupling)
        assert routed_max_error(circ, result, coupling.num_physical) < 1e-9
        _assert_route(result, *STALL_ROUTES[seed, device])


def _lowered_ops(rng, width, size):
    """Operand tuples of a random lowered circuit in which each gate
    appears one to three times in a row: runs of 1-qubit gates, and
    back-to-back gates on one pair, whose second gate has both its
    predecessors in the first."""
    ops = []
    for gate in random_circuit(width, size, rng, pool=LOWERED_POOL).gates:
        ops.extend([gate.operands] * rng.choice((1, 1, 2, 3)))
    return ops


def _ladder_lowered(graph, k):
    return lower_circuit(assemble(make_job(make_instance(graph, k), "strict")))


@pytest.mark.parametrize("stall_limits", ["default", "zero"])
def test_drain_matches_the_round_based_pass(monkeypatch, stall_limits):
    """The FIFO drain makes every decision of the round-based pass: on
    random lowered DAGs, forward and reversed, on a line, a ring and a
    grid, both passes commit the same gates and swaps in the same order,
    end on the same layout after the same stall walks, and leave the
    random stream at the same point."""
    if stall_limits == "zero":
        monkeypatch.setattr(routing, "STALL_BASE", 0)
        monkeypatch.setattr(routing, "STALL_PER_QUBIT", 0)
    rng = random.Random(4000)
    swaps = stall_walks = 0
    for _ in range(40):
        width = rng.randint(3, 7)
        ops = _lowered_ops(rng, width, 30)
        # a distinct gate per operand tuple: CX, or RZ by the gate's index
        gates = [gCX(*g) if len(g) == 2 else gRZ(g[0], float(i))
                 for i, g in enumerate(ops)]
        forward = routing._Dag(ops)
        backward = routing._Dag(ops[::-1])
        for dag, dag_gates in ((forward, gates), (backward, gates[::-1])):
            for coupling in (line_coupling(width), ring_coupling(width),
                             grid_coupling(2, (width + 1) // 2)):
                layout = rng.sample(range(coupling.num_physical),
                                    coupling.num_physical)
                seed = rng.randrange(2 ** 32)
                runs = []
                for route_pass in (routing._route_pass, ref_route_pass):
                    sabre_rng = random.Random(seed)
                    l2p, out, walks = route_pass(dag, coupling, layout,
                                                 sabre_rng, dag_gates)
                    runs.append((l2p, out, walks, sabre_rng.random()))
                assert runs[0] == runs[1]
                swaps += len(runs[0][1]) - len(ops)
                stall_walks += runs[0][2]
    assert swaps > 1000
    assert (stall_walks > 100) == (stall_limits == "zero")


@pytest.fixture(scope="module")
def k3_grover():
    return assemble(make_job(make_instance(complete_graph(3), 3), "strict"))


# K3/k=3 as lower_circuit lowers it (12 qubits, 600 gates), routed with
# seed 0.  A change to any routing or lowering decision must update
# these deliberately.
GOLDEN_ROUTES = {
    "line13": (line_coupling(13), 371,
               (8, 10, 5, 7, 2, 4, 1, 0, 11, 9, 6, 3),
               (9, 7, 5, 3, 1, 2, 8, 6, 4, 11, 10, 0),
               "8c27fa387e374f7f1d0929817ee1c6a74d54bf4faff21515a0fbc078eb732088"),
    "grid4x4": (grid_coupling(4, 4), 110,
                (9, 11, 1, 5, 6, 3, 4, 0, 8, 10, 2, 7),
                (0, 8, 2, 6, 10, 7, 4, 1, 5, 9, 3, 11),
                "7bf2d48866e6fed4404a5d9a239101e1a42e736a5bddba4511ee1082e72aabff"),
}


@pytest.mark.parametrize("device", sorted(GOLDEN_ROUTES))
def test_golden_route_k3(k3_grover, device):
    coupling, swaps, initial, final, sha256 = GOLDEN_ROUTES[device]
    lowered = lower_circuit(k3_grover)
    assert (lowered.num_qubits, len(lowered.gates)) == (12, 600)
    result = sabre_route(lowered, coupling, seed=0)
    assert sum(g.kind is GateKind.SWAP for g in result.routed.gates) == swaps
    _assert_route(result, swaps, 0, initial, final, sha256)


# The other route-small instances, and C5/k=3 on devices wider than 16
# qubits, strict at seed 0: (graph, device) -> graph, k, (qubits, lowered
# gates), device, swaps, stall walks, initial and final layouts, QASM
# sha256.
LADDER_ROUTES = {
    ("C5", "grid5x5"): (cycle_graph(5), 3, (20, 2302), grid_coupling(5, 5),
                        726, 0,
                        (19, 8, 12, 10, 15, 6, 2, 0, 9, 17, 13, 16, 7, 3, 4,
                         14, 11, 5, 1, 18),
                        (4, 2, 6, 1, 18, 17, 16, 10, 5, 15, 3, 7, 8, 13, 14,
                         12, 11, 19, 9, 0),
                        "248465d567420adc0a66b94a2ebc5c0e50533388211342e24bc1af2d20944074"),
    ("C5", "ring21"): (cycle_graph(5), 3, (20, 2302), ring_coupling(21),
                       1662, 0,
                       (7, 9, 13, 11, 16, 14, 20, 18, 4, 6, 10, 3, 17, 0, 1,
                        8, 12, 15, 19, 5),
                       (9, 11, 13, 1, 5, 2, 19, 17, 15, 16, 10, 12, 0, 4, 3,
                        20, 18, 6, 7, 14),
                       "ab58792f31bcfc5a8327da602b5617c15bc39d892feec9b51e4649d1e6b1296a"),
    ("C6", "line13"): (cycle_graph(6), 2, (12, 882), line_coupling(13),
                       341, 0,
                       (2, 1, 4, 8, 10, 6, 0, 5, 3, 7, 11, 9),
                       (0, 2, 4, 6, 8, 7, 1, 3, 5, 11, 10, 9),
                       "6f356dd904cfe7d8d4a03ca387dd15b9afe3eaf1fc0b1dd29f9e2074c4c4cad3"),
    ("C6", "grid4x4"): (cycle_graph(6), 2, (12, 882), grid_coupling(4, 4),
                        81, 0,
                        (0, 8, 10, 3, 6, 1, 4, 5, 9, 7, 11, 2),
                        (0, 8, 10, 6, 2, 1, 4, 9, 5, 11, 3, 7),
                        "d3f1c7f49479149c83d049e88d60898aec6ff0c8533a802015c18a1f79d0a5ff"),
    ("K4", "line13"): (complete_graph(4), 4, (13, 918), line_coupling(13),
                       494, 0,
                       (2, 6, 0, 5, 3, 7, 11, 8, 1, 4, 10, 9, 12),
                       (2, 0, 4, 6, 8, 10, 12, 11, 1, 3, 5, 7, 9),
                       "396b66dce675e1ba30d3c73de24831e3d42fc24b2fd85a84b011942d46d6d12e"),
    ("K4", "grid4x4"): (complete_graph(4), 4, (13, 918), grid_coupling(4, 4),
                        183, 0,
                        (11, 0, 10, 4, 7, 8, 14, 1, 9, 5, 6, 2, 3),
                        (10, 8, 13, 4, 11, 2, 0, 1, 9, 5, 6, 7, 3),
                        "e145926630b307aeb33a97aa08282f30e887999702774eea641a970d5d9883ee"),
}

# test_stall_walk_routes_correctly, with both stall limits at 0: (seed,
# device) -> the same fields.
STALL_ROUTES = {
    (0, "line"): (2, 2, (0, 2, 3, 1, 4), (1, 3, 2, 0, 4),
                  "ca617b4d6696700b3f107fb2a4819a61ae98fcf5dbf7dba5f24f25e6451aabf0"),
    (0, "grid"): (3, 3, (0, 2, 1, 3, 4), (1, 2, 0, 3, 4),
                  "a2356895f69bf7cd58188780c1ae2b0f2cccfc505d9c11376e4e603a723386c6"),
    (1, "line"): (5, 4, (2, 0, 4, 5, 3, 1), (2, 0, 5, 3, 1, 4),
                  "e1c4cb8d8970350d5f15614f8a9d19dc40064e2491464551c99c95a8b58be32d"),
    (1, "grid"): (4, 4, (2, 3, 5, 4, 0, 1), (1, 3, 5, 0, 4, 2),
                  "3e4c11fc7b34ee8b014994b409fd15cdfd641663b81efc98db71bca8dc329aa4"),
    (2, "line"): (4, 3, (4, 0, 3, 2, 1, 5), (1, 0, 3, 4, 2, 5),
                  "e354d1c325685d7b0921f135b7cc93aec5f59e813d4c68d6e5b8548426bfa476"),
    (2, "grid"): (2, 2, (2, 3, 1, 4, 0, 5), (0, 3, 2, 4, 1, 5),
                  "40616428cf5532ffefd615a9c50023770ef504db6e184e03dad3a0d28a9304da"),
}


def _assert_route(result, swaps, stall_walks, initial, final, sha256):
    assert result.swap_count == swaps
    assert result.stall_walks == stall_walks
    assert result.initial.logical_to_physical == initial
    assert result.final.logical_to_physical == final
    qasm = emit_qasm(result.routed)
    assert hashlib.sha256(qasm.encode()).hexdigest() == sha256


@pytest.mark.parametrize("graph,device", sorted(LADDER_ROUTES))
def test_golden_route_ladder(graph, device):
    g, k, size, coupling, *pins = LADDER_ROUTES[graph, device]
    lowered = _ladder_lowered(g, k)
    assert (lowered.num_qubits, len(lowered.gates)) == size
    _assert_route(sabre_route(lowered, coupling, seed=0), *pins)


@pytest.mark.parametrize("device", sorted(GOLDEN_ROUTES))
def test_borrowed_route_k3(k3_grover, device):
    """The golden routes are legal on the device and exact."""
    coupling, swaps = GOLDEN_ROUTES[device][:2]
    lowered = lower_circuit(k3_grover)
    result = sabre_route(lowered, coupling, seed=0)
    assert result.swap_count == swaps
    assert verify_constraints(result.routed, coupling)
    assert routed_max_error(lowered, result, coupling.num_physical) < 1e-9


@pytest.mark.parametrize("device", sorted(GOLDEN_ROUTES))
def test_routed_readout_is_the_data_distribution(k3_grover, device):
    """Bit i of the routed QASM's classical register reads data qubit i:
    the Born distribution of the measured physical qubits, in c order,
    equals the IR circuit's data distribution."""
    coupling = GOLDEN_ROUTES[device][0]
    result = sabre_route(lower_circuit(k3_grover), coupling, seed=0)
    measures = check_qasm(emit_qasm(result.routed)).measures
    assert [c for _, c in measures] == list(range(len(measures)))
    got = probabilities(run(result.routed), [q for q, _ in measures])
    want = probabilities(run(k3_grover), range(6))  # 3 vertices, 2 bits each
    assert got.keys() == want.keys()
    assert max(abs(got[s] - want[s]) for s in want) < 1e-9
