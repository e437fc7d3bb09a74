import hashlib
import random

import pytest

from conftest import (LOWERED_POOL, complete_graph, random_circuit,
                      routed_max_error)
from qasm_ref import check_qasm
from qkcolor import routing
from qkcolor.circuit import Circuit, GateKind, gCX, gH, gMCT
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


def test_neighbors_follow_pair_order():
    grid = grid_coupling(3, 3)
    for p in range(grid.num_physical):
        assert tuple(grid.neighbors(p)) == tuple(
            b if a == p else a for a, b in grid.pairs if p in (a, b))


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
    for coupling in (line_coupling(width), grid_coupling(2, (width + 1) // 2)):
        result = sabre_route(circ, coupling, seed=seed)
        assert result.stall_walks > 0
        assert verify_constraints(result.routed, coupling)
        assert routed_max_error(circ, result, coupling.num_physical) < 1e-9


@pytest.fixture(scope="module")
def k3_grover():
    return assemble(make_job(make_instance(complete_graph(3), 3), "strict"))


# K3/k=3 as lower_circuit lowers it (13 qubits, 738 gates), routed with
# seed 0.  A change to any routing or lowering decision must update
# these deliberately.
GOLDEN_ROUTES = {
    "line13": (line_coupling(13), 362,
               (10, 12, 7, 9, 1, 3, 6, 4, 5, 11, 8, 2, 0),
               (11, 10, 8, 5, 4, 3, 9, 7, 6, 12, 2, 1, 0),
               "c0f55e914b853968aa1d00ef2baed3c0424dfc51676bae368ed0b1fd051d8ed5"),
    "grid4x4": (grid_coupling(4, 4), 158,
                (9, 11, 2, 7, 5, 8, 6, 4, 12, 10, 3, 1, 0),
                (10, 14, 8, 6, 0, 1, 13, 9, 5, 7, 3, 4, 2),
                "6234df9477ecd9847a9201d8ee814c16b144b3a79725d6774583ca6afaa91505"),
}


@pytest.mark.parametrize("device", sorted(GOLDEN_ROUTES))
def test_golden_route_k3(k3_grover, device):
    coupling, swaps, initial, final, sha256 = GOLDEN_ROUTES[device]
    lowered = lower_circuit(k3_grover)
    assert (lowered.num_qubits, len(lowered.gates)) == (13, 738)
    result = sabre_route(lowered, coupling, seed=0)
    assert result.swap_count == swaps
    assert sum(g.kind is GateKind.SWAP for g in result.routed.gates) == swaps
    assert result.initial.logical_to_physical == initial
    assert result.final.logical_to_physical == final
    qasm = emit_qasm(result.routed)
    assert hashlib.sha256(qasm.encode()).hexdigest() == sha256


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
