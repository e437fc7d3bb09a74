"""Grover-search circuit synthesis for graph k-coloring.

Pipeline: graph + k  ->  comparator-based phase oracle  ->  full Grover
circuit  ->  lowering to 1-/2-qubit gates  ->  SABRE routing onto a
coupling graph  ->  OpenQASM 2.0, verified end to end by an embedded
statevector simulator against brute-force coloring enumeration.
"""

from .circuit import Circuit, Control, Gate, GateKind, QubitLayout, Role
from .classical import is_proper, solutions
from .graphs import (Graph, Instance, make_instance, parse_adjacency,
                     parse_edge_list, parse_graph_file)
from .grover import (assemble, build_diffusion, make_job, optimal_iterations,
                     success_probability)
from .lowering import lower_circuit
from .oracle import (OraclePlan, build_comparator,
                     build_invalid_color_detector, build_oracle, plan_layout)
from .qasm import emit_qasm
from .routing import (CouplingGraph, Mapping, RoutingResult, grid_coupling,
                      line_coupling, parse_coupling, ring_coupling,
                      sabre_route, verify_constraints)
from .simulator import (Statevector, phase_pattern, probabilities, run,
                        run_batch, unitary_of)

__version__ = "0.1.0"
