"""The Grover search: ``make_job`` works out N, M and t, once, and
``assemble`` writes the data preparation A, then t rounds of the oracle
and the diffusion A^-1 (X, MCZ, X) A."""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import classical
from .circuit import Circuit, Gate, gH, gMCZ, gX
from .errors import NoSolutions
from .graphs import Instance
from .oracle import OraclePlan, build_oracle, plan_layout


@dataclass(frozen=True)
class GroverJob:
    oracle: Circuit
    plan: OraclePlan
    search_size: int  # N, the number of data strings searched
    iterations: int
    solutions: frozenset[str] | None  # None when the iteration count was given

    @property
    def data_width(self) -> int:
        return self.plan.layout.num_data

    @property
    def solution_count(self) -> int | None:
        return None if self.solutions is None else len(self.solutions)


def _prepare(data) -> list[Gate]:
    """The data preparation A: an H on each data qubit, in register order.
    H is its own inverse, so the same gates also write A^-1."""
    return [gH(q) for q in data]


def build_diffusion(data_width: int) -> Circuit:
    """Inversion about the average on ``data_width`` qubits.

    A^-1, X on every qubit, a (m-1)-controlled Z on the last qubit, then
    the X layer and A again.  Equals 2|s><s| - I up to global phase.
    """
    if data_width < 1:
        raise ValueError("diffusion needs at least one qubit")
    m = data_width
    prepare = _prepare(range(m))
    flips = [gX(q) for q in range(m)]
    return Circuit(m).extend(
        prepare + flips + [gMCZ(range(m - 1), m - 1)] + flips + prepare)


def optimal_iterations(N: int, M: int) -> int:
    """floor((pi/4) * sqrt(N/M)); the floor governs even when M >= N/2."""
    if M == 0:
        raise NoSolutions("no marked states: graph is unsatisfiable at this k")
    if not (1 <= M <= N):
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    return int(math.floor((math.pi / 4.0) * math.sqrt(N / M)))


def success_probability(N: int, M: int, t: int) -> float:
    """Closed-form Grover success: sin^2((2t+1) * asin(sqrt(M/N)))."""
    theta = math.asin(math.sqrt(M / N))
    return math.sin((2 * t + 1) * theta) ** 2


def make_job(instance: Instance, mode: str = "strict",
             iterations: int | None = None) -> GroverJob:
    """Resolve the oracle, layout, search size and iteration count.

    M defaults to the brute-force solution count, and the enumerated
    solutions are kept on the job; an explicit iteration override skips
    the enumeration.  An uncolorable instance gets a job with M = 0 and
    t = 0, which ``assemble`` refuses.
    """
    if iterations is not None and iterations < 0:
        raise ValueError(f"iteration count must be >= 0, got {iterations}")
    plan = plan_layout(instance, mode)
    oracle = build_oracle(instance, mode, plan)
    N = 2 ** plan.layout.num_data
    sols: frozenset[str] | None = None
    if iterations is None:
        sols = frozenset(classical.solutions(instance))
        iterations = optimal_iterations(N, len(sols)) if sols else 0
    return GroverJob(oracle=oracle, plan=plan, search_size=N,
                     iterations=iterations, solutions=sols)


def assemble(job: GroverJob) -> Circuit:
    """State preparation followed by t repetitions of oracle + diffusion.

    The register starts in |0...0>; ancilla/output qubits declared |1> by
    the layout are set with explicit X gates, so the circuit is
    self-contained.  A job that counted no solutions raises NoSolutions.
    """
    if job.solution_count == 0:
        raise NoSolutions("no marked states: graph is unsatisfiable at this k")
    layout = job.plan.layout
    circ = Circuit(layout.num_qubits, measured=layout.data,
                   initial_state=[0] * layout.num_qubits)
    circ.extend([gX(q) for q, bit in enumerate(layout.initial_state()) if bit])
    circ.extend(_prepare(layout.data))
    circ.append(gH(layout.output))

    diffusion = build_diffusion(job.data_width)
    for _ in range(job.iterations):
        circ.extend(job.oracle.gates)
        circ.extend(diffusion.gates)  # data qubits are indices 0..m-1
    return circ
