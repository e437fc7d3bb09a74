"""The Grover search: ``make_job`` works out N, M and t, once, and
``assemble`` writes the data preparation A, then t rounds of the oracle,
which marks by phase alone, and the diffusion A^-1 (X, MCZ, X) A.

The oracle returns every non-data qubit to its declared state, so the
diffusion's MCZ on m-1 controls runs as an AND chain on m-3 of them as
clean ancillas where the layout has that many (m >= 4): 14(m-3)+13
gates lowered, 6m-12 of them 2-qubit, plus 2 X per ancilla that holds
1, against 28m-82 and 12m-34 on borrowed qubits."""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import classical
from .circuit import Circuit, Gate, gH, gMCT, gMCZ, gX
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


def build_diffusion(data_width: int, clean=()) -> Circuit:
    """Inversion about the average on the data qubits 0..m-1.

    A^-1, X on every data qubit, a Z on qubit m-1 controlled by the
    other m-1, then the X layer and A again: 2|s><s| - I up to global
    phase.  ``clean`` lists (qubit, declared bit) pairs outside the data
    that hold their bit whenever the diffusion runs.  With m >= 4 and at
    least m-3 of them, the first m-3 are clean ancillas for an AND
    chain: X on those that hold 1, a0 = c0 AND c1, then
    ai = c(i+1) AND a(i-1), a Z on m-1 controlled by the last AND and
    c(m-2), and the chain and X gates mirrored.  That is a mirror window,
    so it lowers to 14(m-3)+13 gates, 6m-12 of them 2-qubit, plus 2 X per
    ancilla that holds 1, and returns every ancilla.  Otherwise it is one
    MCZ on m-1 controls, which the lowering writes on borrowed qubits:
    28m-82 gates, 12m-34 of them 2-qubit, where m-3 are free.
    """
    if data_width < 1:
        raise ValueError("diffusion needs at least one qubit")
    m = data_width
    clean = list(clean)
    if any(q < m for q, _ in clean):
        raise ValueError(f"clean qubits {clean} must lie outside the data "
                         f"qubits 0..{m - 1}")
    chain = clean[:m - 3] if m >= 4 and len(clean) >= m - 3 else []
    width = max([m] + [q + 1 for q, _ in chain])
    initial = [0] * width
    for q, bit in chain:
        initial[q] = bit
    if chain:
        anc = [q for q, _ in chain]
        seeds = [gX(q) for q, bit in chain if bit]
        ands = [gMCT([0, 1], anc[0])] + [
            gMCT([i + 1, anc[i - 1]], anc[i]) for i in range(1, m - 3)]
        mcz = (seeds + ands + [gMCZ([anc[-1], m - 2], m - 1)]
               + ands[::-1] + seeds[::-1])
    else:
        mcz = [gMCZ(range(m - 1), m - 1)]
    prepare = _prepare(range(m))
    flips = [gX(q) for q in range(m)]
    return Circuit(width, initial_state=initial).extend(
        prepare + flips + mcz + flips + prepare)


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

    The register starts in the layout's declared state, its edge ancillas
    and valid flags in |1>; ``emit_qasm`` writes that start as X gates.
    A job that counted no solutions raises NoSolutions.
    """
    if job.solution_count == 0:
        raise NoSolutions("no marked states: graph is unsatisfiable at this k")
    layout = job.plan.layout
    init = layout.initial_state()
    circ = Circuit(layout.num_qubits, measured=layout.data,
                   initial_state=init)
    circ.extend(_prepare(layout.data))

    # between rounds every non-data qubit holds its declared bit
    diffusion = build_diffusion(job.data_width, [
        (q, init[q]) for q in range(job.data_width, layout.num_qubits)])
    for _ in range(job.iterations):
        circ.extend(job.oracle.gates)
        circ.extend(diffusion.gates)  # data qubits are indices 0..m-1
    return circ
