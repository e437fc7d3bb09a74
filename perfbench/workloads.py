"""The four workloads: seeded inputs, the jobs that drive qkcolor, and the
independent references their outputs are checked against.

A job is one command a user would run (``qkcolor grover``, ``qkcolor
route``, ``qkcolor simulate``, or one oracle check).  ``run`` makes the
package calls in the order the CLI makes them, each through
``Recorder.call``; ``check`` and ``measure`` run afterwards, outside the
timed calls.  ``check`` returns a list of problems, empty when the outputs
are correct; ``measure`` returns exact counts that add up over jobs.

The workload seed fixes a random relabelling of every graph's vertices
and the SABRE seed; qkcolor only ever sees the generated graph text.
"""
from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np

import qkcolor as qk
from qkcolor import classical
from qkcolor.circuit import GateKind
from qkcolor.grover import assemble, make_job

WORKLOADS = ("synth-wide", "route-small", "simulate", "check-small")

# Every key a job's ``measure`` may return; they add up over jobs, except
# oracle.max_arity, which takes the maximum.
COUNT_KEYS = (
    "gates", "two_qubit_gates", "classical.calls",
    "classical.assignments", "oracle.ir_gates", "oracle.max_arity",
    "grover.ir_gates", "grover.iterations", "lowering.gates_in",
    "lowering.gates_out", "routing.gates_in", "routing.two_qubit_in",
    "routing.depth_in", "routing.depth_out", "routing.swaps", "qasm.bytes",
    "qasm.statements", "simulator.run_calls", "simulator.amp_updates",
    "simulator.pattern_calls",
)

SIM_TOL = 1e-6       # success mass against the closed form
FIDELITY_TOL = 1e-9  # lowered against IR Grover state


# ---------------------------------------------------------------- inputs

def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def complete(n):
    return n, list(combinations(range(n), 2))


class GraphInput:
    """A vertex-relabelled graph and the text qkcolor parses it from."""

    def __init__(self, label, graph, rng, fmt):
        n, edges = graph
        perm = list(range(n))
        rng.shuffle(perm)
        self.label = label
        self.n = n
        self.edges = sorted((min(perm[a], perm[b]), max(perm[a], perm[b]))
                            for a, b in edges)
        self.fmt = fmt
        if fmt == "adj":
            rows = [["0"] * n for _ in range(n)]
            for a, b in self.edges:
                rows[a][b] = rows[b][a] = "1"
            self.text = "".join(" ".join(r) + "\n" for r in rows)
        else:
            self.text = f"n {n}\n" + "".join(f"{a} {b}\n" for a, b in self.edges)

    def parse(self, rec, k):
        parser = qk.parse_adjacency if self.fmt == "adj" else qk.parse_edge_list
        graph = rec.call("graphs.parse", parser, self.text)
        return rec.call("graphs.make_instance", qk.make_instance, graph, k)


def coupling_text(name):
    """Coupling-graph file contents, as ``qkcolor route --topology`` reads them."""
    if name == "line13":
        return "13\n" + "".join(f"{i} {i + 1}\n" for i in range(12))
    rows = cols = 4
    pairs = []
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            if c + 1 < cols:
                pairs.append((p, p + 1))
            if r + 1 < rows:
                pairs.append((p, p + cols))
    return f"{rows * cols}\n" + "".join(f"{a} {b}\n" for a, b in pairs)


# ------------------------------------------------------------ references
# Written from the problem statement, sharing no code with qkcolor.

def bits_per_vertex(k):
    return max(1, math.ceil(math.log2(k)))


def proper_colourings(n, edges, k):
    """Bitstrings (vertex 0 first, MSB first) of proper k-colourings,
    found by backtracking rather than by filtering every assignment."""
    c = bits_per_vertex(k)
    earlier = [[a for a, b in edges if b == v] for v in range(n)]
    out = set()

    def extend(colours):
        v = len(colours)
        if v == n:
            out.add("".join(format(x, f"0{c}b") for x in colours))
            return
        for x in range(k):
            if all(colours[u] != x for u in earlier[v]):
                extend(colours + [x])

    extend([])
    return out


def paper_marked(n, edges, k):
    """What the paper-mode oracle marks: every edge joins two different
    bit patterns and an even number of vertices carry an invalid one."""
    c = bits_per_vertex(k)
    mask = (1 << c) - 1
    out = set()
    for x in range(2 ** (n * c)):
        colours = [(x >> ((n - 1 - v) * c)) & mask for v in range(n)]
        if (all(colours[a] != colours[b] for a, b in edges)
                and sum(col >= k for col in colours) % 2 == 0):
            out.add(format(x, f"0{n * c}b"))
    return out


def grover_iterations(N, M):
    return int(math.floor(math.pi / 4 * math.sqrt(N / M)))


def grover_success(N, M, t):
    return math.sin((2 * t + 1) * math.asin(math.sqrt(M / N))) ** 2


def gate_statements(qasm):
    """QASM statements that apply a gate: all lines but the four header
    lines, the measurements and the comments."""
    lines = qasm.count("\n")
    return lines - 4 - qasm.count("\nmeasure ") - qasm.count("\n//")


def two_qubit_gates(circuit):
    return sum(len(g.controls) + len(g.targets) == 2 for g in circuit.gates)


def qubit_timelines(gates, to_logical):
    """Per logical qubit, the gates that touch it in order, each written
    on logical qubits.  Two circuits with equal timelines have the same
    dependency graph and so the same unitary.  ``to_logical`` maps a
    gate's qubits to logical ones and is updated by every SWAP."""
    timelines = {}
    for g in gates:
        if g.kind is GateKind.SWAP:
            a, b = g.targets
            to_logical[a], to_logical[b] = to_logical.get(b), to_logical.get(a)
            continue
        controls = tuple((to_logical.get(c.qubit), c.positive) for c in g.controls)
        targets = tuple(to_logical.get(t) for t in g.targets)
        key = (g.kind, controls, targets, g.angle)
        for q in [q for q, _ in controls] + list(targets):
            timelines.setdefault(q, []).append(key)
    return timelines


def max_arity(circuit):
    return max((len(g.controls) for g in circuit.gates
                if g.kind in (GateKind.MCT, GateKind.MCZ)), default=0)


# ------------------------------------------------------------------ jobs

class Job:
    """Common parts: the graph, k, the lazily built reference, counts."""

    def __init__(self, name, graph, k, mode="strict"):
        self.name = name
        self.graph = graph
        self.k = k
        self.mode = mode
        self._ref = None

    def fingerprint(self, art):
        """Output that must repeat exactly between executions, or None."""
        return None

    @property
    def reference(self):
        if self._ref is None:
            self._ref = proper_colourings(self.graph.n, self.graph.edges, self.k)
        return self._ref

    def _check_job(self, job, problems):
        """M and t of a Grover job against the reference count."""
        M = len(self.reference)
        N = 2 ** (self.graph.n * bits_per_vertex(self.k))
        if job.solution_count != M:
            problems.append(f"M={job.solution_count}, reference {M}")
        elif job.iterations != grover_iterations(N, M):
            problems.append(f"t={job.iterations}, reference "
                            f"{grover_iterations(N, M)}")

    def _classical_counts(self):
        """One ``classical.solutions`` call and the assignments it tries."""
        return {"classical.calls": 1,
                "classical.assignments":
                    2 ** (self.graph.n * bits_per_vertex(self.k))}

    def _grover_counts(self, art):
        job, circ = art["job"], art["circuit"]
        return {"oracle.ir_gates": len(job.oracle.gates),
                "oracle.max_arity": max_arity(job.oracle),
                "grover.ir_gates": len(circ.gates),
                "grover.iterations": job.iterations}


class SynthJob(Job):
    """``qkcolor grover``: graph text to lowered Grover QASM."""

    def run(self, rec):
        inst = self.graph.parse(rec, self.k)
        job = rec.call("grover.make_job", make_job, inst, self.mode)
        circ = rec.call("grover.assemble", assemble, job)
        lowered = rec.call("lowering.lower", qk.lower_circuit, circ)
        qasm = rec.call("qasm.emit", qk.emit_qasm, lowered)
        sols = rec.call("classical.solutions", classical.solutions, inst)
        return {"job": job, "circuit": circ, "lowered": lowered,
                "qasm": qasm, "solutions": sols}

    def fingerprint(self, art):
        return art["qasm"]

    def check(self, art):
        problems = []
        self._check_job(art["job"], problems)
        if art["solutions"] != self.reference:
            problems.append("brute-force solutions differ from the reference")
        lowered = art["lowered"]
        want = sum(lowered.initial_state) + len(lowered.gates)
        got = gate_statements(art["qasm"])
        if got != want:
            problems.append(f"{got} QASM gate statements, expected {want}")
        return problems

    def measure(self, art):
        lowered = art["lowered"]
        counts = {**self._grover_counts(art), **self._classical_counts()}
        counts.update({
            "gates": len(lowered.gates), "two_qubit_gates": two_qubit_gates(lowered),
            "lowering.gates_in": len(art["circuit"].gates),
            "lowering.gates_out": len(lowered.gates),
            "qasm.bytes": len(art["qasm"].encode()),
            "qasm.statements": gate_statements(art["qasm"])})
        return counts


class RouteJob(Job):
    """``qkcolor route``: graph text to routed Grover QASM."""

    def __init__(self, name, graph, k, coupling_name, coupling, sabre_seed):
        super().__init__(name, graph, k)
        self.coupling_name = coupling_name
        self.coupling = coupling
        self.sabre_seed = sabre_seed

    def run(self, rec):
        inst = self.graph.parse(rec, self.k)
        job = rec.call("grover.make_job", make_job, inst, self.mode)
        circ = rec.call("grover.assemble", assemble, job)
        lowered = rec.call("lowering.lower", qk.lower_circuit, circ)
        result = rec.call("routing.route", qk.sabre_route, lowered,
                          self.coupling, self.sabre_seed)
        comments = [f"final_layout: logical {l} -> physical {p}"
                    for l, p in result.final.as_dict().items()]
        qasm = rec.call("qasm.emit", qk.emit_qasm, result.routed,
                        comment_lines=comments)
        ok = rec.call("routing.check", qk.verify_constraints, result.routed,
                      self.coupling)
        return {"job": job, "circuit": circ, "lowered": lowered,
                "result": result, "qasm": qasm, "constraints": ok}

    def fingerprint(self, art):
        return art["qasm"]

    def check(self, art):
        problems = []
        self._check_job(art["job"], problems)
        result, lowered = art["result"], art["lowered"]
        if not art["constraints"]:
            problems.append("routed circuit violates the coupling graph")
        swaps = sum(g.kind is GateKind.SWAP for g in result.routed.gates)
        if (result.swap_count != swaps
                or len(result.routed.gates) != len(lowered.gates) + swaps):
            problems.append(f"{len(result.routed.gates)} routed gates, "
                            f"{len(lowered.gates)} lowered, {swaps} SWAP gates, "
                            f"{result.swap_count} reported swaps")
        want = sum(result.routed.initial_state) + len(result.routed.gates)
        if gate_statements(art["qasm"]) != want:
            problems.append("QASM gate statements differ from routed gates")
        # undo the routing: follow the layout through the SWAPs
        to_logical = {p: l for l, p in result.initial.as_dict().items()}
        unrouted = qubit_timelines(result.routed.gates, to_logical)
        identity = {q: q for q in range(lowered.num_qubits)}
        if unrouted != qubit_timelines(lowered.gates, identity):
            problems.append("routed circuit does not replay the lowered one")
        final = {p: l for p, l in to_logical.items() if l is not None}
        if final != {p: l for l, p in result.final.as_dict().items()}:
            problems.append("final layout differs from the SWAPs applied")
        return problems

    def measure(self, art):
        lowered = art["lowered"].stats()
        routed = art["result"].routed.stats()
        counts = self._grover_counts(art)
        counts.update({
            "gates": routed.gate_count, "two_qubit_gates": routed.two_qubit_count,
            "lowering.gates_in": len(art["circuit"].gates),
            "lowering.gates_out": lowered.gate_count,
            "routing.gates_in": lowered.gate_count,
            "routing.two_qubit_in": lowered.two_qubit_count,
            "routing.depth_in": lowered.depth,
            "routing.depth_out": routed.depth,
            "routing.swaps": art["result"].swap_count,
            "qasm.bytes": len(art["qasm"].encode()),
            "qasm.statements": gate_statements(art["qasm"])})
        return counts


class SimulateJob(Job):
    """``qkcolor simulate``: brute force, Grover circuit, statevector,
    measurement distribution of the data register."""

    def run(self, rec):
        inst = self.graph.parse(rec, self.k)
        sols = rec.call("classical.solutions", classical.solutions, inst)
        art = {"solutions": sols}
        if not sols:
            return art  # "graph is not k-colorable", exit 0
        job = rec.call("grover.make_job", make_job, inst, self.mode)
        circ = rec.call("grover.assemble", assemble, job)
        state = rec.call("simulator.run", qk.run, circ)
        dist = rec.call("simulator.probabilities", qk.probabilities, state,
                        list(range(job.data_width)))
        art.update(job=job, circuit=circ, dist=dist)
        return art

    def check(self, art):
        problems = []
        sols = art["solutions"]
        if sols != self.reference:
            problems.append("brute-force solutions differ from the reference")
        if not self.reference:
            if "job" in art:
                problems.append("non-colourable graph reached the simulator")
            return problems
        job, dist = art["job"], art["dist"]
        self._check_job(job, problems)
        M, N = len(self.reference), 2 ** job.data_width
        mass = sum(dist.get(s, 0.0) for s in self.reference)
        want = grover_success(N, M, job.iterations)
        if abs(mass - want) > SIM_TOL:
            problems.append(f"success mass {mass}, closed form {want}")
        top = sorted(dist, key=lambda b: (-dist[b], b))[:M]
        if set(top) != self.reference:
            problems.append("top-M states are not the proper colourings")
        return problems

    def measure(self, art):
        counts = self._classical_counts()
        if "job" not in art:
            return counts
        circ = art["circuit"]
        counts.update(self._grover_counts(art))
        counts.update({
            "gates": len(circ.gates), "two_qubit_gates": two_qubit_gates(circ),
            "simulator.run_calls": 1,
            "simulator.amp_updates": len(circ.gates) * 2 ** circ.num_qubits})
        return counts


class PatternJob(Job):
    """Phase pattern of one IR oracle against brute force (strict) or the
    paper-mode model; optionally the lowered oracle against the IR one."""

    def __init__(self, name, graph, k, mode, lowered):
        super().__init__(name, graph, k, mode)
        self.lowered = lowered
        self._model = None

    def run(self, rec):
        inst = self.graph.parse(rec, self.k)
        plan = rec.call("oracle.plan", qk.plan_layout, inst, self.mode)
        oracle = rec.call("oracle.build", qk.build_oracle, inst, self.mode, plan)
        pattern = rec.call("simulator.pattern", qk.phase_pattern, oracle,
                           plan.layout)
        sols = rec.call("classical.solutions", classical.solutions, inst)
        art = {"oracle": oracle, "pattern": pattern, "solutions": sols}
        if self.lowered:
            low = rec.call("lowering.lower", qk.lower_circuit, oracle)
            art["lowered"] = low
            art["lowered_pattern"] = rec.call(
                "simulator.pattern", qk.phase_pattern, low, plan.layout,
                allow_global_phase=True)
        return art

    def check(self, art):
        problems = []
        if art["solutions"] != self.reference:
            problems.append("brute-force solutions differ from the reference")
        if self.mode == "strict":
            if art["pattern"] != self.reference:
                problems.append("strict pattern differs from brute force")
        else:
            if self._model is None:
                self._model = paper_marked(self.graph.n, self.graph.edges, self.k)
            if art["pattern"] != self._model:
                problems.append("paper pattern differs from the paper model")
        if self.lowered and art["lowered_pattern"] != art["pattern"]:
            problems.append("lowered oracle pattern differs from the IR one")
        return problems

    def measure(self, art):
        circuits = [art["oracle"]] + ([art["lowered"]] if self.lowered else [])
        counts = {
            "gates": sum(len(c.gates) for c in circuits),
            "two_qubit_gates": sum(two_qubit_gates(c) for c in circuits),
            **self._classical_counts(),
            "oracle.ir_gates": len(art["oracle"].gates),
            "oracle.max_arity": max_arity(art["oracle"]),
            "simulator.pattern_calls": len(circuits)}
        if self.lowered:
            counts["lowering.gates_in"] = len(art["oracle"].gates)
            counts["lowering.gates_out"] = len(art["lowered"].gates)
        return counts


class GroverCheckJob(Job):
    """The lowered Grover circuit against the IR one, in the simulator."""

    def run(self, rec):
        inst = self.graph.parse(rec, self.k)
        job = rec.call("grover.make_job", make_job, inst, self.mode)
        circ = rec.call("grover.assemble", assemble, job)
        lowered = rec.call("lowering.lower", qk.lower_circuit, circ)
        data = list(range(job.data_width))
        states, dists = [], []
        for c in (circ, lowered):
            state = rec.call("simulator.run", qk.run, c)
            states.append(state)
            dists.append(rec.call("simulator.probabilities", qk.probabilities,
                                  state, data))
        return {"job": job, "circuit": circ, "lowered": lowered,
                "states": states, "dists": dists}

    def check(self, art):
        problems = []
        job = art["job"]
        self._check_job(job, problems)
        ir, low = art["states"]
        overlap = abs(np.vdot(ir.amplitudes, low.amplitudes))
        if abs(overlap - 1.0) > FIDELITY_TOL:
            problems.append(f"lowered Grover state overlap {overlap}")
        M, N = len(self.reference), 2 ** job.data_width
        want = grover_success(N, M, job.iterations)
        for dist in art["dists"]:
            if abs(sum(dist.get(s, 0.0) for s in self.reference) - want) > SIM_TOL:
                problems.append("success mass differs from the closed form")
        return problems

    def measure(self, art):
        circuits = [art["circuit"], art["lowered"]]
        counts = self._grover_counts(art)
        counts.update({
            "gates": sum(len(c.gates) for c in circuits),
            "two_qubit_gates": sum(two_qubit_gates(c) for c in circuits),
            "lowering.gates_in": len(art["circuit"].gates),
            "lowering.gates_out": len(art["lowered"].gates),
            "simulator.run_calls": 2,
            "simulator.amp_updates": sum(len(c.gates) * 2 ** c.num_qubits
                                         for c in circuits)})
        return counts


# ------------------------------------------------------------- workloads

def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        yield n, [p for b, p in enumerate(pairs) if mask >> b & 1]


class Workload:
    """Seeded jobs of one workload, plus a warm-up job on a tiny graph."""

    def __init__(self, name, seed, rec):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        rng = random.Random(f"{name}:{seed}")
        self.name = name
        self.sabre_seed = rng.randrange(2 ** 31)
        self.couplings = {}
        build = getattr(self, "_" + name.replace("-", "_"))
        self.jobs, self.warmup = build(rng, rec)

    def _synth_wide(self, rng, rec):
        c5 = GraphInput("C5", cycle(5), rng, "adj")
        jobs = [SynthJob(f"C5-k3-{mode}", c5, 3, mode)
                for mode in ("strict", "paper")]
        warm = SynthJob("P2-k3-strict", GraphInput("P2", path(2), rng, "adj"), 3)
        return jobs, [warm]

    def _route_small(self, rng, rec):
        for name in ("line13", "grid4x4"):
            self.couplings[name] = rec.call("routing.coupling", qk.parse_coupling,
                                            coupling_text(name))
        jobs = []
        for i, (label, graph, k) in enumerate(
                (("K3", complete(3), 3), ("C6", cycle(6), 2), ("K4", complete(4), 4))):
            gi = GraphInput(label, graph, rng, "adj" if i % 2 == 0 else "edg")
            for cname, coupling in self.couplings.items():
                jobs.append(RouteJob(f"{label}-k{k}-{cname}", gi, k, cname,
                                     coupling, self.sabre_seed))
        warm = RouteJob("P2-k2-line13", GraphInput("P2", path(2), rng, "adj"), 2,
                        "line13", self.couplings["line13"], self.sabre_seed)
        return jobs, [warm]

    def _simulate(self, rng, rec):
        cases = (("C4", cycle(4), 3), ("C8", cycle(8), 2), ("P5", path(5), 3),
                 ("K4", complete(4), 3))
        jobs = [SimulateJob(f"{label}-k{k}",
                            GraphInput(label, graph, rng, "adj" if i % 2 == 0 else "edg"),
                            k)
                for i, (label, graph, k) in enumerate(cases)]
        warm = SimulateJob("P2-k3", GraphInput("P2", path(2), rng, "adj"), 3)
        return jobs, [warm]

    def _check_small(self, rng, rec):
        jobs = []
        for n in (2, 3, 4):
            for index, graph in enumerate(all_graphs(n)):
                gi = GraphInput(f"n{n}g{index}", graph, rng,
                                "edg" if index % 2 else "adj")
                jobs.append(PatternJob(f"{gi.label}-k4-strict", gi, 4, "strict",
                                       lowered=False))
                jobs.append(PatternJob(f"{gi.label}-k3-paper", gi, 3, "paper",
                                       lowered=(n == 3 and bool(graph[1]))))
        k3 = GraphInput("K3", complete(3), rng, "adj")
        jobs.append(GroverCheckJob("K3-k3-grover", k3, 3))
        p2 = GraphInput("P2", path(2), rng, "adj")
        warm = [PatternJob("P2-k3-paper", p2, 3, "paper", lowered=True),
                GroverCheckJob("P2-k3-grover", p2, 3)]
        return jobs, warm
