import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from click.testing import CliRunner

from conftest import complete_graph, path_graph
from qasm_ref import check_qasm
import qkcolor
from qkcolor import classical, cli, errors, grover, oracle
from qkcolor.cli import main
from qkcolor.graphs import make_instance
from qkcolor.lowering import lower_circuit
from qkcolor.reports import validate_report

K3_ADJ = "0 1 1\n1 0 1\n1 1 0\n"
P3_ADJ = "0 1 0\n1 0 1\n0 1 0\n"
LINE7_CPL = "7\n" + "".join(f"{i} {i + 1}\n" for i in range(6))


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.adj"
    path.write_text(K3_ADJ)
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.adj"
    path.write_text(P3_ADJ)
    return str(path)


def _json_head(output: str) -> dict:
    """Parse the leading JSON object of mixed CLI output."""
    decoder = json.JSONDecoder()
    start = output.index("{")
    report, _ = decoder.raw_decode(output[start:])
    return report


def test_synth(runner, k3_file, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["synth", k3_file, "--k", "3",
                                  "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    report = _json_head(result.output)
    validate_report(report)
    assert report["qubits"]["data"] == 6
    assert report["qubits"]["total"] == 12
    assert "idle" not in report["qubits"]
    assert report["invalid_colors"] == [3]
    assert (out / "k3.oracle.txt").exists()
    assert (out / "k3.synth.json").exists()
    check_qasm((out / "k3.oracle.qasm").read_text())


def test_synth_paper_mode(runner, k3_file, tmp_path):
    result = runner.invoke(main, ["synth", k3_file, "--k", "3",
                                  "--mode", "paper",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    report = _json_head(result.output)
    assert report["qubits"]["total"] == 10
    assert report["qubits"]["invalid_ancilla"] == 1


def test_synth_reports_a_kept_idle_qubit(runner, tmp_path):
    # K4/k=4 keeps one idle qubit: beside 8 data qubits, its 4 slots are
    # 4 of the m - 3 = 5 clean ancillas the diffusion's AND chain needs
    k4 = tmp_path / "k4.adj"
    k4.write_text("".join(" ".join("0" if i == j else "1" for j in range(4))
                          + "\n" for i in range(4)))
    result = runner.invoke(main, ["synth", str(k4), "--k", "4",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    qubits = _json_head(result.output)["qubits"]
    assert qubits == {"data": 8, "edge_ancilla": 4, "idle": 1, "total": 13}


def test_grover(runner, k3_file, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["grover", k3_file, "--k", "3",
                                  "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    report = _json_head(result.output)
    assert report["N"] == 64 and report["M"] == 6
    assert report["iterations"] == 2
    check_qasm((out / "k3.grover.qasm").read_text())


def test_grover_uncolorable_exits_zero(runner, k3_file, tmp_path):
    result = runner.invoke(main, ["grover", k3_file, "--k", "2",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert "not 2-colorable" in result.output


def test_grover_report_requires_integer_gate_counts(runner, k3_file,
                                                    tmp_path):
    result = runner.invoke(main, ["grover", k3_file, "--k", "3",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    report = _json_head(result.output)
    validate_report(report)
    without = {key: v for key, v in report.items() if key != "gate_counts"}
    for bad in (without, {**report, "gate_counts": {}},
                {**report, "gate_counts": {"pre_lowering": "x"}},
                {**report, "gate_counts": {"pre_lowering": 1,
                                           "post_lowering": 2.5}}):
        with pytest.raises(jsonschema.ValidationError):
            validate_report(bad)


def test_basis_cx_on_synth_and_grover(runner, p3_file, tmp_path):
    # P3/k=2's kickback is a 1-control MCZ, written as cx in h: unrouted
    # circuits are all x h z ry rz cx, so neither command takes --basis
    out = tmp_path / "out"
    for command in ("synth", "grover"):
        result = runner.invoke(main, [command, p3_file, "--k", "2",
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [command, p3_file, "--k", "2",
                                      "--basis", "cx",
                                      "--out-dir", str(tmp_path / "cx")])
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output and "--basis" in result.output
    assert not (tmp_path / "cx").exists()
    for qasm in ("p3.oracle.qasm", "p3.grover.qasm"):
        parsed = check_qasm((out / qasm).read_text())
        names = {name for name, _, _ in parsed.gates}
        assert "h" in names and names <= {"x", "h", "z", "ry", "rz", "cx"}
        two_qubit = {name for name, ops, _ in parsed.gates if len(ops) == 2}
        assert two_qubit == {"cx"}, qasm


def test_route(runner, p3_file, tmp_path):
    topo = tmp_path / "line7.cpl"
    topo.write_text(LINE7_CPL)
    out = tmp_path / "out"
    result = runner.invoke(main, ["route", p3_file, "--k", "2",
                                  "--topology", str(topo),
                                  "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    report = _json_head(result.output)
    assert report["constraints_satisfied"] is True
    assert report["num_physical"] == 7
    assert report["stall_walks"] == 0
    text = (out / "p3.routed.qasm").read_text()
    check_qasm(text)
    assert "final_layout" in text


def test_simulate(runner, p3_file, tmp_path):
    result = runner.invoke(main, ["run", p3_file, "--k", "2",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    report = _json_head(result.output)
    assert report["colorable"] is True
    assert report["solution_match"] is True
    assert report["success_probability"] == pytest.approx(1.0)
    assert "|010>" in result.output or "|101>" in result.output


def test_run_full_pipeline(runner, p3_file, tmp_path):
    topo = tmp_path / "line7.cpl"
    topo.write_text(LINE7_CPL)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", p3_file, "--k", "2",
                                  "--topology", str(topo),
                                  "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "p3.run.json").read_text())
    validate_report(report)
    assert report["solution_match"] is True
    assert report["routing"]["constraints_satisfied"] is True
    check_qasm((out / "p3.routed.qasm").read_text())


def test_run_schema_routing_is_null_or_a_route_report(runner, p3_file,
                                                      tmp_path):
    topo = tmp_path / "line7.cpl"
    topo.write_text(LINE7_CPL)
    result = runner.invoke(main, ["run", p3_file, "--k", "2",
                                  "--topology", str(topo),
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    report = _json_head(result.output)
    validate_report(report)
    validate_report({**report, "routing": None})
    for bad in ({}, {"report_type": "route", "swap_count": 1}, "x"):
        with pytest.raises(jsonschema.ValidationError):
            validate_report({**report, "routing": bad})


@pytest.mark.parametrize("command", ["route", "run"])
def test_basis_cx_holds_after_routing(runner, p3_file, tmp_path, command):
    # the router's swaps are expanded too: cx is the only 2-qubit gate
    topo = tmp_path / "line7.cpl"
    topo.write_text(LINE7_CPL)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, p3_file, "--k", "2",
                                  "--topology", str(topo), "--basis", "cx",
                                  "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    report = _json_head(result.output)
    routing = report if command == "route" else report["routing"]
    assert routing["swap_count"] > 0
    parsed = check_qasm((out / "p3.routed.qasm").read_text())
    two_qubit = [name for name, ops, _ in parsed.gates if len(ops) == 2]
    assert set(two_qubit) == {"cx"}
    job = grover.make_job(make_instance(path_graph(3), 2))
    lowered = lower_circuit(grover.assemble(job), "cx")
    assert len(two_qubit) == (lowered.stats().two_qubit_count
                              + 3 * routing["swap_count"])


def test_basis_cx_routes_the_default_lowering(runner, k3_file, tmp_path):
    # the router places the default-basis lowering, and --basis cx
    # expands its swaps afterwards, on the pairs they occupy
    topo = tmp_path / "line13.cpl"
    topo.write_text("13\n" + "".join(f"{i} {i + 1}\n" for i in range(12)))
    swaps = {}
    for basis in ("default", "cx"):
        result = runner.invoke(main, ["route", k3_file, "--k", "3",
                                      "--topology", str(topo), "--seed", "0",
                                      "--basis", basis,
                                      "--out-dir", str(tmp_path / basis)])
        assert result.exit_code == 0, result.output
        swaps[basis] = _json_head(result.output)["swap_count"]
    assert swaps["cx"] == swaps["default"] > 0


def test_report_does_not_follow_the_hash_seed(tmp_path):
    # C4 with k = 3 has 18 colorings; summed in set order, the last digit
    # of success_probability changed between hash seeds 1 and 2.
    graph = tmp_path / "c4.adj"
    graph.write_text("0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n")
    src = os.path.dirname(os.path.dirname(qkcolor.__file__))
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-c", "from qkcolor.cli import main; main()",
             "run", str(graph), "--k", "3", "--out-dir", str(out)],
            env=env, capture_output=True, check=True)
        reports.append((out / "c4.run.json").read_bytes())
    assert json.loads(reports[0])["M"] == 18
    assert reports[0] == reports[1]


# "simulate" runs without --topology, so the circuit is only simulated;
# "run" adds a device and so also routes
@pytest.mark.parametrize("topology", [False, True], ids=["simulate", "run"])
@pytest.mark.parametrize("graph, k", [("p3", "2"), ("k3", "2")])
def test_simulation_enumerates_and_plans_once(runner, p3_file, k3_file,
                                              tmp_path, monkeypatch,
                                              topology, graph, k):
    calls = {"solutions": 0, "plan_layout": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(classical, "solutions",
                        counted("solutions", classical.solutions))
    plan_layout = counted("plan_layout", oracle.plan_layout)
    for module in (oracle, grover, cli):
        monkeypatch.setattr(module, "plan_layout", plan_layout)
    args = ["run", p3_file if graph == "p3" else k3_file, "--k", k,
            "--out-dir", str(tmp_path / "o")]
    if topology:
        topo = tmp_path / "line7.cpl"
        topo.write_text(LINE7_CPL)
        args += ["--topology", str(topo)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert calls == {"solutions": 1, "plan_layout": 1}


@pytest.mark.parametrize("command", ["run", "route"])
def test_small_device_fails_before_the_work(runner, k3_file, tmp_path,
                                            monkeypatch, command):
    # K3/k=3 needs 12 qubits; the line has 7
    calls = {"simulate": 0, "lower": 0}

    def never(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            raise AssertionError(f"{name} called")
        return wrapper

    monkeypatch.setattr(cli, "simulate_circuit", never("simulate"))
    monkeypatch.setattr(cli, "lower_circuit", never("lower"))
    topo = tmp_path / "line7.cpl"
    topo.write_text(LINE7_CPL)
    result = runner.invoke(main, [command, k3_file, "--k", "3",
                                  "--topology", str(topo),
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "TooFewPhysicalQubits" in result.output
    assert calls == {"simulate": 0, "lower": 0}


def test_run_uncolorable(runner, k3_file, tmp_path):
    result = runner.invoke(main, ["run", k3_file, "--k", "2",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert "not 2-colorable" in result.output
    report = json.loads((tmp_path / "o" / "k3.run.json").read_text())
    assert report["colorable"] is False and report["M"] == 0


@pytest.mark.parametrize("command", ["grover", "run"])
@pytest.mark.parametrize("k, iterations", [("3", None), ("2", None),
                                           ("2", "1")],
                         ids=["colorable", "uncolorable", "uncolorable-t1"])
def test_reports_read_the_search_from_the_job(runner, k3_file, tmp_path,
                                              command, k, iterations):
    job = grover.make_job(make_instance(complete_graph(3), int(k)),
                          iterations=None if iterations is None
                          else int(iterations))
    args = [command, k3_file, "--k", k, "--out-dir", str(tmp_path / "o")]
    if iterations is not None:
        args += ["--iterations", iterations]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    path = tmp_path / "o" / f"k3.{command}.json"
    if command == "grover" and job.solution_count == 0:
        assert "not 2-colorable" in result.output and not path.exists()
        return
    report = json.loads(path.read_text())
    assert report["N"] == job.search_size
    assert report["iterations"] == job.iterations
    if command == "run":
        # with --iterations an uncolorable graph is still assembled and run
        assert bool(report["top_states"]) == (job.solution_count != 0)


def test_uncolorable_success_probability_is_a_float(runner, k3_file,
                                                    tmp_path):
    # with --iterations the circuit is simulated though no coloring exists
    result = runner.invoke(main, ["run", k3_file, "--k", "2",
                                  "--iterations", "1",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert '"success_probability": 0.0,' in result.output
    report = _json_head(result.output)
    assert report["colorable"] is False
    assert isinstance(report["success_probability"], float)


def test_missing_file_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["synth", "missing.adj", "--k", "3",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output


def test_invalid_k_exits_2(runner, k3_file, tmp_path):
    result = runner.invoke(main, ["synth", k3_file, "--k", "1",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output


def test_negative_iterations_exit_2(runner, k3_file, tmp_path):
    result = runner.invoke(main, ["grover", k3_file, "--k", "3",
                                  "--iterations", "-1",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output


def test_malformed_graph_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.adj"
    bad.write_text("0 1\n1 1\n")
    result = runner.invoke(main, ["synth", str(bad), "--k", "2",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output


def test_resource_limit_exits_3(runner, tmp_path):
    # C10 at k = 4 has 20 data qubits: their H layer holds 2**20
    # amplitudes, and the diffusion's first H could double them past the
    # simulator's limit
    c10 = tmp_path / "c10.edg"
    c10.write_text("".join(f"{i} {(i + 1) % 10}\n" for i in range(10)))
    result = runner.invoke(main, ["run", str(c10), "--k", "4",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    assert ("TooLarge: H on 1048576 held amplitudes could pass the "
            "1048576-amplitude limit") in result.output


def test_run_past_24_qubits(runner, tmp_path):
    # K5 at k = 5 in strict mode needs 26 qubits, but holds at most 2**15
    # amplitudes, one per string of its 15 data qubits
    k5 = tmp_path / "k5.adj"
    k5.write_text("".join(" ".join("0" if i == j else "1" for j in range(5)) + "\n"
                          for i in range(5)))
    result = runner.invoke(main, ["run", str(k5), "--k", "5",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    report = _json_head(result.output)
    assert report["solution_match"] is True
    want = grover.success_probability(report["N"], report["M"],
                                      report["iterations"])
    assert (report["N"], report["M"]) == (2 ** 15, 120)
    assert abs(report["success_probability"] - want) < 1e-9


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_has_one_exit_code(runner, k3_file, tmp_path,
                                       monkeypatch):
    bases = {errors.InputError: 2, errors.ResourceLimit: 3}
    leaves = set(_subclasses(errors.QKColorError)) - set(bases)
    assert errors.AncillaLeak in leaves and errors.TooLarge in leaves
    for cls in sorted(leaves, key=lambda c: c.__name__):
        codes = [code for base, code in bases.items() if issubclass(cls, base)]
        if cls is errors.NoSolutions:
            assert codes == []
            continue
        assert len(codes) == 1, cls

        def fail(*args, cls=cls):
            raise cls("injected")
        monkeypatch.setattr(cli, "_load_instance", fail)
        result = runner.invoke(main, ["synth", k3_file, "--k", "3",
                                      "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == codes[0], (cls, result.output)
        assert f"error: {cls.__name__}: injected" in result.output


@pytest.mark.parametrize("args, named", [
    (["run", "--basis", "cx"], ["--basis"]),
    (["run", "--basis", "cx", "--seed", "5"], ["--basis", "--seed"]),
    (["run", "--seed", "0"], ["--seed"]),
])
def test_ignored_option_is_a_usage_error(runner, p3_file, tmp_path, args,
                                         named):
    out = tmp_path / "o"
    result = runner.invoke(main, [args[0], p3_file, "--k", "2", *args[1:],
                                  "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output
    for option in named:
        assert option in result.output
    assert not out.exists()


def test_cost_table(runner):
    result = runner.invoke(main, ["cost", "--k", "3",
                                  "--vertices-range", "2", "10"])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [int(r["n"]) for r in rows] == list(range(2, 11))
    for row in rows:
        n = int(row["n"])
        assert int(row["data_qubits"]) == 2 * n          # ceil(log2 3) = 2
        assert int(row["baseline_data_qubits"]) == 3 * n
        assert int(row["baseline_ancilla_qubits"]) == (3 * n) ** 2
        instance = make_instance(complete_graph(n), 3)
        circ = oracle.build_oracle(instance, "paper",
                                   oracle.plan_layout(instance, "paper"))
        assert row["oracle_gates_lowered"] != ""
        assert int(row["oracle_gates_lowered"]) == len(lower_circuit(circ).gates)
    # triangle: 3 edge slots + the one shared valid flag
    assert int(rows[1]["ancilla_qubits"]) == 4


def test_cost_out_creates_its_directory(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["cost", "--k", "3", "--vertices-range",
                                  "2", "3", "--out", "newdir/t.csv"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "newdir" / "t.csv").read_text() == result.output
    result = runner.invoke(main, ["cost", "--k", "3", "--vertices-range",
                                  "2", "3", "--out", "t.csv"])
    assert (tmp_path / "t.csv").read_text() == result.output


def test_cost_rejects_bad_range(runner):
    result = runner.invoke(main, ["cost", "--k", "3",
                                  "--vertices-range", "5", "2"])
    assert result.exit_code == 2, result.output


# Golden outputs: every subcommand over four inputs, with the written
# files and the integer-only stdout pinned by sha256.  run prints floats
# that may differ in the last digits between numpy builds, so its
# reports are pinned with the probabilities and bitstrings blanked, and
# those are compared with GOLDEN_RUNS within 1e-12.  Every subcommand
# but cost has a row per input; cost has one of its own.
GOLDEN_INPUTS = {
    "k3-3-strict": ("k3", "3", "strict"),
    "k3-3-paper": ("k3", "3", "paper"),
    "p3-2": ("p3", "2", "strict"),
    "k3-2": ("k3", "2", "strict"),
}
GOLDEN_COMMANDS = {
    "synth": ["synth"],
    "grover": ["grover"],
    "route-default": ["route", "--topology", "line13.cpl"],
    "route-cx": ["route", "--topology", "line13.cpl", "--basis", "cx"],
    "run": ["run"],
    "run-line13": ["run", "--topology", "line13.cpl"],
}
# routing is most of the test's time; paper mode routes like strict mode
GOLDEN_UNROUTED = {"k3-3-paper"}
# success probability, top-state bitstrings, top-state probabilities
_K3_RUN = (0.9997787475585884,
           "000110 001001 010010 011000 100001 100100 "
           "100110 100101 101011 101001",
           [0.16662979125976474] * 6 + [3.814697265625e-06] * 4)
GOLDEN_RUNS = {
    "k3-3-strict": _K3_RUN,
    "k3-3-paper": _K3_RUN,
    "p3-2": (1.0, "010 101 000 001 011 100 110 111", [0.5] * 2 + [0.0] * 6),
    "k3-2": (None, "", []),
}
GOLDEN_SHA256 = """
k3-3-strict synth k3.oracle.qasm efb812efc6d73c9b02a4f6909d173e3a2a1d680e960c64e33dea981540782d62
k3-3-strict synth k3.oracle.txt 7abd032e90232657bdc55e0a5d1e3258004672bdaf4dceaea4b547cbc4099cfc
k3-3-strict synth k3.synth.json 4c92e3cab36eb73a596636739123226ae79a9915d70ac56a6dacf5ed688d7abe
k3-3-strict synth stdout 4c92e3cab36eb73a596636739123226ae79a9915d70ac56a6dacf5ed688d7abe
k3-3-strict grover k3.grover.json bc896ff012bfa8dc0d3e328dc11096a6c7035ab481af66b88631fe4996d93343
k3-3-strict grover k3.grover.qasm 29f98a725522716bc6082efed7cef07486b35e782507abc7da6bf2afaddbfbbd
k3-3-strict grover stdout bc896ff012bfa8dc0d3e328dc11096a6c7035ab481af66b88631fe4996d93343
k3-3-strict route-default k3.routed.qasm cad6b6a2e445779d5c88ac032cc863b52f4d28bd7d7524f50584600e8361008f
k3-3-strict route-default stdout 8c33ea25b7e778ae315f092dce07b839a8e45d9af318ac07fe01f5bb1534c1e1
k3-3-strict route-cx k3.routed.qasm e9aa1cba390f89c09ab402b3a0b8e098cf0ffec03ed68c398896eb4a5a4d58b3
k3-3-strict route-cx stdout 8c33ea25b7e778ae315f092dce07b839a8e45d9af318ac07fe01f5bb1534c1e1
k3-3-strict run stdout 42be0b5b17eac86479b30edc25e7be925f887417aed896f4a5e4d3ec955fa671
k3-3-strict run-line13 k3.routed.qasm cad6b6a2e445779d5c88ac032cc863b52f4d28bd7d7524f50584600e8361008f
k3-3-strict run-line13 stdout acffc44410e6f6e4663121283b0bdec299fc42c91006a8ab22bbb93eef936951
k3-3-paper synth k3.oracle.qasm 48f2386c9d438f296f691c33951381ddec0f0c67414a76e1934460560a044057
k3-3-paper synth k3.oracle.txt 911ed58a2caaaa614879639754e2237be132896bac8e29d62b960e465c5e1c37
k3-3-paper synth k3.synth.json d95fb71c721f56b3a9842d94ad0f99d866ba4fad974a659071c16275d1efdaa7
k3-3-paper synth stdout d95fb71c721f56b3a9842d94ad0f99d866ba4fad974a659071c16275d1efdaa7
k3-3-paper grover k3.grover.json bbfe35c64e14a6927f1cce836213f0d418f381e5580ae1fb4a32219ab1b22da7
k3-3-paper grover k3.grover.qasm b70af6b619ce2f5beec438e756939feec48a1a48592b1f8591866ea7224eb89b
k3-3-paper grover stdout bbfe35c64e14a6927f1cce836213f0d418f381e5580ae1fb4a32219ab1b22da7
k3-3-paper run stdout 67c5b9ab6b70fab0f2dbcb79d040a3bc9e9ff14a5d313ab2bb402d60f7a97df0
p3-2 synth p3.oracle.qasm 7f6d21ad86b57eba16775d986538ecb71f40c6b606564199401bf43acb0f05d0
p3-2 synth p3.oracle.txt 99f0276bec32ee3bcc88693cf6d14c5a815a0d9bc571b99d5622422c6b283967
p3-2 synth p3.synth.json 41cd597a5cf8974fe96ff8c255c129ba4f815def3b0019deddde800dfbeda419
p3-2 synth stdout 41cd597a5cf8974fe96ff8c255c129ba4f815def3b0019deddde800dfbeda419
p3-2 grover p3.grover.json d87590bb8bd001d89911ddb7642b2a8255c773956d6157c612fac4d3ddf026b7
p3-2 grover p3.grover.qasm c05ce3733f86e16232003ce4d8d975270221b85189b64f7f3a3fcafd19fd8915
p3-2 grover stdout d87590bb8bd001d89911ddb7642b2a8255c773956d6157c612fac4d3ddf026b7
p3-2 route-default p3.routed.qasm 3525b9417fbb6d6b7f70fb5ff9de86e594c3654b32d26c4b35e7d42a1ce4c83c
p3-2 route-default stdout fd39bd0b2125ccd7fa968e3709c9af1be12648587dc39a7acf297bcdf1c77e6b
p3-2 route-cx p3.routed.qasm 19ace4b24e932352bc635bbd0a6339ba72b247effb05c708c28edee1ceb19cc3
p3-2 route-cx stdout fd39bd0b2125ccd7fa968e3709c9af1be12648587dc39a7acf297bcdf1c77e6b
p3-2 run stdout 8fc046293d3d6579e82cb799a1a7e218077afa20735dc8099e49790e8b07e661
p3-2 run-line13 p3.routed.qasm 3525b9417fbb6d6b7f70fb5ff9de86e594c3654b32d26c4b35e7d42a1ce4c83c
p3-2 run-line13 stdout c3847be0c8922cba97a419436c3e3e1f00e7096b27deeb8072d9e640914f5272
k3-2 synth k3.oracle.qasm 5432c4cd4205c33c077a4bde7039a7aeaab383d39d284b1ce09127e0bbf512ea
k3-2 synth k3.oracle.txt 00a9c904948b380b5fe1b841bc885b6acbcca133428987e2a2eb09867a5bcc12
k3-2 synth k3.synth.json 766f6a6b49c90a229d8272833c02fcdd34d34a00d400a5ae06d4de061362b8c5
k3-2 synth stdout 766f6a6b49c90a229d8272833c02fcdd34d34a00d400a5ae06d4de061362b8c5
k3-2 grover stdout f3488c3ee8eed62f8e2f28944eb1ec793db9f7e13c5a05b2ef994934e211fe51
k3-2 route-default stdout f3488c3ee8eed62f8e2f28944eb1ec793db9f7e13c5a05b2ef994934e211fe51
k3-2 route-cx stdout f3488c3ee8eed62f8e2f28944eb1ec793db9f7e13c5a05b2ef994934e211fe51
k3-2 run stdout c5a8e95dd0692c244f662bdb0cd368e62d020d8a81ee0379b7a25a7d943b7fb4
k3-2 run-line13 stdout c5a8e95dd0692c244f662bdb0cd368e62d020d8a81ee0379b7a25a7d943b7fb4
cost --k 3 stdout 1374c06e74ad8d004196bbf5e9da423c1929e06f41d1899fd9ee73ef3b20b503
"""


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _same_top_states(got, bitstrings, probabilities):
    """Top states equal the expected ones up to the order of tied
    probabilities; a tie group cut off by the top-10 limit is compared
    by probability only."""
    assert len(got) == len(probabilities)
    for state, p in zip(got, probabilities):
        assert state["probability"] == pytest.approx(p, rel=0, abs=1e-12)
    start = 0
    for end in range(1, len(got) + 1):
        if end < len(got) and probabilities[end] >= probabilities[start] - 1e-12:
            continue
        if end < len(got) or len(got) < 10:
            assert ({s["bitstring"] for s in got[start:end]}
                    == set(bitstrings[start:end]))
        start = end


def _simulated_stdout(output: str, run_json: str) -> str:
    """Check the histogram and run.json against the report on stdout,
    and return stdout with the report's floats and bitstrings blanked."""
    head = output[:output.index("{")]
    report, end = json.JSONDecoder().raw_decode(output, len(head))
    rows = [f"|{s['bitstring']}>  {s['probability']:8.4f}  "
            f"{'#' * max(1, int(round(s['probability'] * 50)))}\n"
            for s in report["top_states"]]
    assert output[end:] == "\n" + "".join(rows)
    assert run_json == output[len(head):end] + "\n"
    blank = dict(report, success_probability=None, top_states=None)
    return head + json.dumps(blank, indent=2)


def _golden_outputs(tmp_path, invoke) -> tuple[dict, dict]:
    """Run every golden invocation in ``tmp_path``; return the sha256 of
    each written file and stdout, and the simulated reports."""
    (tmp_path / "k3.adj").write_text(K3_ADJ)
    (tmp_path / "p3.adj").write_text(P3_ADJ)
    (tmp_path / "line13.cpl").write_text(
        "13\n" + "".join(f"{i} {i + 1}\n" for i in range(12)))
    digests, runs = {}, {}
    for label, (stem, k, mode) in GOLDEN_INPUTS.items():
        for name, command in GOLDEN_COMMANDS.items():
            if "route" in name or "line13" in name:
                if label in GOLDEN_UNROUTED:
                    continue
            out = tmp_path / "out" / label / name
            result = invoke([command[0], f"{stem}.adj", "--k", k,
                             "--mode", mode, *command[1:],
                             "--out-dir", str(out)])
            assert result.exit_code == 0, (label, name, result.output)
            files = ({p.name: p.read_text() for p in out.iterdir()}
                     if out.exists() else {})
            stdout = result.output
            if command[0] == "run":
                report = _json_head(stdout)
                runs[label, name] = report
                stdout = _simulated_stdout(stdout,
                                           files.pop(f"{stem}.run.json"))
            for file_name, text in [*sorted(files.items()),
                                    ("stdout", stdout)]:
                digests[f"{label} {name} {file_name}"] = _sha(text)
    result = invoke(["cost", "--k", "3"])
    assert result.exit_code == 0, result.output
    digests["cost --k 3 stdout"] = _sha(result.output)
    return digests, runs


def test_golden_outputs(runner, tmp_path, monkeypatch):
    assert ({command[0] for command in GOLDEN_COMMANDS.values()}
            == set(main.commands) - {"cost"})
    monkeypatch.chdir(tmp_path)
    digests, runs = _golden_outputs(tmp_path,
                                    lambda args: runner.invoke(main, args))
    expected = dict(line.rsplit(" ", 1)
                    for line in GOLDEN_SHA256.strip().splitlines())
    assert sorted(digests) == sorted(expected)
    assert [key for key in expected if digests[key] != expected[key]] == []
    for (label, _), report in runs.items():
        success, bitstrings, probabilities = GOLDEN_RUNS[label]
        if success is None:
            assert report["success_probability"] is None
        else:
            assert report["success_probability"] == pytest.approx(
                success, rel=0, abs=1e-12)
        _same_top_states(report["top_states"], bitstrings.split(),
                         probabilities)
