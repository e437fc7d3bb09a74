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
    assert report["qubits"]["total"] == 13
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
    assert report["qubits"]["total"] == 11
    assert report["qubits"]["invalid_ancilla"] == 1


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
    out = tmp_path / "out"
    for command in ("synth", "grover"):
        result = runner.invoke(main, [command, p3_file, "--k", "2",
                                      "--basis", "cx", "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert "basis" not in _json_head(result.output)
    for qasm in ("p3.oracle.qasm", "p3.grover.qasm"):
        parsed = check_qasm((out / qasm).read_text())
        two_qubit = [name for name, ops, _ in parsed.gates if len(ops) == 2]
        assert set(two_qubit) == {"cx"}, qasm


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
    # cx-expanded crx would cost swaps of its own: the router places the
    # default-basis lowering, and --basis cx expands it afterwards
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
    # K3/k=3 needs 13 qubits; the line has 7
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
    # C10 at k = 4 has 20 data qubits: the H on the last one could double
    # the 2**20 amplitudes held past the simulator's limit
    c10 = tmp_path / "c10.edg"
    c10.write_text("".join(f"{i} {(i + 1) % 10}\n" for i in range(10)))
    result = runner.invoke(main, ["run", str(c10), "--k", "4",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    assert ("TooLarge: H on 1048576 held amplitudes could pass the "
            "1048576-amplitude limit") in result.output


def test_run_past_24_qubits(runner, tmp_path):
    # K5 at k = 5 in strict mode needs 26 qubits, but holds at most 2**16
    # amplitudes: 15 data qubits and the output
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
    # triangle: 3 edge slots + 1 invalid ancilla
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
    "synth-cx": ["synth", "--basis", "cx"],
    "grover": ["grover"],
    "grover-cx": ["grover", "--basis", "cx"],
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
k3-3-strict synth k3.oracle.qasm f943e52bffc27361a96e7734d8a88e450238ac6c3970204d64a10c3921eebe2e
k3-3-strict synth k3.oracle.txt 177043e24ab207d8747b92a8d5fc4afe722812515f2d1c067bedd2530df1e4bf
k3-3-strict synth k3.synth.json 71c98f2b2bc7716ff0349e321d15af1467e9f92d719d380b75c5cc6e74935974
k3-3-strict synth stdout 71c98f2b2bc7716ff0349e321d15af1467e9f92d719d380b75c5cc6e74935974
k3-3-strict synth-cx k3.oracle.qasm b13f7343f643683f83becef6655e2d3dd17c5ec88560e8a387f7bd35358846a5
k3-3-strict synth-cx k3.oracle.txt 177043e24ab207d8747b92a8d5fc4afe722812515f2d1c067bedd2530df1e4bf
k3-3-strict synth-cx k3.synth.json 430ab9a2c4cbf261e00c8742236fff80dff32a8dd056c1418b5d14a65678365b
k3-3-strict synth-cx stdout 430ab9a2c4cbf261e00c8742236fff80dff32a8dd056c1418b5d14a65678365b
k3-3-strict grover k3.grover.json b2bc5ede97e5b0c2643ccc7597f97c3f20078925d8655f526f2ff4ac067dd2f1
k3-3-strict grover k3.grover.qasm 55c4106f66b1fdaa06c85701e41121bbbc9cd7831adfcd2f4cf0d8a921254e0a
k3-3-strict grover stdout b2bc5ede97e5b0c2643ccc7597f97c3f20078925d8655f526f2ff4ac067dd2f1
k3-3-strict grover-cx k3.grover.json 4c9cbdbabf5c32a6d90e4e5d108697138b7bcd52473e2664119d102805d12a78
k3-3-strict grover-cx k3.grover.qasm 055811d6de66e80d62b3d70234c89eb6bed7ae07673799ce11b32000693bcef0
k3-3-strict grover-cx stdout 4c9cbdbabf5c32a6d90e4e5d108697138b7bcd52473e2664119d102805d12a78
k3-3-strict route-default k3.routed.qasm 29206a43930bd8cb7fa9780671a3f06bdf8f2a4f9ead6b1bd7b624fbf7d5da69
k3-3-strict route-default stdout 6003aa237f77c36c588c6b537a39c5bd2c6b6790c9a3d08bf9216bf6bc89bd85
k3-3-strict route-cx k3.routed.qasm 8ebc3bb3e9701a8fbc520cac5861a59f66793f8e76315ed3b235951b2c51211b
k3-3-strict route-cx stdout 6003aa237f77c36c588c6b537a39c5bd2c6b6790c9a3d08bf9216bf6bc89bd85
k3-3-strict run stdout 42be0b5b17eac86479b30edc25e7be925f887417aed896f4a5e4d3ec955fa671
k3-3-strict run-line13 k3.routed.qasm 29206a43930bd8cb7fa9780671a3f06bdf8f2a4f9ead6b1bd7b624fbf7d5da69
k3-3-strict run-line13 stdout b7e423e24f9dff3e0947438d9ad98c99de2cf542ca24637c1c2b19315df9ea2d
k3-3-paper synth k3.oracle.qasm f3175101795afccd23245ead18498aa4ac03db7a5f3a6d051a788a10799814a6
k3-3-paper synth k3.oracle.txt 802d44e612e5ca4511d4520ff21924e8451116363dfb2fa1f29013a7378fb053
k3-3-paper synth k3.synth.json 7aed4db58f58004eb0f4bbeb7b85640f039d8c8aac7f0d7c2001049faeaca379
k3-3-paper synth stdout 7aed4db58f58004eb0f4bbeb7b85640f039d8c8aac7f0d7c2001049faeaca379
k3-3-paper synth-cx k3.oracle.qasm 81d2a43548ad0739956d7cf643ad665875b1f89f05e69173e5acab92060b0b8a
k3-3-paper synth-cx k3.oracle.txt 802d44e612e5ca4511d4520ff21924e8451116363dfb2fa1f29013a7378fb053
k3-3-paper synth-cx k3.synth.json 20ce4f5f1afc1a17aca2cfbae0c3d9270760367a352f4822ee64f6b0bda77a7a
k3-3-paper synth-cx stdout 20ce4f5f1afc1a17aca2cfbae0c3d9270760367a352f4822ee64f6b0bda77a7a
k3-3-paper grover k3.grover.json 6ba0034f744dfcc3459a6daf9657bb025ce4cd5c23a368d6fb1624b5df81b7e4
k3-3-paper grover k3.grover.qasm 815da4cb4cf6dcc058ea7724adeed412605bcd35bfed97f951e0d7e60e88861c
k3-3-paper grover stdout 6ba0034f744dfcc3459a6daf9657bb025ce4cd5c23a368d6fb1624b5df81b7e4
k3-3-paper grover-cx k3.grover.json 3be17325a52e531a7301b21af14a7deee0155636459f62f3a40b27d1b4d10538
k3-3-paper grover-cx k3.grover.qasm 7363d8a28c8c263c72230d30b4ed668a93edd0e902534150f29da684c5ef7d4e
k3-3-paper grover-cx stdout 3be17325a52e531a7301b21af14a7deee0155636459f62f3a40b27d1b4d10538
k3-3-paper run stdout 67c5b9ab6b70fab0f2dbcb79d040a3bc9e9ff14a5d313ab2bb402d60f7a97df0
p3-2 synth p3.oracle.qasm 9014d5a11e7c7784c48be24b6f9cbdca32c1fdb2005aaadbfb33bca26f66647d
p3-2 synth p3.oracle.txt cca7d588054bdd1290449ac5b89ccbb5db6cdf31321291579c5c7159a8b9620a
p3-2 synth p3.synth.json 5a71c8195ec0d098f9b4a98ba20e21f8454b78a3336ba7f25ab81cfe6fb6c1d8
p3-2 synth stdout 5a71c8195ec0d098f9b4a98ba20e21f8454b78a3336ba7f25ab81cfe6fb6c1d8
p3-2 synth-cx p3.oracle.qasm 49f483ad29ce033259964db2022c3362e6fcdc00b4ebdf81eb61ddcf14c15306
p3-2 synth-cx p3.oracle.txt cca7d588054bdd1290449ac5b89ccbb5db6cdf31321291579c5c7159a8b9620a
p3-2 synth-cx p3.synth.json 00d6a2d8da418dd5d8692982f3560e9ff62c072e69276e3beaddb0b4129a6d64
p3-2 synth-cx stdout 00d6a2d8da418dd5d8692982f3560e9ff62c072e69276e3beaddb0b4129a6d64
p3-2 grover p3.grover.json 8a78185a457d729a1735a7783d0657048483ca3aa5ede7565d3ef1b4486d5260
p3-2 grover p3.grover.qasm 21f7723332f9f84152f3e0dcc86d539743c7e121eb7b99d2d2adce9c412218e7
p3-2 grover stdout 8a78185a457d729a1735a7783d0657048483ca3aa5ede7565d3ef1b4486d5260
p3-2 grover-cx p3.grover.json 62a6bf31ba354395fa56df96e809800bf2a1f00ef3e575536c2c7ba26d042f35
p3-2 grover-cx p3.grover.qasm ddb41f8c0efc07cad4f5ff694468d95193b2e4d891a3b16d1019e2301ae5f863
p3-2 grover-cx stdout 62a6bf31ba354395fa56df96e809800bf2a1f00ef3e575536c2c7ba26d042f35
p3-2 route-default p3.routed.qasm 166f4ac90b199d2997da3680671ec724ab6f9eb6ebf1739a4ede15fcae358d15
p3-2 route-default stdout fd6937dbc3e52cd7245022e4193f9be76647dc16c0f6c8c0f48253ad0529e898
p3-2 route-cx p3.routed.qasm 97bb87f0494139e587aac2591045fcc9f142eca7421c228d2c80380148643c71
p3-2 route-cx stdout fd6937dbc3e52cd7245022e4193f9be76647dc16c0f6c8c0f48253ad0529e898
p3-2 run stdout 8fc046293d3d6579e82cb799a1a7e218077afa20735dc8099e49790e8b07e661
p3-2 run-line13 p3.routed.qasm 166f4ac90b199d2997da3680671ec724ab6f9eb6ebf1739a4ede15fcae358d15
p3-2 run-line13 stdout 3435be45e34e38e34999f2ccb2d22615cbeedff9d1985432399c878788225251
k3-2 synth k3.oracle.qasm 723322246f448aacce0559cdc2c8e4fff037b2c0265047ed4f07c63582dab580
k3-2 synth k3.oracle.txt a981535de7b477d1f9882b617f816ed73c2a6146be0fbf476ab9e0c9663d93de
k3-2 synth k3.synth.json 8e02c8f9910175783767161f43c3b611bcc6f4750158a1f1849c1f1f43dc3af4
k3-2 synth stdout 8e02c8f9910175783767161f43c3b611bcc6f4750158a1f1849c1f1f43dc3af4
k3-2 synth-cx k3.oracle.qasm e070648fc329cc8c4d07f0b7dd3beb678f8c174e37739058d9afbf851d5974b0
k3-2 synth-cx k3.oracle.txt a981535de7b477d1f9882b617f816ed73c2a6146be0fbf476ab9e0c9663d93de
k3-2 synth-cx k3.synth.json 9a07eabd1f5f0d3be7ffcf0267fae67d1a2223aedefbf5c3079af801b979cecc
k3-2 synth-cx stdout 9a07eabd1f5f0d3be7ffcf0267fae67d1a2223aedefbf5c3079af801b979cecc
k3-2 grover stdout f3488c3ee8eed62f8e2f28944eb1ec793db9f7e13c5a05b2ef994934e211fe51
k3-2 grover-cx stdout f3488c3ee8eed62f8e2f28944eb1ec793db9f7e13c5a05b2ef994934e211fe51
k3-2 route-default stdout f3488c3ee8eed62f8e2f28944eb1ec793db9f7e13c5a05b2ef994934e211fe51
k3-2 route-cx stdout f3488c3ee8eed62f8e2f28944eb1ec793db9f7e13c5a05b2ef994934e211fe51
k3-2 run stdout c5a8e95dd0692c244f662bdb0cd368e62d020d8a81ee0379b7a25a7d943b7fb4
k3-2 run-line13 stdout c5a8e95dd0692c244f662bdb0cd368e62d020d8a81ee0379b7a25a7d943b7fb4
cost --k 3 stdout 1883f792dffd151279d62a40c3b79a1abb6266b8d04dc9ba4e2b41ebad5862d8
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
