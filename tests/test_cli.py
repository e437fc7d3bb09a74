import csv
import io
import json
import os
import subprocess
import sys

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


def test_lower_stage_and_basis(runner, p3_file, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["lower", p3_file, "--k", "2",
                                  "--stage", "grover", "--basis", "cx",
                                  "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    report = _json_head(result.output)
    assert report["stage"] == "grover" and report["basis"] == "cx"
    parsed = check_qasm((out / "p3.grover.lowered.qasm").read_text())
    for name, ops, _ in parsed.gates:
        if len(ops) == 2:
            assert name == "cx"


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


def test_simulate(runner, p3_file):
    result = runner.invoke(main, ["simulate", p3_file, "--k", "2"])
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


@pytest.mark.parametrize("command", ["simulate", "run"])
@pytest.mark.parametrize("graph, k", [("p3", "2"), ("k3", "2")])
def test_simulation_enumerates_and_plans_once(runner, p3_file, k3_file,
                                              tmp_path, monkeypatch,
                                              command, graph, k):
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
    args = [command, p3_file if graph == "p3" else k3_file, "--k", k]
    if command == "run":
        topo = tmp_path / "line7.cpl"
        topo.write_text(LINE7_CPL)
        args += ["--topology", str(topo), "--out-dir", str(tmp_path / "o")]
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


def test_resource_limit_exits_3(runner, p3_file):
    result = runner.invoke(main, ["simulate", p3_file, "--k", "2"],
                           env={"GKC_QUBIT_CEILING": "4"})
    assert result.exit_code == 3, result.output


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


def test_cost_rejects_bad_range(runner):
    result = runner.invoke(main, ["cost", "--k", "3",
                                  "--vertices-range", "5", "2"])
    assert result.exit_code == 2, result.output
