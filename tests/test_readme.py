"""The README's "Library use" block runs as written, and the lowered
counts and gate alphabet it quotes are the ones ``lower_circuit`` gives."""
import re
from pathlib import Path

from conftest import complete_graph, cycle_graph
from qkcolor.circuit import LOWERED_KINDS
from qkcolor.graphs import make_instance
from qkcolor.grover import assemble, make_job
from qkcolor.lowering import lower_circuit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("OPENQASM 2.0;")


def test_quoted_lowered_counts():
    text = " ".join(README.read_text().split())
    quoted = re.search(r"The K3/k=3 Grover circuit lowers to ([\d,]+) gates, "
                       r"([\d,]+) of them 2-qubit, and C5/k=3 to ([\d,]+) "
                       r"gates, ([\d,]+) of them 2-qubit", text)
    assert quoted, "README no longer quotes the K3 and C5 lowered counts"
    numbers = [int(g.replace(",", "")) for g in quoted.groups()]
    got = []
    for graph in (complete_graph(3), cycle_graph(5)):
        job = make_job(make_instance(graph, 3))
        stats = lower_circuit(assemble(job)).stats()
        got += [stats.gate_count, stats.two_qubit_count]
    assert numbers == got


def test_quoted_lowered_alphabet():
    text = " ".join(README.read_text().split())
    quoted = re.search(r"rewritten exactly \(up to a global phase\) into "
                       r"\{([a-z, ]+)\}", text)
    assert quoted, "README no longer quotes the lowered alphabet"
    assert sorted(quoted.group(1).split(", ")) == sorted(
        kind.value for kind in LOWERED_KINDS)
