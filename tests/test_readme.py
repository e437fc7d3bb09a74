"""The README's "Library use" block runs as written, the lowered counts
and gate alphabet it quotes are the ones ``lower_circuit`` gives, and
the commands it shows are the CLI's subcommands."""
import re
from pathlib import Path

from conftest import complete_graph, cycle_graph
from qkcolor.circuit import LOWERED_KINDS
from qkcolor.cli import main
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


def _command_words(text: str) -> list[str]:
    """The word after ``qkcolor`` on each command line of the fenced
    blocks in ``text`` and in each inline code span that starts with it."""
    blocks = "\n".join(re.findall(r"```\w*\n(.*?)```", text, re.S))
    return (re.findall(r"(?m)^qkcolor (\S+)", blocks)
            + re.findall(r"`qkcolor (\S+?)[ `]", text))


def test_quick_start_runs_every_subcommand():
    text = README.read_text()
    quick_start = text[text.index("## Quick start"):
                       text.index("## How it works")]
    assert set(_command_words(quick_start)) >= set(main.commands)


def test_readme_names_only_subcommands():
    words = _command_words(README.read_text())
    assert words
    assert set(words) <= set(main.commands)
