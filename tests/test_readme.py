"""The README's "Library use" block runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("OPENQASM 2.0;")
