"""The README's Library examples run and print what their comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_examples_print_their_comments(capsys):
    blocks = _library_blocks()
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
    expected = [
        line.split("#", 1)[1].strip()
        for block in blocks for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["31", "6", "8 8", "2x2x2x2 fails"]
    assert capsys.readouterr().out.splitlines() == expected
