"""The README's Library and CLI examples run and do what their comments say."""

import json
import re
import shlex
from pathlib import Path

from grasec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", _section("Library"), re.S)


def _cli_block() -> str:
    (block,) = re.findall(r"```sh\n(.*?)```", _section("CLI"), re.S)
    return block


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


def _run_json(capsys, argv: list[str]) -> dict:
    assert cli.main(argv + ["--output", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_examples_exit_zero_and_match_their_comments(capsys):
    block = _cli_block()
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("grasec ")]
    assert len(commands) == 7
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()

    # --spec 3,3 --k 3 --s 5: "the same verdict as --format 4,4"
    (spec_line,) = [line for line in block.splitlines() if "the same verdict as" in line]
    argv = shlex.split(spec_line.split("#", 1)[0])[1:]
    fmt = spec_line.rsplit("--format", 1)[1].strip()
    i = argv.index("--spec")
    as_format = argv[:i] + ["--format", fmt] + argv[i + 2:]
    by_spec = _run_json(capsys, argv)["results"][0]["verdict"]
    by_format = _run_json(capsys, as_format)["results"][0]["identifiability"]["verdict"]
    assert by_spec == by_format == "holds"

    # reproduce: "the full built-in check catalog (15 rows, ...)"
    rows = int(re.search(r"\((\d+) rows", block).group(1))
    (reproduce,) = [argv for argv in commands if argv[0] == "reproduce"]
    assert len(_run_json(capsys, reproduce)["checks"]) == rows == 15
