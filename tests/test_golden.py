"""CLI stdout pinned byte for byte against saved outputs in tests/golden/.

A refactor that changes which points are drawn, which secants are computed
or how a report is serialized shows up here as a diff.  Regenerate a file
only for an intended output change, e.g.
``PYTHONPATH=src python -m grasec.cli reproduce --seed 0 > tests/golden/reproduce_seed0.txt``.
"""

from pathlib import Path

import pytest

from grasec import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "reproduce_seed0.txt": ["reproduce", "--seed", "0"],
    "grassmann_2-4_k3_s5.txt": ["grassmann", "--spec", "2:4", "--k", "3", "--s", "5"],
    # k > s - 1: expected_dim is taken at the w-plane, w = min(k, s-1) = 1
    "grassmann_2-2_k3_s2.txt": ["grassmann", "--spec", "2:2", "--k", "3", "--s", "2"],
    "secant_2-2_s1-4.txt": ["secant", "--spec", "2,2", "--s", "1..4"],
    # r = 511: the only case whose ranks take the blocked route (more than 128 columns)
    "secant_1x9_s50-53.txt": ["secant", "--spec", "1,1,1,1,1,1,1,1,1", "--s", "50..53"],
    "identifiability_format_4-4_k1_s3.txt": [
        "identifiability", "--format", "4,4", "--k", "1", "--s", "3",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    cli.main(CASES[name])
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
