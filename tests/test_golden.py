"""CLI stdout pinned byte for byte against saved outputs in tests/golden/.

A refactor that changes which points are drawn, which secants are computed
or how a report is serialized shows up here as a diff.  Regenerate a file
only for an intended output change, e.g.
``PYTHONPATH=src python -m grasec.cli reproduce --seed 0 > tests/golden/reproduce_seed0.txt``.
"""

from pathlib import Path

import pytest

from grasec import cli, field

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "reproduce_seed0.txt": ["reproduce", "--seed", "0"],
    "grassmann_2-4_k3_s5.txt": ["grassmann", "--spec", "2:4", "--k", "3", "--s", "5"],
    # k > s - 1: expected_dim is taken at the w-plane, w = min(k, s-1) = 1
    "grassmann_2-2_k3_s2.txt": ["grassmann", "--spec", "2:2", "--k", "3", "--s", "2"],
    "secant_2-2_s1-4.txt": ["secant", "--spec", "2,2", "--s", "1..4"],
    # r = 511; one evaluation sequence at s = 53 ranks a 140 x 122 residual, one panel
    "secant_1x9_s50-53.txt": ["secant", "--spec", "1,1,1,1,1,1,1,1,1", "--s", "50..53"],
    # r = 624: the coordinate attempt leaves a 187 x 200 residual, on the one-panel route
    # (its transpose is 200 x 187)
    "secant_4x4_s36.txt": ["secant", "--spec", "4,4,4,4", "--s", "36"],
    # r = 1023: the only case whose ranks take the blocked route (the transpose of
    # the 264 x 254 residual is wider than 128 columns and larger than 256)
    "secant_1x10_s94.txt": ["secant", "--spec", "1,1,1,1,1,1,1,1,1,1", "--s", "94"],
    "identifiability_format_4-4_k1_s3.txt": [
        "identifiability", "--format", "4,4", "--k", "1", "--s", "3",
    ],
    # a recorded info and holds step, then both computed criteria
    "identifiability_format_4-4_k3_s4.txt": [
        "identifiability", "--format", "4,4", "--k", "3", "--s", "4",
    ],
}
CASES["identifiability_format_4-4_k3_s4_text.txt"] = [
    *CASES["identifiability_format_4-4_k3_s4.txt"], "--output", "text",
]
_ORDERED = {  # text and CSV print each row's keys in the order to_dict() builds them
    "grassmann_2-4_k3_s5": CASES["grassmann_2-4_k3_s5.txt"],
    "identifiability_spec_2-4_k1_s4": ["identifiability", "--spec", "2:4", "--k", "1", "--s", "4"],
    "identifiability_format_4-4_k1_s3": CASES["identifiability_format_4-4_k1_s3.txt"],
    "secant_2-2_s1-4": CASES["secant_2-2_s1-4.txt"],
}
CASES.update({f"{name}_{fmt}.txt": [*args, "--output", fmt]
              for name, args in _ORDERED.items() for fmt in ("text", "csv")})


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    cli.main(CASES[name])
    assert capsys.readouterr().out == (GOLDEN / name).read_bytes().decode()  # keeps CSV \r\n


def test_blocked_golden_ranks_take_the_blocked_route(capsys, monkeypatch):
    # the profile eliminates the transpose of each residual
    shapes, inverted = [], []
    profile, inverse = field.rank_profile, field._inverse

    def recorded(rows, p):
        shapes.append(rows.shape[::-1])
        return profile(rows, p)

    monkeypatch.setattr(field, "rank_profile", recorded)
    monkeypatch.setattr(field, "_inverse", lambda t, p: inverted.append(len(t)) or inverse(t, p))
    cli.main(CASES["secant_1x10_s94.txt"])
    assert shapes == [(254, 264)] and inverted, (shapes, inverted)
    assert all(ncols > field._BLOCKED_ABOVE and max(nrows, ncols) > 2 * field._BLOCKED_ABOVE
               for nrows, ncols in shapes), shapes
