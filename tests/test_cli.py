"""CLI behavior: subcommands, output formats, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grasec import cli, field, secant, varieties
from grasec.errors import BudgetExceededError, InconsistencyError, SamplingError


SRC = str(Path(cli.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSecantCommand:
    def test_pencils_fill(self, capsys):
        payload = run_json(capsys, "secant", "--spec", "1,1,1,1,1", "--s", "6")
        result = payload["results"][0]
        assert result["dim"] == 31 and result["fills_ambient"]

    def test_twisted_cubic_chords_fill(self, capsys):
        payload = run_json(capsys, "secant", "--spec", "3:1", "--s", "2")
        result = payload["results"][0]
        assert result["dim"] == 3 and result["fills_ambient"]

    def test_first_secant_is_the_variety(self, capsys):
        payload = run_json(capsys, "secant", "--spec", "2:2", "--s", "1")
        assert payload["results"][0]["dim"] == 2

    def test_s_range(self, capsys):
        payload = run_json(capsys, "secant", "--spec", "2,2", "--s", "1..3")
        dims = [rep["dim"] for rep in payload["results"]]
        assert dims == [4, 7, 8]

    @pytest.mark.parametrize("orders", ["4..5", "1..5"])
    def test_s_range_rows_match_single_orders(self, orders, capsys, monkeypatch):
        # each range draws 5 points per evaluation on 1,1,1,1 (r = 15, n = 4);
        # sigma_3 is defective and no flattening bound meets it, so 1..5 runs
        # the whole budget and 4..5 stops at the attempt
        calls = []
        real = secant.terracini_rank
        monkeypatch.setattr(secant, "terracini_rank",
                            lambda spec, s, *args, **kw: calls.append(s) or real(spec, s, *args, **kw))
        rows = run_json(capsys, "secant", "--spec", "1,1,1,1", "--s", orders)["results"]
        assert calls == [5] * (1 if orders == "4..5" else 7)
        monkeypatch.undo()
        for row in rows:
            single = run_json(capsys, "secant", "--spec", "1,1,1,1", "--s", str(row["s"]))["results"][0]
            assert row["dim"] == single["dim"] and row["trials_used"] == len(calls)

    def test_schema_fields(self, capsys):
        payload = run_json(capsys, "secant", "--spec", "1,1", "--s", "2")
        assert payload["schema"] == 1
        assert payload["command"] == "secant"
        assert set(payload["config"]) >= {"primes", "trials", "seed", "output"}
        assert "expected_dim" in payload["formulas"]

    @pytest.mark.parametrize("argv,config", [
        (("secant", "--spec", "1,1", "--s", "2"), {"spec": "1,1", "s": "2"}),
        (("identifiability", "--format", "2,2", "--k", "1", "--s", "2", "--prime", "101"),
         {"format_dims": "2,2", "k": 1, "s": 2, "primes": [101]}),
    ])
    def test_config_is_every_parsed_value(self, capsys, argv, config):
        # the options given and the defaults, with the primes as used: no raw
        # --prime list and no option left unset
        defaults = {"primes": [field.DEFAULT_PRIME, field.CONFIRMATION_PRIME],
                    "trials": secant.DEFAULT_TRIALS, "seed": 0, "output": "json"}
        assert run_json(capsys, *argv)["config"] == {**defaults, **config}


class TestGrassmannCommand:
    def test_twisted_cubic(self, capsys):
        payload = run_json(capsys, "grassmann", "--spec", "1:3", "--k", "1", "--s", "2")
        result = payload["results"][0]
        assert result["dim_direct"] == 2 and result["cross_check"] == "pass"

    def test_k_zero_matches_secant(self, capsys):
        gs = run_json(capsys, "grassmann", "--spec", "2:2", "--k", "0", "--s", "3")
        sec = run_json(capsys, "secant", "--spec", "2:2", "--s", "3")
        assert gs["results"][0]["dim_direct"] == sec["results"][0]["dim"]

    def test_veronese_surface(self, capsys):
        payload = run_json(capsys, "grassmann", "--spec", "2:2", "--k", "1", "--s", "3")
        assert payload["results"][0]["dim_direct"] == 8


class TestIdentifiabilityCommand:
    def test_recorded_holds(self, capsys):
        payload = run_json(
            capsys, "identifiability", "--format", "4,4", "--k", "3", "--s", "5"
        )
        assert payload["results"][0]["identifiability"]["verdict"] == "holds"

    def test_recorded_fails(self, capsys):
        payload = run_json(
            capsys, "identifiability", "--format", "2,2,2,2", "--k", "1", "--s", "5"
        )
        report = payload["results"][0]
        assert report["identifiability"]["verdict"] == "fails"
        assert report["generic_rank"] == 6

    def test_computed_holds_via_spec(self, capsys):
        payload = run_json(
            capsys, "identifiability", "--spec", "2:4", "--k", "1", "--s", "4"
        )
        assert payload["results"][0]["verdict"] == "holds"

    @pytest.mark.parametrize("spec,fmt,k,s", [
        ("1,1,1,1", "2,2,2,2", 1, 5),
        ("3,3", "4,4", 3, 5),
        ("3,3", "4,4", 3, 6),
    ])
    def test_segre_spec_gets_the_format_verdict(self, capsys, spec, fmt, k, s):
        # a Segre product named as a spec is the same variety as its tensor format
        by_spec = run_json(capsys, "identifiability", "--spec", spec,
                           "--k", str(k), "--s", str(s))["results"][0]
        by_format = run_json(capsys, "identifiability", "--format", fmt,
                             "--k", str(k), "--s", str(s))["results"][0]
        assert by_spec == by_format["identifiability"]

    def test_format_and_spec_mutually_exclusive(self, capsys):
        code, _, err = run(
            capsys, "identifiability", "--format", "4,4", "--spec", "2:2",
            "--k", "1", "--s", "2",
        )
        assert code == 1 and "usage error" in err


class TestReproduceCommand:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--seed", "7", "--output", "text")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) >= 10
        assert all(line.startswith("PASS") for line in lines)

    def test_failed_draw_fails_only_its_rows(self, capsys):
        # over F_2 every GS coefficient matrix on 2:2 and every witness draw
        # on 1:3 comes out degenerate; the rest of the catalog still runs
        code, out, err = run(capsys, "reproduce", "--seed", "0", "--prime", "2")
        assert code == 2 and err == ""
        checks = {check["name"]: check for check in json.loads(out)["checks"]}
        golden = json.loads((Path(__file__).parent / "golden" / "reproduce_seed0.txt").read_text())
        assert list(checks) == [check["name"] for check in golden["checks"]]
        for name in ("slice-map-dimension-identity-grid", "defect-transfer-grid"):
            assert checks[name]["status"] == "FAIL"
            assert checks[name]["computed"] == {
                "error": "degenerate coefficient matrix for GS on 2:2"
            }
        assert checks["slice-map-containment-and-scaling"]["computed"] == {
            "error": "could not sample an independent secant witness on 1:3"
        }


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run(capsys, "secant", "--spec", "1,1")[0] == 1  # missing --s

    def test_bad_spec_is_one(self, capsys):
        code, _, err = run(capsys, "secant", "--spec", "bogus", "--s", "2")
        assert code == 1 and "error" in err

    def test_bad_range_is_one(self, capsys):
        assert run(capsys, "secant", "--spec", "1,1", "--s", "3..1")[0] == 1

    def test_success_is_zero(self, capsys):
        assert run(capsys, "secant", "--spec", "1,1", "--s", "2")[0] == 0

    def test_composite_prime_is_one(self, capsys):
        code, out, err = run(capsys, "secant", "--spec", "1,1", "--s", "1", "--prime", "4")
        assert code == 1 and out == ""
        assert "modulus 4 is not prime" in err

    @pytest.mark.parametrize("argv,message", [
        (("secant", "--spec", "1,1", "--s", "2", "--prime", "2147483647", "--prime", "4"),
         "modulus 4 is not prime"),
        (("secant", "--spec", "1,1", "--s", "2", "--prime", "2147483647", "--prime", "1"),
         "modulus 1 outside the supported range [2, 2**31)"),
        (("secant", "--spec", "1,1", "--s", "2", "--prime", "2147483647", "--prime", "0"),
         "modulus 0 outside the supported range [2, 2**31)"),
        (("secant", "--spec", "1,1", "--s", "2", "--prime", "2147483647", "--prime", "4294967311"),
         "modulus 4294967311 outside the supported range [2, 2**31)"),
        (("grassmann", "--spec", "1,1", "--k", "1", "--s", "2", "--prime", "2147483647", "--prime", "9"),
         "modulus 9 is not prime"),
        (("identifiability", "--format", "2,2,2", "--k", "1", "--s", "2",
          "--prime", "2147483647", "--prime", "0"),
         "modulus 0 outside the supported range [2, 2**31)"),
    ])
    def test_invalid_prime_after_a_certifying_one_is_one(self, capsys, argv, message):
        # the first prime meets every bound, so the second is never evaluated;
        # it is still checked, before any draw
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("p,argv", [
        (1, ("-m", "grasec.cli", "secant", "--spec", "1,1", "--s", "2", "--prime", "1")),
        (0, ("-m", "grasec.cli", "secant", "--spec", "1,1", "--s", "2", "--prime", "0")),
        (1, ("-m", "grasec.cli", "grassmann", "--spec", "1,1", "--k", "1", "--s", "2", "--prime", "1")),
        (1, ("-m", "grasec.cli", "identifiability", "--format", "4,4", "--k", "3", "--s", "5",
             "--prime", "1")),
        (1, ("-m", "grasec.cli", "reproduce", "--prime", "1")),
        (1, ("-c", "import random; from grasec import SegreVeroneseSpec, random_secant_point; "
                   "random_secant_point(SegreVeroneseSpec.parse('1,1'), 1, 2, random.Random(0), 1)")),
    ])
    def test_modulus_below_two_is_one_before_any_draw(self, p, argv):
        # over p < 2 no nonzero vector exists, so a draw would never end; in a
        # subprocess with a timeout that is a failure, not a hung test run
        run = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                             timeout=30, env=dict(os.environ, PYTHONPATH=SRC))
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr.endswith(f"modulus {p} outside the supported range [2, 2**31)\n")

    @pytest.mark.parametrize("error,label", [
        (InconsistencyError, "inconsistency"),
        (SamplingError, "sampling failed"),
        (BudgetExceededError, "budget exceeded"),
    ])
    def test_caught_error_is_named_and_two(self, capsys, monkeypatch, error, label):
        def fail(args):
            raise error("boom")
        monkeypatch.setattr(cli, "_cmd_secant", fail)
        code, out, err = run(capsys, "secant", "--spec", "1,1", "--s", "2")
        assert code == 2 and out == "" and err == f"{label}: boom\n"

    @pytest.mark.parametrize("argv", [
        ("secant", "--spec", "30:30", "--s", "2"),
        ("grassmann", "--spec", "30:30", "--k", "1", "--s", "2"),
        ("identifiability", "--spec", "30:30", "--k", "1", "--s", "2"),
    ])
    def test_oversized_spec_is_two_before_any_table(self, capsys, monkeypatch, argv):
        # C(60, 30) monomials: the closed-form size check must come before any
        # power-rule table or coordinate packing is built
        def unbuilt(*args):
            raise AssertionError("built before the size check")
        monkeypatch.setattr(varieties, "_power_rule", unbuilt)
        monkeypatch.setattr(secant, "_packing", unbuilt)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("budget exceeded: sigma_2 of ")

    @pytest.mark.parametrize("argv", [
        ("identifiability", "--spec", "2:4", "--k", "-2", "--s", "0"),
        ("identifiability", "--format", "4,4", "--k", "1", "--s", "0"),
        ("identifiability", "--format", "4,4", "--k", "-1", "--s", "3"),
        ("secant", "--spec", "2:2", "--s", "2",
         "--prime", "2147483647", "--prime", "2147483647"),
        ("secant", "--spec", "1,1", "--s", "5"),
        ("secant", "--spec", "1,1", "--s", "1..5"),
        ("identifiability", "--spec", "1:3", "--k", "0", "--s", "6"),
        ("identifiability", "--spec", "1:3", "--k", "1", "--s", "6"),
        ("secant", "--spec", "2,2", "--s", "2", "--trials", "300"),
        ("grassmann", "--spec", "2:4", "--k", "3", "--s", "5", "--trials", "33"),
    ])
    def test_invalid_k_s_or_repeated_prime_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error:")


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        args = ("secant", "--spec", "2,2", "--s", "1..3", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestOutputFormats:
    def test_csv_one_row_per_result(self, capsys):
        code, out, _ = run(
            capsys, "secant", "--spec", "2,2", "--s", "1..3", "--output", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert [int(row["dim"]) for row in rows] == [4, 7, 8]

    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys, "secant", "--spec", "1,1", "--s", "2", "--output", "text"
        )
        assert code == 0 and "dim=3" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
