"""Tests of the benchmark's tracer and its failure behaviour."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


class SamplingError(Exception):
    pass


def _stub_module(name: str, functions: dict) -> ModuleType:
    module = ModuleType(name)
    for attr, fn in functions.items():
        fn.__module__ = name
        setattr(module, attr, fn)
    return module


def _stub_field() -> ModuleType:
    """A field layer without dual_evaluate, as after the dual-number layer is deleted."""

    def as_matrix(rows, p):
        return [list(row) for row in rows]

    def matrix_rank(rows, p):
        field.as_matrix(rows, p)
        return min(len(rows), len(rows[0]))

    field = _stub_module("stub.field", {"as_matrix": as_matrix, "matrix_rank": matrix_rank})
    return field


def test_missing_function_is_reported_absent():
    field = _stub_field()
    original = field.matrix_rank
    tracer = tracing.Tracer()
    with tracer.installed({"field": field}):
        assert field.matrix_rank is not original
        field.matrix_rank([[1, 2, 3], [4, 5, 6]], 7)
        field.matrix_rank([[1]], 7)
    assert field.matrix_rank is original

    metrics = tracer.pass_metrics(0)
    assert metrics["field.matrix_rank.calls"] == 2
    assert metrics["field.matrix_rank.cells"] == 7
    assert metrics["field.as_matrix.calls"] == 2
    assert "field.dual_evaluate.calls" not in metrics
    assert tracer.absent("field.dual_evaluate.calls")
    assert tracer.absent("field.dual_evaluate.self_s")
    assert not tracer.absent("field.matrix_rank.cells")
    # needs a secant layer that was never installed
    assert tracer.absent("secant.trials_per_result")


def test_self_time_excludes_wrapped_children():
    field = _stub_field()
    tracer = tracing.Tracer()
    with tracer.installed({"field": field}):
        field.matrix_rank([[1, 2]], 7)
    metrics = tracer.pass_metrics(0)
    inclusive = metrics["field.matrix_rank.total_s"]
    child = metrics["field.as_matrix.total_s"]
    assert metrics["field.matrix_rank.self_s"] == pytest.approx(inclusive - child)
    assert 0 < metrics["field.matrix_rank.self_s"] < inclusive
    span = tracer.spans[1]
    assert span[tracing.NAME] == "field.as_matrix"
    assert tracer.spans[span[tracing.PARENT]][tracing.NAME] == "field.matrix_rank"


def test_raised_calls_count_as_degenerate():
    def tangent_frame(spec, point, p):
        if point % 2:
            raise SamplingError("degenerate")
        return [[1]]

    varieties = _stub_module("stub.varieties", {"tangent_frame": tangent_frame})
    tracer = tracing.Tracer()
    with tracer.installed({"varieties": varieties}):
        for point in range(4):
            try:
                varieties.tangent_frame(None, point, 7)
            except SamplingError:
                pass
    metrics = tracer.pass_metrics(0)
    assert metrics["varieties.tangent_frame.calls"] == 4
    assert metrics["varieties.tangent_frame.degenerate_ratio"] == 0.5


def test_every_per_layer_metric_is_computed_on_grasec():
    """BENCHMARK.json and the tracer agree, and counts repeat across passes."""
    import importlib

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = {layer: importlib.import_module(f"grasec.{layer}") for layer in tracing.LAYERS}
    spec = modules["varieties"].SegreVeroneseSpec.parse("1,1")
    tracer = tracing.Tracer()
    with tracer.installed(modules):
        for pass_id in range(2):
            tracer.pass_id = pass_id
            modules["grassec"].gs_report(spec, 1, 2, seed=3)
    first, second = tracer.pass_metrics(0), tracer.pass_metrics(1)
    for metric in contract["per_layer"]:
        name = metric["name"]
        if name == "tracing.overhead_s":
            continue
        assert name in first, name
        if metric["unit"] != "s":
            assert first[name] == second[name], name
    assert first["secant.secant_dim.calls"] == 1
    assert first["secant.trials_per_result"] == 1
    assert first["grassec.gs_dim_direct.jacobian_entries"] > 0


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
