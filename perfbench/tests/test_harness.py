"""Tests of the benchmark harness itself.

    python -m pytest perfbench/tests -q

They use the ``tiny`` workload (d=1 N=3), which runs in a fraction of a
second, except for the audit-check test, which runs the operator-inequality
suite at benchmark size (a few seconds).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args: str, cwd: str = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_benchmark_json_names_what_the_harness_emits():
    spec = bench_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_variant_emits_every_metric_with_its_unit(trace, section):
    proc, result = run_bench("--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in bench_spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "env " in proc.stdout and '"blas_threads": 1' in proc.stdout


def test_corrupted_result_counts_as_failed():
    proc, result = run_bench("--workload", "tiny", "--seed", "3", "--seconds", "1", "--corrupt")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert "ground energy" in proc.stderr


def test_checkout_without_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc, result = run_bench("--workload", "tiny", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert result is None


def traced_tiny(workdir: str) -> list[list]:
    wl = workloads.WORKLOADS["tiny"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        ctx = workloads.setup(wl, 5, workdir)
        out = workloads.run(wl, ctx)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert workloads.check(wl, ctx, out) == []
    return tracer.spans


def test_span_tree_is_consistent(tmp_path):
    spans = traced_tiny(str(tmp_path))
    names = {s[0] for s in spans}
    assert {"model.random_model", "cli.parse_config", "cli.run", "flow.run_flow",
            "schwinger.lie_schwinger_series", "tensor.embed", "cli.write_report"} <= names
    for name, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    assert min(tracing.self_times(spans)) >= 0
    metrics = tracing.layer_metrics(spans)
    assert metrics["flow.apply_step.calls"] == 3
    assert metrics["schwinger.max_dim"] == 8


def test_uninstall_restores_the_program():
    import gapflow
    from gapflow import flow, tensor

    before = (gapflow.run_flow, flow.embed, tensor.embed)
    tracer = tracing.Tracer()
    tracer.install()
    assert flow.embed is tensor.embed is not before[2]
    tracer.uninstall()
    assert (gapflow.run_flow, flow.embed, tensor.embed) == before


def test_self_time_and_outermost_inclusive_time():
    # a(0..100) > b(10..40) > a(15..25); c(50..60) under the first a
    spans = [
        ["x.a", 0, 100, -1, None],
        ["x.b", 10, 40, 0, None],
        ["x.a", 15, 25, 1, None],
        ["x.c", 50, 60, 0, None],
    ]
    assert tracing.self_times(spans) == [60, 20, 10, 10]
    a = tracing.span_stats(spans)["x.a"]
    assert a["calls"] == 2
    assert a["s"] == pytest.approx(100e-9)
    assert a["self_s"] == pytest.approx(70e-9)


@pytest.fixture(scope="module")
def small_audit(tmp_path_factory):
    wl = workloads.Workload("audit", 1, 3, 0.05)
    ctx = workloads.setup(wl, 2, str(tmp_path_factory.mktemp("audit")))
    return wl, ctx, workloads.run(wl, ctx)


def test_audit_check_passes_then_catches_a_corrupted_branch_sum(small_audit):
    wl, ctx, out = small_audit
    assert workloads.check(wl, ctx, out) == []
    workloads.corrupt(wl, ctx, out)
    problems = workloads.check(wl, ctx, out)
    assert any("branch sum" in p for p in problems)
