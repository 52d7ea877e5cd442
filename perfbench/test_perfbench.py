"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import ROOT, add_source_path

add_source_path()

from perfbench.driver import declared_metrics, run_benchmark  # noqa: E402
from perfbench.tracing import LAYER_CALLS, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Recorder  # noqa: E402


def tiny_run(name: str, trace: bool = False, seed: int = 3):
    return run_benchmark(name, seed, seconds=0.0, trace=trace, tiny=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_prints_with_its_unit(name, trace):
    result = tiny_run(name, trace)
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    assert result["correct"], result["lines"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    for metric, unit in declared.items():
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])
        assert any(line.strip().startswith(f"{metric} = ")
                   and line.rstrip().endswith(f" {unit}")
                   for line in result["lines"]), metric
    json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                       "metrics")})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_are_never_zero(name):
    metrics = tiny_run(name)["metrics"]
    assert all(entry["value"] > 0 for entry in metrics.values()), metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_result_is_counted_as_failed(name, monkeypatch):
    job = Recorder.job
    corrupted = []

    def corrupt_first(self, arm, context, due, expected, body, **kwargs):
        def wrong():
            answer = body()
            if corrupted:
                return answer
            corrupted.append(arm)
            return ("corrupted", answer)
        return job(self, arm, context, due, expected, wrong, **kwargs)

    monkeypatch.setattr(Recorder, "job", corrupt_first)
    result = tiny_run(name)
    assert result["failed"] == 1
    assert not result["correct"]
    assert any("failed: answer" in line for line in result["lines"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_runs_give_the_same_simulated_digest(name):
    first, second = tiny_run(name), tiny_run(name)
    assert first["digest"] == second["digest"]
    for metric in ("sim_makespan_s", "sim_delay.p50_s", "sim_delay.tail_s",
                   "sim_speedup"):
        assert (first["metrics"][metric]["value"]
                == second["metrics"][metric]["value"])
    assert tiny_run(name, seed=4)["digest"] != first["digest"]


def test_layers_are_confined_to_their_workloads():
    sql_and_columnar = ("sql.self_s", "sql.plans", "columnar.self_s",
                        "columnar.kernel_calls")
    for name in WORKLOADS:
        metrics = tiny_run(name, trace=True)["metrics"]
        values = [metrics[m]["value"] for m in sql_and_columnar]
        if name == "tpch_sql":
            assert all(v > 0 for v in values), name
        else:
            assert all(v == 0 for v in values), name


def test_tenant_service_evicts_under_quota_pressure():
    metrics = tiny_run("tenant_service", trace=True)["metrics"]
    assert metrics["cache.evictions"]["value"] > 0
    assert metrics["service.quota_evictions"]["value"] > 0


def test_tracer_restores_every_wrapped_function():
    before = [getattr(owner, attr) for owner, attr, *_ in LAYER_CALLS]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr, *_), original in zip(LAYER_CALLS, before))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr, *_), original in zip(LAYER_CALLS, before))


def test_self_times_tile_nested_spans():
    tracer = Tracer()
    clock = iter(range(100))

    def inner():
        next(clock)

    traced_inner = tracer.wrap(inner, "sizer")

    def outer():
        traced_inner()
        traced_inner()

    tracer.wrap(outer, "other")()
    total = sum(end - start for name, start, end, parent, _ in tracer.spans
                if parent == -1)
    assert sum(tracer.self_s.values()) == pytest.approx(total)
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpch_sql",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (Path(tmp_path) / ".perfbench").exists()
