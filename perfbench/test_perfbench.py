"""The benchmark's own checks: failures are counted, tiny workloads run clean."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import worker

sys.path.insert(0, worker.LIBRARIES["checkout"])
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("library", ("checkout", "baseline"))
def test_tiny_workload_runs_clean(workload, trace, library):
    cmd = run.worker_cmd(workload, seed=3, trace=trace, scale="tiny", library=library)
    out = run.run_worker(cmd, timeout=120)
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["failures"]
    assert out["wall_s"] > 0 and out["setup_s"] > 0 and out["peak_rss_mb"] > 0
    if trace:
        assert out["layers"]["trace.accounted_frac"] == pytest.approx(1, abs=0.1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_paired_pass_runs_clean(workload):
    checkout, baseline = run.paired_pass(workload, 3, cycle=1, remaining=lambda: 120, scale="tiny")
    for one in (checkout, baseline):
        assert one["attempted"] > 0 and one["failed"] == 0, one["failures"]
        assert one["wall_s"] > 0 and one["setup_s"] > 0 and one["peak_rss_mb"] > 0
    assert checkout["attempted"] == baseline["attempted"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_injected_wrong_expected_value_is_counted(workload):
    tasks = workloads.build(workload, seed=5, scale="tiny")
    tasks[0] = dataclasses.replace(tasks[0], expected=("wrong",))
    results = worker.run_tasks(tasks, worker.NullTracer())
    assert [r["name"] for r in results if not r["ok"]] == [tasks[0].name]

    one_pass = {
        "attempted": len(results),
        "failed": sum(not r["ok"] for r in results),
        "wall_s": 1.0, "cpu_s": 1.0, "largest_task_s": 0.5, "peak_rss_mb": 20.0,
    }
    baseline_pass = dict(one_pass, failed=0)
    result, code = run.summarize([one_pass], [baseline_pass], setups=[0.05])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2 * len(tasks)


def test_end_to_end_times_are_medians_of_paired_ratios():
    def one_pass(wall, largest):
        return {
            "attempted": 3, "failed": 0, "wall_s": wall, "cpu_s": wall / 2,
            "largest_task_s": largest, "peak_rss_mb": 20.0,
        }

    passes = [one_pass(2.0, 1.0), one_pass(3.0, 1.0), one_pass(9.0, 1.0)]
    bases = [one_pass(4.0, 2.0), one_pass(3.0, 4.0), one_pass(10.0, 1.0)]
    result, code = run.summarize(passes, bases, setups=[0.3, 0.1, 0.2])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert code == 0
    assert metrics["wall_rel"] == metrics["cpu_rel"] == 0.9
    assert metrics["largest_task_rel"] == 0.5
    assert metrics["setup_s"] == 0.2


def test_task_that_raises_is_counted():
    def boom(tr):
        raise ValueError("no answer")

    tasks = [workloads.Task("boom", boom, None)]
    [result] = worker.run_tasks(tasks, worker.NullTracer())
    assert not result["ok"] and "no answer" in result["detail"]


def test_self_time_excludes_child_spans():
    tr = worker.Tracer()
    with tr.span("task", "t"):
        with tr.span("homology"):
            pass
    [task, child] = tr.spans
    assert child[2] == 0 and child[1] == "t"
    layers = tr.layer_metrics(wall_s=task[4] - task[3])
    assert layers["bench.check_s"] == pytest.approx((task[4] - task[3]) - (child[4] - child[3]))
    assert layers["homology.s"] == pytest.approx(child[4] - child[3])
    assert layers["trace.accounted_frac"] == pytest.approx(1)


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(workloads.BUILDERS)
    tr = worker.Tracer()
    with tr.span("task", "t"):
        pass
    layers = set(tr.layer_metrics(wall_s=1.0)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layers


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "products_rank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
