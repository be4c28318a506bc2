"""Tests of the benchmark's own logic: span arithmetic, checks and a smoke run."""

import json
import threading
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench.tracing import FIT_GROUP, Tracer, layer_metrics, self_time, union_length

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "fit-ref": run.Workload("fit-ref", 6, 40, 300, 3,
                            ("fit", "--order-boots", "20", "--cca-boots", "20")),
    "fit-wide": run.Workload("fit-wide", 6, 20, 2000, 3,
                             ("fit", "--fixed-order", "3", "--cca-boots", "20")),
    "split-half": run.Workload("split-half", 8, 60, 300, 3,
                               ("split-half", "--repeats", "2", "--order-boots", "20",
                                "--cca-boots", "20")),
}


def span(span_id, start, end, parent=None, thread=0):
    return {"id": span_id, "name": "x", "parent": parent, "thread": thread,
            "start": start, "end": end}


def test_self_time_counts_overlapping_children_once():
    parent = span(0, 0.0, 10.0)
    children = [span(1, 1.0, 4.0, 0, thread=1), span(2, 3.0, 6.0, 0, thread=2),
                span(3, 8.0, 12.0, 0, thread=1)]
    # children cover [1, 6] and [8, 10] of the parent
    assert union_length([(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert self_time(parent, children) == pytest.approx(3.0)


def test_pool_thread_spans_attach_to_enclosing_fit_group():
    tracer = Tracer()
    both_running = threading.Barrier(2)

    def stage():
        both_running.wait(timeout=5)
        time.sleep(0.05)

    def work(_):
        threads = [threading.Thread(target=tracer.call,
                                    args=("subject_level.order_stability", stage, (), {}))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()

    tracer.call(FIT_GROUP, work, (None,), {})
    fit, *stages = tracer.spans
    assert [s["parent"] for s in stages] == [fit["id"], fit["id"]]
    assert stages[0]["thread"] != stages[1]["thread"]
    busy = sum(s["end"] - s["start"] for s in stages)
    covered = union_length([(s["start"], s["end"]) for s in stages])
    assert covered < busy  # the two stages overlapped in time
    own = self_time(fit, stages)
    assert own == pytest.approx(fit["end"] - fit["start"] - covered)


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    result = run.tail_percentile(list(range(n)))
    assert (result and result[0]) == expected


def setup_run(tmp_path, workload, seed=1):
    bench = run.Run(ROOT, workload, seed, tmp_path / "work")
    bench.setup()
    return bench


def test_corrupt_input_counts_as_failure_and_run_continues(tmp_path):
    bench = setup_run(tmp_path, TINY["fit-ref"])
    subject = sorted(bench.data.glob("subject_*.cnic"))[0]
    subject.write_bytes(subject.read_bytes()[:-8])
    invocations, traced = run.measure(bench, seconds=0.0, trace=False)
    assert traced is None
    assert len(invocations) == run.MIN_INVOCATIONS
    assert [i.exit_code for i in invocations] == [2] * run.MIN_INVOCATIONS
    assert all(i.failure == "exit code 2" for i in invocations)


def test_digest_mismatch_with_first_invocation_is_a_failure(tmp_path):
    bench = setup_run(tmp_path, TINY["fit-ref"])
    assert bench.invoke(0).failure is None
    bench.seed += 1  # same data, another fit seed: the outputs change
    failure = bench.invoke(1).failure
    assert failure == "output digests differ from the run's first invocation"


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fit-ref", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_traced_run_of_each_workload(tmp_path, name):
    workload = TINY[name]
    result = run.benchmark(ROOT, workload, 3, 0.0, True, tmp_path / "work")
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] == 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert "trace.overhead_s" in metrics
    if name == "fit-wide":
        assert metrics["subject_level.order_stability.calls"] == 0
    if name == "split-half":
        assert metrics["reproducibility.subject_reuse_ratio"] == 0.5
        assert metrics["reproducibility.fit_group.calls"] == 4
    else:
        assert metrics["reproducibility.subject_reuse_ratio"] == 1.0


def test_smoke_untraced_run_reports_end_to_end_metrics(tmp_path):
    result = run.benchmark(ROOT, TINY["fit-ref"], 3, 0.0, False, tmp_path / "work")
    assert result["correct"], result
    assert result["attempted"] == run.MIN_INVOCATIONS
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = list(layer_metrics([], 0)) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
