"""The consolidated serving-benchmark summary (``BENCH_serving.json``).

``benchmarks/run_all.py`` gathers every serving benchmark's persisted
result into one top-level gate-status file so the serving perf trajectory
is a single diffable artefact across PRs.  These tests pin the
consolidation logic against synthetic result files: gate math, identity
handling, and the missing-file-is-a-regression rule.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import run_all  # noqa: E402


def _write(directory, name, payload):
    (directory / f"{name}.json").write_text(json.dumps(payload),
                                            encoding="utf-8")


def _full_results(directory):
    _write(directory, "service_throughput", {"speedup": 9.0, "mismatches": 0})
    _write(directory, "incremental_service", {"speedup": 7.0, "mismatches": 0})
    _write(directory, "sharded_build",
           {"speedup_at_4": 3.1, "all_identical": True})
    _write(directory, "parallel_serve",
           {"speedup_at_4": 2.5, "all_identical": True})
    _write(directory, "http_serve",
           {"qps_speedup": 2.6, "p99_seconds": 0.05, "gate_passed": True,
            "all_identical": True})
    _write(directory, "rebalance",
           {"p99_improvement": 2.8, "rebalance_applied": True,
            "all_identical": True})
    _write(directory, "scatter_backends",
           {"min_speedup_at_4": 2.7,
            "speedup_at_4": {"threads": 2.7, "processes": 3.0},
            "gate_passed": True, "all_identical": True,
            "rows": [
                {"backend": "serial", "workers": 0,
                 "payload_bytes_per_task": 0,
                 "critical_path_seconds": 0.8, "speedup": 1.0,
                 "bitwise_identical": True},
                {"backend": "threads", "workers": 4,
                 "payload_bytes_per_task": 0,
                 "critical_path_seconds": 0.3, "speedup": 2.7,
                 "bitwise_identical": True},
                {"backend": "processes", "workers": 4,
                 "payload_bytes_per_task": 2048,
                 "critical_path_seconds": 0.27, "speedup": 3.0,
                 "bitwise_identical": True},
            ]})
    _write(directory, "scenarios",
           {"approx_p99_improvement": 2.4, "approx_within_budget": True,
            "gate_passed": True, "all_identical": True,
            "scenarios": [
                {"scenario": "zipf", "transport": "in-process",
                 "mode": "exact", "qps": 3200.0,
                 "p50_latency_seconds": 0.008, "p99_latency_seconds": 0.009,
                 "cache_hit_rate": 0.18, "rebalances_applied": 0,
                 "accuracy_budget": None, "realized_mean_error": None,
                 "answer_checksum": "ab" * 32},
                {"scenario": "zipf", "transport": "in-process",
                 "mode": "approximate", "qps": 6400.0,
                 "p50_latency_seconds": 0.004, "p99_latency_seconds": 0.005,
                 "cache_hit_rate": 0.18, "rebalances_applied": 0,
                 "accuracy_budget": 0.05, "realized_mean_error": 0.002,
                 "answer_checksum": "cd" * 32},
            ]})


def test_all_gates_pass_and_file_is_written(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    output = tmp_path / "BENCH_serving.json"
    summary = run_all.consolidate_serving(results, output)
    assert summary["all_gates_passed"] is True
    assert set(summary["benchmarks"]) == set(run_all.SERVING_GATES)
    for row in summary["benchmarks"].values():
        assert row["status"] == "ok"
        assert row["gate_passed"] is True
        assert row["speedup"] >= row["gate_threshold"]
    assert json.loads(output.read_text(encoding="utf-8")) == summary


def test_scenario_trajectory_table_is_embedded(tmp_path):
    """The summary carries one trajectory row per replayed scenario, so
    BENCH_serving.json tracks per-workload latency/accuracy — not just a
    single snapshot number per benchmark."""
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    summary = run_all.consolidate_serving(results,
                                          tmp_path / "BENCH_serving.json")
    rows = summary["scenarios"]
    assert len(rows) == 2
    modes = {(row["scenario"], row["mode"]) for row in rows}
    assert modes == {("zipf", "exact"), ("zipf", "approximate")}
    approx = next(row for row in rows if row["mode"] == "approximate")
    assert approx["accuracy_budget"] == 0.05
    assert approx["realized_mean_error"] is not None
    for row in rows:
        assert row["answer_checksum"]
        assert row["p99_latency_seconds"] is not None


def test_scatter_backend_sweep_is_embedded(tmp_path):
    """The summary carries the full thread-vs-process worker sweep — per
    configuration payload + critical-path columns, not just the headline
    speedup — so the multi-core trajectory is diffable across PRs."""
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    summary = run_all.consolidate_serving(results,
                                          tmp_path / "BENCH_serving.json")
    rows = summary["scatter_backend_sweep"]
    assert len(rows) == 3
    configs = {(row["backend"], row["workers"]) for row in rows}
    assert configs == {("serial", 0), ("threads", 4), ("processes", 4)}
    for row in rows:
        assert row["payload_bytes_per_task"] is not None
        assert row["critical_path_seconds"] is not None
        assert row["bitwise_identical"] is True


def test_scatter_backend_sweep_tolerates_a_missing_file(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    (results / "scatter_backends.json").unlink()
    summary = run_all.consolidate_serving(results,
                                          tmp_path / "BENCH_serving.json")
    assert summary["scatter_backend_sweep"] == []
    assert summary["benchmarks"]["scatter_backends"]["status"] == "missing"
    assert summary["all_gates_passed"] is False


def test_scenario_trajectory_tolerates_a_missing_file(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    (results / "scenarios.json").unlink()
    summary = run_all.consolidate_serving(results,
                                          tmp_path / "BENCH_serving.json")
    assert summary["scenarios"] == []
    assert summary["benchmarks"]["scenarios"]["status"] == "missing"
    assert summary["all_gates_passed"] is False


def test_below_threshold_fails_its_gate(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    _write(results, "sharded_build",
           {"speedup_at_4": 1.5, "all_identical": True})
    summary = run_all.consolidate_serving(results,
                                          tmp_path / "BENCH_serving.json")
    assert summary["benchmarks"]["sharded_build"]["gate_passed"] is False
    assert summary["all_gates_passed"] is False


def test_benchmarks_own_gate_verdict_wins_over_the_threshold(tmp_path):
    """A result whose headline is under the table threshold but whose own
    gate passed must be consolidated as a pass, not a false regression."""
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    _write(results, "http_serve",
           {"qps_speedup": 1.8, "gate_passed": True, "all_identical": True})
    summary = run_all.consolidate_serving(results,
                                          tmp_path / "BENCH_serving.json")
    assert summary["benchmarks"]["http_serve"]["gate_passed"] is True
    # ... but an own-gate pass can never override an identity violation.
    _write(results, "http_serve",
           {"qps_speedup": 9.0, "gate_passed": True, "all_identical": False})
    summary = run_all.consolidate_serving(results,
                                          tmp_path / "BENCH_serving.json")
    assert summary["benchmarks"]["http_serve"]["gate_passed"] is False


def test_failed_run_overrides_stale_passing_file(tmp_path):
    """A benchmark that failed THIS run must not be reported as passing
    from a previous run's on-disk result (results are only persisted
    after a benchmark's asserts pass, so the file is necessarily stale)."""
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    summary = run_all.consolidate_serving(
        results, tmp_path / "BENCH_serving.json",
        run_status={"rebalance": False, "parallel_serve": True},
    )
    row = summary["benchmarks"]["rebalance"]
    assert row["status"] == "failed"
    assert row["gate_passed"] is False
    assert row["stale_file"] is not None
    assert summary["benchmarks"]["parallel_serve"]["gate_passed"] is True
    assert summary["all_gates_passed"] is False


def test_identity_violation_fails_even_with_fast_speedup(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    _write(results, "parallel_serve",
           {"speedup_at_4": 99.0, "all_identical": False})
    _write(results, "service_throughput", {"speedup": 9.0, "mismatches": 2})
    summary = run_all.consolidate_serving(results,
                                          tmp_path / "BENCH_serving.json")
    assert summary["benchmarks"]["parallel_serve"]["gate_passed"] is False
    assert summary["benchmarks"]["service_throughput"]["gate_passed"] is False


def test_missing_result_is_reported_not_skipped(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    (results / "sharded_build.json").unlink()
    summary = run_all.consolidate_serving(results,
                                          tmp_path / "BENCH_serving.json")
    assert summary["benchmarks"]["sharded_build"]["status"] == "missing"
    assert summary["all_gates_passed"] is False


def test_history_appends_one_timestamped_record_per_consolidation(tmp_path):
    """The snapshot is rewritten; the history grows — one JSONL record per
    consolidation, each a timestamped copy of the summary it produced."""
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    output = tmp_path / "BENCH_serving.json"
    history = tmp_path / "BENCH_serving_history.jsonl"

    first = run_all.consolidate_serving(results, output)
    _write(results, "parallel_serve",
           {"speedup_at_4": 1.1, "all_identical": True})
    second = run_all.consolidate_serving(results, output)

    # The snapshot holds only the latest run ...
    assert json.loads(output.read_text(encoding="utf-8")) == second
    # ... while the history kept both, in order, each timestamped.
    records = [json.loads(line) for line in
               history.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 2
    for record, summary in zip(records, (first, second)):
        assert record["timestamp"]
        assert record["benchmarks"] == summary["benchmarks"]
        assert record["all_gates_passed"] == summary["all_gates_passed"]
    assert records[0]["all_gates_passed"] is True
    assert records[1]["all_gates_passed"] is False


def test_history_path_override(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    _full_results(results)
    elsewhere = tmp_path / "trajectory.jsonl"
    run_all.consolidate_serving(results, tmp_path / "BENCH_serving.json",
                                history_path=elsewhere)
    assert not (tmp_path / "BENCH_serving_history.jsonl").exists()
    record = json.loads(elsewhere.read_text(encoding="utf-8"))
    assert set(record["benchmarks"]) == set(run_all.SERVING_GATES)


def test_repo_summary_tracks_the_committed_results():
    """The committed BENCH_serving.json must reflect benchmark_results/."""
    committed = run_all.SERVING_SUMMARY_PATH
    assert committed.exists(), (
        "BENCH_serving.json missing; run benchmarks/run_all.py (or any "
        "serving benchmark standalone, then run_all.consolidate_serving)"
    )
    summary = json.loads(committed.read_text(encoding="utf-8"))
    assert set(summary["benchmarks"]) == set(run_all.SERVING_GATES)


def test_repo_history_trails_the_committed_summary():
    """The committed history's newest record matches the snapshot's verdict
    set — the two files are written by the same consolidation."""
    history = run_all.SERVING_SUMMARY_PATH.with_name(
        "BENCH_serving_history.jsonl"
    )
    assert history.exists(), (
        "BENCH_serving_history.jsonl missing; any consolidation appends it"
    )
    lines = history.read_text(encoding="utf-8").splitlines()
    assert lines, "history file exists but is empty"
    newest = json.loads(lines[-1])
    assert newest["timestamp"]
    assert set(newest["benchmarks"]) == set(run_all.SERVING_GATES)
