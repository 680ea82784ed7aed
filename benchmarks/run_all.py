#!/usr/bin/env python3
"""Run every benchmark in this directory as a standalone script.

Each ``bench_*.py`` module doubles as a pytest module and a standalone
script; this runner executes the standalone entry points one by one (each in
its own interpreter, so a crash cannot take down the suite), reports
pass/fail plus wall-clock per benchmark, and exits non-zero if any failed —
the shape a CI job wants.

After a run, the *serving-layer* benchmarks' persisted results (each
standalone entry point writes ``benchmark_results/<name>.json``) are
consolidated into a top-level ``BENCH_serving.json`` — one row per
benchmark with its headline speedup, gate threshold and pass/fail — so
the serving perf trajectory is a single diffable file across PRs.  Each
consolidation also appends a timestamped copy of the summary to
``BENCH_serving_history.jsonl``, preserving the run-over-run trajectory
alongside the current snapshot.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # everything
    PYTHONPATH=src python benchmarks/run_all.py --only service
    PYTHONPATH=src python benchmarks/run_all.py --list
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
RESULTS_DIR = REPO_ROOT / "benchmark_results"
SERVING_SUMMARY_PATH = REPO_ROOT / "BENCH_serving.json"

#: The serving-layer benchmarks consolidated into BENCH_serving.json:
#: result-file stem -> (headline speedup key, gate threshold, identity key,
#: identity-pass predicate).  The identity key proves answers stayed
#: bitwise-equal; the speedup key is the *headline* number reported per
#: benchmark.  When a result file carries its own ``gate_passed`` field
#: (bench_scatter_backends does: it gates every backend's speedup, not a
#: single headline number), that verdict wins over the threshold here —
#: the benchmark is the authority on its gate, this table only mirrors it.
SERVING_GATES = {
    "service_throughput": ("speedup", 3.0, "mismatches", lambda v: v == 0),
    "incremental_service": ("speedup", 5.0, "mismatches", lambda v: v == 0),
    "sharded_build": ("speedup_at_4", 2.0, "all_identical", bool),
    "parallel_serve": ("speedup_at_4", 2.0, "all_identical", bool),
    "http_serve": ("qps_speedup", 2.0, "all_identical", bool),
    "rebalance": ("p99_improvement", 1.5, "all_identical", bool),
    "scenarios": ("approx_p99_improvement", 1.5, "all_identical", bool),
    "scatter_backends": ("min_speedup_at_4", 2.0, "all_identical", bool),
}

#: Benchmark script name -> result-file stem, for tying a consolidation to
#: the scripts that actually ran (and whether they passed) in this run.
SERVING_SCRIPTS = {f"bench_{stem}.py": stem for stem in SERVING_GATES}


def discover(only: str = "") -> list:
    """All bench_*.py scripts, optionally filtered by substring."""
    return sorted(
        path for path in BENCH_DIR.glob("bench_*.py") if only in path.name
    )


def run_one(path: Path) -> tuple:
    """Run one benchmark script; returns (ok, seconds, output)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True, text=True, env=env, cwd=str(BENCH_DIR.parent),
    )
    elapsed = time.perf_counter() - start
    output = completed.stdout + completed.stderr
    return completed.returncode == 0, elapsed, output


def _scenario_trajectory(results_dir: Path) -> list:
    """Per-scenario trajectory rows from ``scenarios.json``, if present.

    ``bench_scenarios.py`` persists one normalized record per replayed
    scenario (exact and approximate runs); the consolidated summary
    carries them as a table instead of a single snapshot number, so the
    per-workload latency/accuracy trajectory is diffable across PRs.  An
    absent file yields an empty table (the ``scenarios`` *gate* row still
    reports it as missing).
    """
    path = results_dir / "scenarios.json"
    if not path.exists():
        return []
    payload = json.loads(path.read_text(encoding="utf-8"))
    rows = []
    for record in payload.get("scenarios", []):
        rows.append({
            "scenario": record.get("scenario"),
            "transport": record.get("transport"),
            "mode": record.get("mode"),
            "qps": record.get("qps"),
            "p50_latency_seconds": record.get("p50_latency_seconds"),
            "p99_latency_seconds": record.get("p99_latency_seconds"),
            "cache_hit_rate": record.get("cache_hit_rate"),
            "rebalances_applied": record.get("rebalances_applied"),
            "accuracy_budget": record.get("accuracy_budget"),
            "realized_mean_error": record.get("realized_mean_error"),
            "answer_checksum": record.get("answer_checksum"),
        })
    return rows


def _scatter_sweep(results_dir: Path) -> list:
    """Thread-vs-process worker-sweep rows from ``scatter_backends.json``.

    ``bench_scatter_backends.py`` persists one row per ``(backend,
    workers)`` configuration with per-task payload bytes and critical-path
    seconds; the consolidated summary carries the whole sweep so the
    multi-core serving trajectory (and the payload cost of each backend)
    is diffable across PRs.  An absent file yields an empty table (the
    ``scatter_backends`` *gate* row still reports it as missing).
    """
    path = results_dir / "scatter_backends.json"
    if not path.exists():
        return []
    payload = json.loads(path.read_text(encoding="utf-8"))
    rows = []
    for record in payload.get("rows", []):
        rows.append({
            "backend": record.get("backend"),
            "workers": record.get("workers"),
            "payload_bytes_per_task": record.get("payload_bytes_per_task"),
            "critical_path_seconds": record.get("critical_path_seconds"),
            "speedup": record.get("speedup"),
            "bitwise_identical": record.get("bitwise_identical"),
        })
    return rows


def consolidate_serving(results_dir: Path = RESULTS_DIR,
                        output_path: Path = SERVING_SUMMARY_PATH,
                        run_status: "dict | None" = None,
                        history_path: "Path | None" = None) -> dict:
    """Gather the serving benchmarks' persisted results into one summary.

    Reads each ``<results_dir>/<name>.json`` named in :data:`SERVING_GATES`
    (missing files are reported as ``"missing"`` rather than skipped — a
    benchmark that stopped persisting is itself a regression) and writes
    the per-benchmark speedup + gate status to ``output_path``, together
    with the per-scenario trajectory table
    (:func:`_scenario_trajectory`) from the scenario harness.  Returns
    the summary dict.

    Besides rewriting the ``output_path`` snapshot (the diffable
    "current trajectory" file), every consolidation **appends** one
    timestamped record to ``history_path`` (default:
    ``BENCH_serving_history.jsonl`` next to the snapshot) — the snapshot
    answers "where are we", the history answers "how did we get here"
    across runs without digging through git.  Pass an explicit
    ``history_path`` to redirect it (tests do).

    The gate verdict per benchmark is, in order of authority: the result
    file's own ``gate_passed`` field when present (a benchmark may gate on
    more than one metric), else ``speedup >= threshold``; both are still
    conjoined with the identity check.  ``run_status`` maps result-file
    stems to this run's subprocess success: a benchmark that *failed this
    run* is reported as ``"failed"`` with ``gate_passed: false`` even if a
    previous run left a passing JSON on disk — a benchmark only persists
    results after its asserts pass, so the on-disk file would otherwise be
    a stale pass masking the regression.
    """
    run_status = run_status or {}
    benchmarks = {}
    for name, (speedup_key, threshold, identity_key, identity_ok) \
            in sorted(SERVING_GATES.items()):
        path = results_dir / f"{name}.json"
        if run_status.get(name) is False:
            benchmarks[name] = {"status": "failed",
                                "gate_passed": False,
                                "stale_file": str(path) if path.exists()
                                else None}
            continue
        if not path.exists():
            benchmarks[name] = {"status": "missing",
                                "expected_file": str(path)}
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        speedup = payload.get(speedup_key)
        identity = payload.get(identity_key)
        own_gate = payload.get("gate_passed")
        speed_ok = (bool(own_gate) if own_gate is not None
                    else speedup is not None and speedup >= threshold)
        benchmarks[name] = {
            "status": "ok",
            "speedup_key": speedup_key,
            "speedup": round(float(speedup), 3) if speedup is not None else None,
            "gate_threshold": threshold,
            "answers_identical": bool(identity_ok(identity)),
            "gate_passed": bool(speed_ok and identity_ok(identity)),
        }
    summary = {
        "benchmarks": benchmarks,
        "scenarios": _scenario_trajectory(results_dir),
        "scatter_backend_sweep": _scatter_sweep(results_dir),
        "all_gates_passed": all(
            row.get("gate_passed") for row in benchmarks.values()
        ),
    }
    output_path.write_text(json.dumps(summary, indent=2) + "\n",
                           encoding="utf-8")
    if history_path is None:
        history_path = output_path.with_name("BENCH_serving_history.jsonl")
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **summary,
    }
    with history_path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="",
                        help="run only benchmarks whose filename contains this")
    parser.add_argument("--list", action="store_true",
                        help="list matching benchmarks and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="print each benchmark's output, not just failures")
    args = parser.parse_args(argv)

    benchmarks = discover(args.only)
    if not benchmarks:
        print(f"no benchmarks match {args.only!r}")
        return 2
    if args.list:
        for path in benchmarks:
            print(path.name)
        return 0

    failures = 0
    run_status = {}
    for path in benchmarks:
        ok, elapsed, output = run_one(path)
        status = "ok" if ok else "FAILED"
        print(f"{path.name:<40} {status:<7} {elapsed:7.1f}s", flush=True)
        if args.verbose or not ok:
            print(output)
        failures += not ok
        if path.name in SERVING_SCRIPTS:
            run_status[SERVING_SCRIPTS[path.name]] = ok
    print(f"{len(benchmarks) - failures}/{len(benchmarks)} benchmarks passed")
    if set(run_status) == set(SERVING_GATES):
        # Only a run that executed EVERY serving benchmark may rewrite the
        # trajectory file: a --only-filtered run would otherwise republish
        # stale on-disk results (or clobber the summary with "missing"
        # rows) for benchmarks that never ran.
        summary = consolidate_serving(run_status=run_status)
        reported = sum(1 for row in summary["benchmarks"].values()
                       if row["status"] == "ok")
        print(f"serving summary: {reported}/{len(summary['benchmarks'])} "
              f"benchmarks reported, all gates passed: "
              f"{summary['all_gates_passed']} -> {SERVING_SUMMARY_PATH.name}")
    elif run_status:
        print(f"serving summary: skipped ({len(run_status)}/"
              f"{len(SERVING_GATES)} serving benchmarks selected; "
              f"{SERVING_SUMMARY_PATH.name} is rewritten only by full runs)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
