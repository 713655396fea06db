#!/usr/bin/env python3
"""Pin tools/bench_snapshot.py: Google-Benchmark times are stored in ns
whatever their time_unit, and --check fails on a changed per-solve
oracle_calls on any host, but on a throughput drop only on a host of the
baseline's shape.

Standard library only, so it runs under ctest and as
`python3 tests/tools/test_bench_snapshot.py`.
"""

from __future__ import annotations

import contextlib
import copy
import importlib.util
import io
import json
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_snapshot", REPO_ROOT / "tools" / "bench_snapshot.py")
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)

BASELINE = {
    "host": {"hardware_concurrency": 4},
    "benchmarks": {
        "bench_matching": {"rows": [
            {"name": "BM_GroupingColdResolve/128", "real_time_ns": 2.8e7,
             "oracle_calls": 322355.0},
            {"name": "BM_BlossomMinPerfect/8", "real_time_ns": 4500.0},
        ]},
        "bench_sim_throughput": {"rows": [
            {"name": "BM_ChipQuantumFullWorkload/50000", "real_time_ns": 7e6,
             "items_per_second": 2.9e7},
        ]},
    },
}


def check(snapshot: dict) -> tuple[int, str]:
    """Runs --check against BASELINE; returns (exit code, all output)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "baseline.json"
        path.write_text(json.dumps(BASELINE))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = bench_snapshot.check_against_baseline(snapshot, str(path), 0.25)
    return code, out.getvalue()


def fresh(cores: int) -> dict:
    snapshot = copy.deepcopy(BASELINE)
    snapshot["host"]["hardware_concurrency"] = cores
    return snapshot


def row(snapshot: dict, bench: str, name: str) -> dict:
    return next(r for r in snapshot["benchmarks"][bench]["rows"] if r["name"] == name)


class RowSummaryUnits(unittest.TestCase):
    def test_times_convert_to_ns_by_time_unit(self):
        for unit, scale in (("ns", 1.0), ("us", 1e3), ("ms", 1e6), ("s", 1e9)):
            summary = bench_snapshot.row_summary(
                {"name": "x", "real_time": 2.5, "cpu_time": 2.0, "time_unit": unit})
            self.assertEqual(summary["real_time_ns"], 2.5 * scale, unit)
            self.assertEqual(summary["cpu_time_ns"], 2.0 * scale, unit)

    def test_missing_time_unit_means_ns(self):
        summary = bench_snapshot.row_summary({"name": "x", "real_time": 7.0})
        self.assertEqual(summary["real_time_ns"], 7.0)

    def test_committed_grouping_rows_are_in_ns(self):
        # The cold n=512 re-solve takes about a second.
        committed = json.loads((REPO_ROOT / "BENCH_sim_throughput.json").read_text())
        cold = next(r for r in committed["benchmarks"]["bench_matching"]["rows"]
                    if r["name"] == "BM_GroupingColdResolve/512")
        self.assertGreater(cold["real_time_ns"], 1e8)


class CheckGate(unittest.TestCase):
    def test_unchanged_snapshot_passes_on_any_host(self):
        for cores in (1, 4):
            code, _ = check(fresh(cores))
            self.assertEqual(code, 0, cores)

    def test_changed_oracle_calls_fail_on_a_different_host(self):
        snapshot = fresh(cores=64)
        row(snapshot, "bench_matching", "BM_GroupingColdResolve/128")["oracle_calls"] += 1
        code, out = check(snapshot)
        self.assertEqual(code, 1)
        self.assertIn("BM_GroupingColdResolve/128", out)

    def test_dropped_oracle_calls_fail(self):
        snapshot = fresh(cores=4)
        del row(snapshot, "bench_matching", "BM_GroupingColdResolve/128")["oracle_calls"]
        self.assertEqual(check(snapshot)[0], 1)

    def test_throughput_drop_fails_only_on_a_matching_host(self):
        for cores, expected in ((4, 1), (64, 0)):
            snapshot = fresh(cores)
            row(snapshot, "bench_sim_throughput",
                "BM_ChipQuantumFullWorkload/50000")["items_per_second"] = 1.0e7
            self.assertEqual(check(snapshot)[0], expected, cores)


if __name__ == "__main__":
    unittest.main()
