#!/usr/bin/env python3
"""Unit tests for the repo's Python bench tooling (stdlib unittest only).

Covers tools/bench_diff.py and tools/roofline.py end to end — as
subprocesses against fixture JSONs, exactly how CI invokes them — so the
exit-code contracts the workflows gate on (0 ok / 1 regression or drift /
2 usage-schema error) are themselves under test, including the
overload_resilience row flattening.

Run directly (python3 tests/test_tools.py) or via ctest (test_tools).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIFF = os.path.join(REPO, "tools", "bench_diff.py")
ROOFLINE = os.path.join(REPO, "tools", "roofline.py")


def run_tool(script, *args):
    """Run a tool script; return (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, script, *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def snapshot_fixture():
    """A minimal but schema-complete bench_snapshot.py snapshot."""
    return {
        "snapshot": "BENCH_TEST",
        "benches": {
            "fold_policies": {
                "fold": [{
                    "matrix": "nb_A", "scheduler": "GrowLocal", "team": 2,
                    "modulo_makespan": 10.0, "binpack_makespan": 9.0,
                }],
                "serving": [],
                "fold_aware": [],
            },
            "slab_locality": {
                "results": [{
                    "matrix": "nb_A", "executor": "contiguous", "team": 2,
                    "nrhs": 4, "shared_seconds": 2.0e-3,
                    "slab_seconds": 1.0e-3, "slab_speedup": 2.0,
                }],
            },
            "tiled_multirhs": {
                "l3_bytes": 0,
                "cache_detected": False,
                "results": [{
                    "dataset": "narrow-band", "matrix": "nb_A",
                    "executor": "contiguous", "storage": "shared",
                    "team": 2, "nrhs": 4, "tile_cols": 4, "num_tiles": 1,
                    "rows": 100, "nnz": 500,
                    "untiled_seconds": 2.0e-3, "tiled_seconds": 1.0e-3,
                    "tiled_speedup": 2.0,
                    "bytes_moved": 1.0e6, "flops": 1.0e6,
                }],
            },
            "overload_resilience": {
                "requests": 96,
                "results": [{
                    "matrix": "grid2d_5pt",
                    "baseline_rhs_per_second": 1000.0,
                    "overload_rhs_per_second": 700.0,
                    "throughput_ratio": 0.7,
                    "latency_p50_seconds": 2.0e-3,
                    "latency_p95_seconds": 4.0e-3,
                    "admitted": 70, "rejected": 26, "expired": 0,
                    "unresolved": 0,
                }],
            },
        },
    }


class ToolTestCase(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write_json(self, name, payload):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            json.dump(payload, f)
        return path


class BenchDiffTest(ToolTestCase):
    def test_identical_snapshots_pass(self):
        base = self.write_json("base.json", snapshot_fixture())
        code, out, _ = run_tool(BENCH_DIFF, base, base)
        self.assertEqual(code, 0, out)
        self.assertIn("0 regression(s)", out)

    def test_overload_latency_regression_gates(self):
        base = self.write_json("base.json", snapshot_fixture())
        worse = snapshot_fixture()
        row = worse["benches"]["overload_resilience"]["results"][0]
        row["latency_p95_seconds"] *= 1.5
        cand = self.write_json("cand.json", worse)
        code, out, _ = run_tool(BENCH_DIFF, base, cand)
        self.assertEqual(code, 1, out)
        self.assertIn("overload_resilience/grid2d_5pt/latency_p95_seconds",
                      out)
        self.assertIn("REGRESSED", out)

    def test_speedup_direction_is_higher_better(self):
        base = self.write_json("base.json", snapshot_fixture())
        worse = snapshot_fixture()
        worse["benches"]["tiled_multirhs"]["results"][0]["tiled_speedup"] = 0.4
        cand = self.write_json("cand.json", worse)
        code, out, _ = run_tool(BENCH_DIFF, base, cand)
        self.assertEqual(code, 1, out)
        self.assertIn("tiled_speedup", out)

    def test_admission_counts_are_informational_not_gated(self):
        base = self.write_json("base.json", snapshot_fixture())
        more = snapshot_fixture()
        row = more["benches"]["overload_resilience"]["results"][0]
        row["rejected"] = 10 * row["rejected"]
        row["admitted"] = 5
        cand = self.write_json("cand.json", more)
        code, out, _ = run_tool(BENCH_DIFF, base, cand)
        self.assertEqual(code, 0, out)

    def test_filter_scopes_the_gate(self):
        base = self.write_json("base.json", snapshot_fixture())
        worse = snapshot_fixture()
        row = worse["benches"]["overload_resilience"]["results"][0]
        row["latency_p95_seconds"] *= 2.0
        cand = self.write_json("cand.json", worse)
        code, out, _ = run_tool(BENCH_DIFF, base, cand,
                                "--filter", "slab_locality/")
        self.assertEqual(code, 0, out)

    def test_threshold_tolerates_small_drift(self):
        base = self.write_json("base.json", snapshot_fixture())
        drift = snapshot_fixture()
        row = drift["benches"]["overload_resilience"]["results"][0]
        row["latency_p95_seconds"] *= 1.05
        cand = self.write_json("cand.json", drift)
        code, out, _ = run_tool(BENCH_DIFF, base, cand, "--threshold", "0.10")
        self.assertEqual(code, 0, out)
        code, out, _ = run_tool(BENCH_DIFF, base, cand, "--threshold", "0.01")
        self.assertEqual(code, 1, out)

    def test_google_benchmark_report_compares(self):
        report = {"benchmarks": [
            {"name": "BM_BspSolve/2", "run_type": "iteration",
             "real_time": 100.0, "cpu_time": 90.0},
            {"name": "BM_BspSolve/2", "run_type": "aggregate",
             "real_time": 1.0},
        ]}
        base = self.write_json("base.json", report)
        worse = copy.deepcopy(report)
        worse["benchmarks"][0]["real_time"] = 150.0
        cand = self.write_json("cand.json", worse)
        code, out, _ = run_tool(BENCH_DIFF, base, cand)
        self.assertEqual(code, 1, out)
        self.assertIn("micro_kernels/BM_BspSolve/2/real_time", out)

    def test_unrecognized_json_is_usage_error(self):
        bad = self.write_json("bad.json", {"something": "else"})
        code, _, err = run_tool(BENCH_DIFF, bad, bad)
        self.assertEqual(code, 2, err)
        self.assertIn("unrecognized", err)

    def test_missing_file_is_usage_error(self):
        base = self.write_json("base.json", snapshot_fixture())
        code, _, err = run_tool(
            BENCH_DIFF, base, os.path.join(self._dir.name, "absent.json"))
        self.assertEqual(code, 2, err)

    def test_no_overlap_is_usage_error(self):
        base = self.write_json("base.json", snapshot_fixture())
        empty = self.write_json("empty.json", {"benches": {}})
        code, _, err = run_tool(BENCH_DIFF, base, empty)
        self.assertEqual(code, 2, err)
        self.assertIn("no overlapping metrics", err)


class RooflineTest(ToolTestCase):
    def test_valid_snapshot_passes(self):
        snap = self.write_json("snap.json", snapshot_fixture())
        code, out, _ = run_tool(ROOFLINE, snap)
        self.assertEqual(code, 0, out)
        self.assertIn("no unexplained >100% entries", out)

    def test_quiet_suppresses_rows(self):
        snap = self.write_json("snap.json", snapshot_fixture())
        code, out, _ = run_tool(ROOFLINE, snap, "--quiet")
        self.assertEqual(code, 0, out)
        self.assertNotIn("of roofline", out)
        self.assertIn("achieved-vs-roofline", out)

    def test_missing_tiled_payload_is_schema_error(self):
        broken = snapshot_fixture()
        broken["benches"]["tiled_multirhs"] = None
        snap = self.write_json("snap.json", broken)
        code, _, err = run_tool(ROOFLINE, snap)
        self.assertEqual(code, 2, err)
        self.assertIn("tiled_multirhs", err)

    def test_missing_row_field_is_schema_error(self):
        broken = snapshot_fixture()
        del broken["benches"]["tiled_multirhs"]["results"][0]["flops"]
        snap = self.write_json("snap.json", broken)
        code, _, err = run_tool(ROOFLINE, snap)
        self.assertEqual(code, 2, err)
        self.assertIn("missing fields", err)
        self.assertIn("flops", err)

    def test_not_a_snapshot_is_schema_error(self):
        snap = self.write_json("snap.json", {"benchmarks": []})
        code, _, err = run_tool(ROOFLINE, snap)
        self.assertEqual(code, 2, err)

    def _with_low_micro_peak(self, l3_bytes, cache_detected):
        """A snapshot whose embedded micro peak is BELOW the tiled rows'
        achieved FLOP rate, pushing the row past 100% of the model."""
        snap = snapshot_fixture()
        snap["benches"]["micro_kernels"] = {"benchmarks": [
            {"name": "BM_MultiRhsKernel/8", "run_type": "iteration",
             "items_per_second": 1.0e8},
        ]}
        tiled = snap["benches"]["tiled_multirhs"]
        tiled["l3_bytes"] = l3_bytes
        tiled["cache_detected"] = cache_detected
        return snap

    def test_unexplained_over_100_percent_fails(self):
        snap = self.write_json(
            "snap.json", self._with_low_micro_peak(0, False))
        code, out, err = run_tool(ROOFLINE, snap)
        self.assertEqual(code, 1, out + err)
        self.assertIn("UNEXPLAINED", out)

    def test_cache_resident_over_100_percent_is_explained(self):
        snap = self.write_json(
            "snap.json", self._with_low_micro_peak(10**9, True))
        code, out, _ = run_tool(ROOFLINE, snap)
        self.assertEqual(code, 0, out)
        self.assertIn("cache-resident", out)


if __name__ == "__main__":
    unittest.main()
