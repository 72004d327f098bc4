"""Tests of the benchmark itself.

    python3 bench/selftest.py

The file name keeps pytest from collecting it with the package tests: the
smoke runs start the benchmark seven times and take about half a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Layer metrics each workload must exercise; zero here would mean a span
# missed the call site that the op goes through.
EXERCISED = {
    "mc-trials": {
        "synthesis.synthesize.calls": 20,
        "interferometer.ideal_interferogram.calls": 20,
        "reconstruction.save_result.bytes": None,
        "interferometer.save_interferogram_csv.bytes": None,
        "cli.self_s": None,
        "config.s": None,
    },
    "recon-65k": {
        "interferometer.detect_counts.s": None,
        "core.transform.calls": 2,
        "reconstruction.extract_phase_difference.s": None,
    },
    "reload-analyze": {
        "reconstruction.calibrate_delay.s": None,
        "interferometer.load_interferogram_csv.s": None,
        "reconstruction.load_result.s": None,
        "core.wigner.s": None,
        "analysis.save_wigner_csv.bytes": None,
    },
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


class SmokeTest(unittest.TestCase):
    """A short run of each workload prints every metric with its unit."""

    def check(self, workload: str) -> None:
        for trace in (0, 1):
            with self.subTest(trace=trace):
                proc = run_bench(ROOT, workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True, proc.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = result["metrics"]
                wanted = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {name: m["unit"] for name, m in metrics.items()},
                    {m["name"]: m["unit"] for m in wanted},
                )
                for name, m in metrics.items():
                    self.assertIsInstance(m["value"], (int, float), name)
                    if not trace:
                        self.assertGreater(m["value"], 0, name)
                if trace:
                    for name, expected in EXERCISED[workload].items():
                        value = metrics[name]["value"]
                        self.assertGreater(value, 0, name)
                        if expected is not None:
                            self.assertEqual(value, expected, name)

    def test_mc_trials(self):
        self.check("mc-trials")

    def test_recon_65k(self):
        self.check("recon-65k")

    def test_reload_analyze(self):
        self.check("reload-analyze")

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(Path(tmp), "recon-65k", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class GateTest(unittest.TestCase):
    """A reconstruction with the wrong delay is counted as a failed op."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(BENCH))
        import worker
        import workloads

        cls.worker, cls.workloads = worker, workloads

    def run_with_delay(self, tau_fs: float) -> dict:
        class FixedDelay(self.workloads.ReloadAnalyze):
            def delay_args(self):
                return ["--tau-fs", tau_fs]

        with tempfile.TemporaryDirectory() as tmp:
            load = FixedDelay(Path(tmp), random.Random(1))
            seeds = self.worker.seed_stream(load.name, 1)
            return self.worker.measure(load, seeds, seconds=0.5)

    def test_delay_off_by_5_fs_fails(self):
        # 5 fs shifts phi2 by about 3.1e3 fs^2
        out = self.run_with_delay(10005.0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], out["attempted"])
        self.assertTrue(out["reasons"][0].startswith("phi2"), out["reasons"])

    def test_true_delay_passes(self):
        out = self.run_with_delay(10000.0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0, out["reasons"])


if __name__ == "__main__":
    unittest.main()
