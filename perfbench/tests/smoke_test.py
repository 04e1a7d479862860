#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale, both modes.

    python3 perfbench/tests/smoke_test.py      (from the checkout root)

Runs `perfbench/run.py --workload all --tiny` untraced and traced (a few
seconds each once built) and checks that every correctness gate passed and
that every metric BENCHMARK.json names, plus each workload's own headline
figures, is printed with its unit for every workload.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"

# Headline figures each workload prints under its own names.
NAMED = {
    "fleet_lifecycle": {
        "enroll_devices_per_s": "1/s", "auth_sessions_per_s": "1/s",
        "rotate_devices_per_s": "1/s", "recover_crps_per_s": "1/s"},
    "auth_flood": {
        "honest_goodput_per_s": "1/s", "honest_latency_p50_ms": "ms",
        "honest_latency_p90_ms": "ms"},
    "secure_inference": {
        "session_open_ms": "ms", "inference_p50_us": "us",
        "inference_p90_us": "us"},
}


def run_all(trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=1200,
        check=False)
    lines = done.stdout.splitlines()
    return done.returncode, lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, trace, metrics):
        code, lines, result = run_all(trace)
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertFalse([l for l in lines if l.startswith("gate ")
                          and not l.endswith(" pass")])
        for workload, named in NAMED.items():
            expected = {m["name"]: m["unit"] for m in metrics}
            expected.update(named)
            for name, unit in expected.items():
                key = f"{workload}.{name}"
                self.assertIn(key, result["metrics"])
                self.assertEqual(result["metrics"][key]["unit"], unit, key)
        return lines

    def test_end_to_end_metrics(self):
        lines = self.check(0, self.spec["end_to_end"])
        self.assertTrue(any(l.startswith("host {") for l in lines))

    def test_per_layer_metrics_and_trace_check(self):
        lines = self.check(1, self.spec["per_layer"])
        checks = [l for l in lines if l.startswith("trace check:")]
        self.assertEqual(len(checks), len(NAMED))


if __name__ == "__main__":
    unittest.main()
