"""Smoke test of the benchmark: every workload at tiny size, both runs.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each workload runs once untraced and once traced with `--smoke`. The
test asserts that the run exits 0, that its output checks passed, and
that the printed metric names are exactly the ones BENCHMARK.json lists,
in order.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    try:
        return out.returncode, json.loads(out.stdout.strip().split("\n")[-1])
    except ValueError:
        raise AssertionError(f"{workload}: no result line\n{out.stderr[-2000:]}")


class Smoke(unittest.TestCase):
    def test_every_workload_both_runs(self):
        bench = spec()
        for w in bench["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result = run(w["name"], trace)
                    self.assertEqual(code, 0)
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = [m["name"] for m in bench[key]]
                    self.assertEqual(list(result["metrics"]), names)
                    units = {m["name"]: m["unit"] for m in bench[key]}
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], units[name])
                        self.assertTrue(math.isfinite(m["value"]), name)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
