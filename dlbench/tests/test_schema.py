"""Round-trips the benchmark's output schema against BENCHMARK.json.

Run through `python3 dlbench/run.py --selftest`, which builds the
benchmark binary first.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def catalogue():
    done = subprocess.run([os.path.join(run.BUILD, "dlbench"), "--list"],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def fake_result(metrics):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": 1.5, "unit": unit}
                        for name, unit in metrics.items()}}


class SchemaTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.catalogue = catalogue()

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         self.catalogue["workloads"])

    def test_metric_names_and_units_match(self):
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in self.spec[group]}
            self.assertEqual(declared, self.catalogue[group], group)

    def test_spec_keys_and_bounds(self):
        self.assertEqual(set(self.spec),
                         {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"})
        names = [m["name"] for m in self.spec["end_to_end"]]
        self.assertIn("setup_s", names)
        for metric in self.spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        setup = next(m for m in self.spec["end_to_end"]
                     if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_result_round_trip(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = fake_result(self.catalogue[group])
            line = json.dumps(result)
            self.assertEqual(run.check_result(json.loads(line), self.spec,
                                              trace), [])

    def test_check_rejects_drift(self):
        metrics = dict(self.catalogue["end_to_end"])
        missing = fake_result(metrics)
        del missing["metrics"]["setup_s"]
        self.assertNotEqual(run.check_result(missing, self.spec, 0), [])
        wrong_unit = fake_result(metrics)
        wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
        self.assertNotEqual(run.check_result(wrong_unit, self.spec, 0), [])
        extra_key = fake_result(metrics)
        extra_key["seed"] = 1
        self.assertNotEqual(run.check_result(extra_key, self.spec, 0), [])
        # The per-layer set is not a valid untraced result.
        layered = fake_result(self.catalogue["per_layer"])
        self.assertNotEqual(run.check_result(layered, self.spec, 0), [])


if __name__ == "__main__":
    unittest.main()
