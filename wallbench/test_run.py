"""Tests of run.py: metric naming, output format and failure
accounting. Run with `python3 -m unittest discover -s wallbench`."""

import json
import re
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((Path(run.HERE) / "metrics.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def names(section):
    return [m["name"] for m in SPEC[section]]


def point(pid, digest, ok=True):
    return {"id": pid, "label": f"p{pid}", "digest": digest, "ok": ok}


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        every = names("end_to_end") + names("per_layer") + [w["name"] for w in SPEC["workloads"]]
        for n in every:
            self.assertRegex(n, NAME)
        self.assertEqual(len(set(names("end_to_end") + names("per_layer"))),
                         len(names("end_to_end")) + len(names("per_layer")))

    def test_run_py_and_manifest_agree(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), run.WORKLOADS)
        self.assertIn("setup_s", names("end_to_end"))

    def test_every_layer_metric_is_mapped_to_an_end_to_end_metric(self):
        self.assertEqual(sorted(LAYER_MAP["layers"]), sorted(names("per_layer")))
        self.assertEqual(sorted(LAYER_MAP["end_to_end"]), sorted(names("end_to_end")))
        for name, entry in LAYER_MAP["layers"].items():
            self.assertTrue(entry["moves"], name)
            for w in entry["workloads"]:
                self.assertIn(w, run.WORKLOADS, name)


class Output(unittest.TestCase):
    def emitted(self, section):
        values = {n: 1.5 for n in names(section)}
        return json.loads(run.emit(values, section, attempted=4, failed=0))

    def test_every_metric_is_printed_with_its_unit(self):
        for section in ("end_to_end", "per_layer"):
            out = self.emitted(section)
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            units = {m["name"]: m["unit"] for m in SPEC[section]}
            self.assertEqual(set(out["metrics"]), set(units))
            for n, m in out["metrics"].items():
                self.assertEqual(m, {"value": 1.5, "unit": units[n]})

    def test_a_missing_metric_refuses_to_print(self):
        values = {n: 1.0 for n in names("end_to_end")[1:]}
        with self.assertRaises(run.BenchError):
            run.emit(values, "end_to_end", attempted=1, failed=0)

    def test_failures_mark_the_result_incorrect(self):
        values = {n: 1.0 for n in names("end_to_end")}
        out = json.loads(run.emit(values, "end_to_end", attempted=3, failed=1))
        self.assertEqual((out["correct"], out["attempted"], out["failed"]), (False, 3, 1))


class FailureAccounting(unittest.TestCase):
    def test_agreeing_runs_have_no_failures(self):
        runs = [[point(0, "aa"), point(1, "bb")]] * 3
        self.assertEqual(run.failures(runs, [(0, "aa"), (0, "aa")]), (8, 0))

    def test_a_corrupted_digest_fails_its_point(self):
        runs = [[point(0, "aa"), point(1, "bb")], [point(0, "aa"), point(1, "b0")]]
        self.assertEqual(run.failures(runs), (4, 1))

    def test_a_broken_invariant_fails_its_point(self):
        runs = [[point(0, "aa", ok=False)], [point(0, "aa", ok=False)]]
        self.assertEqual(run.failures(runs), (2, 2))

    def test_a_diverging_or_missing_shard_digest_fails(self):
        runs = [[point(0, "aa")]]
        self.assertEqual(run.failures(runs, [(0, "aa"), (0, "ab")]), (3, 1))
        self.assertEqual(run.failures(runs, [(0, None)]), (2, 1))


if __name__ == "__main__":
    unittest.main()
