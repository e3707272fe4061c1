"""Self-tests of the benchmark itself (not collected by the repo's pytest run).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  The metric-listing test runs
every workload once with --seconds 1, so the whole file takes a couple of
minutes.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SeedTest(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.op_argv(name, 7), workloads.op_argv(name, 7))
            self.assertNotEqual(workloads.op_argv(name, 7), workloads.op_argv(name, 8))

    def test_same_seed_same_vector_arrays(self):
        a, b, c = (workloads.vector_inputs(s) for s in (7, 7, 8))
        for key in a:
            self.assertTrue(np.array_equal(a[key], b[key]))
            self.assertFalse(np.array_equal(a[key], c[key]))
        self.assertTrue(np.array_equal(workloads.oracle_indices(a, 7),
                                       workloads.oracle_indices(b, 7)))


class CheckerTest(unittest.TestCase):
    def test_reference_flags_one_corrupted_cell(self):
        ref = (HERE / "reference" / "sweep.csv").read_text()
        problems, identical = checks.check_reference(checks.parse_csv(ref), ref)
        self.assertEqual((problems, identical), ([], True))
        lines = ref.splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[5] = repr(float(cells[5]) * 1.01)
        lines[5] = ",".join(cells)
        problems, identical = checks.check_reference(checks.parse_csv("".join(lines)), ref)
        self.assertEqual(len(problems), 1)
        self.assertIn("p_conn_mf[4]", problems[0])
        self.assertFalse(identical)

    def test_reference_accepts_last_digit_and_negative_zero(self):
        ref = "rho,dg\n0,-0\n1,0.123456789012\n"
        got = "rho,dg\n0,0\n1,0.123456789013\n"
        problems, identical = checks.check_reference(checks.parse_csv(got), ref)
        self.assertEqual((problems, identical), ([], False))

    def test_mc_flags_one_corrupted_cell(self):
        text = ('# config: {"mc_samples": 1000000}\n'
                "rd,p_conn_mf,p_conn_mf_mc\n1,0.5,0.5003\n2,0.9,0.9002\n")
        self.assertEqual(checks.check_mc(checks.parse_csv(text)), [])
        bad = text.replace("0.9002", "0.9102")
        self.assertEqual(len(checks.check_mc(checks.parse_csv(bad))), 1)


def span(op, i, name, start, end, parent=-1, **work):
    return dict(op=op, i=i, name=name, start=start, end=end, parent=parent, **work)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        tree = [span(0, 0, "cli.main", 0.0, 10.0),
                span(0, 1, "outage.p_conn_mf", 1.0, 4.0, 0),
                span(0, 2, "numerics.bessel_k1", 2.0, 3.0, 1),
                span(0, 3, "outage.p_conn_af", 3.0, 6.0, 0),      # overlaps its sibling
                span(1, 0, "cli.main", 0.0, 2.0)]                 # same index, other op
        self.assertEqual(spans.self_times(tree),
                         {(0, 0): 5.0, (0, 1): 2.0, (0, 2): 1.0, (0, 3): 3.0, (1, 0): 2.0})

    def test_layer_counts(self):
        tree = [span(0, 0, "latticesim.scan_scaling", 0.0, 9.0, blocks_per_pass=2)]
        tree += [span(0, i, "channel.rng_stream", i, i + 0.5, 0) for i in range(1, 7)]
        tree += [span(1, 0, "channel.rng_stream", 0.0, 1.0),
                 span(1, 1, "outage.mc_outage", 1.0, 2.0, samples=10, draws="a"),
                 span(1, 2, "outage.mc_outage", 2.0, 3.0, samples=10, draws="a"),
                 span(2, 0, "outage.mc_outage", 0.0, 1.0, samples=10, draws="a")]
        m = spans.layer_metrics(tree)
        self.assertEqual(m["latticesim.scan_scaling.chain_passes"], 3.0)
        self.assertEqual(m["latticesim.scan_scaling.self_s"], 6.0)
        self.assertEqual(m["channel.rng_stream.calls"], 7)
        self.assertEqual(m["outage.mc_outage.samples"], 30)
        self.assertAlmostEqual(m["outage.mc_outage.draw_reuse_ratio"], 2 / 3)


class CommandTest(unittest.TestCase):
    def test_prints_every_declared_metric(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[key]}
            for w in declared["workloads"]:
                proc = subprocess.run(
                    [sys.executable, *declared["command"][1:], "--workload", w["name"],
                     "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=180)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stderr)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (w["name"], trace))


if __name__ == "__main__":
    unittest.main()
