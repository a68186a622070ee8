"""Fast self-test of the benchmark's own code.

    python3 bench/selftest.py

Runs every workload for a fraction of a second, untraced and traced, and
checks that the last line carries exactly the metrics BENCHMARK.json
lists, each with its unit, and that a wrong expectation forced into the
checks is counted as a failure rather than passing or aborting the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import unittest

import run

run.use_checkout_source()

import workloads  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.1"


def last_line(workload: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", workload, "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)])
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


class SelfTest(unittest.TestCase):
    def test_workloads_match_declaration(self):
        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(list(run.WORKLOAD_NAMES), list(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in DECLARED["end_to_end"]], list(workloads.GATED))

    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in DECLARED[key]}
            for workload in run.WORKLOAD_NAMES:
                with self.subTest(workload=workload, trace=trace):
                    line, text = last_line(workload, trace)
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"])
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(line["failed"], 0)
                    got = {name: m["unit"] for name, m in line["metrics"].items()}
                    self.assertEqual(got, units)
                    for name, m in line["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float))
                        self.assertIn(f"{name} {m['value']!r} {m['unit']}", text)

    def test_wrong_engine_expectation_is_a_failure(self):
        result = workloads.run("myp-inproc", 7, 0.1, False, run.SRC, wrong=True)
        self.assertGreaterEqual(result.failed, 1)
        self.assertGreaterEqual(result.hard_failures, 1)
        self.assertEqual(result.metrics["verdict_fail_share"][0], result.failed / result.attempted)

    def test_wrong_codec_expectation_is_a_failure(self):
        result = workloads.run("codec-imap-lines", 7, 0.1, False, run.SRC, wrong=True)
        self.assertEqual(result.failed, result.attempted)
        self.assertEqual(result.metrics["roundtrip_fail_share"][0], 1.0)


if __name__ == "__main__":
    unittest.main()
