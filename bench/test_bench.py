"""Tests of the benchmark itself: generator, invariant check, tracer and span arithmetic.

    python3 -m unittest discover -s bench -p 'test_*.py'

The invariant tests run `analyze` on every workload twice, in process, and
take about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _eval(terms, point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms:
        value = Fraction(coeff)
        for x, e in zip(point, exps):
            value *= Fraction(x) ** e
        total += value
    return total


def _orbit(doc, steps):
    point = [Fraction(x) for x in doc["initial_point"]]
    out = [point]
    for _ in range(steps):
        point = [_eval(p, point) for p in doc["map"]]
        out.append(point)
    return out


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_problem(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.make_problem(name, 7), workloads.make_problem(name, 7))

    def test_translation_nonzero_and_support_kept(self):
        for name in workloads.WORKLOADS:
            supports = set()
            for seed in range(40):
                doc, t = workloads.make_problem(name, seed)
                self.assertTrue(all(0 < abs(ti) <= workloads.MAX_SHIFT for ti in t))
                supports.add(json.dumps([[e for e, _ in p] for p in doc["map"] + doc["variety"]]))
            self.assertEqual(len(supports), 1, name)

    def test_translation_is_conjugation(self):
        for name in workloads.WORKLOADS:
            sample = workloads.sample_problem(name)
            doc, t = workloads.make_problem(name, 3)
            for old, new in zip(_orbit(sample, 4), _orbit(doc, 4)):
                self.assertEqual(new, [x - ti for x, ti in zip(old, t)])
                for q_old, q_new in zip(sample["variety"], doc["variety"]):
                    self.assertEqual(_eval(q_old, old), _eval(q_new, new))
            for old, new in zip(sample["periodic_points"], doc["periodic_points"]):
                self.assertEqual([Fraction(x) for x in new], [x - ti for x, ti in zip(old, t)])


class InvariantTest(unittest.TestCase):
    def test_nonzero_translation_reproduces_sample_invariants(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                want = workloads.expected_invariants(name)
                sample = workloads.invariants(
                    workloads.analyze_in_process(workloads.sample_problem(name))
                )
                self.assertEqual(workloads.mismatches(sample, want), [])
                doc, t = workloads.make_problem(name, 1)
                self.assertTrue(all(t))
                got = workloads.invariants(workloads.analyze_in_process(doc))
                self.assertEqual(workloads.mismatches(got, want), [])
                self.assertEqual(got["failure"], [])

    def test_mismatch_is_reported(self):
        want = workloads.expected_invariants("swap-2d")
        got = json.loads(json.dumps(want))
        got["gap_verdict"] = "violation"
        got["models"] = got["models"][:-1]
        self.assertEqual(workloads.mismatches(got, want), ["gap_verdict", "models"])


class TracerTest(unittest.TestCase):
    def _traced(self, tmp: Path, problem: Path, tag: str) -> dict:
        spans = tmp / f"spans-{tag}.json"
        records = tmp / f"records-{tag}.jsonl"
        subprocess.run(
            [sys.executable, str(HERE / "trace_child.py"), str(spans), tag, "--",
             "analyze", str(problem), "--out", str(records)],
            check=True, stdout=subprocess.DEVNULL, env=run._child_env(),
        )
        doc = json.loads(spans.read_text())
        return run.traced_figures(doc, workloads.read_records(records))

    def test_counts_repeat_and_imported_names_are_patched(self):
        doc = workloads.sample_problem("avoid-scan")
        doc["parameters"]["prime_range"] = [3, 60]
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            tmp = Path(tmp)
            problem = tmp / "problem.json"
            problem.write_text(json.dumps(doc))
            first, second = (self._traced(tmp, problem, tag) for tag in "ab")
        counts = [n for n, unit in run.PER_LAYER.items() if unit == "count"]
        self.assertEqual({n: first.get(n) for n in counts}, {n: second.get(n) for n in counts})
        # pipeline and cli call these through names they imported
        for stem in ("gaps.compute_returns", "pipeline.stage_normalization",
                     "normalization.build_model_family", "problemfile.load_problem"):
            self.assertEqual(first[f"{stem}.calls"], 1, stem)
        self.assertGreater(first["reduction.preimage_buckets.calls"], 0)
        self.assertGreater(first["polynomials.ModularMap.call.calls"], 0)
        for name, unit in run.PER_LAYER.items():
            if unit == "s" and not name.startswith("trace."):
                self.assertGreater(first[name], 0, name)


class SpanTest(unittest.TestCase):
    def test_self_time_and_recursion(self):
        spans = [
            [0, "cli.main", 0, 100, None],
            [1, "pipeline.run_analyze", 10, 90, 0],
            [2, "gaps.restrict_to_disk", 20, 60, 1],
            [3, "gaps.restrict_to_disk", 30, 50, 2],
            [4, "padic.binomial_row", 35, 45, 3],
        ]
        m = run.span_metrics(spans)
        self.assertEqual(m["gaps.restrict_to_disk.calls"], 2)
        self.assertAlmostEqual(m["gaps.restrict_to_disk.s"], 40e-9)
        self.assertAlmostEqual(m["gaps.self_s"], 30e-9)
        self.assertAlmostEqual(m["pipeline.self_s"], 40e-9)
        self.assertAlmostEqual(m["cli.self_s"], 20e-9)
        self.assertAlmostEqual(m["padic.binomial_row.s"], 10e-9)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
