"""Self-tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

They check that a corrupted output is counted as a failed operation, that a
seed always builds the same inputs, that the closed forms hold on known
values, and that a traced run of every workload prints every per-layer
metric of ``BENCHMARK.json`` (on a shortened ladder, to keep them quick).
"""

from __future__ import annotations

import io
import json
import unittest
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import cases
import run
from spans import UNTRACED
from speed import REFERENCE_S, HostSpeed
from qtchar.laurent import IntLaurent
from qtchar.yalgebra import Character

SPEC = json.loads((cases.ROOT / "BENCHMARK.json").read_text())

SHORT_ROUTE = (
    ("fundamental", "A:3", "2:a:0"),
    ("fundamental", "D:4", "spin+:a:0"),
    ("fundamental", "D:4", "1:a:0"),
    ("product", "D:4", "1:a:0,spin-:a:1"),
    ("product", "A:2", "1:a:0,2:a:1,1:b:0"),
)
SHORT_GRAPHS = (("graph", "A:2", "1:a:0,2:a:1"), ("graph", "D:4", "1:a:0,2:a:1"))


def quietly(fn, *args):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return fn(*args)


def small_run(pass_fn, rounds, n):
    tier = run.SmallTier(rounds, HostSpeed())
    quietly(tier.run_block, UNTRACED, pass_fn, 1e9, n)
    return tier.attempted, tier.failed


def corrupting(change: str, only_round_case=None):
    """An engine pass whose output has one coefficient changed."""

    def pass_fn(tr, case):
        out = run.engine_pass(tr, case)
        if only_round_case is not None and case.label not in only_round_case:
            return out
        chi = out["chi"]
        m = next(x for x in chi.support() if x != case.top)
        terms = {x: chi.coeff(x) for x in chi.support()}
        terms[m] = terms[m] + IntLaurent.one() if change == "value" else terms[m].shifted(2)
        out["chi"] = Character(chi.diagram, terms)
        return out

    return pass_fn


class CorruptedOutputs(unittest.TestCase):
    def setUp(self):
        _, self.rounds = cases.build_inputs("engine", 1)

    def test_changed_coefficient_is_a_failed_operation(self):
        for change in ("value", "t-exponent"):
            n = len(self.rounds[0])
            self.assertEqual(small_run(corrupting(change), self.rounds[:1], 1), (n, n), change)

    def test_corrupted_large_case_fails_every_repeat(self):
        tier = run.LargeTier([cases.make_case(*spec) for spec in SHORT_ROUTE[3:]], HostSpeed())
        for _ in range(2):
            tier.repeat(UNTRACED, corrupting("value"))
        self.assertEqual(quietly(tier.check, UNTRACED), (4, 4))

    def test_corruption_in_a_later_round_is_caught_by_relabelling(self):
        later = {x.case.label for x in self.rounds[1]}
        n = len(self.rounds[0])
        self.assertEqual(small_run(corrupting("t-exponent", later), self.rounds[:2], 2), (2 * n, n))

    def test_correct_outputs_pass(self):
        n = len(self.rounds[0])
        self.assertEqual(small_run(run.engine_pass, self.rounds[:2], 2), (2 * n, 0))


class HostSpeedScaling(unittest.TestCase):
    def test_a_slow_spell_scales_out(self):
        speed = HostSpeed()
        with mock.patch("speed.reference_seconds", return_value=2 * REFERENCE_S):
            speed.mark()
            self.assertAlmostEqual(speed.scaled(0.5), 0.25)
        with mock.patch("speed.reference_seconds", return_value=REFERENCE_S):
            self.assertAlmostEqual(speed.scaled(0.5), 0.5 * 2 / 3)
            self.assertAlmostEqual(speed.scaled(0.5), 0.5)


class Inputs(unittest.TestCase):
    def test_same_seed_builds_the_same_small_tier(self):
        for workload in cases.WORKLOADS:
            def labels(seed):
                return [[x.case.label for x in rnd] for rnd in cases.build_inputs(workload, seed)[1]]
            self.assertEqual(labels(4), labels(4))
            self.assertNotEqual(labels(4), labels(5))

    def test_closed_forms(self):
        a2, d4, d6 = (cases.make_case("fundamental", dg, f).d for dg, f in
                      (("A:2", "1:a:0"), ("D:4", "1:a:0"), ("D:6", "1:a:0")))
        self.assertEqual([cases.fundamental_total(d6, i) for i in range(1, 7)], [12, 67, 232, 562, 32, 32])
        self.assertEqual(cases.fundamental_total(a2, 1), 3)
        self.assertEqual(cases.fundamental_total(d4, 2), 29)
        self.assertEqual(cases.weyl_dimension("A", 2, {1: 1, 2: 1}), 8)
        self.assertEqual(cases.weyl_dimension("D", 4, {2: 1}), 28)
        self.assertEqual(cases.weyl_dimension("D", 5, {2: 2}), 770)
        self.assertEqual(cases.weyl_dimension("D", 5, {4: 1, 5: 1}), 210)


class MetricNames(unittest.TestCase):
    def test_names_match_the_benchmark_file(self):
        self.assertEqual([m["name"] for m in SPEC["end_to_end"]], [n for n, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], [n for n, _ in run.PER_LAYER])
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(cases.WORKLOADS))

    def test_traced_run_emits_every_per_layer_metric(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        with mock.patch.object(cases, "ROUTE_LARGE", SHORT_ROUTE), \
                mock.patch.object(cases, "GRAPHS_LARGE", SHORT_GRAPHS):
            for workload in cases.WORKLOADS:
                result = quietly(run.run, workload, 1, 0.0, True)
                self.assertEqual(set(result["metrics"]), names, workload)
                self.assertEqual(result["failed"], 0, workload)
                zero = [n for n, m in result["metrics"].items()
                        if not m["value"] and n != "trace.overhead_s"]
                self.assertEqual(zero, [], workload)


if __name__ == "__main__":
    unittest.main()
