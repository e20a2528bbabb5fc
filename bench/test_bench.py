"""Tests of the benchmark itself: generators, checkers, percentiles, spans.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import spans
import stats
import workloads
from farey import INF, fold_into_unit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# null(1/6, 1/3): the reflection in the Farey edge (0, 1/3) carries 1/6 to ∞.
S, R = (1, 6), (1, 3)
STEP = (1, 0, 6, -1)
GOOD = dict(s=S, r=R, member=True, representative=INF, route="GENERIC",
            start=S, steps=[(STEP, INF)], result=INF)


def decision(**changes):
    args = dict(GOOD, **changes)
    return checks.check_decision(args["s"], args["r"], args["member"], args["representative"],
                                 args["route"], args["start"], args["steps"], args["result"],
                                 args.get("expect"))


class Generators(unittest.TestCase):
    def take(self, rounds, n=300):
        return list(itertools.islice(itertools.chain.from_iterable(rounds), n))

    def test_same_seed_same_inputs(self):
        for make in (workloads.queries, workloads.structure, workloads.sweep):
            self.assertEqual(self.take(make(7)), self.take(make(7)))
        for name in workloads.TAIL_PERCENTILE:
            self.assertEqual(workloads.setup_argv(name, 7), workloads.setup_argv(name, 7))
        self.assertEqual(workloads.known_defect_probes(7), workloads.known_defect_probes(7))

    def test_other_seed_other_inputs(self):
        for make in (workloads.queries, workloads.structure, workloads.sweep):
            self.assertNotEqual(self.take(make(7)), self.take(make(8)))

    def test_queries_cover_every_regime_and_kind(self):
        qs = self.take(workloads.queries(1), 2000)
        self.assertEqual({q.regime for q in qs}, {"outside", "gap", "cusp", "deep"})
        self.assertEqual({q.kind for q in qs}, {"null", "epi", "reduce", "cli"})
        self.assertTrue(any(q.r[0] < 0 for q in qs), "no negative r")
        self.assertTrue(any(q.r[1] and q.r[0] > q.r[1] for q in qs), "no r > 1")
        self.assertTrue(any(q.r == INF for q in qs), "no r = ∞")

    def test_built_inputs_fit_the_domain(self):
        for q in self.take(workloads.queries(3), 3000):
            self.assertLessEqual(max(abs(q.s[0]), q.s[1]), workloads.SLOPE_LIMIT)
            if q.verb == "reduce":  # the domain of reduce_to_fundamental
                self.assertTrue(0 < q.r[0] < q.r[1], q)
            if q.kind == "cli":
                self.assertEqual(q.argv()[-3], "--")
            if q.expect and q.expect[1] is not None and q.r[1]:
                r_unit, _ = fold_into_unit(q.r)
                if r_unit not in ((0, 1), (1, 1)):
                    self.assertTrue(checks.in_fundamental_set(q.expect[1], r_unit))


class Checkers(unittest.TestCase):
    def test_sound_certificate_passes(self):
        self.assertIsNone(decision())
        self.assertIsNone(decision(expect=(True, None)))

    def test_tampered_trace_is_rejected(self):
        self.assertIn("determinant", decision(steps=[((1, 0, 6, 1), INF)]))
        self.assertIn("records", decision(steps=[(STEP, (1, 2))]))
        # The reflection in the edge (0, 1) fixes neither ∞ nor 1/3.
        self.assertIn("fixes neither", decision(steps=[((1, 0, 2, -1), (1, 2))]))
        self.assertIsNotNone(decision(steps=[]))

    def test_wrong_answer_is_rejected(self):
        self.assertIn("contradicts", decision(member=False))
        self.assertIn("built", decision(expect=(False, (1, 2))))
        self.assertIn("route", decision(route="R_INTEGER"))
        self.assertIsNotNone(checks.check_epimorphism(False, True, False))
        self.assertIsNone(checks.check_epimorphism(True, False, True))

    def test_integer_route_uses_parity(self):
        # r = 2 folds to 0; s = 1/2 has the parity of ∞, so it is a member.
        steps = [((-1, 4, 0, 1), (7, 2))]
        ok = dict(s=(1, 2), r=(2, 1), member=True, representative=INF, route="R_INTEGER",
                  start=(1, 2), steps=steps, result=(7, 2))
        self.assertIsNone(decision(**ok))
        self.assertIsNotNone(decision(**dict(ok, member=False)))

    def test_structure_checker_rejects_a_broken_sequence(self):
        # r = 4/7 = [1, 1, 3]: S = (S1, S2, S1, S2) with S1 = (2, 2, 2), S2 = (1).
        out = {"u": "abABabAbaBAbaB", "hat": "bABabA", "S": (2, 2, 2, 1, 2, 2, 2, 1),
               "CS": (1, 2, 2, 2, 1, 2, 2, 2), "T": (3, 3), "r1": (1, 2), "r2": (3, 5),
               "S1": (2, 2, 2), "S2": (1,), "necessary": True, "report": (True, True, 4)}
        self.assertIsNone(checks.check_structure(4, 7, out))
        self.assertIsNotNone(checks.check_structure(4, 7, dict(out, S=(2, 2, 2, 2, 2, 2, 1, 1))))
        self.assertIsNotNone(checks.check_structure(4, 7, dict(out, report=(True, True, 3))))

    def test_scan_checker(self):
        certified = {(0, 1): False, (1, 3): True, INF: True}
        self.assertIsNone(checks.check_scan([(1, 3), INF], certified))
        self.assertIsNotNone(checks.check_scan([(1, 3)], certified))
        self.assertIsNotNone(checks.check_scan([(0, 1), (1, 3), INF], certified))


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 99), (990, 10))
        self.assertEqual(stats.percentile(values, 50), (500, 500))
        self.assertEqual(stats.percentile([5], 99), (5, 0))
        self.assertEqual(stats.percentile(list(reversed(values)), 90), (900, 100))

    def test_tail_percentile_is_recorded_in_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        for name, pct in workloads.TAIL_PERCENTILE.items():
            self.assertIn(f"tail p{pct:g}", why[name])


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        names = ["a.outer", "b.inner"]
        # outer [0, 100) holds inner [10, 30) and inner [50, 60), which holds outer [52, 55).
        name = [0, 1, 1, 0]
        start = [0, 10, 50, 52]
        end = [100, 30, 60, 55]
        parent = [-1, 0, 0, 2]
        per = spans.self_times(names, name, start, end, parent)
        self.assertEqual(per["a.outer"], [70 + 3, 100, 2])
        self.assertEqual(per["b.inner"], [20 + 7, 30, 2])
        self.assertEqual(spans.by_layer(per), {"a": [73, 2], "b": [27, 2]})

    def test_install_catches_cross_layer_calls(self):
        code = (
            "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import twobridge.cli, spans\n"
            "rec = spans.Recorder(); spans.install(rec); rec.on = True\n"
            "from twobridge import decide, slopes\n"
            "decide.is_null_homotopic(slopes.Slope(1, 6), slopes.Slope(1, 3))\n"
            "print(' '.join(rec.names[i] + '<' + (rec.names[rec.name[p]] if p >= 0 else '-')"
            " for i, p in zip(rec.name, rec.parent)))\n")
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                             capture_output=True, text=True, check=True).stdout
        self.assertIn("decide.is_null_homotopic<-", out)
        self.assertIn("reflections.classify_orbit<decide.is_null_homotopic", out)
        self.assertIn("slopes.fundamental_endpoints<", out)


class Command(unittest.TestCase):
    def test_refuses_without_the_sources(self):
        (BENCH / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "queries",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
