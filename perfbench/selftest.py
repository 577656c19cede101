"""Self-tests of the benchmark's own checks and arithmetic.

usage: python3 perfbench/selftest.py
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hubbard_gf import cli  # noqa: E402


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _corrupt(path, column, row, delta):
    """Add delta to one data cell of a CSV written by the CLI."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("# ")) + 1
    cells = lines[first + row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[first + row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


class CheckerFlagsCorruption(unittest.TestCase):
    def test_exact_series_with_one_corrupted_estimate_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.assertEqual(_cli("correlator", "--shots", "0", "--steps", "5", "--pair", "y2y2",
                                  "--outdir", tmp), 0)
            path = os.path.join(tmp, "y2y2.csv")
            ref = checks.anticommutator_series(1.0, 4.0, 0.314, 5, "y2y2", "retarded")
            self.assertTrue(checks.check_exact(path, ref, 0.314, 5, 1.0)[0])
            _corrupt(path, column=1, row=3, delta=1e-6)
            self.assertFalse(checks.check_exact(path, ref, 0.314, 5, 1.0)[0])

    def test_landscape_with_one_corrupted_energy_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.assertEqual(_cli("vha-sweep", "--grid", "5", "--outdir", tmp), 0)
            path = os.path.join(tmp, "landscape.csv")
            self.assertTrue(checks.check_landscape(path, 1.0, 4.0, 5, 0)[0])
            _corrupt(path, column=2, row=7, delta=1e-8)
            self.assertFalse(checks.check_landscape(path, 1.0, 4.0, 5, 0)[0])

    def test_mitigation_check_counts_points_where_mitigation_wins(self):
        with tempfile.TemporaryDirectory() as tmp:
            ref = [1.0, 0.5, 0.0, -0.5, -1.0]
            paths = []
            for name, dev in (("mit", [0.1, 0.1, 0.1, 0.1, 0.3]), ("unmit", [0.2] * 5)):
                paths.append(os.path.join(tmp, name + ".csv"))
                rows = "".join(f"{i},{r + d}\n" for i, (r, d) in enumerate(zip(ref, dev)))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    f.write("# correlator=y2y2\ntau,estimate\n" + rows)
            self.assertTrue(checks.check_mitigation(*paths, ref)[0])  # 4 of 5 = 0.8
            _corrupt(paths[0], column=1, row=0, delta=0.2)
            self.assertFalse(checks.check_mitigation(*paths, ref)[0])


class SelfTimeArithmetic(unittest.TestCase):
    # root [0, 10] has children a [1, 4] and b [5, 6] and c [5.5, 7];
    # a has child g [2, 3].  b and c overlap, so their union [5, 7] counts once.
    SPANS = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, {"gates": 3}],
        ["g", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, None],
        ["c", 5.5, 7.0, 0, {"gates": 4}],
    ]

    def test_self_time_is_duration_minus_child_cover(self):
        self.assertEqual(tracing.self_times(self.SPANS), [5.0, 2.0, 1.0, 1.0, 1.5])

    def test_summary_adds_calls_self_time_and_counters(self):
        totals = {}
        total = tracing.summarize(self.SPANS + [["a", 11.0, 11.5, -1, {"gates": 2}]], totals)
        self.assertEqual(totals["a.calls"], 2)
        self.assertAlmostEqual(totals["a.self_s"], 2.5)
        self.assertEqual(totals["a.gates"], 5)
        self.assertAlmostEqual(total, 11.0)

    def test_chrome_trace_has_one_complete_event_per_span(self):
        events = tracing.chrome_trace([(1, "cmd", self.SPANS)])["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        self.assertEqual([e["name"] for e in complete], [s[0] for s in self.SPANS])
        self.assertEqual(complete[1]["args"]["parent"], 0)
        self.assertAlmostEqual(complete[0]["args"]["self_us"], 5e6)


class TracedCommand(unittest.TestCase):
    def test_wrappers_reach_functions_bound_by_from_imports(self):
        with tempfile.TemporaryDirectory() as tmp:
            stats_path = os.path.join(tmp, "stats.json")
            argv = ["correlator", "--shots", "0", "--steps", "2", "--pair", "y2y2", "--outdir", tmp]
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "shim.py"), stats_path, "1",
                 os.path.join(ROOT, "src"), "--", *argv],
                capture_output=True, timeout=120,
            )
            self.assertEqual(done.returncode, 0, done.stderr)
            with open(stats_path, encoding="utf-8") as f:
                spans = json.load(f)["spans"]
        names = [s[0] for s in spans]
        parent_of = {i: names[s[3]] if s[3] >= 0 else None for i, s in enumerate(spans)}
        # cli and greens hold their own copies of dimer_suite and simulate
        self.assertEqual(names.count("greens.dimer_suite"), 1)
        self.assertEqual(names.count("greens.direct_measurement"), 3)
        self.assertIn("greens.direct_measurement",
                      {parent_of[i] for i, n in enumerate(names) if n == "circuit.simulate"})
        self.assertTrue(all(s[1] <= s[2] for s in spans))


class MetricNamesMatchBenchmarkJson(unittest.TestCase):
    def test_names_and_units(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        layer = tracing.layer_metric_names() + list(run.DIAGNOSTICS)
        self.assertEqual([m["name"] for m in spec["per_layer"]], layer)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: run.layer_unit(name) for name in layer})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
