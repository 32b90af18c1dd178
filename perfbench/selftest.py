"""Tests of the benchmark itself (about 6 minutes on 2 cores):

    python3 perfbench/selftest.py            # everything
    python3 perfbench/selftest.py -k Tracer  # the in-process tracer tests

The smoke runs use --seconds 1, so every job runs exactly once.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from qlip import qfield, qspace  # noqa: E402

JOB_METRICS = {name: [job.metric for job in wl.jobs]
               for name, wl in workloads.WORKLOADS.items()}
COUNT_UNITS = ("count", "bytes", "ratio")


def bench(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("benchmark failed:\n" + proc.stderr[-3000:])
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual(set(run.SETUP_SAMPLES), set(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        units = tr.metric_units()
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, units[name]) for name in tr.metric_names()])


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tracer = tr.Tracer()

    def bindings(self):
        return [(owner, attr, vars(owner)[attr])
                for owner, attr, _ in self.tracer.bindings]

    def test_patches_every_binding_and_restores_them(self):
        before = self.bindings()
        names = {(getattr(o, "__name__", ""), a) for o, a, _ in before}
        # names bound outside their home module are patched there too
        for owner, attr in (("qlip.roproj", "face_lattice"),
                            ("qlip.roproj", "xi_inverse"),
                            ("qlip.embed", "pava_pinned"),
                            ("qlip.qfield", "metric_g"),
                            ("qlip.currents", "xi_batch"),
                            ("qlip.cli", "default_machinery"),
                            ("qlip.probes", "spsolve")):
            self.assertIn((owner, attr), names)
        with self.tracer:
            for owner, attr, orig in before:
                self.assertIsNot(vars(owner)[attr], orig)
        for owner, attr, orig in before:
            self.assertIs(vars(owner)[attr], orig, "%r.%s" % (owner, attr))

    def test_counts_and_self_time(self):
        rng = np.random.default_rng(0)
        f = qfield.QGridFunction(qfield.square(1.0), 9,
                                 rng.normal(size=(9, 9, 7, 1)))
        with self.tracer:
            qfield.dirichlet_energy(f)
        acc = self.tracer.acc
        self.assertEqual(acc["qfield.dirichlet_energy"][0], 1)
        self.assertEqual(acc["qfield.matched_diff_sq"][0], 2)
        self.assertEqual(acc["qfield.matched_diff_sq"][1], 2 * 8 * 9)
        self.assertEqual(acc["qspace.metric_g"][0], 2 * 8 * 9)
        energy = acc["qfield.dirichlet_energy"]
        self.assertLess(energy[3], energy[2])
        self.assertGreater(energy[3], 0.0)
        # nothing accumulates once uninstalled
        qspace.metric_g(qspace.QPoint(f.values[0, 0]),
                        qspace.QPoint(f.values[0, 1]))
        self.assertEqual(acc["qspace.metric_g"][0], 2 * 8 * 9)

    def test_missing_symbol_fails_loudly(self):
        layer = tr.Layer("embed", "FaceLattice.no_such_method", tr.CS, "")
        with self.assertRaises(AttributeError):
            tr.Tracer(layers=[layer])
        layer = tr.Layer("roproj", "no_such_function", tr.CS, "")
        with self.assertRaises(AttributeError):
            tr.Tracer(layers=[layer])


class SmokeTest(unittest.TestCase):
    def check_untraced(self, workload):
        lines, res = result_of(bench(workload, trace=0))
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                         dict(run.END_TO_END))
        printed = {line.split()[0]: line.split()[2] for line in lines
                   if len(line.split()) >= 3}
        for name, unit in run.END_TO_END + (("fail_frac", "ratio"),):
            self.assertEqual(printed.get(name), unit, name)
        for name in JOB_METRICS[workload]:
            self.assertEqual(printed.get(name), "s", name)
        fail = next(line for line in lines if line.startswith("fail_frac"))
        self.assertEqual(float(fail.split()[1]), 0.0)

    def check_traced_twice(self, workload):
        runs = [result_of(bench(workload, trace=1))[1] for _ in range(2)]
        units = tr.metric_units()
        for res in runs:
            self.assertTrue(res["correct"])
            self.assertEqual(list(res["metrics"]), tr.metric_names())
        exact = [name for name in tr.metric_names()
                 if units[name] in COUNT_UNITS
                 and not name.startswith("trace.")]
        first, second = ({n: r["metrics"][n]["value"] for n in exact}
                         for r in runs)
        self.assertEqual(first, second)

    def test_cone(self):
        self.check_untraced("cone")
        self.check_traced_twice("cone")

    def test_grid(self):
        self.check_untraced("grid")
        self.check_traced_twice("grid")

    def test_currents(self):
        self.check_untraced("currents")
        self.check_traced_twice("currents")

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("grid", trace=0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
