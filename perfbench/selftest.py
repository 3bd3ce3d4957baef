"""Self-tests of the benchmark: `python3 perfbench/selftest.py` (about 10 s).

- the checker rejects a perturbed L, a certificate that breaks a row
  and a wrong exit code, and accepts the real outputs;
- the generator writes the same inputs for the same seed;
- the traced oracle gives the same LpSolution objective, support and
  iterations as a bare GridColumns on drug at m=32, and installing the
  tracer leaves `cli.main`'s output unchanged, so the traced run
  measures the same program;
- the traced counts of two identical passes agree exactly;
- self times subtract the children of each span.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cubebounds import cli, lp  # noqa: E402
from cubebounds.bounds import GridColumns, _constraint_rows  # noqa: E402
from cubebounds.core import ContingencyTable, MomentBudget, normalize  # noqa: E402

OUT = HERE / "out" / "selftest"
DRUG = [978.0, 1864.0, 114.0, 3649.0]
DRUG_ARGV = ["bounds", "--table", "fixtures/drug.tbl", "--f", "0.03", "--g", "0.04",
             "--k", "0.05", "--grid-m", "32", "--json"]
DRUG_EXPECT = {"table": DRUG, "budget": {"f": 0.03, "g": 0.04}, "k": {"point": 0.05}}


def run_cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rec = run_cli(DRUG_ARGV)

    def with_report(self, edit) -> dict:
        report = json.loads(self.rec["stdout"])
        edit(report)
        return dict(self.rec, stdout=json.dumps(report))

    def test_accepts_real_output(self):
        self.assertEqual(check.check_bounds(self.rec, DRUG_EXPECT), [])

    def test_rejects_perturbed_lower_bound(self):
        def edit(report):
            report["interval"]["L"] += 1e-4
        self.assertTrue(check.check_bounds(self.with_report(edit), DRUG_EXPECT))

    def test_rejects_certificate_breaking_a_row(self):
        def edit(report):
            atom = report["certificates"]["max"][0]
            atom[1] = min(1.0, atom[1] + 0.01)      # r0 moves p01 and p00
        problems = check.check_bounds(self.with_report(edit), DRUG_EXPECT)
        self.assertTrue(any("p01" in p for p in problems), problems)

    def test_rejects_wrong_exit_code(self):
        self.assertTrue(check.check_bounds(dict(self.rec, rc=1), DRUG_EXPECT))
        self.assertTrue(check.check_diagnose(dict(self.rec, rc=0),
                                             {"f": 1e-6, "g": 0.04}))

    def test_rejects_interval_outside_manski_bounds(self):
        def edit(report):
            report["interval"]["U"] = 0.99
        problems = check.check_bounds(self.with_report(edit), DRUG_EXPECT)
        self.assertTrue(any("no-assumption" in p for p in problems), problems)

    def test_diagnosis_must_not_contradict_itself(self):
        # drug, grid m=64 capped at max_m=128, f=0.03, g=1e-9: infeasible
        # at m=64, yet both least feasible values lie below the request
        rec = {"rc": 2, "stdout": "", "stderr":
               "error: no measure matches the table under f=0.03, g=1e-09 "
               "on grids up to m=64\n"
               "  least feasible f at the given g: 0.000601387\n"
               "  least feasible g at the given f: 7.0805e-10\n"}
        problems = check.check_diagnose(rec, {"f": 0.03, "g": 1e-9})
        self.assertEqual(len(problems), 2, problems)
        self.assertEqual(check.check_diagnose(rec, {"f": 3e-4, "g": 1e-10}), [])


class GeneratorTest(unittest.TestCase):
    def snapshot(self, name, seed):
        shutil.rmtree(OUT, ignore_errors=True)
        requests = workloads.generate(name, seed, OUT / "inputs")
        files = {p.name: p.read_text() for p in sorted((OUT / "inputs").iterdir())}
        return requests, files

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.snapshot(name, 7), self.snapshot(name, 7))

    def test_seed_changes_the_sweep(self):
        self.assertNotEqual(self.snapshot("sweep", 7), self.snapshot("sweep", 8))


class TracingTest(unittest.TestCase):
    def setUp(self):
        self.joint = normalize(ContingencyTable(*DRUG))
        self.rows = _constraint_rows(self.joint, MomentBudget(f=0.03, g=0.04))

    def test_traced_oracle_solves_the_same_lp(self):
        tracer = tracing.Tracer()
        for sense in ("min", "max"):
            bare = lp.solve(lp.LinearProgram(sense, GridColumns(self.joint, 32), self.rows))
            traced = lp.solve(lp.LinearProgram(
                sense, tracing.TracedOracle(tracer, GridColumns(self.joint, 32)), self.rows))
            self.assertEqual(traced.status, lp.OPTIMAL)
            self.assertEqual(traced.objective, bare.objective)
            self.assertEqual(traced.support, bare.support)
            self.assertEqual(traced.iterations, bare.iterations)
        names = {s[tracing.NAME] for s in tracer.spans}
        self.assertTrue({"oracle.price_min", "oracle.columns", "oracle.cost"} <= names)

    def test_install_keeps_output_and_uninstall_restores(self):
        original = cli.main
        before = run_cli(DRUG_ARGV)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            during = run_cli(DRUG_ARGV)
        finally:
            tracer.uninstall()
        self.assertIs(cli.main, original)
        self.assertEqual(during, before)
        layers = tracing.layer_metrics(tracer.spans)
        self.assertEqual(layers["cli.requests"], 1)
        self.assertEqual(layers["lp.solves"], 2)
        self.assertEqual(layers["bounds.levels"], 1)
        self.assertGreater(layers["oracle.price_min.phase2.calls"], 0)

    def test_counts_repeat_exactly(self):
        def counts():
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_cli(DRUG_ARGV)
                run_cli(["bounds", "--table", "fixtures/drug.tbl", "--f", "1e-6",
                         "--g", "0.04", "--grid-m", "32", "--json"])
            finally:
                tracer.uninstall()
            layers = tracing.layer_metrics(tracer.spans)
            return {k: v for k, v in layers.items() if isinstance(v, int)}
        first = counts()
        self.assertGreater(first["bounds.minimal_budget.calls"], 0)
        self.assertEqual(counts(), first)

    def test_self_time_subtracts_children(self):
        spans = [["a", 0.0, 10.0, -1, "r", None],
                 ["b", 1.0, 4.0, 0, "r", None],
                 ["c", 2.0, 3.0, 1, "r", None],
                 ["d", 5.0, 6.0, 0, "r", None]]
        self.assertEqual(tracing.self_times(spans), [6.0, 2.0, 1.0, 1.0])


if __name__ == "__main__":
    import os
    os.chdir(ROOT)
    unittest.main(verbosity=2)
