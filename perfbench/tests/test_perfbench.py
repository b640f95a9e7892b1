"""Self-tests of the llhsc benchmark. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build llhsc through perfbench/run.py when needed (.bench_build/).
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import gen  # noqa: E402
import run  # noqa: E402

WORKDIR = os.path.join(ROOT, ".bench_build", "tests")
TINY_SEED = 0


def workdir(name):
    path = os.path.join(WORKDIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    return (not cmp.left_only and not cmp.right_only and
            not filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)[1])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in run.WORKLOADS:
            a = workdir("det-a")
            b = workdir("det-b")
            gen.write_workload(workload, 7, a)
            gen.write_workload(workload, 7, b)
            self.assertTrue(same_tree(a, b), workload)
            c = workdir("det-c")
            gen.write_workload(workload, 8, c)
            self.assertFalse(same_tree(a, c), workload)

    def test_every_input_has_a_manifest_entry(self):
        for workload in run.WORKLOADS:
            out = workdir("manifest")
            manifest = gen.write_workload(workload, TINY_SEED, out)
            self.assertTrue(manifest["inputs"], workload)
            for entry in manifest["inputs"]:
                self.assertIn("expected", entry)


class ManifestAgreesWithLlhscTest(unittest.TestCase):
    """On a tiny seed, every verdict llhsc reports equals the manifest."""

    @classmethod
    def setUpClass(cls):
        cls.tools = run.build()

    def test_cli_workloads(self):
        for workload in ("oneshot-cold", "lifted-family"):
            inputs = workdir(workload)
            manifest = gen.write_workload(workload, TINY_SEED, inputs)
            for name, argv, verify in run.cli_ops(workload, manifest,
                                                  self.tools):
                r = subprocess.run(argv, cwd=inputs, capture_output=True,
                                   text=True)
                ok, why = verify(r.stdout, r.returncode)
                self.assertTrue(ok, why)

    def test_session_edits(self):
        args = type("Args", (), {"seed": TINY_SEED})()
        daemon, clients, _ = run.start_session_daemon(
            self.tools, args, workdir("session"), 1)
        try:
            client = clients[0]
            client.sequential = True
            for _ in range(6):
                ok, why, _, _, _, _ = client.step()
                self.assertTrue(ok, why)
        finally:
            run.close_session(daemon, clients)


class MetricNamesTest(unittest.TestCase):
    """What run.py emits is exactly what BENCHMARK.json declares."""

    def test_emitted_names_equal_declared_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        self.assertEqual(declared[0], run.END_TO_END)
        self.assertEqual(declared[1], run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                r = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "run.py"),
                     "--workload", workload, "--seed", str(TINY_SEED),
                     "--seconds", "1", "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True)
                self.assertEqual(r.returncode, 0, r.stderr)
                result = json.loads(r.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"], r.stdout)
                self.assertEqual(
                    {n: m["unit"] for n, m in result["metrics"].items()},
                    declared[trace], (workload, trace))


if __name__ == "__main__":
    unittest.main()
