"""The benchmark's own tests: the gate catches failures, counts are deterministic.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import importlib
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gate, run, system, workloads  # noqa: E402

SEED = run.DEFAULT_SEED


class ForgingSystem:
    """Loads the real system, but every simulated run declares both ⊤ and ⊥."""

    @staticmethod
    def load() -> SimpleNamespace:
        loaded = system.load()
        real = loaded.sim_runner.simulate_monitored_run
        verdict = importlib.import_module("repro.ltl.verdict").Verdict

        def forged(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(
                report, declared_verdicts=frozenset({verdict.TOP, verdict.BOTTOM})
            )

        loaded.sim_runner = SimpleNamespace(simulate_monitored_run=forged)
        return loaded


@dataclasses.dataclass(frozen=True)
class BrokenSource:
    """An event source whose stream cannot be loaded: its tenant is evicted."""

    async def load(self, **_: object) -> object:
        raise RuntimeError("stream unavailable")

    def describe(self) -> dict[str, object]:
        return {"kind": "broken"}


class GateTest(unittest.TestCase):
    def test_forged_verdict_fails_the_run(self):
        result, record = run.measure("light-grid", SEED, 0, False, system_module=ForgingSystem)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("but the oracle reaches only", record["failures"][0])

    def test_evicted_tenant_fails(self):
        loaded = system.load()
        fleet = workloads.WORKLOADS["fleet"]
        inputs = fleet.prepare(loaded, SEED)
        inputs.tenants = (
            dataclasses.replace(inputs.tenants[0], source=BrokenSource()),
        ) + inputs.tenants[1:]
        passes = [fleet.run_pass(loaded, inputs, shards=1, limit=2)]
        failures = gate.check_passes(passes, gate.oracle_verdicts(loaded, inputs))
        self.assertEqual(len(failures), 1)
        self.assertIn("stream unavailable", failures[0])

    def test_count_mismatch_between_passes_fails(self):
        first = workloads.Unit("C/4/2015", 1.0, events=10, messages=20)
        again = dataclasses.replace(first, messages=21)
        passes = [workloads.Pass(1.0, [first]), workloads.Pass(1.0, [again])]
        failures = gate.check_passes(passes, {})
        self.assertEqual(len(failures), 1)
        self.assertIn("differ from the first pass", failures[0])


class DeterminismTest(unittest.TestCase):
    def test_traced_and_untraced_counts_agree(self):
        # the traced run checks every traced unit against the untraced first pass
        result, record = run.measure("light-grid", SEED, 0, True)
        self.assertTrue(result["correct"], record["failures"])
        self.assertGreater(result["metrics"]["monitor.scans"]["value"], 0)

    def test_same_seed_repeats_the_paper_counts(self):
        first = run.measure("light-grid", SEED, 0, False)[1]["counts"]
        second = run.measure("light-grid", SEED, 0, False)[1]["counts"]
        self.assertEqual(first, second)
        self.assertGreater(first["delayed"], 0)


class CheckoutTest(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as scratch:
            target = Path(scratch) / "perfbench"
            target.mkdir()
            for source in Path(__file__).parent.glob("*.py"):
                (target / source.name).write_text(source.read_text())
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "heavy-cell",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
