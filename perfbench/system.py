"""Fresh imports of the monitored system, so set-up can be timed repeatedly.

Each set-up round of the benchmark drops every ``repro`` module and imports
the package again, so import time, monitor synthesis (the formula intern
table and the ``case_study_monitor`` cache live in those modules) and input
generation are all paid cold, as a fresh worker process pays them.
"""

from __future__ import annotations

import importlib
import sys
from types import SimpleNamespace


def load() -> SimpleNamespace:
    """Drop any earlier import of ``repro`` and return its public entry points."""
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    imp = importlib.import_module
    return SimpleNamespace(
        harness=imp("repro.experiments.harness"),
        engine=imp("repro.experiments.engine"),
        properties=imp("repro.experiments.properties"),
        scenarios=imp("repro.scenarios.registry"),
        coordination=imp("repro.coordination"),
        sim_workload=imp("repro.sim.workload"),
        sim_runner=imp("repro.sim.runner"),
        fleet=imp("repro.fleet"),
        fleet_sources=imp("repro.fleet.sources"),
        oracle=imp("repro.core.oracle"),
    )
