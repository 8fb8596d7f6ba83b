"""The benchmark's four workloads: seeded inputs, timed passes, per-unit outcomes.

A workload is prepared once per set-up round (monitor synthesis and input
generation, all derived from the workload seed) and then run in whole
*passes*: every pass monitors the same inputs, so the deterministic counts of
one pass must repeat exactly in the next.  A *unit* is the smallest piece of
work a user waits for: one simulated cell, one fleet tenant, or (in
``synth-catalogue``) one monitor synthesized, compiled and run on a short cell.

All four are closed-loop batch runs from one process.  Simulated cells run in
virtual time and fleet tenants replay with ``time_scale=0``, so no run ever
idles on a schedule.
"""

from __future__ import annotations

import gc
import importlib
import os
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

#: the case-study properties of Section 5.1
PROPERTIES = ("A", "B", "C", "D", "E", "F")
#: per-state exploration budget of every monitor, as in the experiment sweeps
MAX_VIEWS = 2
#: Every workload monitors a fixed corpus of computations, the same in every
#: run, so runs stay comparable; the workload seed draws what varies between
#: runs of a deployment: the simulated network's latencies, and the order in
#: which fleet tenants are admitted.  heavy-cell's corpus is the ROADMAP
#: profile cell (2015) and its two successors; the others draw theirs from
#: CORPUS_SEED.
HEAVY_PANEL = (2015, 2016, 2017)
CORPUS_SEED = 2015
HEAVY_EVENTS = 12
LIGHT_EVENTS = 6
LIGHT_REPLICAS = 3
FLEET_EVENTS = 6
FLEET_REPLICAS = 3
#: worker processes of the untraced fleet (capped by the machine's cores)
FLEET_SHARDS = 2
CATALOGUE_PROCESSES = (2, 3, 4, 5)
CATALOGUE_EVENTS = 2


@dataclass
class Cell:
    """One monitored input: a computation, the property and the route."""

    key: str
    property_name: str
    num_processes: int
    topology: str
    computation: object
    #: seed of the simulated network's latency draws
    net_seed: int


@dataclass
class Unit:
    """The outcome of one unit of work in one pass."""

    key: str
    #: wall seconds the unit took, as its user waits for it
    wall: float
    #: wall seconds of the monitored run alone (excludes synthesis)
    run_wall: float = 0.0
    events: int = 0
    messages: int = 0
    views: int = 0
    delayed: int = 0
    delay_pct: float = 0.0
    declared: frozenset = frozenset()
    error: str = ""

    def counts(self) -> tuple:
        """Everything about the unit that must repeat exactly for its inputs."""
        return (
            self.events,
            self.messages,
            self.views,
            self.delayed,
            self.delay_pct,
            self.declared,
        )


@dataclass
class Pass:
    """One timed pass over a workload's inputs."""

    wall: float
    units: list[Unit]
    synth_s: float = 0.0
    compile_s: float = 0.0
    #: fleet only: the FleetReport of the pass
    report: object = None


@dataclass
class Inputs:
    """A workload's prepared inputs and what preparing them cost."""

    cells: list[Cell]
    #: (property, processes) -> monitor automaton, for the runs and the gate
    automata: dict = field(default_factory=dict)
    registries: dict = field(default_factory=dict)
    synth_s: float = 0.0
    compile_s: float = 0.0
    generate_s: float = 0.0
    #: fleet only: tenant specs in cell order
    tenants: tuple = ()


@dataclass(frozen=True)
class PregeneratedSource:
    """A tenant stream generated by the benchmark before timing starts.

    Holds the computation as ``repro-fleet-events/1`` records (computations
    themselves do not pickle), so shard workers decode it exactly as they
    would decode a replayed event log.
    """

    records: tuple

    async def load(
        self,
        *,
        num_processes: int,
        events_per_process: int,
        property_name: str,
        seed: int,
    ) -> object:
        """Rebuild the pre-generated computation."""
        sources = importlib.import_module("repro.fleet.sources")
        return sources.records_to_computation(list(self.records))

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for sinks and reports)."""
        return {"kind": "pregenerated", "records": len(self.records)}


def _computation(system: SimpleNamespace, name: str, n: int, events: int, seed: int):
    """The paper's trace model for one cell (what the sweep engine generates)."""
    scale = system.harness.DEFAULT_SCALE
    initial, truth = system.engine.trace_design(name)
    config = system.scenarios.get_scenario("paper-default").workload.build_config(
        num_processes=n,
        events_per_process=events,
        evt_mu=scale.evt_mu,
        evt_sigma=scale.evt_sigma,
        comm_mu=scale.comm_mu,
        comm_sigma=scale.comm_sigma,
        truth_probability=truth,
        initial_valuation=dict(initial),
        seed=seed,
    )
    return system.sim_workload.generate_computation(config)


def _synthesize(system: SimpleNamespace, inputs: Inputs, keys) -> None:
    """Synthesize and compile the monitors of *keys*, timing both."""
    properties = system.properties
    for key in keys:
        started = time.perf_counter()
        automaton = properties.case_study_monitor(*key)
        synthesized = time.perf_counter()
        automaton.compiled
        inputs.synth_s += synthesized - started
        inputs.compile_s += time.perf_counter() - synthesized
        inputs.automata[key] = automaton
        inputs.registries[key] = properties.case_study_registry(key[1])


def resynthesize(system: SimpleNamespace, inputs: Inputs) -> tuple[float, float]:
    """Synthesize *inputs*' monitors again, cold; returns ``(synth_s, compile_s)``.

    The old monitors are dropped first, so their formulas leave the weak
    intern table and nothing is reused.
    """
    keys = list(inputs.automata)
    inputs.automata.clear()
    system.properties.case_study_monitor.cache_clear()
    gc.collect()
    fresh = Inputs(cells=inputs.cells)
    _synthesize(system, fresh, keys)
    inputs.automata = fresh.automata
    return fresh.synth_s, fresh.compile_s


def _generate(system: SimpleNamespace, inputs: Inputs, specs) -> None:
    """Generate the cells of *specs* ``(key, property, n, topology, events, seed, net_seed)``."""
    started = time.perf_counter()
    for key, name, n, topology, events, seed, net_seed in specs:
        computation = _computation(system, name, n, events, seed)
        inputs.cells.append(Cell(key, name, n, topology, computation, net_seed))
    inputs.generate_s += time.perf_counter() - started


def _grid_specs(seed: int, processes, events: int, replicas: int, topologies):
    """Cells over properties × processes × topologies × replicas.

    The computations come from the fixed corpus; *seed* draws the latencies.
    """
    corpus, latencies = random.Random(CORPUS_SEED), random.Random(seed)
    specs = []
    for name in PROPERTIES:
        for n in processes:
            for topology in topologies:
                for replica in range(replicas):
                    key = f"{name}/{n}/{topology}/{replica}"
                    specs.append(
                        (key, name, n, topology, events,
                         corpus.randrange(2**31), latencies.randrange(2**31))
                    )
    return specs


def _run_cell(system: SimpleNamespace, cell: Cell, automaton, registry) -> Unit:
    """Monitor one cell on the simulator; an exception fails only this unit."""
    started = time.perf_counter()
    try:
        report = system.sim_runner.simulate_monitored_run(
            cell.computation,
            automaton,
            registry,
            seed=cell.net_seed,
            max_views_per_state=MAX_VIEWS,
            network=system.scenarios.get_scenario("paper-default").network,
            topology=cell.topology,
        )
    except Exception as error:  # noqa: BLE001 - a failed run is a counted failure
        wall = time.perf_counter() - started
        return Unit(cell.key, wall, wall, error=f"{type(error).__name__}: {error}")
    wall = time.perf_counter() - started
    return Unit(
        cell.key,
        wall,
        wall,
        events=report.total_events,
        messages=report.monitor_messages,
        views=report.total_global_views,
        delayed=report.delayed_events,
        delay_pct=report.delay_time_percentage_per_view,
        declared=frozenset(str(v) for v in report.declared_verdicts),
    )


class SimWorkload:
    """Cells monitored one after another on the discrete-event simulator."""

    name = ""

    def specs(self, system: SimpleNamespace, seed: int) -> list[tuple]:
        raise NotImplementedError

    def prepare(self, system: SimpleNamespace, seed: int) -> Inputs:
        """Synthesize the monitors the cells use, then generate the cells."""
        specs = self.specs(system, seed)
        inputs = Inputs(cells=[])
        _synthesize(system, inputs, sorted({(s[1], s[2]) for s in specs}))
        _generate(system, inputs, specs)
        return inputs

    def run_pass(
        self, system: SimpleNamespace, inputs: Inputs, *, shards=None, limit=None
    ) -> Pass:
        """Monitor every cell (the first *limit* only, when given)."""
        cells = inputs.cells if limit is None else inputs.cells[:limit]
        started = time.perf_counter()
        units = []
        for cell in cells:
            key = (cell.property_name, cell.num_processes)
            units.append(
                _run_cell(system, cell, inputs.automata[key], inputs.registries[key])
            )
        return Pass(time.perf_counter() - started, units)


class HeavyCell(SimWorkload):
    """The ROADMAP profile cell, where token service is most of the wall time."""

    name = "heavy-cell"

    def specs(self, system: SimpleNamespace, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        return [
            (f"C/4/{s}", "C", 4, "round-robin-token", HEAVY_EVENTS, s, rng.randrange(2**31))
            for s in HEAVY_PANEL
        ]


class LightGrid(SimWorkload):
    """Short histories over every property, size and topology: fixed costs show."""

    name = "light-grid"

    def specs(self, system: SimpleNamespace, seed: int) -> list[tuple]:
        topologies = tuple(system.coordination.TOPOLOGIES)
        return _grid_specs(seed, (2, 3), LIGHT_EVENTS, LIGHT_REPLICAS, topologies)


class SynthCatalogue:
    """Cold synthesis of all 24 case-study monitors, each then run on one short cell."""

    name = "synth-catalogue"

    def prepare(self, system: SimpleNamespace, seed: int) -> Inputs:
        """Generate one short cell per monitor; synthesis is the timed work."""
        specs = _grid_specs(
            seed, CATALOGUE_PROCESSES, CATALOGUE_EVENTS, 1, ("round-robin-token",)
        )
        inputs = Inputs(cells=[])
        _generate(system, inputs, specs)
        return inputs

    def run_pass(
        self, system: SimpleNamespace, inputs: Inputs, *, shards=None, limit=None
    ) -> Pass:
        """Clear the monitor cache, then per monitor: synthesize, compile, run its cell."""
        properties = system.properties
        # drop the previous pass's monitors so this pass synthesizes cold
        inputs.automata.clear()
        properties.case_study_monitor.cache_clear()
        cells = inputs.cells if limit is None else inputs.cells[:limit]
        result = Pass(0.0, [])
        started = time.perf_counter()
        for cell in cells:
            key = (cell.property_name, cell.num_processes)
            unit_started = time.perf_counter()
            automaton = properties.case_study_monitor(*key)
            synthesized = time.perf_counter()
            automaton.compiled
            compiled = time.perf_counter()
            registry = properties.case_study_registry(cell.num_processes)
            unit = _run_cell(system, cell, automaton, registry)
            unit.wall += compiled - unit_started
            result.synth_s += synthesized - unit_started
            result.compile_s += compiled - synthesized
            result.units.append(unit)
            inputs.automata[key] = automaton
            inputs.registries[key] = registry
        result.wall = time.perf_counter() - started
        return result


class Fleet:
    """Tenants on ``run_fleet``: asyncio sessions sharded over worker processes."""

    name = "fleet"

    def prepare(self, system: SimpleNamespace, seed: int) -> Inputs:
        """Synthesize the tenants' monitors, generate their streams, build the specs."""
        topologies = tuple(system.coordination.TOPOLOGIES)
        specs = _grid_specs(seed, (2, 3), FLEET_EVENTS, FLEET_REPLICAS, topologies)
        inputs = Inputs(cells=[])
        _synthesize(system, inputs, sorted({(s[1], s[2]) for s in specs}))
        _generate(system, inputs, specs)
        started = time.perf_counter()
        # tenant ids (and so shard placement) follow the corpus; the seed
        # draws the order of admission
        order = list(range(len(inputs.cells)))
        random.Random(seed).shuffle(order)
        inputs.cells = [inputs.cells[index] for index in order]
        to_records = system.fleet_sources.computation_to_records
        inputs.tenants = tuple(
            system.fleet.TenantSpec(
                tenant_id=f"tenant-{index:04d}",
                property_name=cell.property_name,
                num_processes=cell.num_processes,
                events_per_process=FLEET_EVENTS,
                seed=cell.net_seed,
                topology=cell.topology,
                max_views_per_state=MAX_VIEWS,
                time_scale=0.0,
                source=PregeneratedSource(tuple(to_records(cell.computation))),
            )
            for index, cell in zip(order, inputs.cells)
        )
        inputs.generate_s += time.perf_counter() - started
        return inputs

    def run_pass(
        self, system: SimpleNamespace, inputs: Inputs, *, shards=None, limit=None
    ) -> Pass:
        """One ``run_fleet`` call over every tenant, ``block`` backpressure."""
        tenants = inputs.tenants if limit is None else inputs.tenants[:limit]
        config = system.fleet.FleetConfig(
            tenants=tenants,
            shards=min(FLEET_SHARDS, os.cpu_count() or 1) if shards is None else shards,
            backpressure="block",
        )
        started = time.perf_counter()
        report = system.fleet.run_fleet(config)
        wall = time.perf_counter() - started
        by_id = {result.tenant_id: result for result in report.results}
        units = []
        for spec, cell in zip(tenants, inputs.cells):
            result = by_id[spec.tenant_id]
            error = result.error
            if not error and result.dropped_events:
                error = f"{result.dropped_events} events dropped"
            declared = frozenset(
                verdict for line in result.verdict_sequence for verdict in line.split()
            )
            units.append(
                Unit(
                    cell.key,
                    result.latency_seconds,
                    result.latency_seconds,
                    events=result.ingested_events,
                    messages=result.monitor_messages,
                    views=result.global_views,
                    declared=declared,
                    error=error,
                )
            )
        return Pass(wall, units, report=report)


WORKLOADS = {w.name: w for w in (HeavyCell(), LightGrid(), Fleet(), SynthCatalogue())}
