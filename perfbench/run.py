"""Run one benchmark workload; the last line of standard output is its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload heavy-cell --seed 2015 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced and then traced, and prints the per-layer split.  Before the result
line a ``record`` line carries the environment (a fixed pure-Python
calibration loop, the Python version, the core count) and the run's shape, so
a machine that got slower shows up as slower calibration, not as a
regression.  The benchmark writes no files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the seed used while writing the benchmark, and one kept aside to re-check claims
DEFAULT_SEED = 2015
HELD_OUT_SEED = 1729
#: set-up rounds per run (each imports the system afresh); setup_s is their median
SETUP_ROUNDS = 7
#: cold re-syntheses of a workload's monitors after set-up and after every
#: pass, so they sample the whole run; synth_s is their median
SYNTH_ROUNDS = 5
#: units re-run under the codec probe, per workload (encoding is slow)
CODEC_UNITS = {"heavy-cell": 1, "light-grid": 48, "fleet": 24, "synth-catalogue": 24}


def calibration_seconds() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now."""

    def loop() -> int:
        total = 0
        table: dict[int, int] = {}
        for i in range(200_000):
            total += i * i % 7
            table[i & 1023] = total
        return total

    times = []
    for _ in range(5):
        started = time.perf_counter()
        loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def set_up(system_module, workload, seed: int):
    """Import and prepare *workload* ``SETUP_ROUNDS`` times; keep the last round.

    A workload that synthesizes its monitors in set-up then times synthesis
    on its own (see :func:`sample_synthesis`), because its few monitors
    synthesize too fast to time once.
    """
    rounds = []
    for _ in range(SETUP_ROUNDS):
        # drop the previous round, so this one imports and synthesizes cold
        system = inputs = None
        gc.collect()
        started = time.perf_counter()
        system = system_module.load()
        inputs = workload.prepare(system, seed)
        total = time.perf_counter() - started
        rounds.append((total, inputs.synth_s, inputs.compile_s, inputs.generate_s))
    medians = [statistics.median(column) for column in zip(*rounds)]
    setup = dict(zip(("setup_s", "synth_s", "compile_s", "generate_s"), medians))
    # synth-catalogue synthesizes in its passes, not in set-up
    setup["synth"] = [] if inputs.automata else None
    sample_synthesis(system, inputs, setup)
    return system, inputs, setup


def sample_synthesis(system, inputs, setup) -> None:
    """Time ``SYNTH_ROUNDS`` cold re-syntheses of the workload's monitors."""
    from perfbench import workloads

    if setup["synth"] is not None:
        for _ in range(SYNTH_ROUNDS):
            setup["synth"].append(workloads.resynthesize(system, inputs))
        setup["synth_s"] = statistics.median(s for s, _ in setup["synth"])
        setup["compile_s"] = statistics.median(c for _, c in setup["synth"])


def run_passes(workload, system, inputs, seconds: float, setup, **options) -> list:
    """Whole passes until they have measured *seconds* (at least one).

    Between passes the workload's monitors are re-synthesized (untimed by
    the passes), which samples ``synth_s`` across the whole run.
    """
    passes = []
    while not passes or sum(run.wall for run in passes) < seconds:
        gc.collect()
        passes.append(workload.run_pass(system, inputs, **options))
        sample_synthesis(system, inputs, setup)
    return passes


def central_median(values) -> float:
    """The median, taken as the mean of the central tenth of *values*.

    Unit times cluster, so the plain median jumps between neighbouring
    clusters from run to run; averaging the samples around it damps that.
    """
    ordered = sorted(values)
    low, high = int(len(ordered) * 0.45), -(-len(ordered) * 55 // 100)
    return statistics.fmean(ordered[low:max(high, low + 1)])


def _unit_means(passes) -> list[float]:
    """Each unit's wall time, averaged over the passes that ran it."""
    walls: dict[str, list[float]] = {}
    for run in passes:
        for unit in run.units:
            walls.setdefault(unit.key, []).append(unit.wall)
    return [statistics.fmean(samples) for samples in walls.values()]


def _rate(passes) -> float:
    events = sum(unit.events for run in passes for unit in run.units)
    return events / sum(run.wall for run in passes)


def _per_event(units, attribute: str) -> float:
    events = sum(unit.events for unit in units)
    return sum(getattr(unit, attribute) for unit in units) / max(1, events)


def end_to_end(workload, passes, setup) -> dict[str, float]:
    """The end-to-end metrics of untraced *passes*."""
    first = passes[0].units
    if workload.name == "synth-catalogue":
        synth = statistics.median(run.synth_s + run.compile_s for run in passes)
    else:
        synth = setup["synth_s"] + setup["compile_s"]
    return {
        "events_per_s": _rate(passes),
        "cell_s.p50": central_median(_unit_means(passes)),
        "messages_per_event": _per_event(first, "messages"),
        "views_per_event": _per_event(first, "views"),
        "synth_s": synth,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_rss_mb(),
    }


def _shard_skew(system, report) -> float:
    """Max-to-min ratio of each shard's last tenant finish (1.0 for one shard)."""
    finish: dict[int, float] = {}
    for result in report.results:
        shard = system.fleet.shard_of(result.tenant_id, report.shards)
        finish[shard] = max(finish.get(shard, 0.0), result.latency_seconds)
    return max(finish.values()) / min(finish.values())


def per_layer(workload, system, inputs, setup, untraced, stats, traced, tracer, probe, codec):
    """The per-layer split of a traced run (per pass where it is a total)."""
    passes = len(traced)
    units = [u for run in traced for u in run.units]
    events = sum(u.events for u in units)
    if workload.name == "fleet":
        backend_wall = sum(run.wall for run in traced)
    else:
        backend_wall = sum(u.run_wall for u in units)
    monitor_self = tracer.monitor_seconds()
    metrics = tracer.monitor_metrics
    tokens = sum(m.tokens_created for m in metrics)
    hops = tracer.calls["token_hop"]
    if workload.name == "synth-catalogue":
        synth = sum(run.synth_s for run in traced) / passes
        compile_ = sum(run.compile_s for run in traced) / passes
    else:
        synth, compile_ = setup["synth_s"], setup["compile_s"]
    walls = [u.wall for run in stats for u in run.units]
    report = stats[0].report
    codec_events = sum(u.events for u in codec.units)
    return {
        "ltl.synth_s": synth,
        "ltl.compile_s": compile_,
        "ltl.transitions": sum(
            a.transition_counts()["total"] for a in inputs.automata.values()
        ),
        "workload.generate_s": setup["generate_s"],
        "monitor.self_s": monitor_self / passes,
        "monitor.token_s": tracer.seconds["token"] / passes,
        "monitor.event_s": tracer.seconds["event"] / passes,
        "monitor.control_s": tracer.seconds["control"] / passes,
        "monitor.calls": sum(tracer.calls[k] for k in ("token", "event", "control")) / passes,
        "monitor.token_hops": hops / passes,
        "monitor.scans": tracer.calls["scan"] / passes,
        "monitor.scans_per_hop": tracer.calls["scan"] / max(1, hops),
        "monitor.tokens_created": tokens / passes,
        "monitor.entries_per_token": sum(m.entries_created for m in metrics) / max(1, tokens),
        "monitor.views_merged": sum(m.views_merged for m in metrics) / passes,
        "monitor.max_active_views": max((m.max_active_views for m in metrics), default=0),
        "coordination.hops_per_token": hops / max(1, tokens),
        "network.sends": tracer.calls["send"] / passes,
        "network.token_msgs": sum(m.token_messages_sent for m in metrics) / max(1, events),
        "network.termination_msgs": sum(m.termination_messages_sent for m in metrics)
        / max(1, events),
        "network.digest_msgs": sum(m.digest_messages_sent for m in metrics) / max(1, events),
        "delayed_per_event": sum(m.delayed_events for m in metrics) / max(1, events),
        "delay_pct": statistics.fmean(u.delay_pct for u in traced[0].units),
        "backend.wall_s": backend_wall / passes,
        "backend.residual_s": (backend_wall - monitor_self) / passes,
        "cell_s.p90": statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else walls[0],
        "fleet.shard_skew": _shard_skew(system, report) if report is not None else 1.0,
        "fleet.blocked": report.events_blocked if report is not None else 0,
        "fleet.dropped": report.events_dropped if report is not None else 0,
        "fleet.evicted": report.tenants_evicted if report is not None else 0,
        "codec.bytes_per_msg": statistics.fmean(probe.sizes) if probe.sizes else 0.0,
        "codec.max_msg_bytes": max(probe.sizes, default=0),
        "codec.bytes_per_event": sum(probe.sizes) / max(1, codec_events),
        "trace.overhead": 1.0 - _rate(traced) / _rate(untraced),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, system_module=None):
    """Run workload *name*; returns ``(result, record)``."""
    from perfbench import gate, tracing, workloads

    if system_module is None:
        from perfbench import system as system_module

    workload = workloads.WORKLOADS[name]
    system, inputs, setup = set_up(system_module, workload, seed)
    fleet = name == "fleet"
    record: dict[str, object] = {}
    if not trace:
        passes = run_passes(workload, system, inputs, seconds, setup)
        checked = passes
    else:
        # the traced fleet runs one in-process shard: wrappers installed in
        # this process do not reach pool workers, so its untraced reference
        # is one shard too, and a separate pass gives the multi-shard stats
        shards = 1 if fleet else None
        untraced = run_passes(workload, system, inputs, seconds / 2, setup, shards=shards)
        stats = [workload.run_pass(system, inputs)] if fleet else untraced
        with tracing.Tracer() as tracer:
            traced = run_passes(workload, system, inputs, seconds / 2, setup, shards=shards)
        with tracing.CodecProbe() as probe:
            codec = workload.run_pass(
                system, inputs, shards=shards, limit=CODEC_UNITS[name]
            )
        checked = untraced + (stats if fleet else []) + traced + [codec]
    references = gate.oracle_verdicts(system, inputs)
    key_errors = gate.check_monitors(inputs.automata, seed)
    failures = gate.check_passes(checked, references, key_errors)
    if not trace:
        metrics = end_to_end(workload, passes, setup)
    else:
        metrics = per_layer(
            workload, system, inputs, setup, untraced, stats, traced, tracer, probe, codec
        )
        sends = tracer.calls["send"]
        counted = sum(m.messages_sent for m in tracer.monitor_metrics)
        if sends != counted:
            failures.append(f"network carried {sends} messages, monitors counted {counted}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    first = checked[0].units
    record["counts"] = {
        field: sum(getattr(unit, field) for unit in first)
        for field in ("events", "messages", "views", "delayed", "delay_pct")
    }
    record["passes"] = len(checked)
    record["units"] = sum(len(run.units) for run in checked)
    record["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": record["units"],
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("heavy-cell", "light-grid", "fleet", "synth-catalogue"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    environment = {
        "calibration_s": calibration_seconds(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in record["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **record, "environment": environment}},
                     ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
