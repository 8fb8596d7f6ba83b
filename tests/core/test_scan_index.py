"""The token service's scan index and box memo compute what per-event code did.

A monitor serves a token entry in one step over its scan index (letter runs,
monotone clock runs) and replays each box once per distinct content.  These
tests pin that both are exact:

* a property test runs the ranged ``_serve_entry`` against a per-event
  reference kept in this file, over random histories (skewed and
  non-monotone clocks included), conjuncts, ``depend`` and ``min_positions``;
* the box memo is keyed by the scanned content, so a forged letter column
  under the same cuts gets its own answer, and a memo hit re-declares what
  the search declared;
* the ROADMAP profile cell keeps its exact message, view and delay counts.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.global_view import GlobalView
from repro.core.messages import TokenEntry
from repro.core.monitor import DecentralizedMonitor
from repro.distributed.clocks import VectorClock
from repro.distributed.events import Event, EventKind
from repro.experiments import engine, harness
from repro.experiments.properties import case_study_monitor, case_study_registry
from repro.faults.plan import ClockSkewSpec
from repro.faults.skew import apply_clock_skew
from repro.scenarios import get_scenario
from repro.sim import random_computation, simulate_monitored_run
from repro.sim.workload import generate_computation


class _NullTransport:
    """Drops every message: the tests drive one monitor's token service."""

    def send(self, sender, target, message):
        pass


def _monitor(process, n):
    registry = case_study_registry(n)
    return DecentralizedMonitor(
        process=process,
        num_processes=n,
        automaton=case_study_monitor("C", n),
        registry=registry,
        initial_letters=[registry.local_letter(j, {}) for j in range(n)],
        transport=_NullTransport(),
    )


def _satisfies(letter, conjunct):
    return all((atom in letter) == required for atom, required in conjunct.items())


def reference_serve(entry, process, events, letters, terminated):
    """The per-event serve loop: one scanned event and one clock fold per step.

    *events* are the process's events read so far (``events[sn - 1]``) and
    ``letters[sn]`` their letters.
    """
    j = process
    conjunct = entry.conjuncts[j]
    entry.waiting_for.discard(j)
    progressed = False
    while True:
        target_min = max(entry.depend[j], entry.min_positions[j])
        needs_position = entry.cut[j] < target_min
        needs_conjunct = bool(conjunct) and not entry.satisfied[j]
        if not needs_position and not needs_conjunct:
            entry.parked_on = None
            break
        next_sn = entry.cut[j] + 1
        if next_sn > len(events):
            if terminated:
                entry.eval = False
                entry.parked_on = None
            else:
                entry.parked_on = j
                entry.waiting_for.add(j)
            break
        vc = tuple(events[next_sn - 1].vc)
        letter = letters[next_sn]
        entry.scanned_letters.setdefault(j, {})[next_sn] = letter
        entry.scanned_vcs.setdefault(j, {})[next_sn] = vc
        entry.depend = [max(a, b) for a, b in zip(entry.depend, vc)]
        entry.cut[j] = next_sn
        entry.letters[j] = letter
        entry.satisfied[j] = _satisfies(letter, conjunct) if conjunct else True
        progressed = True
    if progressed:
        entry.waiting_for.intersection_update({j})


def _entry_state(entry):
    return (
        entry.cut,
        entry.depend,
        entry.satisfied,
        entry.letters,
        entry.scanned_letters,
        entry.scanned_vcs,
        entry.parked_on,
        entry.eval,
        entry.waiting_for,
    )


@st.composite
def histories(draw):
    """``(n, process, events)``: one process's history, clocks of three kinds.

    ``generated`` histories come from a random computation, ``skewed`` ones
    are that computation after :func:`apply_clock_skew`, and ``random`` ones
    draw every remote clock component independently, so clocks go up and
    down along the process.
    """
    n = draw(st.integers(2, 4))
    process = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["generated", "skewed", "random"]))
    if kind == "random":
        events = []
        for sn in range(1, draw(st.integers(0, 14)) + 1):
            vc = [draw(st.integers(0, 6)) for _ in range(n)]
            vc[process] = sn
            state = {"p": draw(st.booleans()), "q": draw(st.booleans())}
            events.append(
                Event(process, sn, EventKind.INTERNAL, VectorClock(vc), state)
            )
        return n, process, events
    computation = random_computation(
        n, draw(st.integers(n, 8 * n)), seed=draw(st.integers(0, 10_000))
    )
    if kind == "skewed":
        spec = ClockSkewSpec(
            mode=draw(st.sampled_from(["sound", "unsound"])),
            rate=draw(st.sampled_from([0.3, 0.6, 1.0])),
            magnitude=draw(st.integers(1, 3)),
            seed=draw(st.integers(0, 1000)),
        )
        computation, _ = apply_clock_skew(computation, spec)
    return n, process, list(computation.events_of(process))


@st.composite
def serve_cases(draw):
    n, process, events = draw(histories())
    length = len(events)
    first_read = draw(st.integers(0, length))
    atoms = [f"P{process}.p", f"P{process}.q"]
    conjunct = draw(st.dictionaries(st.sampled_from(atoms), st.booleans()))
    conjuncts = [{} for _ in range(n)]
    conjuncts[process] = conjunct
    cut = [draw(st.integers(0, 4)) for _ in range(n)]
    cut[process] = draw(st.integers(0, first_read))
    depend = [draw(st.integers(0, 6)) for _ in range(n)]
    depend[process] = draw(st.integers(0, length + 2))
    min_positions = list(cut)
    min_positions[process] = draw(st.integers(0, length + 2))
    waiting_for = set(draw(st.lists(st.integers(0, n - 1), max_size=n)))
    return dict(
        n=n,
        process=process,
        events=events,
        first_read=first_read,
        conjuncts=conjuncts,
        cut=cut,
        depend=depend,
        min_positions=min_positions,
        satisfied=draw(st.booleans()),
        waiting_for=waiting_for,
        terminated=draw(st.booleans()),
    )


class TestRangedServeMatchesPerEventServe:
    @settings(max_examples=300, deadline=None)
    @given(serve_cases())
    def test_serve_entry_equals_the_per_event_reference(self, case):
        n, j, events = case["n"], case["process"], case["events"]
        monitor = _monitor(j, n)
        registry = monitor.registry
        letters = [monitor.initial_letters[j]] + [
            registry.local_letter(j, event.state) for event in events
        ]
        satisfied = [True] * n
        satisfied[j] = case["satisfied"]
        entry = TokenEntry(
            transition_id=0,
            guard={},
            conjuncts=case["conjuncts"],
            start_cut=list(case["cut"]),
            cut=list(case["cut"]),
            depend=list(case["depend"]),
            min_positions=list(case["min_positions"]),
            satisfied=satisfied,
            letters={i: frozenset() for i in range(n)} | {j: letters[case["cut"][j]]},
            waiting_for=set(case["waiting_for"]),
        )
        expected = copy.deepcopy(entry)

        # serve once part-way through the history, then again once every
        # event has been read (resuming a parked entry, maybe terminated)
        for event in events[: case["first_read"]]:
            monitor.local_event(event)
        monitor._serve_entry(entry)
        reference_serve(expected, j, events[: case["first_read"]], letters, False)
        assert _entry_state(entry) == _entry_state(expected)

        for event in events[case["first_read"] :]:
            monitor.local_event(event)
        monitor.local_terminated = case["terminated"]
        monitor._serve_entry(entry)
        reference_serve(expected, j, events, letters, case["terminated"])
        assert _entry_state(entry) == _entry_state(expected)

    def test_non_monotone_clocks_split_into_runs(self):
        monitor = _monitor(0, 2)
        clocks = [(1, 3), (2, 1), (3, 2), (4, 0)]
        for sn, vc in enumerate(clocks, start=1):
            monitor.local_event(Event(0, sn, EventKind.INTERNAL, VectorClock(vc)))
        assert monitor._clock_max(1, 4) == (4, 3)
        assert monitor._clock_max(2, 3) == (3, 2)
        assert monitor._clock_max(4, 4) == (4, 0)

    def test_events_must_arrive_in_sequence(self):
        monitor = _monitor(0, 2)
        monitor.local_event(Event(0, 1, EventKind.INTERNAL, VectorClock((1, 0))))
        with pytest.raises(ValueError, match="expected event 2"):
            monitor.local_event(Event(0, 3, EventKind.INTERNAL, VectorClock((3, 0))))


def _box_entry(n, side, columns):
    """An entry whose box spans ``side`` concurrent events of every process."""
    entry = TokenEntry(
        transition_id=0,
        guard={},
        conjuncts=[{} for _ in range(n)],
        start_cut=[0] * n,
        cut=[side] * n,
        depend=[side] * n,
        min_positions=[0] * n,
        satisfied=[True] * n,
    )
    for j in range(n):
        vcs = [tuple(sn if k == j else 0 for k in range(n)) for sn in range(1, side + 1)]
        entry.record_scan(j, 1, columns[j], vcs)
    return entry


def _random_columns(n, side, rng):
    return [
        [
            frozenset(a for a in (f"P{j}.p", f"P{j}.q") if rng.random() < 0.5)
            for _ in range(side)
        ]
        for j in range(n)
    ]


class TestBoxMemo:
    N, SIDE = 3, 3

    def _view(self, monitor):
        n = self.N
        return GlobalView(
            cut=[0] * n,
            state=monitor.automaton.initial_state,
            letters=list(monitor.initial_letters),
        )

    def _fresh_answer(self, entry):
        monitor = _monitor(0, self.N)
        reachable, letters = monitor._box_reachable(self._view(monitor), entry)
        return reachable, letters, monitor.declared_verdicts

    def test_forged_letter_column_is_not_served_from_the_memo(self):
        rng = random.Random(5)
        honest = _box_entry(self.N, self.SIDE, _random_columns(self.N, self.SIDE, rng))
        for _ in range(50):
            forged = copy.deepcopy(honest)
            forged.scanned_letters[1] = dict(
                zip(range(1, self.SIDE + 1), _random_columns(self.N, self.SIDE, rng)[1])
            )
            if self._fresh_answer(forged)[:2] != self._fresh_answer(honest)[:2]:
                break
        else:  # pragma: no cover - the seed above finds one
            pytest.fail("no forged column changes the box answer")
        assert forged.cut == honest.cut and forged.scanned_vcs == honest.scanned_vcs

        monitor = _monitor(0, self.N)
        view = self._view(monitor)
        assert monitor._box_reachable(view, honest)[:2] == self._fresh_answer(honest)[:2]
        assert monitor._box_reachable(view, forged)[:2] == self._fresh_answer(forged)[:2]
        assert len(monitor._box_memo) == 2

    def test_memo_hit_redeclares_the_conclusive_states(self):
        rng = random.Random(11)
        monitor = _monitor(0, self.N)
        view = self._view(monitor)
        for _ in range(50):
            entry = _box_entry(self.N, self.SIDE, _random_columns(self.N, self.SIDE, rng))
            monitor._box_memo.clear()
            first = monitor._box_reachable(view, entry)
            if monitor.declared_verdicts:
                break
        else:  # pragma: no cover - the seed above finds one
            pytest.fail("no box reaches a conclusive state")
        declared = (set(monitor.declared_verdicts), list(monitor.verdict_log))
        monitor.declared_verdicts.clear()
        monitor.declared_states.clear()
        monitor.verdict_log.clear()
        assert monitor._box_reachable(view, entry) == first
        assert len(monitor._box_memo) == 1
        assert (monitor.declared_verdicts, monitor.verdict_log) == declared


class TestProfileCellCounts:
    """The ROADMAP profile cell: property C, n=4, 12 events/process, seed 2015."""

    @staticmethod
    def _computation():
        scale = harness.DEFAULT_SCALE
        initial, truth = engine.trace_design("C")
        config = get_scenario("paper-default").workload.build_config(
            num_processes=4,
            events_per_process=12,
            evt_mu=scale.evt_mu,
            evt_sigma=scale.evt_sigma,
            comm_mu=scale.comm_mu,
            comm_sigma=scale.comm_sigma,
            truth_probability=truth,
            initial_valuation=dict(initial),
            seed=2015,
        )
        return generate_computation(config)

    @pytest.mark.parametrize(
        "net_seed, messages, views",
        [
            # the latency seed perfbench's heavy-cell draws for this cell
            (random.Random(2015).randrange(2**31), 7889, 819),
            (2015, 7915, 824),
        ],
    )
    def test_counts_are_pinned(self, net_seed, messages, views):
        report = simulate_monitored_run(
            self._computation(),
            case_study_monitor("C", 4),
            case_study_registry(4),
            seed=net_seed,
            max_views_per_state=2,
            network=get_scenario("paper-default").network,
        )
        assert report.total_events == 354
        assert report.monitor_messages == messages
        assert report.total_global_views == views
        assert report.delayed_events == 354
