"""The decentralized LTL3 monitoring algorithm (the paper's contribution).

Each program process ``P_i`` is composed with a monitor process ``M_i`` that

* reads the local events of ``P_i`` as they occur (:meth:`DecentralizedMonitor.local_event`);
* maintains a set of **global views** — lattice paths it is tracing, each
  with a consistent cut, the letters of all processes at that cut and the
  LTL3 monitor automaton state reached (:mod:`repro.core.global_view`);
* when a transition of the automaton might be enabled by states of other
  processes, emits a **token** that performs a distributed
  least-consistent-cut search (:mod:`repro.core.messages`), visiting other
  monitors to collect their events;
* forks new global views from returned tokens, merges duplicate views, and
  declares ⊤/⊥ verdicts as soon as a traced path reaches a conclusive
  automaton state.

Differences from the thesis pseudo-code (documented in DESIGN.md):

* Views buffer local events only while a token is outstanding (the paper's
  ``waiting`` status); the pending-queue is implicit because local history is
  kept anyway.
* When a token returns, the parent does not only fork the transition's
  target state: it replays **all interleavings inside the box** between the
  view's cut and the cut found by the token (the letters and vector clocks
  of every scanned event travel with the token), forking one view per
  reachable automaton state.  This makes the implementation sound by
  construction — every forked view corresponds to a real lattice path — and
  strengthens completeness.
* Inconsistent views (a local receive event that causally depends on remote
  events the view has not incorporated) are repaired eagerly with a
  dedicated repair token rather than being tracked with stale remote data.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from ..coordination import CoordinationTopology, RoundRobinToken
from ..distributed.events import Event
from ..ltl.monitor import MonitorAutomaton, Transition
from ..ltl.predicates import PropositionRegistry
from ..ltl.verdict import Verdict
from .global_view import GlobalView, ViewStatus
from .messages import TerminationNotice, Token, TokenEntry, VerdictAnnouncement
from .transport import Transport

__all__ = ["MonitorMetrics", "DecentralizedMonitor", "verdict_divergence"]

Letter = frozenset[str]


def verdict_divergence(
    decentralized: Iterable[Verdict], centralized: Iterable[Verdict]
) -> frozenset[Verdict]:
    """The soundness comparison seam: decentralized verdicts the oracle denies.

    The paper's soundness claim is that every conclusive verdict a
    decentralized monitor declares corresponds to a real execution path —
    i.e. is also declared by the centralized reference monitor, which
    explores every reachable consistent cut
    (``decentralized ⊆ centralized``).  This helper returns the violating
    verdicts (empty = sound).  The reverse direction is *not* checked:
    decentralized monitors may legitimately declare fewer verdicts
    (bounded exploration, crashes, message loss all cost completeness,
    never soundness).  The fault-fuzzing harness and the adversarial tests
    both classify runs through this one function.
    """
    return frozenset(decentralized) - frozenset(centralized)

#: Maximum number of cuts replayed exactly inside a token's box before the
#: monitor falls back to a single topologically-sorted interleaving.
_BOX_CELL_LIMIT = 20_000

#: Boxes a monitor remembers before its box memo starts over.
_BOX_MEMO_LIMIT = 1024


@dataclass
class MonitorMetrics:
    """Per-monitor counters reported by the experiments of Chapter 5."""

    events_processed: int = 0
    tokens_created: int = 0
    entries_created: int = 0
    token_messages_sent: int = 0
    termination_messages_sent: int = 0
    #: topology digest traffic: forwarded termination notices and verdict
    #: announcements (gossip/tree flooding); zero under round-robin-token
    digest_messages_sent: int = 0
    views_created: int = 0
    views_merged: int = 0
    max_active_views: int = 0
    delayed_events: int = 0
    token_hops_served: int = 0

    @property
    def messages_sent(self) -> int:
        """Total monitoring messages this monitor put on the network.

        Decomposes exactly as token + termination + digest messages; the
        network-level counter of a reliable transport must agree with the
        sum of this property across monitors.
        """
        return (
            self.token_messages_sent
            + self.termination_messages_sent
            + self.digest_messages_sent
        )


def _satisfies(letter: Letter, conjunct: Mapping[str, bool]) -> bool:
    """Whether a per-process letter satisfies a per-process conjunct."""
    for atom, required in conjunct.items():
        if (atom in letter) != required:
            return False
    return True


class DecentralizedMonitor:
    """Monitor process ``M_i`` of the decentralized algorithm.

    Parameters
    ----------
    process:
        Index ``i`` of the program process this monitor is attached to.
    num_processes:
        Total number of processes ``n``.
    automaton:
        The (replicated) LTL3 monitor automaton.
    registry:
        Binding of the automaton's atomic propositions to processes.
    initial_letters:
        The per-process letters of the initial global state (known to every
        monitor, as in the paper's INIT procedure).
    transport:
        Network used to exchange tokens and termination notices.
    max_views_per_state:
        Optional bound on the number of live global views a monitor keeps
        per automaton state.  ``None`` (default) explores exhaustively —
        this is the setting validated against the lattice oracle on small
        computations.  The experiment harness uses a small bound, which
        reproduces the paper's lightweight behaviour (total views bounded by
        a small multiple of the automaton size) on long workloads at the
        cost of possibly missing verdicts reachable only through the pruned
        views.
    use_compiled_kernel:
        When true (default) and the automaton's machine compiles (see
        :mod:`repro.ltl.compiled`), letter combination and automaton
        stepping run over integer bitmasks and a dense transition table
        instead of frozenset union + dictionary lookups.  The two paths are
        step-for-step equivalent; this flag is the per-monitor end of
        ``ExecutionConfig.compiled_kernel`` / ``--no-compiled-kernel``.
    topology:
        The :class:`repro.coordination.CoordinationTopology` routing policy
        shared by every monitor of the run.  ``None`` (default) builds the
        ``round-robin-token`` policy, which reproduces the pre-refactor
        monolithic routing byte for byte.  The monitor owns all mutable
        protocol state (duplicate suppression for flooded digests); the
        topology object itself is stateless and may be shared.
    """

    def __init__(
        self,
        process: int,
        num_processes: int,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
        initial_letters: Sequence[Letter],
        transport: Transport,
        max_views_per_state: int | None = None,
        use_compiled_kernel: bool = True,
        topology: CoordinationTopology | None = None,
    ) -> None:
        self.process = process
        self.num_processes = num_processes
        self.automaton = automaton
        self.registry = registry
        self.initial_letters: list[Letter] = [frozenset(l) for l in initial_letters]
        self.transport = transport
        self.max_views_per_state = max_views_per_state
        self.topology: CoordinationTopology = (
            topology if topology is not None else RoundRobinToken(num_processes)
        )
        self._compiled = automaton.compiled if use_compiled_kernel else None
        self._mask_cache: dict[Letter, int] = {}
        self.metrics = MonitorMetrics()
        #: duplicate suppression for flooded digests (tree/gossip forwarding)
        self._seen_notices: set[TerminationNotice] = set()
        self._seen_announcements: set[VerdictAnnouncement] = set()

        # scan index over the local history, one slot per sequence number
        # (slot 0 is the initial state): the letter and clock of each event,
        # the first sequence number of the monotone clock run each event
        # belongs to, and the sequence numbers where a new letter run starts
        self._letters: list[Letter] = [self.initial_letters[process]]
        self._vcs: list[tuple[int, ...]] = [(0,) * num_processes]
        self._clock_runs: list[int] = [0]
        self._letter_runs: list[int] = [0]
        #: conjunct items -> letter -> whether the letter satisfies it
        self._sat_memo: dict[tuple, dict[Letter, bool]] = {}
        #: box content -> (reachable states, conclusive states declared)
        self._box_memo: dict[tuple, tuple[frozenset[int], tuple[int, ...]]] = {}
        self.last_local_sn = 0
        self.local_terminated = False
        #: final event count of each process, once known
        self.terminated: dict[int, int | None] = {
            j: None for j in range(num_processes)
        }

        self.views: list[GlobalView] = []
        self.final_views: list[GlobalView] = []
        self.waiting_tokens: list[Token] = []
        self._outstanding: dict[int, GlobalView] = {}  # token_id -> waiting view

        self.declared_verdicts: set[Verdict] = set()
        self.declared_states: set[int] = set()
        #: conclusive verdicts in declaration order (first occurrence only);
        #: the ordered counterpart of ``declared_verdicts``, used by the
        #: fleet layer's byte-identical verdict-sequence comparisons
        self.verdict_log: list[Verdict] = []

        initial_state = self._step_combined(
            automaton.initial_state, self.initial_letters
        )
        view = GlobalView(
            cut=[0] * num_processes,
            state=initial_state,
            letters=list(self.initial_letters),
        )
        self.metrics.views_created += 1
        if automaton.is_final(initial_state):
            self._declare(initial_state)
            view.status = ViewStatus.FINAL
            self.final_views.append(view)
        else:
            self.views.append(view)
        self.metrics.max_active_views = len(self.views)
        self._started = False

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _combine(letters: Iterable[Letter]) -> Letter:
        result: set = set()
        for letter in letters:
            result |= letter
        return frozenset(result)

    def _mask_of(self, letter: Letter) -> int:
        """Bitmask of a per-process letter under the compiled machine.

        Masks of letters seen are cached (bounded, mirroring the projection
        cache of :meth:`repro.ltl.dfa.MooreMachine.step`) so the hot path is
        one dictionary lookup per per-process letter.
        """
        mask = self._mask_cache.get(letter)
        if mask is None:
            mask = self._compiled.encode(letter)  # type: ignore[union-attr]
            if len(self._mask_cache) < 4096:
                self._mask_cache[letter] = mask
        return mask

    def _step_combined(self, state: int, letters: Iterable[Letter]) -> int:
        """Step the automaton on the combination of per-process letters.

        The compiled path OR-combines letter bitmasks and indexes the dense
        table; the interpreted path unions frozensets and steps the Moore
        machine.  Both produce the same successor state.
        """
        compiled = self._compiled
        if compiled is not None:
            mask = 0
            mask_of = self._mask_of
            for letter in letters:
                mask |= mask_of(letter)
            return compiled.step(state, mask)
        return self.automaton.step(state, self._combine(letters))

    def _declare(self, state: int) -> None:
        verdict = self.automaton.verdict(state)
        if verdict.is_final:
            self.declared_states.add(state)
            if verdict not in self.declared_verdicts:
                self.declared_verdicts.add(verdict)
                self.verdict_log.append(verdict)
                self._announce_verdict(verdict)

    def _announce_verdict(self, verdict: Verdict) -> None:
        """Gossip a first-time conclusive verdict, if the topology does."""
        recipients = self.topology.verdict_recipients(self.process)
        if not recipients:
            return
        announcement = VerdictAnnouncement(self.process, str(verdict))
        self._seen_announcements.add(announcement)
        for target in recipients:
            if target != self.process:
                self.transport.send(self.process, target, announcement)
                self.metrics.digest_messages_sent += 1

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Explore outgoing transitions of the initial global view.

        Must be called once all monitors are registered with the transport
        (mirrors the INIT procedure, which processes the initial state as a
        pseudo event).
        """
        if self._started:
            return
        self._started = True
        for view in list(self.views):
            self._explore_outgoing(view)
        self._merge_views()

    def local_event(self, event: Event) -> None:
        """Handle one event read from the attached program process."""
        if event.process != self.process:
            raise ValueError(
                f"monitor {self.process} received event of process {event.process}"
            )
        sn = event.sn
        if sn != self.last_local_sn + 1:
            raise ValueError(
                f"monitor {self.process} expected event {self.last_local_sn + 1}, "
                f"got {sn}"
            )
        if not self._started:
            self.start()
        self.metrics.events_processed += 1
        letter = self.registry.local_letter(self.process, event.state)
        vc = tuple(event.vc)
        if letter != self._letters[-1]:
            self._letter_runs.append(sn)
        if all(a <= b for a, b in zip(self._vcs[-1], vc)):
            self._clock_runs.append(self._clock_runs[-1])
        else:
            self._clock_runs.append(sn)
        self._letters.append(letter)
        self._vcs.append(vc)
        self.last_local_sn = sn

        waiting_views = [v for v in self.views if v.is_waiting()]
        if waiting_views:
            self.metrics.delayed_events += 1

        self._retry_waiting_tokens()
        for view in list(self.views):
            if not view.is_waiting():
                self._advance_view(view)
        self._merge_views()

    def local_termination(self) -> None:
        """Handle the termination signal of the attached program process."""
        if not self._started:
            self.start()
        self.local_terminated = True
        self.terminated[self.process] = self.last_local_sn
        notice = TerminationNotice(self.process, self.last_local_sn)
        self._seen_notices.add(notice)
        for other in self.topology.termination_recipients(self.process):
            if other != self.process:
                self.transport.send(self.process, other, notice)
                self.metrics.termination_messages_sent += 1
        # my process will contribute no further events: views whose guards are
        # currently satisfied can now only fire through remote events.
        for view in list(self.views):
            if not view.is_waiting():
                self._explore_outgoing(view, include_currently_satisfied=True)
        self._retry_waiting_tokens()
        self._merge_views()

    def receive_message(self, message: object) -> None:
        """Handle a message from another monitor process."""
        if isinstance(message, TerminationNotice):
            forward = self.topology.forward_termination(
                self.process, message.process
            )
            if forward:
                # flooding topology: suppress duplicates, spread first-seen
                # notices one more wave (broadcast topologies forward nothing
                # and keep the original reprocess-every-copy behaviour)
                if message in self._seen_notices:
                    return
                self._seen_notices.add(message)
                for target in forward:
                    if target != self.process:
                        self.transport.send(self.process, target, message)
                        self.metrics.digest_messages_sent += 1
            self.terminated[message.process] = message.final_event_sn
            self._retry_waiting_tokens()
            self._merge_views()
            return
        if isinstance(message, VerdictAnnouncement):
            if message in self._seen_announcements:
                return
            self._seen_announcements.add(message)
            verdict = Verdict(message.verdict)
            if verdict.is_final and verdict not in self.declared_verdicts:
                self.declared_verdicts.add(verdict)
                self.verdict_log.append(verdict)
            for target in self.topology.forward_verdict(
                self.process, message.origin
            ):
                if target != self.process:
                    self.transport.send(self.process, target, message)
                    self.metrics.digest_messages_sent += 1
            return
        if isinstance(message, Token):
            token = message
            if token.parent_process == self.process and token.all_decided():
                # the completed token is merely returning home: the parent
                # consumes it, it does not serve a hop
                self._token_returned(token)
            else:
                token.hops += 1
                self.metrics.token_hops_served += 1
                self._serve_token(token)
            self._merge_views()
            return
        raise TypeError(f"unexpected monitor message {message!r}")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def is_quiescent(self) -> bool:
        """No outstanding work besides possibly waiting on other monitors."""
        return not self.waiting_tokens and not self._outstanding

    def active_view_states(self) -> set[int]:
        """Automaton states of the currently active global views."""
        return {view.state for view in self.views}

    def active_views(self) -> list[GlobalView]:
        """Snapshot of the currently active global views."""
        return list(self.views)

    def reported_verdicts(self) -> set[Verdict]:
        """Verdicts this monitor reports at the end of the run."""
        verdicts = set(self.declared_verdicts)
        for view in self.views:
            verdicts.add(self.automaton.verdict(view.state))
        return verdicts

    # ------------------------------------------------------------------
    # view advancement on local events
    # ------------------------------------------------------------------
    def _advance_view(self, view: GlobalView) -> None:
        """Apply pending local events (from history) to an unblocked view."""
        while (
            view.status == ViewStatus.UNBLOCKED
            and view.cut[self.process] < self.last_local_sn
        ):
            self._step_view(view, view.cut[self.process] + 1)

    def _step_view(self, view: GlobalView, sn: int) -> None:
        """Advance *view* by local event *sn* (PROCESSEVENT)."""
        vc = self._vcs[sn]
        lagging = [
            j
            for j in range(self.num_processes)
            if j != self.process and vc[j] > view.cut[j]
        ]
        if lagging:
            self._create_repair_token(view, sn, lagging)
            return

        letter_local = self._letters[sn]
        if self._compiled is not None:
            mask = self._mask_of(letter_local)
            mask_of = self._mask_of
            mine = self.process
            for j, letter in enumerate(view.letters):
                if j != mine:
                    mask |= mask_of(letter)
            new_state = self._compiled.step(view.state, mask)
        else:
            global_letter = view.letter_with(self.process, letter_local)
            new_state = self.automaton.step(view.state, global_letter)
        view.cut[self.process] = sn
        view.letters[self.process] = letter_local
        view.state = new_state
        if self.automaton.is_final(new_state):
            self._declare(new_state)
            self._finalize_view(view)
            return
        self._explore_outgoing(view)

    def _finalize_view(self, view: GlobalView) -> None:
        view.status = ViewStatus.FINAL
        if view in self.views:
            self.views.remove(view)
        self.final_views.append(view)

    # ------------------------------------------------------------------
    # token creation (CHECKOUTGOINGTRANSITIONS)
    # ------------------------------------------------------------------
    def _explore_outgoing(
        self, view: GlobalView, include_currently_satisfied: bool = False
    ) -> None:
        """Create token entries for possibly-enabled outgoing transitions.

        A transition is *possibly enabled* when this process's conjunct holds
        at the view's current letter but remote conjuncts do not (so remote
        processes must advance for the guard to become true).  With
        ``include_currently_satisfied`` also guards that already hold are
        searched with the requirement that some participating remote process
        advances — used once the local process has terminated and can no
        longer trigger the transition itself.
        """
        if view.status != ViewStatus.UNBLOCKED:
            return
        entries: list[TokenEntry] = []
        for transition in self.automaton.outgoing_transitions(view.state):
            conjuncts = self.registry.conjuncts_by_process(
                transition.guard, self.num_processes
            )
            mine = conjuncts[self.process]
            if mine and not _satisfies(view.letters[self.process], mine):
                continue  # this process forbids the transition at its frontier
            satisfied_now = [
                _satisfies(view.letters[j], conjuncts[j])
                for j in range(self.num_processes)
            ]
            remote_participants = [
                j
                for j in range(self.num_processes)
                if j != self.process and conjuncts[j]
            ]
            if all(satisfied_now):
                if not include_currently_satisfied or not remote_participants:
                    continue
                # require at least one participating remote process to move
                for j in remote_participants:
                    entries.append(
                        self._make_entry(
                            view, transition, conjuncts, satisfied_now, bump=j
                        )
                    )
                continue
            if not remote_participants:
                # unsatisfied purely because of a *local* proposition that is
                # currently false at this frontier: a later local event will
                # re-evaluate it, no communication needed.
                continue
            entries.append(
                self._make_entry(view, transition, conjuncts, satisfied_now)
            )
        if not entries:
            return
        token = Token(
            parent_process=self.process,
            parent_view=view.view_id,
            parent_event_sn=view.cut[self.process],
            entries=entries,
        )
        self.metrics.tokens_created += 1
        self.metrics.entries_created += len(entries)
        view.status = ViewStatus.WAITING
        view.outstanding_token = token.token_id
        self._outstanding[token.token_id] = view
        self._dispatch_token(token)

    def _make_entry(
        self,
        view: GlobalView,
        transition: Transition,
        conjuncts: list[dict[str, bool]],
        satisfied_now: list[bool],
        bump: int | None = None,
    ) -> TokenEntry:
        n = self.num_processes
        min_positions = list(view.cut)
        if bump is not None:
            min_positions[bump] = view.cut[bump] + 1
        entry = TokenEntry(
            transition_id=transition.transition_id,
            guard=dict(transition.guard),
            conjuncts=[dict(c) for c in conjuncts],
            start_cut=list(view.cut),
            cut=list(view.cut),
            depend=list(view.cut),
            min_positions=min_positions,
            satisfied=list(satisfied_now),
            letters={j: view.letters[j] for j in range(n)},
        )
        return entry

    def _create_repair_token(
        self, view: GlobalView, sn: int, lagging: list[int]
    ) -> None:
        """Pull the view up to the causal past of an out-of-order local event."""
        n = self.num_processes
        min_positions = list(view.cut)
        for j in lagging:
            min_positions[j] = self._vcs[sn][j]
        entry = TokenEntry(
            transition_id=None,
            guard={},
            conjuncts=[dict() for _ in range(n)],
            start_cut=list(view.cut),
            cut=list(view.cut),
            depend=list(view.cut),
            min_positions=min_positions,
            satisfied=[True] * n,
            letters={j: view.letters[j] for j in range(n)},
        )
        token = Token(
            parent_process=self.process,
            parent_view=view.view_id,
            parent_event_sn=sn,
            entries=[entry],
        )
        self.metrics.tokens_created += 1
        self.metrics.entries_created += 1
        view.status = ViewStatus.WAITING
        view.outstanding_token = token.token_id
        self._outstanding[token.token_id] = view
        self._dispatch_token(token)

    # ------------------------------------------------------------------
    # token service and routing (PROCESSTOKEN / EVALUATETOKEN / SENDTONEXTPROCESS)
    # ------------------------------------------------------------------
    def _serve_token(self, token: Token) -> None:
        for entry in token.undecided_entries():
            if self.process in entry.pending_targets():
                self._serve_entry(entry)
            entry.try_finalize()
        self._route_token(token)

    def _serve_entry(self, entry: TokenEntry) -> None:
        """Advance the entry using this monitor's local history.

        The entry stops at the first local event at or past both its
        position bound and ``cut + 1`` whose letter satisfies the conjunct.
        The bound cannot grow on the way: the scanned events are this
        process's own, and an event's own clock component is its sequence
        number.  So the end is found in one search over letter runs, and the
        whole range up to it is recorded and folded into ``depend`` at once.
        Without such an event the entry scans to ``last_local_sn`` and parks
        there, or fails once the process has terminated.
        """
        j = self.process
        conjunct = entry.conjuncts[j]
        entry.waiting_for.discard(j)
        cut = entry.cut[j]
        bound = max(entry.depend[j], entry.min_positions[j])
        if cut >= bound and (not conjunct or entry.satisfied[j]):
            entry.parked_on = None
            return
        end = self._first_enabling(conjunct, max(cut + 1, bound))
        stop = self.last_local_sn if end is None else end
        progressed = stop > cut
        if progressed:
            first = cut + 1
            entry.record_scan(
                j, first, self._letters[first : stop + 1], self._vcs[first : stop + 1]
            )
            clock_max = self._clock_max(first, stop)
            entry.depend = [max(a, b) for a, b in zip(entry.depend, clock_max)]
            letter = self._letters[stop]
            entry.cut[j] = stop
            entry.letters[j] = letter
            entry.satisfied[j] = _satisfies(letter, conjunct) if conjunct else True
        if end is not None:
            entry.parked_on = None
        elif self.local_terminated:
            entry.eval = False
            entry.parked_on = None
        else:
            entry.parked_on = j
            entry.waiting_for.add(j)
        if progressed:
            # this component moved, so other processes that previously had
            # nothing actionable are worth revisiting
            entry.waiting_for.intersection_update({j})

    def _first_enabling(self, conjunct: Mapping[str, bool], start: int) -> int | None:
        """The first local sn >= *start* whose letter satisfies *conjunct*.

        Letters change rarely along a process, so the search visits one
        letter per run and jumps to the next run start; satisfaction is
        memoised per (conjunct, letter).  ``None`` when no such event has
        been read yet.
        """
        if start > self.last_local_sn:
            return None
        if not conjunct:
            return start
        key = tuple(conjunct.items())
        memo = self._sat_memo.get(key)
        if memo is None:
            memo = self._sat_memo[key] = {}
        letters = self._letters
        runs = self._letter_runs
        sn = start
        while True:
            letter = letters[sn]
            satisfied = memo.get(letter)
            if satisfied is None:
                satisfied = memo[letter] = _satisfies(letter, conjunct)
            if satisfied:
                return sn
            following = bisect_right(runs, sn)
            if following == len(runs):
                return None
            sn = runs[following]

    def _clock_max(self, first: int, last: int) -> tuple[int, ...]:
        """Component-wise maximum of the local clocks of events first..last.

        Within a monotone clock run the last clock is the maximum, so the
        fold visits one clock per run, walking backwards from *last*.
        Histories are one run in practice (clock skew keeps each process's
        clocks monotone); a history whose clocks go down is folded run by run.
        """
        vcs = self._vcs
        runs = self._clock_runs
        top = vcs[last]
        sn = runs[last] - 1
        while sn >= first:
            top = tuple([max(a, b) for a, b in zip(top, vcs[sn])])
            sn = runs[sn] - 1
        return top

    def _retry_waiting_tokens(self) -> None:
        """Re-examine parked tokens after new local events or terminations."""
        if not self.waiting_tokens:
            return
        tokens = self.waiting_tokens
        self.waiting_tokens = []
        for token in tokens:
            for entry in token.undecided_entries():
                # processes known to have terminated are always worth a
                # (final) visit: clear their "nothing new" marker
                for other in list(entry.waiting_for):
                    if other != self.process and self.terminated.get(other) is not None:
                        entry.waiting_for.discard(other)
                targets = entry.pending_targets()
                if self.process in targets:
                    self._serve_entry(entry)
                else:
                    # a process we cannot serve: resolve it if it is known to
                    # have terminated below the required position
                    for other in targets:
                        final = self.terminated.get(other)
                        if final is None:
                            continue
                        required = max(
                            entry.depend[other], entry.min_positions[other]
                        )
                        if entry.cut[other] >= final and (
                            required > final
                            or (entry.conjuncts[other] and not entry.satisfied[other])
                        ):
                            entry.eval = False
                entry.try_finalize()
            self._route_token(token)

    def _route_token(self, token: Token) -> None:
        """Decide where the token goes next (SENDTONEXTPROCESS)."""
        if token.all_decided():
            if token.parent_process == self.process:
                self._token_returned(token)
            else:
                self._send_token(token, token.parent_process)
            return
        targets = token.targets()
        parked = set(token.parked_targets())
        # prefer a process with actionable work that is not this monitor
        actionable = [t for t in targets if t != self.process and t not in parked]
        if actionable:
            self._send_token(
                token, self.topology.pick_target(self.process, actionable, token)
            )
            return
        if self.process in targets:
            # wait here for future local events (or local termination)
            self.waiting_tokens.append(token)
            return
        remote_parked = [t for t in parked if t != self.process]
        if remote_parked:
            # every remaining target is waiting for future events elsewhere;
            # let the token wait at one of those processes
            self._send_token(
                token,
                self.topology.pick_target(self.process, remote_parked, token),
            )
            return
        # nothing actionable anywhere: keep the token here until something
        # (a local event or a termination notice) changes the situation
        self.waiting_tokens.append(token)

    def _send_token(self, token: Token, target: int) -> None:
        if target == self.process:
            # nothing to transmit: serve locally
            if token.parent_process == self.process and token.all_decided():
                self._token_returned(token)
            else:
                self._serve_token(token)
            return
        # multi-hop topologies relay through a neighbour; the intermediate
        # monitor re-serves and re-routes, converging on the destination
        hop = self.topology.next_hop(self.process, target)
        self.metrics.token_messages_sent += 1
        self.transport.send(self.process, hop, token)

    def _dispatch_token(self, token: Token) -> None:
        """First routing decision right after a token is created."""
        # the creating monitor first serves entries that target itself
        # (consistency repairs may need the parent's own events)
        for entry in token.undecided_entries():
            if self.process in entry.pending_targets():
                self._serve_entry(entry)
            entry.try_finalize()
        self._route_token(token)

    # ------------------------------------------------------------------
    # token return (RECEIVETOKEN at the parent)
    # ------------------------------------------------------------------
    def _token_returned(self, token: Token) -> None:
        view = self._outstanding.pop(token.token_id, None)
        if view is None:
            return  # parent view vanished (merged away); drop silently
        view.status = ViewStatus.UNBLOCKED
        view.outstanding_token = None

        repair_entries = [e for e in token.entries if e.is_repair]
        transition_entries = [e for e in token.entries if not e.is_repair]

        forked: list[GlobalView] = []
        for entry in transition_entries:
            if entry.eval is not True:
                continue
            forked.extend(self._fork_from_entry(view, entry))

        if repair_entries:
            entry = repair_entries[0]
            if entry.eval is True:
                forked.extend(self._fork_from_entry(view, entry))
            # the stale view is superseded by the repaired forks
            if view in self.views:
                self.views.remove(view)
            view.status = ViewStatus.FINAL  # retired, not counted as a result
        for child in forked:
            if child.status == ViewStatus.UNBLOCKED:
                self._advance_view(child)
        if view.status == ViewStatus.UNBLOCKED:
            self._advance_view(view)
        self._merge_views()

    def _fork_from_entry(self, view: GlobalView, entry: TokenEntry) -> list[GlobalView]:
        """Fork one view per automaton state reachable inside the entry's box.

        Only *pivot* states are forked: a reachable state equal to the parent
        view's own state adds no information (the parent keeps covering that
        state from its smaller cut), and forking it would duplicate the
        parent's exploration — this mirrors the paper's rule of only
        exploring global states that change the automaton state.  Repair
        entries fork every reachable state because the parent view is retired
        afterwards.
        """
        target_cut = list(entry.cut)
        reachable, letters_at_target = self._box_reachable(view, entry)
        children: list[GlobalView] = []
        for state in sorted(reachable):
            if self.automaton.is_final(state):
                self._declare(state)
                continue
            if state == view.state and not entry.is_repair:
                continue
            if self._covered_by_existing_view(
                state, target_cut, exact_only=entry.is_repair
            ):
                self.metrics.views_merged += 1
                continue
            child = GlobalView(
                cut=list(target_cut),
                state=state,
                letters=letters_at_target,
                forked_from=view.view_id,
            )
            self.metrics.views_created += 1
            self.views.append(child)
            children.append(child)
        self.metrics.max_active_views = max(
            self.metrics.max_active_views, len(self.views)
        )
        return children

    def _covered_by_existing_view(
        self, state: int, cut: list[int], exact_only: bool = False
    ) -> bool:
        """Whether some live view already subsumes a candidate fork.

        A view with the same automaton state whose cut is componentwise
        below (or equal to) the candidate's cut will reach every cut the
        candidate could reach, so creating the candidate would only
        duplicate exploration.  Waiting views count too — they resume from
        their smaller cut once their token returns.

        For repair forks (which *replace* their retired parent) only exact
        duplicates may be skipped: a merely-dominating view might itself be
        retired by a later repair, which would otherwise orphan the lineage.
        """
        for other in self.views:
            if other.state != state:
                continue
            if exact_only:
                if list(other.cut) == list(cut):
                    return True
            elif all(o <= c for o, c in zip(other.cut, cut)):
                return True
        return False

    def _box_reachable(
        self, view: GlobalView, entry: TokenEntry
    ) -> tuple[set[int], list[Letter]]:
        """States reachable at ``entry.cut`` from the view, over all
        interleavings of the events inside ``[view.cut, entry.cut]``.

        Conclusive states reached anywhere inside the box are declared
        (those partial paths are real executions).  The result depends only
        on the view's state, cut and letters, the entry's cut and the
        letters and clocks the entry scanned inside the box, so it is
        memoised per monitor under exactly that content, and the memo stays
        exact whatever produced the content (a forged or replayed token, a
        skewed clock).  A memo hit re-declares the stored conclusive states,
        in their first-declared order, which leaves the monitor as the
        search would.
        """
        n = self.num_processes
        base = view.cut
        target = entry.cut
        letter_cols: list[tuple[Letter, ...]] = []
        vc_cols: list[tuple[tuple[int, ...], ...]] = []
        for j in range(n):
            if target[j] > base[j]:
                span = range(base[j] + 1, target[j] + 1)
                scanned_letters = entry.scanned_letters[j]
                scanned_vcs = entry.scanned_vcs[j]
                letter_cols.append(tuple([scanned_letters[p] for p in span]))
                vc_cols.append(tuple([scanned_vcs[p] for p in span]))
            else:
                letter_cols.append(())
                vc_cols.append(())
        key = (
            view.state,
            tuple(base),
            tuple(target),
            tuple(view.letters),
            tuple(letter_cols),
            tuple(vc_cols),
        )
        memo = self._box_memo
        found = memo.get(key)
        if found is None:
            found = self._box_search(view, target, letter_cols, vc_cols)
            if len(memo) >= _BOX_MEMO_LIMIT:
                memo.clear()
            memo[key] = found
        reachable, declared = found
        for state in declared:
            self._declare(state)
        letters_at_target = [
            col[-1] if col else view.letters[j] for j, col in enumerate(letter_cols)
        ]
        return set(reachable), letters_at_target

    def _box_search(
        self,
        view: GlobalView,
        target: list[int],
        letter_cols: list[tuple[Letter, ...]],
        vc_cols: list[tuple[tuple[int, ...], ...]],
    ) -> tuple[frozenset[int], tuple[int, ...]]:
        """Reachable states at *target* and the conclusive states met on the way.

        ``letter_cols[j]`` / ``vc_cols[j]`` hold the letters and clocks of
        process ``j``'s events inside the box, in sequence order.  Returns
        the states reachable at the box's top cell and the conclusive states
        reached anywhere in it, in the order the search first meets them.
        """
        n = self.num_processes
        base = view.cut
        ranges = [target[j] - base[j] for j in range(n)]
        cells = 1
        for r in ranges:
            cells *= r + 1
        if cells > _BOX_CELL_LIMIT:
            return self._box_search_linear(view, letter_cols, vc_cols)

        # Per (process, offset): the letter at that position and the vector
        # clock expressed relative to the base cut, so the consistency check
        # reduces to integer comparisons on small tuples.
        n_range = range(n)
        letters_by = [[view.letters[j], *letter_cols[j]] for j in n_range]
        rel_vc = [
            [None] + [tuple([vc[k] - base[k] for k in n_range]) for vc in vc_cols[j]]
            for j in n_range
        ]
        active = [j for j in n_range if ranges[j] > 0]
        automaton_step = self.automaton.step
        is_final = self.automaton.is_final
        compiled = self._compiled
        if compiled is not None:
            # per-(process, offset) bitmask columns: combining the letters of
            # a cell is an integer OR and stepping is one dense-table load
            mask_of = self._mask_of
            masks_by = [[mask_of(letter) for letter in col] for col in letters_by]
            table = compiled.table
            n_letters = compiled.n_letters
            final_flags = compiled.final_flags

        # Level-synchronous BFS over the *reachable consistent* cells of the
        # box (all predecessors of a cell sit exactly one level below it, so
        # each level is complete before it is expanded).  Compared to
        # enumerating the full product this skips unreachable regions and
        # touches each cell once, with no predecessor reconstruction.  Every
        # expanded cell is consistent and a successor adds one event, so
        # only that event's clock needs checking against the successor.
        origin = tuple([0] * n)
        final_offsets = tuple(ranges)
        final_states: set[int] = {view.state} if final_offsets == origin else set()
        declared: dict[int, None] = {}
        inconsistent: set[tuple[int, ...]] = set()
        current: dict[tuple[int, ...], set[int]] = {origin: {view.state}}
        while current:
            nxt: dict[tuple[int, ...], set[int]] = {}
            letters_at: dict[tuple[int, ...], Letter | int] = {}
            for offsets, states in current.items():
                for j in active:
                    oj = offsets[j] + 1
                    if oj > ranges[j]:
                        continue
                    succ = offsets[:j] + (oj,) + offsets[j + 1 :]
                    bucket = nxt.get(succ)
                    if bucket is None:
                        if succ in inconsistent:
                            continue
                        rel = rel_vc[j][oj]
                        for k in n_range:
                            if rel[k] > succ[k]:  # type: ignore[index]
                                inconsistent.add(succ)
                                break
                        else:
                            bucket = nxt[succ] = set()
                            if compiled is not None:
                                cell_mask = 0
                                for i in n_range:
                                    cell_mask |= masks_by[i][succ[i]]
                                letters_at[succ] = cell_mask
                            else:
                                letters_at[succ] = self._combine(
                                    letters_by[i][succ[i]] for i in n_range
                                )
                        if bucket is None:
                            continue
                    letter = letters_at[succ]
                    if compiled is not None:
                        for state in states:
                            bucket.add(table[state * n_letters + letter])
                    else:
                        for state in states:
                            bucket.add(automaton_step(state, letter))
            for states in nxt.values():
                for state in states:
                    if final_flags[state] if compiled is not None else is_final(state):
                        declared[state] = None
            if final_offsets in nxt:
                final_states = nxt[final_offsets]
            current = nxt
        return frozenset(final_states), tuple(declared)

    def _box_search_linear(
        self,
        view: GlobalView,
        letter_cols: list[tuple[Letter, ...]],
        vc_cols: list[tuple[tuple[int, ...], ...]],
    ) -> tuple[frozenset[int], tuple[int, ...]]:
        """Fallback for oversized boxes: replay one causally-consistent
        linearisation of the box events (sound, possibly incomplete)."""
        events: list[tuple[tuple[int, ...], int, Letter]] = []
        for j, (letters_j, vcs_j) in enumerate(zip(letter_cols, vc_cols)):
            events.extend((vc, j, letter) for letter, vc in zip(letters_j, vcs_j))
        events.sort(key=lambda item: (sum(item[0]), item[0], item[1]))
        letters = list(view.letters)
        state = view.state
        declared: dict[int, None] = {}
        compiled = self._compiled
        if compiled is not None:
            mask_of = self._mask_of
            masks = [mask_of(letter) for letter in letters]
            table = compiled.table
            n_letters = compiled.n_letters
            final_flags = compiled.final_flags
            for _, j, letter in events:
                masks[j] = mask_of(letter)
                mask = 0
                for m in masks:
                    mask |= m
                state = table[state * n_letters + mask]
                if final_flags[state]:
                    declared[state] = None
            return frozenset({state}), tuple(declared)
        for _, j, letter in events:
            letters[j] = letter
            state = self.automaton.step(state, self._combine(letters))
            if self.automaton.is_final(state):
                declared[state] = None
        return frozenset({state}), tuple(declared)

    # ------------------------------------------------------------------
    # merging (MERGESIMILARGLOBALVIEWS)
    # ------------------------------------------------------------------
    def _merge_views(self) -> None:
        """MERGESIMILARGLOBALVIEWS.

        Two reductions are applied to unblocked views (views waiting for a
        token are left alone):

        * exact duplicates — same automaton state and same cut — are merged;
        * a view whose cut componentwise dominates another view with the same
          automaton state is merged into the smaller one: the smaller view
          subsumes its exploration (it will reach every cut the larger one
          can reach), which is the slice-based merging of Section 4.3 and
          keeps the number of live views bounded by the number of automaton
          states in the common case.
        """
        waiting = [view for view in self.views if view.is_waiting()]
        active = [view for view in self.views if not view.is_waiting()]

        # exact duplicates first
        seen: dict[tuple[int, tuple[int, ...]], GlobalView] = {}
        deduped: list[GlobalView] = []
        for view in active:
            signature = view.signature()
            if signature in seen:
                self.metrics.views_merged += 1
                continue
            seen[signature] = view
            deduped.append(view)

        # dominance merging per automaton state: keep the minimal antichain
        by_state: dict[int, list[GlobalView]] = {}
        for view in deduped:
            by_state.setdefault(view.state, []).append(view)
        kept: list[GlobalView] = []
        for state_views in by_state.values():
            minimal: list[GlobalView] = []
            for view in sorted(state_views, key=lambda v: sum(v.cut)):
                if any(
                    all(small <= big for small, big in zip(other.cut, view.cut))
                    for other in minimal
                ):
                    self.metrics.views_merged += 1
                    continue
                minimal.append(view)
            kept.extend(minimal)

        self.views = waiting + kept
        self._enforce_view_budget()
        self.metrics.max_active_views = max(
            self.metrics.max_active_views, len(self.views)
        )

    def _enforce_view_budget(self) -> None:
        """Apply the optional per-state bound on live views.

        When the bound is exceeded the views with the largest cuts are
        dropped (the remaining smaller-cut views re-cover their exploration
        space); outstanding tokens of dropped views are disowned so their
        eventual return is ignored.
        """
        if self.max_views_per_state is None:
            return
        by_state: dict[int, list[GlobalView]] = {}
        for view in self.views:
            by_state.setdefault(view.state, []).append(view)
        kept: list[GlobalView] = []
        for state_views in by_state.values():
            state_views.sort(key=lambda v: (sum(v.cut), tuple(v.cut)))
            kept.extend(state_views[: self.max_views_per_state])
            for dropped in state_views[self.max_views_per_state :]:
                self.metrics.views_merged += 1
                if dropped.outstanding_token is not None:
                    self._outstanding.pop(dropped.outstanding_token, None)
        self.views = kept

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecentralizedMonitor(process={self.process}, views={len(self.views)}, "
            f"declared={sorted(str(v) for v in self.declared_verdicts)})"
        )
