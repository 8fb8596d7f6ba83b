"""The correctness gate: every unit's verdicts, counts and monitors are checked.

A unit fails when its run raised (including ``SimulationBudgetExceeded``),
when its tenant was evicted or dropped events, when it declared a verdict the
lattice oracle does not reach on the top cut, when its deterministic counts
differ from the first pass over the same inputs, or when its monitor misses
a pinned Table 5.1 row or its compiled and interpreted forms step
differently.
"""

from __future__ import annotations

import random

#: Table 5.1 rows (total / outgoing / self-loop transitions) this
#: reproduction matches exactly; the same rows are pinned by the repository's
#: Table 5.1 benchmark test.
TABLE_5_1 = {
    ("A", 2): (7, 4, 3),
    ("A", 3): (11, 7, 4),
    ("A", 4): (15, 11, 4),
    ("A", 5): (21, 16, 5),
    ("B", 2): (4, 1, 3),
    ("B", 4): (6, 1, 5),
    ("C", 2): (7, 4, 3),
    ("C", 3): (11, 7, 4),
    ("D", 2): (15, 11, 4),
    ("D", 3): (27, 22, 5),
    ("D", 5): (63, 56, 7),
    ("E", 2): (6, 1, 5),
    ("E", 3): (8, 1, 7),
    ("E", 4): (10, 1, 9),
    ("E", 5): (12, 1, 11),
}
#: words per monitor, and letters per word, of the compiled-versus-interpreted check
SAMPLE_WORDS = 16
SAMPLE_LENGTH = 12


def oracle_verdicts(system, inputs) -> dict[str, frozenset]:
    """Per cell key: the conclusive verdicts the lattice oracle reaches.

    ⊤ and ⊥ are absorbing, so the top cut's reachable states hold every
    conclusive verdict any path can reach; a sound monitor declares no other.
    """
    references = {}
    for cell in inputs.cells:
        key = (cell.property_name, cell.num_processes)
        result = system.oracle.LatticeOracle(
            cell.computation, inputs.automata[key], inputs.registries[key]
        ).evaluate()
        references[cell.key] = frozenset(str(v) for v in result.conclusive_verdicts)
    return references


def _unit_error(unit, reference: frozenset, first=None) -> str:
    """Why *unit* fails, or ``""``; *first* is the same unit's first-pass outcome."""
    if unit.error:
        return unit.error
    unsound = unit.declared - reference
    if unsound:
        return f"declared {sorted(unsound)} but the oracle reaches only {sorted(reference)}"
    if first is not None and unit.counts() != first.counts():
        return f"counts {unit.counts()} differ from the first pass's {first.counts()}"
    return ""


def check_passes(passes, references, key_errors=None) -> list[str]:
    """Every failed unit of *passes*, as ``key: reason`` lines.

    *key_errors* maps a ``(property, processes)`` monitor to a failure (from
    :func:`check_monitors`) that every unit monitored with it inherits; unit
    keys start with ``property/processes/``.
    """
    failures = []
    first = {unit.key: unit for unit in passes[0].units}
    for number, run in enumerate(passes):
        for unit in run.units:
            error = _unit_error(
                unit, references.get(unit.key, frozenset()), first[unit.key] if number else None
            )
            if not error and key_errors:
                name, n = unit.key.split("/")[:2]
                error = key_errors.get((name, int(n)), "")
            if error:
                failures.append(f"pass {number} {unit.key}: {error}")
    return failures


def check_monitors(automata, seed: int) -> dict[tuple, str]:
    """Table 5.1 rows and compiled-versus-interpreted stepping, per monitor."""
    errors = {}
    rng = random.Random(seed)
    for key, automaton in sorted(automata.items()):
        counts = automaton.transition_counts()
        row = (counts["total"], counts["outgoing"], counts["self_loops"])
        if key in TABLE_5_1 and row != TABLE_5_1[key]:
            errors[key] = f"Table 5.1 row {row} != pinned {TABLE_5_1[key]}"
            continue
        compiled = automaton.compiled
        if compiled is None:
            continue
        atoms = sorted(compiled.atoms)
        for _ in range(SAMPLE_WORDS):
            state, mask_state = automaton.initial_state, compiled.initial
            for _ in range(SAMPLE_LENGTH):
                letter = frozenset(a for a in atoms if rng.random() < 0.5)
                state = automaton.step(state, letter)
                mask_state = compiled.step(mask_state, compiled.encode(letter))
                if automaton.verdict(state) != compiled.output(mask_state):
                    errors[key] = f"compiled and interpreted verdicts differ on {sorted(letter)}"
                    break
            if key in errors:
                break
    return errors
