"""Forward chaining: one-step rule application and the materialisation loop."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from .evaluation import evaluate_rule
from .store import FactStore
from .syntax import Fact, Program


@dataclass
class MaterialisationOutcome:
    store: FactStore
    status: str  # Fixpoint | TargetEntailed | RoundLimit | Inconsistent | Cancelled
    rounds: int
    coalescing_time: float = 0.0


def apply_rules(
    program: Program,
    store: FactStore,
    changed: Optional[set[str]] = None,
    gained: Optional[set[str]] = None,
) -> FactStore:
    """One round of the immediate consequence operator.

    Rules are evaluated against the input store; derived facts are inserted
    (and coalesced) into a snapshot of it, so in-round derivations never feed
    each other.

    `changed` names the predicates whose coverage grew in the round that
    produced `store`.  A rule whose body mentions none of them is skipped:
    its body interval lists are those it was last evaluated on, so what it
    derives is already stored.  None evaluates every rule, as a first round
    must.  The predicates whose coverage grows in this round are added to
    `gained` when it is given; an empty `gained` and no BOTTOM mean that the
    round changed nothing.
    """
    out = store.snapshot()
    by_key: dict = {}
    for rule in program.rules:
        if changed is not None and changed.isdisjoint(rule.body_predicates()):
            continue
        for derived in evaluate_rule(rule, store):
            if isinstance(derived, tuple):
                out.mark_bottom(derived[1])
            else:
                by_key.setdefault(derived.atom.key(), []).append(derived.interval)
    for key, ivs in by_key.items():
        if out.insert_intervals(key, ivs) and gained is not None:
            gained.add(key[0])
    return out


def materialise(
    program: Program,
    store: FactStore,
    max_rounds: Optional[int] = None,
    target: Optional[Fact] = None,
    cancelled: Optional[Callable[[], bool]] = None,
) -> MaterialisationOutcome:
    """Iterate apply_rules until a target is entailed, a fixpoint or the
    round limit is reached, or inconsistency is derived.

    Each round after the first evaluates only the rules whose body reads a
    predicate the round before it grew.  The fixpoint is the first round that
    grows nothing; it counts in `rounds`.
    """
    coalescing_time = 0.0
    if store.contains_bottom:
        return MaterialisationOutcome(store, "Inconsistent", 0, coalescing_time)
    if target is not None and store.entails_fact(target):
        return MaterialisationOutcome(store, "TargetEntailed", 0, coalescing_time)
    rounds = 0
    changed = None
    while max_rounds is None or rounds < max_rounds:
        if cancelled is not None and cancelled():
            return MaterialisationOutcome(store, "Cancelled", rounds, coalescing_time)
        t0 = time.perf_counter()
        gained: set[str] = set()
        new = apply_rules(program, store, changed, gained)
        coalescing_time += time.perf_counter() - t0
        rounds += 1
        if new.contains_bottom:
            return MaterialisationOutcome(new, "Inconsistent", rounds, coalescing_time)
        if target is not None and new.entails_fact(target):
            return MaterialisationOutcome(new, "TargetEntailed", rounds, coalescing_time)
        if not gained:
            return MaterialisationOutcome(new, "Fixpoint", rounds, coalescing_time)
        store, changed = new, gained
    return MaterialisationOutcome(store, "RoundLimit", rounds, coalescing_time)
