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


def apply_rules(program: Program, store: FactStore) -> FactStore:
    """One round of the immediate consequence operator.

    Every rule is evaluated against the input snapshot; derived facts are
    inserted (and coalesced) into a copy, so in-round derivations never feed
    each other.
    """
    out = store.snapshot()
    by_key: dict = {}
    for rule in program.rules:
        for derived in evaluate_rule(rule, store):
            if isinstance(derived, tuple):
                out.mark_bottom(derived[1])
            else:
                by_key.setdefault(derived.atom.key(), []).append(derived.interval)
    for key, ivs in by_key.items():
        out.insert_intervals(key, ivs)
    return out


def materialise(
    program: Program,
    store: FactStore,
    max_rounds: Optional[int] = None,
    target: Optional[Fact] = None,
    cancelled: Optional[Callable[[], bool]] = None,
) -> MaterialisationOutcome:
    """Iterate apply_rules until a target is entailed, a fixpoint or the
    round limit is reached, or inconsistency is derived."""
    coalescing_time = 0.0
    if store.contains_bottom:
        return MaterialisationOutcome(store, "Inconsistent", 0, coalescing_time)
    if target is not None and store.entails_fact(target):
        return MaterialisationOutcome(store, "TargetEntailed", 0, coalescing_time)
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        if cancelled is not None and cancelled():
            return MaterialisationOutcome(store, "Cancelled", rounds, coalescing_time)
        t0 = time.perf_counter()
        new = apply_rules(program, store)
        coalescing_time += time.perf_counter() - t0
        rounds += 1
        if new.contains_bottom:
            return MaterialisationOutcome(new, "Inconsistent", rounds, coalescing_time)
        if target is not None and new.entails_fact(target):
            return MaterialisationOutcome(new, "TargetEntailed", rounds, coalescing_time)
        if new.equals(store):
            return MaterialisationOutcome(new, "Fixpoint", rounds, coalescing_time)
        store = new
    return MaterialisationOutcome(store, "RoundLimit", rounds, coalescing_time)
