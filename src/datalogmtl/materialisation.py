"""Forward chaining: one-step rule application and the materialisation loop."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Optional

from .analysis import propagation
from .evaluation import evaluate_rule
from .intervals import POS_INF, Interval, coalesce, intersect, negate, reflect, subset
from .store import FactStore
from .syntax import Fact, Program


@dataclass
class MaterialisationOutcome:
    store: FactStore
    status: str  # Fixpoint | TargetEntailed | RoundLimit | OutOfReach | Inconsistent
    rounds: int


def apply_rules(
    program: Program,
    store: FactStore,
    changed: Optional[set[str]] = None,
    grown: Optional[set] = None,
    horizon: Optional[Interval] = None,
) -> FactStore:
    """One round of the immediate consequence operator.

    Rules are evaluated against the input store; derived facts are inserted
    (and coalesced) into a snapshot of it, so in-round derivations never feed
    each other.

    `changed` names the predicates whose coverage grew in the round that
    produced `store`.  A rule whose body mentions none of them is skipped:
    its body interval lists are those it was last evaluated on, so what it
    derives is already stored.  None evaluates every rule, as a first round
    must.  The atom keys whose coverage grows in this round are added to
    `grown` when it is given; an empty `grown` and no BOTTOM mean that the
    round changed nothing.  With a `horizon`, each derived interval is
    intersected with it before insertion; BOTTOM intervals are kept whole.
    """
    out = store.snapshot()
    by_key: dict = {}
    bottoms: list[Interval] = []
    for rule in program.rules:
        if changed is not None and changed.isdisjoint(rule.body_predicates()):
            continue
        for derived in evaluate_rule(rule, store):
            if isinstance(derived, tuple):
                bottoms.append(derived[1])
            else:
                by_key.setdefault(derived.atom.key(), []).append(derived.interval)
    if bottoms:
        out.mark_bottom(*bottoms)
    for key, ivs in by_key.items():
        if horizon is not None:
            ivs = [intersect(iv, horizon) for iv in ivs]
        if out.insert_intervals(key, ivs) and grown is not None:
            grown.add(key)
    return out


def round_status(store: FactStore, target: Optional[Fact], grown: Optional[set]) -> Optional[str]:
    """How materialisation ends at `store`, or None when it goes on:
    Inconsistent once BOTTOM is derived, TargetEntailed once the target is,
    Fixpoint once a round grows nothing.  `grown` holds the keys the round
    that produced `store` grew, or is None before the first round."""
    if store.contains_bottom:
        return "Inconsistent"
    if target is not None and store.entails_fact(target):
        return "TargetEntailed"
    if grown is not None and not grown:
        return "Fixpoint"
    return None


def _new_point_bound(old: list[Interval], new: list[Interval], direction: int):
    """For coalesced lists with `old` covered by `new`: the infimum
    (direction 1) or supremum (-1) of the points that `new` covers and
    `old` does not.

    The first changed interval of `new` starts there when it does not
    keep the start of the first old interval inside it; when it does, the
    new points start at that old interval's other end.  Direction -1 is
    direction 1 on the lists mirrored in time.
    """
    if direction == -1:
        return negate(_new_point_bound(reflect(old), reflect(new), 1))
    # the lists agree interval by interval up to the first changed one
    for o, n in zip_longest(old, new):
        if o != n:
            kept = o is not None and subset(o, n) and (o.left, o.left_open) == (n.left, n.left_open)
            return o.right if kept else n.left
    return POS_INF  # no new point


def _out_of_reach(old: FactStore, new: FactStore, grown: set, target: Fact, direction: int) -> bool:
    """Do all points that `new` adds to `old` on the keys in `grown` lie
    after the first target point that `new` does not cover (direction 1),
    or before the last one (-1)?  Those are the ends of the points that
    covering the target would add to `new`."""
    covered = new.intervals_for(target.atom.key())
    edge = _new_point_bound(covered, coalesce([*covered, target.interval]), direction)
    bounds = (_new_point_bound(old.intervals_for(k), new.intervals_for(k), direction) for k in grown)
    return all(b > edge if direction == 1 else b < edge for b in bounds)


def materialise(
    program: Program,
    store: FactStore,
    max_rounds: Optional[int] = None,
    target: Optional[Fact] = None,
    horizon: Optional[Interval] = None,
    poll: Optional[Callable[[], None]] = None,
) -> MaterialisationOutcome:
    """Iterate apply_rules until a target is entailed, a fixpoint or the
    round limit is reached, or inconsistency is derived.

    The given store is never written: each round inserts into a snapshot
    (see apply_rules), so callers need not copy it.

    Each round first calls `poll`, when given; what it raises ends the loop.
    A round after the first evaluates only the rules whose body reads a
    predicate the round before it grew, and a `horizon` clips what each
    round derives (see apply_rules).  The fixpoint is the first round that
    grows nothing; it counts in `rounds`.

    With a target, the stop comes from the program's
    `analysis.propagation`.  When it is 1, a round whose new points all lie
    after the first target point that the round's store does not cover
    ends with OutOfReach: in a forward-propagating program a point derived
    in one round needs a point new in the round before at the same time or
    earlier, so no later round covers that point either.  -1 is the
    mirror, before the last uncovered target point; a program that
    propagates both ways (0) never stops early.
    """
    status = round_status(store, target, None)
    if status is not None:
        return MaterialisationOutcome(store, status, 0)
    direction = propagation(program) if target is not None else 0
    rounds = 0
    changed = None
    while max_rounds is None or rounds < max_rounds:
        if poll is not None:
            poll()
        grown: set = set()
        new = apply_rules(program, store, changed, grown, horizon)
        rounds += 1
        status = round_status(new, target, grown)
        if status is None and direction and _out_of_reach(store, new, grown, target, direction):
            status = "OutOfReach"
        if status is not None:
            return MaterialisationOutcome(new, status, rounds)
        store, changed = new, {k[0] for k in grown}
    return MaterialisationOutcome(store, "RoundLimit", rounds)
