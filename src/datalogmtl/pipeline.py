"""End-to-end fact entailment.

Fast path over the stored dataset, relevant-rule extraction, then a
pre-materialisation of the relevant subprogram.  A non-recursive subprogram
never stops there early, so its pre-materialisation is its whole
materialisation.  A recursive one goes on to a bounded materialisation run
with an automata fallback or, for programs that propagate both ways, a race.
Materialisation of a program that propagates one way (`propagation`) stops
with OutOfReach once its rounds add points only past the first query point
not yet derived, so that finish needs no race, in both modes.  The race runs
in the calling process: the automata decide, and their cancellation poll
hands materialisation its rounds (`_race_finish`).  Both modes bound
materialisation by the same round budget.

Fact types mirror the answering code path: T1 dataset fast path, T2
materialisation of a non-recursive subprogram, T3 fixpoint during recursive
materialisation, T4 target hit during recursive materialisation, T5
automata.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .analysis import dependency_info, is_recursive, propagation, relevant_rules
from .automata import consistent, entail_to_inconsist
from .materialisation import apply_rules, materialise, round_status
from .store import FactStore
from .syntax import Fact, Program


@dataclass
class EntailmentResult:
    answer: bool
    fact_type: str  # T1 | T2 | T3 | T4 | T5
    rounds: int
    winner: str  # fastpath | materialisation | automata
    timings: dict = field(default_factory=dict)
    inconsistent: bool = False  # BOTTOM derived from the instance itself


def pre_materialise(
    program: Program,
    store: FactStore,
    target: Fact | None = None,
) -> tuple[FactStore, str, int]:
    """Advance materialisation until a round grows no non-recursive
    predicate; target, fixpoint and inconsistency exits still apply.  Rounds
    are delta-driven, as in `materialise`.  Like it, this never writes the
    given store: each round inserts into a snapshot.  A program with no
    recursive predicate never stops with PreDone, since every round before
    its fixpoint grows some predicate, so this materialises it in full.

    Returns (store, status, rounds) with status one of PreDone, Fixpoint,
    TargetEntailed, Inconsistent.
    """
    recursive = dependency_info(program).recursive
    for rounds, (store, status, changed) in enumerate(_steps(program, store, target), 1):
        if status is not None:
            return store, status, rounds
        if changed <= recursive:
            return store, "PreDone", rounds


def _steps(program: Program, store: FactStore, target: Fact | None):
    """Delta-driven materialisation rounds from `store`, one per `next`, as
    in `materialise`.  Each yields (store, status, changed): `changed` names
    the predicates the round grew, and status is the round's
    `round_status`, which is None on every round but the last."""
    changed, status = None, None
    while status is None:
        grown: set = set()
        store = apply_rules(program, store, changed, grown)
        changed = {k[0] for k in grown}
        status = round_status(store, target, grown)
        yield store, status, changed


def _materialisation_result(
    status: str | None, rounds: int, timings: dict, recursive: bool = True
) -> EntailmentResult | None:
    """The answer a materialisation status gives, or None for statuses that
    give none (PreDone, RoundLimit, OutOfReach, a round's None)."""
    if status not in ("Inconsistent", "TargetEntailed", "Fixpoint"):
        return None
    if not recursive:
        fact_type = "T2"
    else:
        fact_type = "T3" if status == "Fixpoint" else "T4"
    return EntailmentResult(
        status != "Fixpoint",
        fact_type,
        rounds,
        "materialisation",
        timings,
        status == "Inconsistent",
    )


def check_entailment(
    program: Program,
    store: FactStore,
    query: Fact,
    *,
    sequential: bool = False,
    round_budget: int = 1000,
) -> EntailmentResult:
    timings: dict = {}
    t0 = time.perf_counter()
    if store.entails_fact(query):
        timings["fastpath"] = time.perf_counter() - t0
        return EntailmentResult(True, "T1", 0, "fastpath", timings)
    timings["fastpath"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sub = relevant_rules(program, query.atom.predicate)
    recursive = is_recursive(sub)
    timings["analysis"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dpre, status, pre_rounds = pre_materialise(sub, store, target=query)
    timings["pre_materialisation" if recursive else "materialisation"] = time.perf_counter() - t0
    result = _materialisation_result(status, pre_rounds, timings, recursive)
    if result is not None:
        return result

    finish = _sequential_finish if sequential else _race_finish
    return finish(sub, dpre, query, pre_rounds, timings, round_budget)


def _sequential_finish(sub, dpre, query, pre_rounds, timings, round_budget):
    """Materialise under the round budget, stopping once the query is out of
    reach, then let the automata decide."""
    t0 = time.perf_counter()
    out = materialise(sub, dpre, max_rounds=round_budget, target=query)
    timings["materialisation"] = time.perf_counter() - t0
    rounds = pre_rounds + out.rounds
    result = _materialisation_result(out.status, rounds, timings)
    if result is not None:
        return result
    t0 = time.perf_counter()
    red = entail_to_inconsist(sub, list(dpre.facts()), query)
    answer = not consistent(red.program, list(red.dataset))
    timings["automata"] = time.perf_counter() - t0
    return EntailmentResult(answer, "T5", rounds, "automata", timings)


def _race_finish(sub, dpre, query, pre_rounds, timings, round_budget):
    """Race continued materialisation, under the round budget, against the
    automata decision; the first answer wins.

    A program that propagates one way does not race: its materialisation
    stops once the query is out of reach, so it finishes sequentially here.

    Otherwise both engines run here, and the automata hand materialisation
    its rounds: the `cancelled` callback they poll before every candidate
    letter runs one round whenever, since the last round ended, they have
    run at least as long as that round took, so each engine gets about half
    the time.  A materialisation answer cancels the automata, and an error
    in a round ends materialisation's rounds only.  If the automata raise,
    materialisation runs the rest of its budget alone; when that gives no
    answer either, the automata's error is raised.
    """
    t0 = time.perf_counter()
    if propagation(sub):
        result = _sequential_finish(sub, dpre, query, pre_rounds, timings, round_budget)
        timings["race"] = time.perf_counter() - t0
        return result
    steps = _steps(sub, dpre, query)
    rounds, last, due, result = pre_rounds, pre_rounds + round_budget, t0, None

    def turn():
        nonlocal rounds, last, due, result
        start = time.perf_counter()
        try:
            status = next(steps)[1]
        except Exception:  # ends materialisation's rounds, not the race
            last = rounds
        else:
            rounds += 1
            result = _materialisation_result(status, rounds, timings)
        end = time.perf_counter()
        due = 2 * end - start  # the automata's turn lasts as long as this one

    def materialisation_answered():
        if result is None and rounds < last and time.perf_counter() >= due:
            turn()
        return result is not None

    try:
        red = entail_to_inconsist(sub, list(dpre.facts()), query)
        answer = not consistent(red.program, list(red.dataset), cancelled=materialisation_answered)
        result = EntailmentResult(answer, "T5", rounds, "automata", timings)
    except Exception:
        # cancelled by materialisation's answer, or failed
        while result is None and rounds < last:
            turn()
        if result is None:
            raise
    timings["race"] = time.perf_counter() - t0
    return result
