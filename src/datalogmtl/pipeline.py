"""End-to-end fact entailment.

Fast path over the stored dataset, relevant-rule extraction, a plain
materialisation loop for non-recursive subprograms, and for recursive ones a
pre-materialisation followed by either a two-worker race (continued
materialisation vs. the automata decision) or, in sequential test mode, a
bounded materialisation run with an automata fallback.  Both modes bound
materialisation by the same round budget.

Fact types mirror the answering code path: T1 dataset fast path, T2
non-recursive loop, T3 fixpoint during recursive materialisation, T4 target
hit during recursive materialisation, T5 automata.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from .analysis import dependency_info, is_recursive, relevant_rules
from .automata import consistent, entail_to_inconsist
from .materialisation import apply_rules, materialise
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
    cancelled=None,
) -> tuple[FactStore, str, int]:
    """Advance materialisation until a round grows no non-recursive
    predicate; target, fixpoint and inconsistency exits still apply.  Rounds
    are delta-driven, as in `materialise`.

    Returns (store, status, rounds) with status one of PreDone, Fixpoint,
    TargetEntailed, Inconsistent, Cancelled.
    """
    recursive = dependency_info(program).recursive
    rounds = 0
    changed = None
    while True:
        if cancelled is not None and cancelled():
            return store, "Cancelled", rounds
        gained: set[str] = set()
        new = apply_rules(program, store, changed, gained)
        rounds += 1
        if new.contains_bottom:
            return new, "Inconsistent", rounds
        if target is not None and new.entails_fact(target):
            return new, "TargetEntailed", rounds
        if not gained:
            return new, "Fixpoint", rounds
        if gained <= recursive:
            return new, "PreDone", rounds
        store, changed = new, gained


def _materialisation_result(
    status: str, rounds: int, timings: dict, recursive: bool = True
) -> EntailmentResult | None:
    """The answer a materialisation status gives, or None for statuses that
    give none (PreDone, RoundLimit, Cancelled)."""
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
    max_states: int = 200_000,
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

    if not recursive:
        t0 = time.perf_counter()
        out = materialise(sub, store.snapshot(), target=query)
        timings["materialisation"] = time.perf_counter() - t0
        return _materialisation_result(out.status, out.rounds, timings, recursive=False)

    t0 = time.perf_counter()
    dpre, status, pre_rounds = pre_materialise(sub, store.snapshot(), target=query)
    timings["pre_materialisation"] = time.perf_counter() - t0
    result = _materialisation_result(status, pre_rounds, timings)
    if result is not None:
        return result

    finish = _sequential_finish if sequential else _race_finish
    return finish(sub, dpre, query, pre_rounds, timings, round_budget, max_states)


def _sequential_finish(sub, dpre, query, pre_rounds, timings, round_budget, max_states):
    t0 = time.perf_counter()
    out = materialise(sub, dpre.snapshot(), max_rounds=round_budget, target=query)
    timings["materialisation"] = time.perf_counter() - t0
    rounds = pre_rounds + out.rounds
    result = _materialisation_result(out.status, rounds, timings)
    if result is not None:
        return result
    t0 = time.perf_counter()
    red = entail_to_inconsist(sub, list(dpre.facts()), query)
    answer = not consistent(red.program, list(red.dataset), max_states=max_states)
    timings["automata"] = time.perf_counter() - t0
    return EntailmentResult(answer, "T5", rounds, "automata", timings)


def _race_finish(sub, dpre, query, pre_rounds, timings, round_budget, max_states):
    """Race continued materialisation, under the round budget, against the
    automata decision; the first answer wins and cancels the other worker.

    A worker that raises or runs out of rounds reports that instead of an
    answer.  When neither worker answers, the automata's error is raised.
    """
    stop = threading.Event()
    results: queue.Queue = queue.Queue()

    def run_materialisation():
        try:
            out = materialise(
                sub,
                dpre.snapshot(),
                max_rounds=round_budget,
                target=query,
                cancelled=stop.is_set,
            )
            result = _materialisation_result(out.status, pre_rounds + out.rounds, timings)
            results.put(("materialisation", result))
        except Exception as e:
            results.put(("materialisation", e))

    def run_automata():
        try:
            red = entail_to_inconsist(sub, list(dpre.facts()), query)
            answer = not consistent(
                red.program,
                list(red.dataset),
                cancelled=stop.is_set,
                max_states=max_states,
            )
            result = EntailmentResult(answer, "T5", pre_rounds, "automata", timings)
            results.put(("automata", result))
        except Exception as e:
            results.put(("automata", e))

    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=run_materialisation, daemon=True),
        threading.Thread(target=run_automata, daemon=True),
    ]
    for t in threads:
        t.start()
    winner = automata_error = None
    for _ in threads:
        engine, outcome = results.get()
        if isinstance(outcome, EntailmentResult):
            winner = outcome
            break
        if engine == "automata":
            automata_error = outcome
    stop.set()
    for t in threads:
        t.join()
    timings["race"] = time.perf_counter() - t0
    if winner is None:
        raise automata_error
    return winner
