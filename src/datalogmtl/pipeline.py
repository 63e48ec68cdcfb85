"""End-to-end fact entailment.

Fast path over the stored dataset, relevant-rule extraction, then a
pre-materialisation of the relevant subprogram.  A non-recursive subprogram
never stops there early, so its pre-materialisation is its whole
materialisation.  A recursive one goes on to a bounded materialisation run
with an automata fallback or, for programs that propagate both ways, a race.
Materialisation of a program that propagates one way (`propagation`) stops
with OutOfReach once its rounds add points only past the first query point
not yet derived, so that finish needs no race and runs in the calling
process, in both modes.  The
race runs continued materialisation in a forked child process and the
automata decision in the calling thread, so the two engines do not share an
interpreter lock; it needs the POSIX `fork` start method.  Both modes bound
materialisation by the same round budget.

Fact types mirror the answering code path: T1 dataset fast path, T2
materialisation of a non-recursive subprogram, T3 fixpoint during recursive
materialisation, T4 target hit during recursive materialisation, T5
automata.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import time
from dataclasses import dataclass, field

from .analysis import dependency_info, is_recursive, propagation, relevant_rules
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
    rounds = 0
    changed = None
    while True:
        grown: set = set()
        new = apply_rules(program, store, changed, grown)
        rounds += 1
        if new.contains_bottom:
            return new, "Inconsistent", rounds
        if target is not None and new.entails_fact(target):
            return new, "TargetEntailed", rounds
        if not grown:
            return new, "Fixpoint", rounds
        store, changed = new, {k[0] for k in grown}
        if changed <= recursive:
            return new, "PreDone", rounds


def _materialisation_result(
    status: str, rounds: int, timings: dict, recursive: bool = True
) -> EntailmentResult | None:
    """The answer a materialisation status gives, or None for statuses that
    give none (PreDone, RoundLimit, OutOfReach)."""
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
    stops once the query is out of reach, so it finishes sequentially here,
    with no fork.

    Materialisation runs in a forked child, which sends back one message: its
    answer, None when it runs out of rounds, or its exception.  The automata
    run here and stop at the next state once the child has sent an answer.
    When neither engine answers, the automata's error is raised.  The child is
    killed and reaped on every way out: SIGALRM and SIGINT, which the child
    keeps blocked, are blocked here only until the `try` that reaps it.
    """
    t0 = time.perf_counter()
    if propagation(sub):
        result = _sequential_finish(sub, dpre, query, pre_rounds, timings, round_budget)
        timings["race"] = time.perf_counter() - t0
        return result
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    message = []  # the child's one message, once received

    def receive():
        try:
            message.append(receiver.recv())
        except EOFError:  # the child died without sending
            message.append(None)

    def materialisation_answered():
        if not message and receiver.poll():
            receive()
        return bool(message) and isinstance(message[0], EntailmentResult)

    # the fork start method flushes stdout and stderr before it forks, so the
    # child's exit does not write the parent's buffered output a second time
    child = ctx.Process(
        target=_materialisation_worker,
        args=(sender, sub, dpre, query, pre_rounds, round_budget),
        daemon=True,
    )
    held = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGALRM, signal.SIGINT))
    try:
        try:
            child.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        sender.close()
        try:
            red = entail_to_inconsist(sub, list(dpre.facts()), query)
            answer = not consistent(
                red.program, list(red.dataset), cancelled=materialisation_answered
            )
            result = EntailmentResult(answer, "T5", pre_rounds, "automata", timings)
        except Exception:
            # cancelled by the child's answer, or failed: wait for the child
            if not message:
                receive()
            result = message[0]
            if not isinstance(result, EntailmentResult):
                raise
            result.timings = timings
    finally:
        if child.pid is not None:  # None when the fork itself failed
            child.kill()
            child.join()
        receiver.close()
    timings["race"] = time.perf_counter() - t0
    return result


def _materialisation_worker(sender, sub, dpre, query, pre_rounds, round_budget):
    """The race's child: materialise the fork's copy of `dpre` and send the
    outcome, as an exception that pickles if it is one."""
    try:
        out = materialise(sub, dpre, max_rounds=round_budget, target=query)
        message = _materialisation_result(out.status, pre_rounds + out.rounds, {})
    except Exception as e:
        message = e
        try:
            pickle.loads(pickle.dumps(e))
        except Exception:
            message = RuntimeError(repr(e))
    sender.send(message)
