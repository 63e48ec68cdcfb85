"""Runs one benchmark workload and streams its events as JSON lines.

Started by run.py in a child process of its own, so that a stalled operation
can be killed without losing the events before it.  Each set-up and each
operation is timed on its own: set-up is text to loaded store through the
calls the CLI makes, an operation is one `materialise` or `check_entailment`.
A run answers all of its instances' operations in passes while the next pass
is expected to end within --seconds.  Every pass times the reference loop of
speed.py and sets each instance up afresh before answering it; run.py turns
the set-ups and the plain runs that succeeded into medians.  With --trace 1
there is one pass, in which every set-up and operation runs twice on the same
input, first plain and then with spans; the per-layer metrics come from the
spans.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from datalogmtl import materialisation, pipeline, store, syntax  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from spans import OP_LIMIT_S  # noqa: E402

BULK_MAX_ROUNDS = 50
# a periodic program sets up in well under a millisecond
SETUP_REPEATS_T5 = 10


@dataclass(frozen=True)
class Workload:
    # the instances of one run, from its seed
    block: Callable[[int], list[wl.Instance]]
    # set-ups of each instance per pass; the run's median counts
    setup_repeats: int
    materialise: bool = False
    # threads of the reference loop that gauges the machine's speed: two for
    # the race, whose two workers hand the GIL to each other
    reference_threads: int = 1
    # answered once, after the passes, and checked like the rest, but kept
    # out of the end-to-end metrics: one sample of a 15 s race would swamp them
    once: tuple[wl.Instance, ...] = ()


WORKLOADS = {
    "bulk-materialise": Workload(
        lambda seed: [wl.bulk_instance(seed, i) for i in range(wl.BULK_INSTANCES)], 1, materialise=True
    ),
    "t5-race": Workload(
        lambda seed: [wl.periodic_instance(seed, i) for i in range(len(wl.PERIODIC_CLASSES))],
        SETUP_REPEATS_T5,
        reference_threads=2,
        once=(wl.professor_instance(),),
    ),
}


def emit(**event):
    print(json.dumps(event), flush=True)


def setup(instance: wl.Instance, tracer=None):
    """Text to loaded store through the calls the CLI makes."""
    t0 = time.perf_counter()
    with tracer.span(spans.SETUP_SPAN) if tracer else nullcontext():
        program = syntax.parse_program(instance.program)
        facts = syntax.parse_dataset(instance.data)
        syntax.check_arities(program, facts)
        loaded = store.FactStore.from_facts(facts)
        queries = [syntax.parse_fact(q.text) for q in instance.queries]
    return program, loaded, queries, time.perf_counter() - t0


def materialise_op(program, loaded):
    t0 = time.perf_counter()
    out = materialisation.materialise(program, loaded, max_rounds=BULK_MAX_ROUNDS)
    wall = time.perf_counter() - t0
    error = None if out.status == "Fixpoint" else f"materialisation ended with {out.status}"
    return out, wall, {"ok": error is None, "wrong": False, "error": error, "rounds": out.rounds}


def query_op(program, loaded, query, expected: bool):
    """One entailment query in the default race mode."""
    t0 = time.perf_counter()
    try:
        r = pipeline.check_entailment(program, loaded, query)
    except Exception as e:  # a budget exit or a reasoner fault: the operation failed
        return None, time.perf_counter() - t0, {"ok": False, "wrong": False, "error": f"{type(e).__name__}: {e}"}
    wall = time.perf_counter() - t0
    wrong = r.answer != expected
    info = {
        "ok": not wrong,
        "wrong": wrong,
        "error": f"answered {r.answer}, expected {expected}" if wrong else None,
        "fact_type": r.fact_type,
        "winner": r.winner,
        "rounds": r.rounds,
    }
    return r, wall, info


def check_bulk(out, seed: int, index: int) -> str | None:
    """check_invariants on the materialised store, then grid-oracle slices."""
    try:
        out.store.check_invariants()
    except AssertionError as e:
        return f"store invariant broken: {e}"
    facts = wl.bulk_facts(seed, index)
    for constant, start in wl.bulk_slices(seed, index):
        problem = wl.check_bulk_slice(out.store, facts, constant, start)
        if problem:
            return problem
    return None


def run(name: str, seed: int, seconds: float, trace: bool, trace_path: str | None):
    """Set up and answer the run's instances in passes: one with tracing,
    else more while the next pass is expected to end within `seconds`.  Then
    set up and answer the `once` instances."""
    work = WORKLOADS[name]
    deadline = time.perf_counter() + seconds
    tracer = spans.Tracer() if trace else None
    plain_total = traced_total = 0.0

    def timed_op(op, fn, plain, traced, *rest, timed):
        """One operation, plain and, when tracing, again with spans."""
        nonlocal plain_total, traced_total
        result, wall, info = fn(*plain, *rest)
        info["ok"] = info["ok"] and wall <= OP_LIMIT_S
        emit(ev="op", op=op, wall=wall, traced=False, timed=timed, **info)
        if tracer is not None:
            with spans.instrument(tracer):
                _, twall, tinfo = fn(*traced, *rest)
            tinfo["ok"] = tinfo["ok"] and twall <= OP_LIMIT_S
            emit(ev="op", op=op, wall=twall, traced=True, timed=timed, **tinfo)
            plain_total += wall
            traced_total += twall
        return result

    def load(index, instance, timed):
        for _ in range(work.setup_repeats if timed else 1):
            program, store_, queries, wall = setup(instance)
            emit(ev="setup", instance=index, wall=wall, timed=timed)
        plain = traced = (program, store_)
        if tracer is not None:
            with spans.instrument(tracer):
                tprogram, tstore, _, _ = setup(instance, tracer)
            traced = (tprogram, tstore)
        return plain, traced, queries

    def answer(instances, first_pass: bool, timed: bool, op: int = 0) -> int:
        for index, instance in enumerate(instances):
            if timed:
                # a thread the reasoner left running would slow the loop
                # and make the scaled times read low; run.py reports it
                left_running = threading.active_count() - 1
                wall = speed.reference(work.reference_threads)
                emit(ev="reference", threads=work.reference_threads, wall=wall, left_running=left_running)
            plain, traced, queries = load(index, instance, timed)
            if work.materialise:
                out = timed_op(op, materialise_op, plain, traced, timed=timed)
                op += 1
                if first_pass:
                    problem = check_bulk(out, seed, index)
                    emit(ev="check", ok=problem is None, detail=problem)
                continue
            for query, q in zip(queries, instance.queries):
                timed_op(op, query_op, plain, traced, query, q.expected, timed=timed)
                op += 1
        return op

    block = work.block(seed)
    first = True
    while True:
        t0 = time.perf_counter()
        op = answer(block, first, timed=True)
        first = False
        now = time.perf_counter()
        if tracer is not None or now + (now - t0) > deadline:
            break
    op = answer(work.once, True, timed=False, op=op)

    if tracer is not None:
        overhead = traced_total / plain_total - 1 if plain_total > 0 else 0.0
        metrics = spans.layer_metrics(tracer, op, len(block) + len(work.once), overhead)
        if trace_path:
            tracer.write(trace_path)
        emit(ev="layers", metrics=metrics, spans=len(tracer.spans), dropped=tracer.dropped)
    emit(ev="done")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None, help="write the recorded spans here as JSON lines")
    args = ap.parse_args(argv)
    run(args.workload, args.seed, args.seconds, bool(args.trace), args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
