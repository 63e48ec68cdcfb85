"""Spans around the reasoner's layers, recorded from outside the reasoner.

`instrument` rebinds functions at every module attribute they are called
through (for example both `datalogmtl.materialisation.evaluate_rule` and
`datalogmtl.automata.apply_operator`) to wrappers that open and close spans on
a `Tracer`, and undoes the rebinding on exit.  Nothing under `src/` changes.

A span's self time is its duration minus the time its child spans cover.
Children are the spans opened on the same thread while it is open, so the two
race workers each get their own tree.  Bookkeeping done by the wrappers
themselves (counting useful derivations) is cut out of every open span.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager

# apply_operator recurses through the evaluation module's attribute, so a
# nested call keeps the name of the call site its outermost call came from
OPERATOR_SPANS = ("evaluation.operator", "automata.operator")
SETUP_SPAN = "setup"
# finished spans kept as records for `Tracer.write`; totals cover every span
KEEP_SPANS = 100_000
# an operation that takes longer than this counts as failed; run.py kills a
# workload process that stays silent for longer
OP_LIMIT_S = 60.0


class Tracer:
    """In-memory span recorder with per-name totals.

    The first KEEP_SPANS finished spans are kept as records for `write`;
    totals cover every span.  Each record is (id, name, parent id, thread, start,
    wall, thread cpu, self wall), times in seconds.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        # name -> [calls, wall, self wall, thread cpu]
        self.totals: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def begin(self, name: str):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        # id, name, parent, start, cpu start, child wall, excluded wall, excluded cpu
        stack.append([next(self._ids), name, parent, time.perf_counter(), time.thread_time(), 0.0, 0.0, 0.0])

    def end(self) -> tuple[float, float]:
        """Close the innermost open span; returns its (wall, cpu)."""
        now, cpu_now = time.perf_counter(), time.thread_time()
        stack = self._stack()
        sid, name, parent, start, cpu0, child, excl, excl_cpu = stack.pop()
        wall = now - start - excl
        cpu = cpu_now - cpu0 - excl_cpu
        if stack:
            stack[-1][5] += wall
        with self._lock:
            tot = self.totals.get(name)
            if tot is None:
                tot = self.totals[name] = [0, 0.0, 0.0, 0.0]
            tot[0] += 1
            tot[1] += wall
            tot[2] += wall - child
            tot[3] += cpu
            if len(self.spans) < KEEP_SPANS:
                self.spans.append(
                    (sid, name, parent, threading.get_ident(), start - self._origin, wall, cpu, wall - child)
                )
            else:
                self.dropped += 1
        return wall, cpu

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def exclude(self, wall: float, cpu: float):
        """Remove bookkeeping time from every span open on this thread."""
        for frame in self._stack():
            frame[6] += wall
            frame[7] += cpu

    def count(self, name: str, n: float = 1):
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn, name: str, *, inherit=(), only_under=None, engine=None):
        """A traced stand-in for `fn`.

        inherit: if the innermost open span has one of these names, the new
        span takes that name.  only_under: trace only when the innermost open
        span has this name, else call `fn` untraced.  engine: add the span's
        thread cpu to the count "cpu.<engine>"."""

        def traced(*args, **kwargs):
            top = self.top()
            if only_under is not None and top != only_under:
                return fn(*args, **kwargs)
            self.begin(top if top in inherit else name)
            try:
                return fn(*args, **kwargs)
            finally:
                _, cpu = self.end()
                if engine is not None:
                    self.count("cpu." + engine, cpu)

        return traced

    def write(self, path: str):
        threads: dict[int, int] = {}
        with open(path, "w") as f:
            for sid, name, parent, thread, start, wall, cpu, self_wall in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "parent": parent,
                            "thread": threads.setdefault(thread, len(threads)),
                            "start_s": start,
                            "wall_s": wall,
                            "cpu_s": cpu,
                            "self_s": self_wall,
                        }
                    )
                    + "\n"
                )


@contextmanager
def instrument(tracer: Tracer):
    """Rebind the reasoner's layer entry points to traced wrappers."""
    from datalogmtl import automata, evaluation, materialisation, pipeline, store, syntax

    FactStore = store.FactStore
    saved = []

    def rebind(owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def plain(owner, attr):
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        return fn.__func__ if isinstance(fn, classmethod) else fn

    # set-up: only calls made by the benchmark's own set-up are layer work;
    # the automata also build stores with from_facts, which stays theirs
    for attr in ("parse_program", "parse_fact", "check_arities"):
        rebind(syntax, attr, tracer.wrap(plain(syntax, attr), "syntax.parse", only_under=SETUP_SPAN))
    parse_dataset = tracer.wrap(plain(syntax, "parse_dataset"), "syntax.parse", only_under=SETUP_SPAN)

    def traced_parse_dataset(text):
        facts = parse_dataset(text)
        if tracer.top() == SETUP_SPAN:
            tracer.count("syntax.facts_parsed", len(facts))
        return facts

    rebind(syntax, "parse_dataset", traced_parse_dataset)

    from_facts = tracer.wrap(plain(FactStore, "from_facts"), "store.load", only_under=SETUP_SPAN)

    def traced_from_facts(cls, facts):
        facts = list(facts)
        loaded = from_facts(cls, facts)
        if tracer.top() == SETUP_SPAN:
            tracer.count("store.facts_loaded", len(facts))
            tracer.count("store.intervals_stored", loaded.fact_count())
        return loaded

    rebind(FactStore, "from_facts", classmethod(traced_from_facts))

    # round work
    entails = plain(FactStore, "entails_fact")
    for attr, name in (
        ("snapshot", "store.snapshot"),
        ("insert_intervals", "store.insert"),
        ("equals", "materialisation.fixpoint_test"),
        ("entails_fact", "store.entails"),
    ):
        rebind(FactStore, attr, tracer.wrap(plain(FactStore, attr), name))
    for owner in (materialisation, pipeline):
        rebind(owner, "apply_rules", tracer.wrap(plain(owner, "apply_rules"), "materialisation.round"))

    evaluate_rule = tracer.wrap(plain(materialisation, "evaluate_rule"), "evaluation.rule")

    def traced_evaluate_rule(rule, st):
        out = evaluate_rule(rule, st)
        t0, c0 = time.perf_counter(), time.thread_time()
        useful = 0
        for d in out:
            if isinstance(d, tuple):
                useful += not st.contains_bottom
            else:
                useful += not entails(st, d)
        tracer.count("evaluation.derived", len(out))
        tracer.count("evaluation.useful", useful)
        tracer.exclude(time.perf_counter() - t0, time.thread_time() - c0)
        return out

    rebind(materialisation, "evaluate_rule", traced_evaluate_rule)
    rebind(
        evaluation,
        "apply_operator",
        tracer.wrap(plain(evaluation, "apply_operator"), "evaluation.operator", inherit=OPERATOR_SPANS),
    )
    substitutions = plain(evaluation, "substitutions")

    def traced_substitutions(*args, **kwargs):
        it = substitutions(*args, **kwargs)
        while True:
            tracer.begin("evaluation.join")
            try:
                sigma = next(it)
            except StopIteration:
                return
            finally:
                tracer.end()
            tracer.count("evaluation.substitutions")
            yield sigma

    rebind(evaluation, "substitutions", traced_substitutions)

    # query reads and analysis
    for attr in ("dependency_info", "is_recursive", "relevant_rules"):
        rebind(pipeline, attr, tracer.wrap(plain(pipeline, attr), "analysis"))

    # automata
    rebind(
        pipeline,
        "entail_to_inconsist",
        tracer.wrap(plain(pipeline, "entail_to_inconsist"), "automata.reduction", engine="automata"),
    )
    rebind(pipeline, "consistent", tracer.wrap(plain(pipeline, "consistent"), "automata.consistent", engine="automata"))
    rebind(
        pipeline,
        "materialise",
        tracer.wrap(plain(pipeline, "materialise"), "pipeline.materialise", engine="materialisation"),
    )
    Engine = automata._Engine
    rebind(Engine, "_span_materialise", tracer.wrap(plain(Engine, "_span_materialise"), "automata.span_materialise"))
    rebind(Engine, "tail_ok", tracer.wrap(plain(Engine, "tail_ok"), "automata.tail_search"))
    rebind(automata, "_check_window", tracer.wrap(plain(automata, "_check_window"), "automata.window_check"))
    rebind(automata, "_letters_store", tracer.wrap(plain(automata, "_letters_store"), "automata.letters_store"))
    rebind(
        automata,
        "apply_operator",
        tracer.wrap(plain(automata, "apply_operator"), "automata.operator", inherit=OPERATOR_SPANS),
    )
    poll = plain(Engine, "_poll")

    def traced_poll(self):
        tracer.count("automata.states")
        return poll(self)

    rebind(Engine, "_poll", traced_poll)

    # race: wall of the race minus the cpu of the engine that answered
    race = tracer.wrap(plain(pipeline, "_race_finish"), "pipeline.race")

    def traced_race(*args, **kwargs):
        engines = ("cpu.materialisation", "cpu.automata")
        before = {e: tracer.counts[e] for e in engines}
        t0 = time.perf_counter()
        result = race(*args, **kwargs)
        wall = time.perf_counter() - t0
        winner_cpu = tracer.counts["cpu." + result.winner] - before["cpu." + result.winner]
        tracer.count("pipeline.race_overhead_s", wall - winner_cpu)
        if result.winner == "automata":
            tracer.count("pipeline.automata_wins")
        return result

    rebind(pipeline, "_race_finish", traced_race)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# per-layer metric name -> unit; values are per traced operation (one
# materialisation or one query) unless the unit says per set-up or ratio
LAYER_UNITS = {
    "syntax.parse_s": "s/setup",
    "syntax.facts_parsed": "count/setup",
    "store.load_s": "s/setup",
    "store.load_coalesce_ratio": "ratio",
    "store.snapshot_s": "s/op",
    "store.snapshot_calls": "count/op",
    "store.insert_s": "s/op",
    "materialisation.fixpoint_test_s": "s/op",
    "materialisation.rounds": "count/op",
    "materialisation.round_s": "s/op",
    "evaluation.rule_s": "s/op",
    "evaluation.operator_s": "s/op",
    "evaluation.operator_calls": "count/op",
    "evaluation.join_s": "s/op",
    "evaluation.substitutions": "count/op",
    "evaluation.derived": "count/op",
    "evaluation.useful_share": "ratio",
    "store.entails_s": "s/op",
    "store.entails_calls": "count/op",
    "analysis.s": "s/op",
    "automata.reduction_s": "s/op",
    "automata.consistent_s": "s/op",
    "automata.consistent_cpu_s": "s/op",
    "automata.span_materialise_s": "s/op",
    "automata.window_check_s": "s/op",
    "automata.window_checks": "count/op",
    "automata.letters_store_s": "s/op",
    "automata.operator_s": "s/op",
    "automata.tail_search_s": "s/op",
    "automata.states": "count/op",
    "pipeline.race_overhead_s": "s/op",
    "pipeline.automata_wins": "count/op",
    "trace.overhead_share": "ratio",
}


def layer_metrics(tracer: Tracer, ops: int, setups: int, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics from a traced run of `ops` operations and `setups`
    set-ups.  Times are inclusive wall time of the named span, except
    evaluation.rule_s and the two operator_s, which are self time."""
    tot = tracer.totals
    cnt = tracer.counts

    def wall(name):
        return tot.get(name, [0, 0.0])[1]

    def self_wall(name):
        return tot.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return tot.get(name, [0])[0]

    per_op = {
        "store.snapshot_s": wall("store.snapshot"),
        "store.snapshot_calls": calls("store.snapshot"),
        "store.insert_s": wall("store.insert"),
        "materialisation.fixpoint_test_s": wall("materialisation.fixpoint_test"),
        "materialisation.rounds": calls("materialisation.round"),
        "materialisation.round_s": wall("materialisation.round"),
        "evaluation.rule_s": self_wall("evaluation.rule"),
        "evaluation.operator_s": self_wall("evaluation.operator"),
        "evaluation.operator_calls": calls("evaluation.operator"),
        "evaluation.join_s": wall("evaluation.join"),
        "evaluation.substitutions": cnt["evaluation.substitutions"],
        "evaluation.derived": cnt["evaluation.derived"],
        "store.entails_s": wall("store.entails"),
        "store.entails_calls": calls("store.entails"),
        "analysis.s": wall("analysis"),
        "automata.reduction_s": wall("automata.reduction"),
        "automata.consistent_s": wall("automata.consistent"),
        "automata.consistent_cpu_s": tot.get("automata.consistent", [0, 0.0, 0.0, 0.0])[3],
        "automata.span_materialise_s": wall("automata.span_materialise"),
        "automata.window_check_s": wall("automata.window_check"),
        "automata.window_checks": calls("automata.window_check"),
        "automata.letters_store_s": wall("automata.letters_store"),
        "automata.operator_s": self_wall("automata.operator"),
        "automata.tail_search_s": wall("automata.tail_search"),
        "automata.states": cnt["automata.states"],
        "pipeline.race_overhead_s": cnt["pipeline.race_overhead_s"],
        "pipeline.automata_wins": cnt["pipeline.automata_wins"],
    }
    out = {k: v / max(ops, 1) for k, v in per_op.items()}
    out["syntax.parse_s"] = wall("syntax.parse") / max(setups, 1)
    out["syntax.facts_parsed"] = cnt["syntax.facts_parsed"] / max(setups, 1)
    out["store.load_s"] = wall("store.load") / max(setups, 1)
    loaded = cnt["store.facts_loaded"]
    out["store.load_coalesce_ratio"] = cnt["store.intervals_stored"] / loaded if loaded else 0.0
    derived = cnt["evaluation.derived"]
    out["evaluation.useful_share"] = cnt["evaluation.useful"] / derived if derived else 0.0
    out["trace.overhead_share"] = overhead_share
    return {name: float(out[name]) for name in LAYER_UNITS}
