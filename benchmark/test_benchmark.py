"""Tests of the benchmark itself: seeded inputs, failure accounting, spans."""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

from datalogmtl import automata, evaluation  # noqa: E402
from datalogmtl.materialisation import materialise  # noqa: E402
from datalogmtl.store import FactStore  # noqa: E402
from datalogmtl.syntax import parse_dataset, parse_fact, parse_program  # noqa: E402


@pytest.mark.parametrize("make", [wl.periodic_instance, wl.bulk_instance])
def test_generators_are_byte_identical_for_a_seed(make):
    assert make(7, 3) == make(7, 3)
    assert make(7, 3) != make(8, 3)
    assert make(7, 3) != make(7, 4)


def test_bulk_slices_are_seeded():
    assert wl.bulk_slices(5, 0) == wl.bulk_slices(5, 0)
    assert wl.bulk_slices(5, 0) != wl.bulk_slices(6, 0)


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(child.WORKLOADS)


def test_a_flipped_answer_counts_in_failed_share():
    tally = run.Tally()
    for i in range(4):
        instance = wl.periodic_instance(1, i)
        program, loaded, queries, _ = child.setup(instance)
        expected = instance.queries[0].expected
        if i == 2:
            expected = not expected
        _, wall, info = child.query_op(program, loaded, queries[0], expected)
        tally.add(dict(ev="op", op=i, wall=wall, traced=False, timed=True, **info))
    assert (tally.attempted, tally.failed, tally.failed_share) == (4, 1, 0.25)
    assert not tally.correct


def test_a_failed_operation_gives_no_latency():
    tally = run.Tally()
    for op, ok in ((0, True), (1, False)):
        tally.add(dict(ev="op", op=op, wall=0.5 + op, traced=False, timed=True, ok=ok, wrong=False, error=None))
    # a later successful pass does not make the operation good
    tally.add(dict(ev="op", op=1, wall=0.1, traced=False, timed=True, ok=True, wrong=False, error=None))
    assert tally.walls == [0.5, 0.1]
    assert (tally.attempted, tally.failed) == (2, 1)
    assert not tally.correct


def test_times_are_medians_scaled_by_the_reference_loop():
    tally = run.Tally()
    # the machine runs at half the reference speed
    for wall in (1.9, 2.0, 2.1):
        tally.add(dict(ev="reference", threads=2, wall=wall * speed.REFERENCE_S[2], left_running=0))
    for wall in (0.4, 0.2, 0.6):
        tally.add(dict(ev="setup", instance=0, wall=wall, timed=True))
    for wall in (1.0, 3.0, 2.0):
        tally.add(dict(ev="op", op=0, wall=wall, traced=False, timed=True, ok=True, wrong=False, error=None))
    metrics = run.end_to_end(tally, 50.0, run.speed_scale(tally))
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["latency_p50_s"] == pytest.approx(1.0)
    assert metrics["ops_per_s"] == pytest.approx(1.0)


def test_the_tail_has_ten_samples_beyond_it():
    walls = [float(i) for i in range(36)]
    p, value = run.tail(walls)
    # p74 of 0..35 is 25.9: 26..35 lie beyond it, and p75 would leave nine
    assert p == 74 and sum(w > value for w in walls) == 10
    assert run.tail(walls[:5]) == (100, 4.0)


def test_a_stalled_operation_is_killed_and_counted(monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.5)
    event = json.dumps(dict(ev="op", op=0, wall=0.1, traced=False, timed=True, ok=True, wrong=False, error=None))
    cmd = [sys.executable, "-c", f"import time; print({event!r}, flush=True); time.sleep(60)"]
    tally = run.Tally()
    t0 = time.monotonic()
    run.supervise(cmd, tally)
    assert time.monotonic() - t0 < 10
    assert (tally.attempted, tally.failed) == (2, 1)
    assert not tally.correct


def test_the_slice_check_catches_a_missing_derivation():
    facts = parse_dataset("P0(c3)@[10,14]\nP1(c3)@[12,20]\nP2(c3)@[15,18]\nP3(c3)@[17,17]\nP4(c3)@[25,30]\n")
    out = materialise(parse_program(wl.SCALE_PROGRAM), FactStore.from_facts(facts))
    assert wl.check_bulk_slice(out.store, facts, 3, 0) is None
    key = ("D1", ("c3",))
    del out.store.atoms[key]
    assert "D1(c3)" in wl.check_bulk_slice(out.store, facts, 3, 0)


def test_the_periodic_closed_form_agrees_with_materialisation():
    # on the period the query is entailed, and materialisation finds it
    for i in range(0, len(wl.PERIODIC_CLASSES), 5):
        instance = wl.periodic_instance(2, i)
        atom = instance.queries[0].text.split("@[")[0]
        program, loaded, _, _ = child.setup(instance)
        start = next(int(line.split("@[")[1].split(",")[0]) for line in instance.data.splitlines() if line.startswith(atom))
        p = wl.PERIODIC_CLASSES[i][0]
        on_period = parse_fact(f"{atom}@[{start + p},{start + p}]")
        assert instance.queries[0].expected is False
        assert materialise(program, loaded, max_rounds=3, target=on_period).status == "TargetEntailed"


def _check_self_times(tracer: spans.Tracer):
    """Every record's self time is its wall minus its children's walls, and
    the per-name totals agree with the records."""
    covered: dict = {}
    for rec in tracer.spans:
        if rec[2] is not None:
            covered[rec[2]] = covered.get(rec[2], 0.0) + rec[5]
    recomputed = {rec[0]: rec[5] - covered.get(rec[0], 0.0) for rec in tracer.spans}
    by_name: dict = {}
    for sid, name, _parent, _thread, _start, wall, _cpu, self_wall in tracer.spans:
        assert self_wall == pytest.approx(recomputed[sid], abs=1e-9)
        assert 0 <= self_wall <= wall + 1e-9
        by_name[name] = by_name.get(name, 0.0) + self_wall
    for name, total in by_name.items():
        assert tracer.totals[name][2] == pytest.approx(total, abs=1e-9)


def test_span_self_time_is_duration_minus_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.01)
    _check_self_times(tracer)
    outer = next(r for r in tracer.spans if r[1] == "outer")
    inner = [r for r in tracer.spans if r[1] == "inner"]
    assert all(r[2] == outer[0] for r in inner)
    assert outer[7] == pytest.approx(outer[5] - sum(r[5] for r in inner))
    assert 0.005 < outer[7] < outer[5] - 0.025


def test_nested_apply_operator_spans_keep_their_call_site():
    loaded = FactStore.from_facts(parse_dataset("P(a)@[0,4]\nQ(a)@[1,1]\n"))
    literal = parse_program("H(a) :- DIAMONDMINUS[0,1] (P(a) SINCE[0,2] Q(a)) .").rules[0].body[0]
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        evaluation.apply_operator(literal, loaded)
        automata.apply_operator(literal, loaded)
    assert evaluation.apply_operator.__module__ == "datalogmtl.evaluation"
    names = [r[1] for r in tracer.spans]
    # unary, binary, two relational leaves, per call site
    assert names.count("evaluation.operator") == 4
    assert names.count("automata.operator") == 4
    _check_self_times(tracer)
    for name in spans.OPERATOR_SPANS:
        recs = [r for r in tracer.spans if r[1] == name]
        root = next(r for r in recs if r[2] is None)
        # nothing else is traced below apply_operator, so the self times of
        # one call tree add up to the root's duration
        assert sum(r[7] for r in recs) == pytest.approx(root[5], abs=1e-9)


def test_spans_on_two_threads_form_separate_trees():
    tracer = spans.Tracer()
    start = threading.Barrier(2)

    def work():
        start.wait()
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("leaf"):
                    time.sleep(0.005)
                time.sleep(0.002)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    _check_self_times(tracer)
    by_id = {r[0]: r for r in tracer.spans}
    roots = [r for r in tracer.spans if r[1] == "root"]
    assert len(roots) == 2 and roots[0][3] != roots[1][3]
    for r in tracer.spans:
        if r[1] == "leaf":
            assert by_id[r[2]][3] == r[3]  # parent is on the same thread
    for root in roots:
        leaves = [r for r in tracer.spans if r[2] == root[0]]
        assert len(leaves) == 3
        assert root[7] == pytest.approx(root[5] - sum(r[5] for r in leaves), abs=1e-9)


def test_bookkeeping_is_cut_out_of_open_spans():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            t0 = time.perf_counter()
            time.sleep(0.03)
            tracer.exclude(time.perf_counter() - t0, 0.0)
    outer = next(r for r in tracer.spans if r[1] == "outer")
    assert outer[5] < 0.02


def test_instrument_restores_the_reasoner():
    from datalogmtl import materialisation, pipeline

    before = (
        materialisation.evaluate_rule,
        pipeline._race_finish,
        FactStore.__dict__["from_facts"],
        automata._Engine._poll,
    )
    with spans.instrument(spans.Tracer()):
        assert materialisation.evaluate_rule is not before[0]
    after = (
        materialisation.evaluate_rule,
        pipeline._race_finish,
        FactStore.__dict__["from_facts"],
        automata._Engine._poll,
    )
    assert after == before
    assert isinstance(FactStore.from_facts([parse_fact("P(a)@[0,1]")]), FactStore)


def test_a_traced_race_fills_the_automata_and_race_metrics():
    instance = wl.periodic_instance(3, 0)
    program, loaded, queries, _ = child.setup(instance)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        _, wall, info = child.query_op(program, loaded, queries[0], instance.queries[0].expected)
    assert info["ok"] and info["winner"] == "automata"
    metrics = spans.layer_metrics(tracer, 1, 0, 0.0)
    assert set(metrics) == set(spans.LAYER_UNITS)
    assert metrics["pipeline.automata_wins"] == 1
    assert 0 < metrics["pipeline.race_overhead_s"] < wall
    assert 0 < metrics["automata.consistent_cpu_s"] <= metrics["automata.consistent_s"] + 1e-3
    for name in ("automata.window_checks", "automata.states", "evaluation.derived"):
        assert metrics[name] > 0
    _check_self_times(tracer)
