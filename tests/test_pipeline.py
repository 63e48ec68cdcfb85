"""End-to-end entailment: fast path, non-recursive loop, pre-materialisation,
sequential finish, and the race between a forked materialisation child and
the automata."""

import multiprocessing
import os
import subprocess
import sys

import pytest

from datalogmtl import pipeline
from datalogmtl.intervals import make
from datalogmtl.pipeline import check_entailment, pre_materialise
from datalogmtl.store import FactStore
from datalogmtl.syntax import parse_dataset, parse_fact, parse_program

from helpers import block_buffered_env, load_dataset, load_program


def store_of(text):
    return FactStore.from_facts(parse_dataset(text))


def test_fast_path():
    r = check_entailment(
        parse_program(""), store_of("P(a)@[0,5]"), parse_fact("P(a)@[1,3]")
    )
    assert (r.answer, r.fact_type, r.rounds, r.winner) == (True, "T1", 0, "fastpath")


def test_nonrecursive_entailed():
    r = check_entailment(
        load_program("immune"),
        FactStore.from_facts(load_dataset("immune")),
        parse_fact("Immune(james)@[7,10]"),
    )
    assert r.answer and r.fact_type == "T2" and r.rounds <= 2


def test_nonrecursive_not_entailed():
    r = check_entailment(
        load_program("immune"),
        FactStore.from_facts(load_dataset("immune")),
        parse_fact("Immune(james)@[6,10]"),
    )
    assert not r.answer and r.fact_type == "T2"


def test_recursive_fixpoint_negative():
    # recursive through a box, but the box derives nothing new: fixpoint
    prog = parse_program("P(X) :- BOXMINUS[0,1] P(X) .")
    r = check_entailment(prog, store_of("P(a)@[0,1]"), parse_fact("P(a)@[5,6]"),
                         sequential=True)
    assert not r.answer and r.fact_type == "T3"


def test_recursive_divergent_goes_to_automata():
    # the Chair/FullProfessor diamond cycle grows forever, so the round
    # budget runs out and the automata decide the negative answer
    r = check_entailment(
        load_program("professor"),
        FactStore.from_facts(load_dataset("professor")),
        parse_fact("FullProfessor(a)@[0,1]"),
        sequential=True,
        round_budget=30,
    )
    assert not r.answer and r.fact_type == "T5" and r.winner == "automata"


def test_recursive_target_hit():
    r = check_entailment(
        load_program("birthday"),
        store_of("Bday(t)@[0,0]"),
        parse_fact("Bday(t)@[3,3]"),
        sequential=True,
    )
    assert r.answer and r.fact_type == "T4" and r.rounds == 3


def test_recursive_automata_negative():
    r = check_entailment(
        load_program("birthday"),
        store_of("Bday(t)@[0,0]"),
        parse_fact("Bday(t)@[1/2,1/2]"),
        sequential=True,
        round_budget=10,
    )
    assert not r.answer and r.fact_type == "T5" and r.winner == "automata"


def test_recursive_automata_positive():
    # round budget too small for materialisation, automata must prove it
    r = check_entailment(
        load_program("birthday"),
        store_of("Bday(t)@[0,0]"),
        parse_fact("Bday(t)@[4,4]"),
        sequential=True,
        round_budget=2,
    )
    assert r.answer and r.fact_type == "T5"


def test_inconsistency_marker():
    prog = parse_program("P(X) :- Q(X) .\nBOTTOM :- Q(X) .")
    r = check_entailment(prog, store_of("Q(a)@[0,1]"), parse_fact("P(b)@[5,6]"))
    assert r.answer and r.inconsistent


def test_race_mode_agrees_with_sequential():
    prog = load_program("birthday")
    for query, want in (("Bday(t)@[5,5]", True), ("Bday(t)@[1/2,1/2]", False)):
        r = check_entailment(prog, store_of("Bday(t)@[0,0]"), parse_fact(query))
        assert r.answer == want
        assert r.winner in ("materialisation", "automata")


def test_race_answers_when_the_automata_reject_the_program():
    # the automata raise on the unbounded DIAMONDMINUS; the race must still
    # wait for materialisation, which derives the target
    prog = parse_program(
        "BOXPLUS[1,1] P(X) :- P(X) .\nP2(X) :- DIAMONDMINUS[0,+inf) P(X), P(X) ."
    )
    r = check_entailment(prog, store_of("P(a)@[0,0]"), parse_fact("P2(a)@[5,5]"))
    assert (r.answer, r.fact_type, r.winner) == (True, "T4", "materialisation")


# the automata reject the unbounded BOXMINUS and materialisation never
# reaches the query, so neither engine answers
NO_ANSWER_PROGRAM = "BOXPLUS[1,1] P(X) :- P(X) .\nQ(X) :- BOXMINUS[0,+inf) P(X) ."


def test_race_leaves_no_child():
    birthday = load_program("birthday")
    r = check_entailment(birthday, store_of("Bday(t)@[0,0]"), parse_fact("Bday(t)@[1/2,1/2]"))
    assert r.winner == "automata" and multiprocessing.active_children() == []

    prog = parse_program(
        "BOXPLUS[1,1] P(X) :- P(X) .\nP2(X) :- DIAMONDMINUS[0,+inf) P(X), P(X) ."
    )
    r = check_entailment(prog, store_of("P(a)@[0,0]"), parse_fact("P2(a)@[5,5]"))
    assert r.winner == "materialisation" and multiprocessing.active_children() == []
    assert {"pre_materialisation", "race"} <= set(r.timings)

    with pytest.raises(NotImplementedError):
        check_entailment(parse_program(NO_ANSWER_PROGRAM), store_of("P(a)@[0,0]"),
                         parse_fact("Q(a)@[5,5]"), round_budget=50)
    assert multiprocessing.active_children() == []


def test_race_ignores_a_child_without_an_answer():
    # the child runs out of its zero-round budget at once; the automata answer
    r = check_entailment(load_program("birthday"), store_of("Bday(t)@[0,0]"),
                         parse_fact("Bday(t)@[1/2,1/2]"), round_budget=0)
    assert (r.answer, r.winner) == (False, "automata")


def test_race_child_that_dies_gives_no_answer(monkeypatch):
    monkeypatch.setattr(pipeline, "materialise", lambda *a, **k: os._exit(1))
    with pytest.raises(NotImplementedError):
        check_entailment(parse_program(NO_ANSWER_PROGRAM), store_of("P(a)@[0,0]"),
                         parse_fact("Q(a)@[5,5]"))
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("no")
        self.hook = lambda: None


def test_materialisation_worker_sends_an_unpicklable_error_as_its_repr(monkeypatch):
    def fail(*args, **kwargs):
        raise _Unpicklable()

    monkeypatch.setattr(pipeline, "materialise", fail)
    receiver, sender = multiprocessing.Pipe(duplex=False)
    pipeline._materialisation_worker(sender, None, None, None, 0, 10)
    message = receiver.recv()
    assert type(message) is RuntimeError and str(message) == repr(_Unpicklable())


def test_race_does_not_repeat_buffered_output():
    # output still buffered in the parent when the race forks is written
    # once, also when the child exits on its own (here at once, with no
    # rounds to run) instead of being killed
    script = (
        "from datalogmtl.pipeline import check_entailment\n"
        "from datalogmtl.store import FactStore\n"
        "from datalogmtl.syntax import parse_dataset, parse_fact, parse_program\n"
        "print('before')\n"
        "r = check_entailment(parse_program('BOXPLUS[1,1] Bday(X) :- Bday(X) .'),\n"
        "    FactStore.from_facts(parse_dataset('Bday(t)@[0,0]')),\n"
        "    parse_fact('Bday(t)@[1/2,1/2]'), round_budget=0)\n"
        "print(r.winner)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=block_buffered_env(), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "before\nautomata\n"


def test_irrelevant_rules_are_dropped():
    # the unrelated recursive rule must not push the query to the automata
    prog = parse_program("Loop(X) :- DIAMONDMINUS[1,1] Loop(X) .\nP(X) :- Q(X) .")
    r = check_entailment(prog, store_of("Q(a)@[0,1]"), parse_fact("P(a)@[0,1]"),
                         sequential=True)
    assert r.answer and r.fact_type == "T2"


def test_pre_materialise_professor():
    store, status, rounds = pre_materialise(
        load_program("professor"), FactStore.from_facts(load_dataset("professor"))
    )
    assert store.intervals_for(("AssistantProfessor", ("a",))) == [make(3, 10)]
    assert store.intervals_for(("AssociateProfessor", ("a",))) == [make(7, 10)]
    assert status in ("PreDone", "Fixpoint")


def test_pre_materialise_all_recursive_heads():
    store, status, rounds = pre_materialise(
        load_program("birthday"), store_of("Bday(t)@[0,0]")
    )
    assert status == "PreDone" and rounds == 1


def test_pre_materialise_already_fixpoint():
    prog = parse_program("P(X) :- BOXMINUS[0,1] P(X) .")
    store, status, rounds = pre_materialise(prog, store_of("P(a)@[0,1]"))
    assert status == "Fixpoint" and rounds == 1
    assert store.intervals_for(("P", ("a",))) == [make(0, 1)]


def test_timings_recorded():
    r = check_entailment(
        load_program("immune"),
        FactStore.from_facts(load_dataset("immune")),
        parse_fact("Immune(james)@[7,10]"),
    )
    assert "materialisation" in r.timings and "analysis" in r.timings
