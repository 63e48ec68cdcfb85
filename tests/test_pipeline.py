"""End-to-end entailment: fast path, non-recursive loop, pre-materialisation,
sequential finish, and the two-worker race."""

from datalogmtl.intervals import make
from datalogmtl.pipeline import check_entailment, pre_materialise
from datalogmtl.store import FactStore
from datalogmtl.syntax import parse_dataset, parse_fact, parse_program

from helpers import load_dataset, load_program


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
