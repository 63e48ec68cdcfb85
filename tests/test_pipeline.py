"""End-to-end entailment: fast path, pre-materialisation, which settles
non-recursive subprograms, sequential finish, and the race in one process,
where the automata's cancellation poll runs materialisation's rounds."""

import multiprocessing
from types import SimpleNamespace

import pytest

from datalogmtl import pipeline
from datalogmtl.automata import Cancelled
from datalogmtl.intervals import make
from datalogmtl.pipeline import check_entailment, pre_materialise
from datalogmtl.store import FactStore
from datalogmtl.syntax import parse_dataset, parse_fact, parse_program

from helpers import forbid_processes, load_dataset, load_program


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


def test_one_way_race_answers_by_materialisation_when_the_automata_reject_the_program():
    # the program is forward, so race mode runs the sequential finish: the
    # automata raise on the unbounded DIAMONDMINUS, and the finish's rounds
    # derive the target (the mixed case is
    # test_race_of_a_mixed_program_waits_for_the_child_when_the_automata_fail)
    prog = parse_program(
        "BOXPLUS[1,1] P(X) :- P(X) .\nP2(X) :- DIAMONDMINUS[0,+inf) P(X), P(X) ."
    )
    r = check_entailment(prog, store_of("P(a)@[0,0]"), parse_fact("P2(a)@[5,5]"))
    assert (r.answer, r.fact_type, r.winner) == (True, "T4", "materialisation")
    assert multiprocessing.active_children() == []
    assert {"pre_materialisation", "race"} <= set(r.timings)


# the automata reject the unbounded BOXMINUS and materialisation never
# reaches the query, so neither engine answers; the DIAMONDPLUS makes the
# program mixed, so it races
NO_ANSWER_PROGRAM = (
    "BOXPLUS[1,1] P(X) :- P(X) .\nQ(X) :- BOXMINUS[0,+inf) P(X), DIAMONDPLUS[0,1] P(X) ."
)

def test_queries_leave_the_loaded_store_unchanged():
    # check_entailment hands the caller's store to the materialisation
    # loops without a copy: they must never write it
    store = store_of("Bday(t)@[0,0]\nQ(a)@[0,5]")
    dump, bottoms = store.dump(), list(store.bottom_intervals)
    birthday = load_program("birthday")
    queries = (
        (birthday, "Bday(t)@[0,0]", {}, "T1"),
        (parse_program("R(X) :- DIAMONDMINUS[0,1] Q(X) ."), "R(a)@[1,6]", {}, "T2"),
        (birthday, "Bday(t)@[3,3]", {"sequential": True}, "T4"),
        (birthday, "Bday(t)@[1/2,1/2]", {"sequential": True, "round_budget": 10}, "T5"),
        (birthday, "Bday(t)@[1/2,1/2]", {"round_budget": 10}, "T5"),
        (parse_program(PARTY_PROGRAM), PARTY_QUERY, {}, "T5"),
    )
    for program, query, kwargs, fact_type in queries:
        r = check_entailment(program, store, parse_fact(query), **kwargs)
        assert r.fact_type == fact_type, query
        assert (store.dump(), store.bottom_intervals) == (dump, bottoms), query


# birthday with a rule that looks ahead, so the program propagates both ways
# and races; Party(t) never holds at -2, and only the automata can
# tell, as for Bday(t) at 1/2 on birthday alone
PARTY_PROGRAM = "BOXPLUS[1,1] Bday(X) :- Bday(X) .\nParty(X) :- DIAMONDPLUS[0,1] Bday(X) ."
PARTY_QUERY = "Party(t)@[-2,-2]"


def test_race_leaves_no_child(monkeypatch):
    # neither engine answers, and no process was started on the way
    forbid_processes(monkeypatch)
    with pytest.raises(NotImplementedError):
        check_entailment(parse_program(NO_ANSWER_PROGRAM), store_of("P(a)@[0,0]"),
                         parse_fact("Q(a)@[5,5]"), round_budget=50)
    assert multiprocessing.active_children() == []


def test_race_ignores_a_child_without_an_answer():
    # a zero-round budget leaves materialisation no turn: the automata
    # answer, and only the pre-materialisation round counts
    r = check_entailment(parse_program(PARTY_PROGRAM), store_of("Bday(t)@[0,0]"),
                         parse_fact(PARTY_QUERY), round_budget=0)
    assert (r.answer, r.fact_type, r.rounds, r.winner) == (False, "T5", 1, "automata")


def test_a_mixed_race_answers_in_one_process(monkeypatch):
    forbid_processes(monkeypatch)
    party = parse_program(PARTY_PROGRAM)
    r = check_entailment(party, store_of("Bday(t)@[0,0]"), parse_fact(PARTY_QUERY))
    assert (r.answer, r.fact_type, r.winner) == (False, "T5", "automata")
    # both engines can answer this one, so only the answer is pinned
    r = check_entailment(party, store_of("Bday(t)@[0,0]"), parse_fact("Party(t)@[50,50]"))
    assert r.answer and "race" in r.timings
    r = check_entailment(parse_program(MIXED_PROGRAM_THE_AUTOMATA_REJECT), store_of("P(a)@[0,0]"),
                         parse_fact("P2(a)@[5,5]"))
    assert (r.answer, r.fact_type, r.winner) == (True, "T4", "materialisation")


def test_the_race_runs_materialisation_rounds_in_the_automata_poll(monkeypatch):
    # automata that only poll get no answer of their own: the rounds run in
    # their polls derive Party(t)@[5,5], as in sequential mode, after the
    # pre-materialisation round and five more
    def poll_until_cancelled(program, dataset, *, cancelled):
        while not cancelled():
            pass
        raise Cancelled()

    monkeypatch.setattr(pipeline, "consistent", poll_until_cancelled)
    query = parse_fact("Party(t)@[5,5]")
    r = check_entailment(parse_program(PARTY_PROGRAM), store_of("Bday(t)@[0,0]"), query)
    assert (r.answer, r.fact_type, r.rounds, r.winner) == (True, "T4", 6, "materialisation")
    s = check_entailment(parse_program(PARTY_PROGRAM), store_of("Bday(t)@[0,0]"), query,
                         sequential=True)
    assert (s.fact_type, s.rounds) == ("T4", 6)


def test_a_race_round_runs_once_the_automata_have_run_as_long_as_the_last_one(monkeypatch):
    # on a clock where a round takes 1 and a poll 1/4, the automata poll
    # four times per round, and the first poll runs the first round
    now = [0.0]
    monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    apply_rules = pipeline.apply_rules

    def round_taking_1(*args):
        now[0] += 1
        return apply_rules(*args)

    ran = []

    def automata(program, dataset, *, cancelled):
        for _ in range(12):
            now[0] += 0.25
            before = now[0]
            cancelled()
            ran.append(now[0] > before)
        return True

    monkeypatch.setattr(pipeline, "apply_rules", round_taking_1)
    monkeypatch.setattr(pipeline, "consistent", automata)
    r = check_entailment(parse_program(PARTY_PROGRAM), store_of("Bday(t)@[0,0]"),
                         parse_fact(PARTY_QUERY))
    assert [poll for poll, round_ran in enumerate(ran, 1) if round_ran] == [1, 5, 9]
    assert (r.answer, r.fact_type, r.rounds, r.winner) == (False, "T5", 4, "automata")


def test_an_error_in_a_race_round_ends_only_materialisation_rounds(monkeypatch):
    # the pre-materialisation round runs; the first round in the race
    # raises, and no later poll runs another
    apply_rules, calls = pipeline.apply_rules, []

    def fails_after_one_round(*args):
        calls.append(args)
        if len(calls) > 1:
            raise RuntimeError("round failed")
        return apply_rules(*args)

    monkeypatch.setattr(pipeline, "apply_rules", fails_after_one_round)
    r = check_entailment(parse_program(PARTY_PROGRAM), store_of("Bday(t)@[0,0]"),
                         parse_fact(PARTY_QUERY))
    assert (r.answer, r.fact_type, r.rounds, r.winner) == (False, "T5", 1, "automata")
    assert len(calls) == 2


def test_one_way_programs_answer_without_forking(monkeypatch):
    forbid_processes(monkeypatch)
    birthday = load_program("birthday")
    for query, want in (("Bday(t)@[1/2,1/2]", (False, "T5", "automata")),
                        ("Bday(t)@[5,5]", (True, "T4", "materialisation"))):
        r = check_entailment(birthday, store_of("Bday(t)@[0,0]"), parse_fact(query))
        assert (r.answer, r.fact_type, r.winner) == want
        assert {"materialisation", "race"} <= set(r.timings)
    r = check_entailment(load_program("professor"), FactStore.from_facts(load_dataset("professor")),
                         parse_fact("FullProfessor(a)@[0,1]"))
    assert (r.answer, r.fact_type, r.winner) == (False, "T5", "automata")


# the automata raise on the unbounded DIAMONDMINUS, and the DIAMONDPLUS makes
# the program mixed, so only the race's materialisation rounds can answer
MIXED_PROGRAM_THE_AUTOMATA_REJECT = (
    "BOXPLUS[1,1] P(X) :- P(X) .\nP2(X) :- DIAMONDMINUS[0,+inf) P(X), DIAMONDPLUS[0,1] P(X) ."
)


def test_race_of_a_mixed_program_waits_for_the_child_when_the_automata_fail():
    # once the automata raise, materialisation runs its rounds alone and
    # derives the target, in as many rounds as in sequential mode
    r = check_entailment(parse_program(MIXED_PROGRAM_THE_AUTOMATA_REJECT), store_of("P(a)@[0,0]"),
                         parse_fact("P2(a)@[5,5]"))
    assert (r.answer, r.fact_type, r.rounds, r.winner) == (True, "T4", 6, "materialisation")


def test_sequential_birthday_stops_once_the_query_is_out_of_reach():
    # the round that adds Bday(a)@[1,1] adds nothing at or before 1/2, so no
    # later round can; the budget of 1000 rounds is not spent
    r = check_entailment(load_program("birthday"), FactStore.from_facts(load_dataset("birthday")),
                         parse_fact("Bday(a)@[1/2,1/2]"), sequential=True)
    assert (r.answer, r.fact_type, r.winner) == (False, "T5", "automata")
    assert r.rounds <= 3


@pytest.mark.parametrize("sequential", [True, False], ids=["sequential", "race"])
@pytest.mark.parametrize("program, query", [
    ("BOXPLUS[1,1] Bday(X) :- Bday(X) .", "Bday(a)@[3,+inf)"),
    ("BOXMINUS[1,1] Bday(X) :- Bday(X) .", "Bday(a)@(-inf,-3]"),
], ids=["forward", "backward"])
def test_an_unbounded_query_stops_at_its_first_uncovered_point(program, query, sequential):
    # the query's far end is infinite, but its first point not yet derived,
    # 3 (-3), is out of reach once a round adds 4 (-4): the budget of 1000
    # rounds is not spent
    r = check_entailment(parse_program(program), store_of("Bday(a)@[0,0]"), parse_fact(query),
                         sequential=sequential)
    assert (r.answer, r.fact_type, r.winner) == (False, "T5", "automata")
    assert r.rounds == 4


@pytest.mark.parametrize("sequential", [True, False], ids=["sequential", "race"])
@pytest.mark.parametrize("program, data, query, inconsistent", [
    ("BOXPLUS[1,1] Bday(X) :- Bday(X) .", "Bday(a)@[0,0]", "Bday(a)@[1,1]", False),
    ("BOXPLUS[1,1] P(X) :- P(X) .\nBOTTOM :- P(X), Q(X) .", "P(a)@[0,0]\nQ(a)@[0,0]", "P(b)@[0,0]", True),
], ids=["target", "bottom"])
def test_pre_materialisation_answers_a_recursive_query(monkeypatch, program, data, query, inconsistent, sequential):
    # the first round derives the query, or BOTTOM, which entails every fact:
    # neither finish runs and nothing forks
    forbid_processes(monkeypatch)
    r = check_entailment(parse_program(program), store_of(data), parse_fact(query), sequential=sequential)
    assert (r.answer, r.fact_type, r.rounds, r.winner) == (True, "T4", 1, "materialisation")
    assert r.inconsistent is inconsistent
    assert set(r.timings) == {"fastpath", "analysis", "pre_materialisation"}


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
