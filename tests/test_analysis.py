"""Dependency graph, recursive predicates, and relevant subprograms."""

import pytest

from datalogmtl.analysis import (
    dependency_info,
    is_recursive,
    propagation,
    relevant_rules,
    to_dot,
)
from datalogmtl.syntax import parse_program

from helpers import load_program


def test_professor_recursive_set():
    info = dependency_info(load_program("professor"))
    assert info.recursive == {"FullProfessor", "Chair"}


def test_immune_not_recursive():
    prog = load_program("immune")
    assert dependency_info(prog).recursive == set()
    assert not is_recursive(prog)


def test_birthday_self_loop():
    prog = load_program("birthday")
    assert dependency_info(prog).recursive == {"Bday"}
    assert is_recursive(prog)


def test_recursive_closed_under_reachability():
    # Down is fed by the Loop cycle, so it is recursive too
    prog = parse_program(
        "Loop(X) :- DIAMONDMINUS[0,1] Loop(X) .\nDown(X) :- Loop(X) ."
    )
    assert dependency_info(prog).recursive == {"Loop", "Down"}


def test_relevant_rules_assistant_professor():
    sub = relevant_rules(load_program("professor"), "AssistantProfessor")
    assert len(sub.rules) == 1
    assert sub.rules[0].head_predicate() == "AssistantProfessor"


def test_relevant_rules_full_professor():
    prog = load_program("professor")
    sub = relevant_rules(prog, "FullProfessor")
    heads = sorted(r.head_predicate() for r in sub.rules)
    # everything feeding FullProfessor, including the Chair cycle; the
    # downstream-only AssociateProfessor<-AssistantProfessor chain is kept
    # because it feeds FullProfessor, so only nothing is dropped here
    assert "FullProfessor" in heads and "Chair" in heads


def test_relevant_rules_absent_predicate():
    prog = parse_program("P(X) :- Q(X) .")
    assert relevant_rules(prog, "Zzz").rules == ()


def test_relevant_rules_always_include_bottom_heads():
    prog = parse_program("P(X) :- Q(X) .\nBOTTOM :- R(X) .")
    sub = relevant_rules(prog, "P")
    assert any(r.head_predicate() is None for r in sub.rules)


def test_relevant_rules_pull_in_bottom_feeders():
    prog = parse_program("R(X) :- S(X) .\nBOTTOM :- R(X) .\nU(X) :- V(X) .")
    sub = relevant_rules(prog, "U")
    heads = sorted(str(r.head_predicate()) for r in sub.rules)
    assert heads == ["None", "R", "U"]


def test_to_dot_marks_recursive_nodes():
    dot = to_dot(dependency_info(load_program("professor")))
    assert '"Chair" [shape=doublecircle]' in dot
    assert '"Lecturer" [shape=ellipse]' in dot


def test_empty_program():
    prog = parse_program("")
    assert not is_recursive(prog)
    assert dependency_info(prog).recursive == set()


def test_propagation_of_the_fixtures():
    assert propagation(load_program("birthday")) == 1
    assert propagation(load_program("professor")) == 1
    assert propagation(load_program("immune")) == 1
    assert propagation(load_program("monitoring")) == 0


@pytest.mark.parametrize("text, direction", [
    ("P(X) :- Q(X) .", 1),
    ("", 1),
    ("BOXPLUS[1,2] P(X) :- P(X) SINCE[0,1] (BOXMINUS[0,1] Q(X)), TOP .", 1),
    ("BOXMINUS[1,1] P(X) :- P(X) .", -1),
    ("P(X) :- P(X) UNTIL[0,1] (DIAMONDPLUS[2,3] Q(X)) .\nBOXMINUS[0,1] Q(X) :- BOXPLUS[0,1] P(X) .", -1),
    # a look-ahead in a nested literal mixes the directions
    ("P(X) :- DIAMONDMINUS[0,1] (DIAMONDPLUS[0,1] Q(X)) .", 0),
    ("BOXPLUS[1,1] P(X) :- DIAMONDPLUS[0,1] P(X) .", 0),
    ("BOXMINUS[1,1] P(X) :- P(X) SINCE[0,1] Q(X) .", 0),
    ("BOXPLUS[1,1] Bday(X) :- Bday(X) .\nParty(X) :- DIAMONDPLUS[0,1] Bday(X) .", 0),
    # inconsistency derived at any time entails every fact
    ("BOXPLUS[1,1] P(X) :- P(X) .\nBOTTOM :- P(X), Q(X) .", 0),
])
def test_propagation_direction(text, direction):
    assert propagation(parse_program(text)) == direction
