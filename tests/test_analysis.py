"""Dependency graph, recursive predicates, and relevant subprograms."""

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


PREDICATES = ["P0", "P1", "P2", "P3", "P4", "P5"]

random_programs = st.lists(
    st.tuples(
        st.sampled_from([*PREDICATES, "BOTTOM"]),
        st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=3),
    ),
    max_size=10,
).map(lambda rules: parse_program("".join(
    f"{'BOTTOM' if head == 'BOTTOM' else head + '(X)'} :- {', '.join(b + '(X)' for b in body)} .\n"
    for head, body in rules
)))


@given(random_programs)
@settings(max_examples=300, deadline=None)
def test_analysis_matches_networkx(nx, prog):
    # the networkx implementation this module replaced, as the reference
    g = nx.DiGraph()
    g.add_nodes_from(prog.predicates())
    for rule in prog.rules:
        if rule.head_predicate() is not None:
            g.add_edges_from((pred, rule.head_predicate()) for pred in rule.body_predicates())
    sccs = [set(c) for c in nx.strongly_connected_components(g)]
    on_cycle = {v for c in sccs for v in c if len(c) > 1 or g.has_edge(v, v)}
    info = dependency_info(prog)
    assert info.recursive == on_cycle.union(*(nx.descendants(g, v) for v in on_cycle))
    assert sorted(map(sorted, info.sccs)) == sorted(map(sorted, sccs))
    # sinks first: an edge never leads to a later component
    place = {v: i for i, comp in enumerate(info.sccs) for v in comp}
    assert all(place[b] <= place[a] for a, b in g.edges)
    for predicate in [*PREDICATES, "Zzz"]:
        kept = {None, predicate}
        targets = set().union(*(r.body_predicates() for r in prog.rules if r.head_predicate() in kept))
        kept |= targets.union(*(nx.ancestors(g, t) for t in targets))
        assert relevant_rules(prog, predicate).rules == tuple(
            r for r in prog.rules if r.head_predicate() in kept
        )
    dot = [f'  "{v}" [shape={"doublecircle" if v in info.recursive else "ellipse"}];' for v in sorted(g.nodes)]
    dot += [f'  "{a}" -> "{b}";' for a, b in sorted(g.edges)]
    assert to_dot(info) == "\n".join(["digraph dependencies {", *dot, "}"]) + "\n"
