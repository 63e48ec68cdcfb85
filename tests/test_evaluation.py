"""Metric-atom semantics: apply_operator, merge_intervals, reverse_head,
rule evaluation, and agreement with the dense-grid oracle."""

import random
from fractions import Fraction

import pytest

from datalogmtl.analysis import instance_granularity, total_reach
from datalogmtl.dense_grid import GridOracle
from datalogmtl.evaluation import (
    apply_operator,
    evaluate_rule,
    merge_intervals,
    reverse_head,
)
from datalogmtl.intervals import POS_INF, coalesce, make, point
from datalogmtl.materialisation import materialise
from datalogmtl.store import FactStore
from datalogmtl.syntax import (
    BinaryOp,
    Bottom,
    Rel,
    RelationalAtom,
    Top,
    UnaryOp,
    ground,
    parse_dataset,
    parse_fact,
    parse_program,
)

from helpers import (
    clip,
    rand_bounded_instance,
    rand_bounded_literal,
    wrap_literals_in_rules,
)


def rel(text):
    return Rel(parse_fact(f"{text}@[0,0]").atom)


def store_of(text):
    return FactStore.from_facts(parse_dataset(text))


def test_box_minus_shrinks_from_left():
    s = store_of("NoSympt(james)@[0,14]")
    got = apply_operator(UnaryOp("BOXMINUS", make(0, 7), rel("NoSympt(james)")), s)
    assert got == [make(7, 14)]


def test_diamond_minus_spreads_a_point():
    s = store_of("Bday(t)@[0,0]")
    got = apply_operator(UnaryOp("DIAMONDMINUS", make(1, 2), rel("Bday(t)")), s)
    assert got == [make(1, 2)]


def test_box_plus_shrinks_from_right():
    s = store_of("P(a)@[3,5]")
    got = apply_operator(UnaryOp("BOXPLUS", make(0, 1), rel("P(a)")), s)
    assert got == [make(3, 4)]


def test_until_with_punctual_witness():
    s = store_of("Q(a)@[0,5]\nR(a)@[4,4]")
    got = apply_operator(BinaryOp("UNTIL", make(0, 2), rel("Q(a)"), rel("R(a)")), s)
    assert got == [make(2, 4)]


def test_top_and_bottom_literals():
    from datalogmtl.intervals import FULL_LINE

    s = store_of("P(a)@[0,1]")
    assert apply_operator(Top(), s) == [FULL_LINE]
    assert apply_operator(Bottom(), s) == []


def test_unbounded_diamond_reaches_infinity():
    s = store_of("P(a)@[3,5]")
    got = apply_operator(
        UnaryOp("DIAMONDMINUS", make(0, POS_INF, False, True), rel("P(a)")), s
    )
    assert len(got) == 1 and got[0].left == 3 and got[0].right is POS_INF


def test_operator_over_coalesced_sublists():
    # the box must see one maximal interval, not two fragments
    s = store_of("P(a)@[0,2]\nP(a)@[2,4]")
    got = apply_operator(UnaryOp("BOXMINUS", make(0, 3), rel("P(a)")), s)
    assert got == [make(3, 4)]


def test_merge_intervals_cases():
    assert merge_intervals([[make(0, 5), make(7, 10)], [make(4, 8)]]) == [
        make(4, 5),
        make(7, 8),
    ]
    one = [make(1, 2), make(4, 5)]
    assert merge_intervals([one]) == one
    assert merge_intervals([one, []]) == []
    assert merge_intervals([]) == []


def test_merge_intervals_draws_no_list_once_the_intersection_is_empty():
    drawn = []

    def lists():
        for lst in ([make(0, 1)], [make(2, 3)], [make(0, 5)]):
            drawn.append(lst)
            yield lst

    assert merge_intervals(lists()) == []
    assert len(drawn) == 2


def test_reverse_head_box_past():
    head = UnaryOp("BOXMINUS", make(0, 1), rel("ExcHeat(d)"))
    [f] = reverse_head(head, [make(2, 3)])
    assert f.atom.predicate == "ExcHeat" and f.interval == make(1, 3)


def test_reverse_head_plain_and_box_future():
    [f] = reverse_head(rel("P(a)"), [make(0, 5)])
    assert f.interval == make(0, 5)
    [f2] = reverse_head(UnaryOp("BOXPLUS", make(1, 1), rel("Bday(t)")), [point(0)])
    assert f2.interval == make(1, 1)


def test_evaluate_rule_immune():
    prog = parse_program("Immune(X) :- BOXMINUS[0,7] NoSympt(X) .")
    out = evaluate_rule(prog.rules[0], store_of("NoSympt(james)@[0,14]"))
    assert [(str(f.atom), f.interval) for f in out] == [("Immune(james)", make(7, 14))]


def test_evaluate_rule_excheat():
    prog = parse_program(
        "BOXMINUS[0,1] ExcHeat(X) :- BOXMINUS[0,1] Temp24(X), DIAMONDMINUS[0,1] Temp41(X) ."
    )
    out = evaluate_rule(prog.rules[0], store_of("Temp24(d)@[0,3]\nTemp41(d)@[2,2]"))
    assert [(str(f.atom), f.interval) for f in out] == [("ExcHeat(d)", make(1, 3))]


def test_evaluate_rule_missing_body_predicate():
    prog = parse_program("P(X) :- Q(X), R(X) .")
    assert evaluate_rule(prog.rules[0], store_of("Q(a)@[0,1]")) == []


@pytest.mark.parametrize("op", ["SINCE", "UNTIL"])
def test_since_until_with_zero_need_no_left_facts(op):
    # with 0 in the interval the literal holds wherever its right operand
    # does, so a left operand without facts must not block the join
    prog = parse_program(f"H(X) :- P(X) {op}[0,1] Q(X) .")
    facts = parse_dataset("Q(a)@[0,0]")
    out = evaluate_rule(prog.rules[0], FactStore.from_facts(facts))
    (rule,) = ground(prog, {"a"})
    want = coalesce(GridOracle(prog, facts).holds_intervals(rule.body[0]))
    assert want == [point(0)]
    assert [(str(f.atom), f.interval) for f in out] == [("H(a)", iv) for iv in want]


@pytest.mark.parametrize(
    "rule, data",
    [
        ("H(X) :- P(X,Y) SINCE[0,1] Q(X) .", "Q(a)@[0,0]"),
        ("H(X) :- P(X,Y) UNTIL[0,1] Q(X) .", "Q(a)@[0,0]"),
        ("H(X,Y) :- P(X,Y) SINCE[0,1] Q(X) .", "Q(a)@[0,0]\nR(b)@[3,3]"),
        # m is named only by the second rule, and H(a,m) feeds it
        ("H(X,Y) :- P(X,Y) SINCE[0,1] Q(X) .\nW(X) :- H(X,m) .", "Q(a)@[0,0]\nR(b)@[3,3]"),
    ],
)
def test_left_only_variables_of_since_until_with_zero_need_no_facts(rule, data):
    # Y occurs only under the left operand, which may lack facts while the
    # literal holds; in the head, Y ranges over every constant of the
    # program and the data
    prog = parse_program(rule)
    facts = parse_dataset(data)
    out = materialise(prog, FactStore.from_facts(facts)).store
    rules = ground(prog, prog.constants() | {a.name for f in facts for a in f.atom.args})
    oracle = GridOracle(prog, facts)
    oracle.materialise(sorted(rules, key=str))
    want = {(str(r.head), iv) for r in rules for iv in coalesce(oracle.holds_intervals(r.head))}
    heads = {r.head_predicate() for r in prog.rules}
    got = {(str(f.atom), f.interval) for f in out.facts() if f.atom.predicate in heads}
    assert want and got == want


def test_a_ground_head_starts_a_new_atom_per_row():
    # every row's run begins at an atom object of its own, so apply_rules
    # tells two runs on one ground key apart
    prog = parse_program("H(a) :- P(X) .")
    out = evaluate_rule(prog.rules[0], store_of("P(b)@[0,1]\nP(c)@[0,1]"))
    assert [(str(f.atom), f.interval) for f in out] == [("H(a)", make(0, 1))] * 2
    assert out[0].atom is not out[1].atom


def test_evaluate_rule_join_across_arguments():
    prog = parse_program("Reach(X,Z) :- Edge(X,Y), Edge(Y,Z) .")
    s = store_of("Edge(a,b)@[0,4]\nEdge(b,c)@[2,6]")
    out = evaluate_rule(prog.rules[0], s)
    assert [(str(f.atom), f.interval) for f in out] == [("Reach(a,c)", make(2, 4))]


# -- dense-grid oracle sanity


def test_oracle_granularity_and_reach():
    prog = parse_program("P(X) :- BOXMINUS[0,1/2] Q(X) .")
    facts = parse_dataset("Q(a)@[0,3/4]")
    assert instance_granularity(prog, facts) == Fraction(1, 4)
    assert total_reach(prog) == Fraction(1, 2)


def test_oracle_matches_simple_box():
    prog = parse_program("Immune(X) :- BOXMINUS[0,7] NoSympt(X) .")
    facts = parse_dataset("NoSympt(james)@[0,14]")
    oracle = GridOracle(prog, facts)
    lit = UnaryOp("BOXMINUS", make(0, 7), rel("NoSympt(james)"))
    assert oracle.holds_intervals(lit) == [make(7, 14)]


def test_random_literals_agree_with_oracle():
    rng = random.Random(5)
    for trial in range(60):
        facts, atoms = rand_bounded_instance(rng)
        lits = [rand_bounded_literal(rng, atoms) for _ in range(3)]
        prog = wrap_literals_in_rules(lits)
        oracle = GridOracle(prog, facts)
        store = FactStore.from_facts(facts)
        win = oracle.window
        for lit in lits:
            got = clip(apply_operator(lit, store), win)
            want = coalesce(oracle.holds_intervals(lit))
            assert got == want, (trial, lit, facts)
