"""Parser, printer, safety checking, grounding, and arity checking."""

import random

import pytest

from datalogmtl.intervals import make
from datalogmtl.syntax import (
    BinaryOp,
    Bottom,
    Constant,
    Fact,
    Program,
    Rel,
    RelationalAtom,
    Rule,
    SyntaxFault,
    UnaryOp,
    Variable,
    check_arities,
    ground,
    is_predicate_name,
    parse_dataset,
    parse_fact,
    parse_program,
    print_dataset,
    print_program,
)

from helpers import rand_fact, rand_program


def test_parse_simple_rule():
    prog = parse_program("Immune(X) :- BOXMINUS[0,7] NoSympt(X) .")
    assert len(prog.rules) == 1
    rule = prog.rules[0]
    assert rule.head == Rel(RelationalAtom("Immune", (Variable("X"),)))
    assert rule.body == (
        UnaryOp("BOXMINUS", make(0, 7), Rel(RelationalAtom("NoSympt", (Variable("X"),)))),
    )


def test_parse_box_head():
    prog = parse_program(
        "BOXMINUS[0,1] ExcHeat(X) :- BOXMINUS[0,1] Temp24(X), DIAMONDMINUS[0,1] Temp41(X) ."
    )
    rule = prog.rules[0]
    assert isinstance(rule.head, UnaryOp) and rule.head.op == "BOXMINUS"
    assert len(rule.body) == 2


def test_parse_unsafe_rule_rejected():
    with pytest.raises(SyntaxFault):
        parse_program("P(X) :- DIAMONDPLUS[0,1] Q(Y) .")


def test_parse_forbidden_head_operator():
    with pytest.raises(SyntaxFault):
        parse_program("DIAMONDMINUS[0,1] P(X) :- Q(X) .")


def test_parse_negative_operator_bound_rejected():
    with pytest.raises(SyntaxFault):
        parse_program("P(X) :- BOXMINUS[-1,2] Q(X) .")


def test_parse_since_infix():
    prog = parse_program("P(X) :- Q(X) SINCE[1,2] R(X) .")
    body = prog.rules[0].body[0]
    assert isinstance(body, BinaryOp) and body.op == "SINCE"
    assert body.interval == make(1, 2)


def test_parse_bottom_head_and_top_body():
    prog = parse_program("BOTTOM :- P(X), TOP .")
    assert isinstance(prog.rules[0].head, Bottom)


def test_parse_rationals_and_infinity():
    prog = parse_program("P(X) :- BOXPLUS[1/2,3.25) Q(X), DIAMONDPLUS[0,+inf) Q(X) .")
    b1, b2 = prog.rules[0].body
    assert b1.interval == make("1/2", "13/4", False, True)
    assert b2.interval.right_open


def test_parse_dataset_basics():
    facts = parse_dataset("NoSympt(james)@[0,14]\n# comment\n\nBday(turing)@[0,0]\n")
    assert facts == [
        Fact(RelationalAtom("NoSympt", (Constant("james"),)), make(0, 14)),
        Fact(RelationalAtom("Bday", (Constant("turing"),)), make(0, 0)),
    ]


def test_parse_dataset_rejects_variables():
    with pytest.raises(SyntaxFault):
        parse_dataset("P(X)@[0,1]")


def test_parse_dataset_rejects_empty_interval():
    with pytest.raises(SyntaxFault):
        parse_dataset("P(a)@[2,1]")


def test_parse_fact_negative_endpoint():
    f = parse_fact("P(a)@[-3,-1/2]")
    assert f.interval == make(-3, "-1/2")


def test_parse_syntax_error_reports_position():
    with pytest.raises(SyntaxFault) as exc:
        parse_program("P(X) :- Q(X)")  # missing terminator
    assert exc.value.line >= 1


@pytest.mark.parametrize(
    "parse, text, position",
    [
        (parse_fact, "P(a)@[0,1/0]", "line 1, column 9"),
        (parse_fact, "P(a)@[1.5/2,3]", "line 1, column 7"),
        (parse_dataset, "P(a)@[0,1]\nP(a)@[-1/0,1]\n", "line 2, column 8"),
        (parse_program, "P(X) :-\n  DIAMONDMINUS[0,2/0] Q(X) .", "line 2, column 18"),
        (parse_program, "P(X) :- Q(X) SINCE(1.5/2,3] R(X) .", "line 1, column 20"),
    ],
)
def test_malformed_rational_is_a_positioned_fault(parse, text, position):
    with pytest.raises(SyntaxFault, match="not a rational number") as exc:
        parse(text)
    assert position in str(exc.value)


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("P(a)@[0,1]\nP(b)@[0,x]", 2, 9, "expected a number, got 'x'"),
        ("P(a)@[0,1]\n\n  P(b)@[0,1] x\n", 3, 14, "trailing input after fact"),
    ],
)
def test_dataset_faults_carry_their_dataset_position(text, line, column, message):
    with pytest.raises(SyntaxFault) as exc:
        parse_dataset(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"line {line}, column {column}: {message}"


def test_is_predicate_name():
    for name in ("P", "p_1", "_x", "inf", "Bday"):
        assert is_predicate_name(name), name
    for name in (1, None, "1", "p q", "", "P(a)", "-inf", "TOP", "BOTTOM", "SINCE", "BOXPLUS"):
        assert not is_predicate_name(name), name


def test_ground_counts():
    prog = parse_program("P(X) :- Q(X) .")
    assert len(ground(prog, {"a", "b"})) == 2
    prog2 = parse_program("P(X) :- Q(X), R(Y) .")
    assert len(ground(prog2, {"a", "b", "c"})) == 9
    prog3 = parse_program("P(a) :- Q(a) .")
    assert ground(prog3, {"a", "b"}) == set(prog3.rules)


def test_check_arities_conflict():
    prog = parse_program("P(X) :- Q(X) .")
    facts = parse_dataset("Q(a,b)@[0,1]")
    with pytest.raises(SyntaxFault):
        check_arities(prog, facts)
    check_arities(prog, parse_dataset("Q(a)@[0,1]"))


def test_print_parse_round_trip_fixed():
    text = (
        "BOXMINUS[0,1] ExcHeat(X) :- BOXMINUS[0,1] Temp24(X), DIAMONDMINUS[0,1] Temp41(X) .\n"
        "P(X) :- (Q(X) SINCE[1,2] R(X)), DIAMONDPLUS(0,+inf) Q(X) ."
    )
    prog = parse_program(text)
    assert parse_program(print_program(prog)) == prog


def test_round_trip_random_programs_and_facts():
    rng = random.Random(7)
    for _ in range(100):
        prog = rand_program(rng)
        assert parse_program(print_program(prog)) == prog
        facts = [rand_fact(rng) for _ in range(3)]
        assert parse_dataset(print_dataset(facts)) == facts


def test_rule_str_is_parseable():
    rng = random.Random(11)
    for _ in range(50):
        prog = rand_program(rng, max_rules=1)
        assert parse_program(str(prog.rules[0])).rules[0] == prog.rules[0]


def test_empty_body_rejected():
    with pytest.raises(SyntaxFault):
        Rule(Rel(RelationalAtom("P", ())), ())
