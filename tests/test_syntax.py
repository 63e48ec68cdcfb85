"""Parser, printer, safety checking, grounding, and arity checking."""

import pickle
import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from datalogmtl import syntax
from datalogmtl.bench import GeneratorSpec, generate_dataset
from datalogmtl.intervals import Interval, make
from datalogmtl.syntax import (
    BinaryOp,
    Bottom,
    Constant,
    Fact,
    Program,
    Rel,
    RelationalAtom,
    SyntaxFault,
    UnaryOp,
    Variable,
    atom_variables,
    check_arities,
    ground,
    head_parts,
    is_predicate_name,
    is_valid_head,
    nodes,
    operator_nodes,
    parse_dataset,
    parse_fact,
    parse_program,
    print_dataset,
    print_program,
    relational_atoms,
)

from helpers import assert_checked, rand_fact, rand_program


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


@pytest.mark.parametrize(
    "text, message",
    [
        # each fault is reported at the rule's closing `.`
        (
            "P(a) :- Q(a) .\n  H(X) :- DIAMONDPLUS[0,1] Q(Y)\n   .",
            "line 3, column 4: unsafe rule: head variable(s) X not in body",
        ),
        (
            "P(a) :- Q(a) .\nDIAMONDMINUS[0,1] P(X) :- Q(X) .",
            "line 2, column 32: forbidden operator in rule head: DIAMONDMINUS[0,1] P(X)",
        ),
        ("H(X,Z) :- Q(Y) .", "line 1, column 16: unsafe rule: head variable(s) X, Z not in body"),
    ],
    ids=["unsafe", "diamond-head", "two-unsafe"],
)
def test_rule_checks_report_their_position(text, message):
    with pytest.raises(SyntaxFault) as exc:
        parse_program(text)
    assert str(exc.value) == message


def test_parse_forbidden_head_operator():
    with pytest.raises(SyntaxFault):
        parse_program("DIAMONDMINUS[0,1] P(X) :- Q(X) .")


@pytest.mark.parametrize(
    "text, preorder",
    [
        (
            "(P(X) SINCE[0,1] DIAMONDMINUS[1,2] Q(a)) UNTIL[0,3] BOXPLUS[0,1] R(X,Y)",
            ["UNTIL", "SINCE", "P(X)", "DIAMONDMINUS", "Q(a)", "BOXPLUS", "R(X,Y)"],
        ),
        (
            "BOXMINUS[0,1] P(X) SINCE[0,1] (DIAMONDPLUS[0,1] Q(X) UNTIL[0,1] R(X,Y))",
            ["SINCE", "BOXMINUS", "P(X)", "UNTIL", "DIAMONDPLUS", "Q(X)", "R(X,Y)"],
        ),
    ],
)
def test_walk_reads_atoms_in_printed_order_and_operators_outermost_first(text, preorder):
    m = parse_program(f"Out :- {text} .").rules[0].body[0]
    # each node before its operands, a left operand before the right one
    assert [str(n) if isinstance(n, Rel) else n.op for n in nodes(m)] == preorder
    assert [str(a) for a in relational_atoms(m)] == re.findall(r"\w+\([^()]*\)", str(m))
    assert [n.op for n in operator_nodes(m)] == [x for x in preorder if "(" not in x]
    assert atom_variables(m) == {Variable("X"), Variable("Y")}
    assert list(nodes(Bottom())) == [Bottom()] and relational_atoms(Bottom()) == []


def test_head_parts_splits_nested_boxes():
    rule = parse_program("BOXMINUS[1,1] BOXPLUS[0,2] H(X) :- G(X) .").rules[0]
    boxes, base = head_parts(rule.head)
    assert [(b.op, b.interval) for b in boxes] == [("BOXMINUS", make(1, 1)), ("BOXPLUS", make(0, 2))]
    assert base == Rel(RelationalAtom("H", (Variable("X"),)))
    assert rule.head_predicate() == "H" and is_valid_head(rule.head)
    assert head_parts(Bottom()) == ([], Bottom())


def test_is_valid_head_rejects_a_diamond_box():
    atom = Rel(RelationalAtom("H", (Variable("X"),)))
    head = UnaryOp("BOXMINUS", make(1, 1), UnaryOp("DIAMONDPLUS", make(0, 2), atom))
    assert [b.op for b in head_parts(head)[0]] == ["BOXMINUS", "DIAMONDPLUS"]
    assert not is_valid_head(head)
    assert not is_valid_head(UnaryOp("BOXPLUS", make(0, 1), BinaryOp("SINCE", make(0, 1), atom, atom)))
    with pytest.raises(SyntaxFault, match="forbidden operator in rule head"):
        parse_program("BOXMINUS[1,1] DIAMONDPLUS[0,2] H(X) :- G(X) .")


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


@pytest.mark.parametrize(
    "text, value",
    [("3", 3), ("4/2", 2), ("1.0", 1), ("-4/2", -2), ("3/2", Fraction(3, 2)), ("-1.25", Fraction(-5, 4))],
)
def test_rationals_parse_to_canonical_bounds(text, value):
    # integral values are ints, the others Fractions: one form per value
    iv = parse_fact(f"P(a)@[{text},{text}]").interval
    for b in (iv.left, iv.right):
        assert b == value and type(b) is (int if value.denominator == 1 else Fraction)


def test_parse_dataset_basics():
    facts = parse_dataset("NoSympt(james)@[0,14]\n# comment\n\nBday(turing)@[0,0]\n")
    assert facts == [
        Fact(RelationalAtom("NoSympt", (Constant("james"),)), make(0, 14)),
        Fact(RelationalAtom("Bday", (Constant("turing"),)), make(0, 0)),
    ]


@pytest.mark.parametrize("parse", [parse_dataset, parse_fact], ids=["dataset", "fact"])
@pytest.mark.parametrize("text", ["P(X)@[0,1]", "P(a)@[2,1]", "P(a)@[1,1)", "P(a)@(1,1]"])
def test_parser_rejects_non_ground_facts_and_empty_intervals(parse, text):
    # a positioned fault: the parser rejects these, not the Fact record
    with pytest.raises(SyntaxFault) as exc:
        parse(text)
    assert exc.value.line > 0 and exc.value.column > 0


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


def test_fact_lines_skip_the_full_parser(monkeypatch):
    # criterion 8's generator: five unary predicates over 200 constants
    spec = GeneratorSpec(
        predicates=tuple((f"P{i}", 1) for i in range(5)),
        constant_pool=200,
        fact_count=2500,
        endpoint_range=make(0, 2000),
        max_interval_length=Fraction(10),
        granularity=Fraction(1),
        seed=88,
    )
    facts = generate_dataset(spec)
    lines = print_dataset(facts).splitlines()
    text = "".join(f"{line}\n\n# fact {i}\n" for i, line in enumerate(lines))

    def refuse(*_):
        raise AssertionError("the full parser was called")

    monkeypatch.setattr(syntax, "_Parser", refuse)
    assert parse_dataset(text) == facts
    with pytest.raises(AssertionError, match="full parser"):
        parse_dataset("P0(c1)@[0,1]\nP0(c1)@[0,")


def test_is_predicate_name():
    for name in ("P", "p_1", "_x", "inf", "Bday"):
        assert is_predicate_name(name), name
    for name in (1, None, "1", "p q", "", "P(a)", "-inf", "TOP", "BOTTOM", "SINCE", "BOXPLUS"):
        assert not is_predicate_name(name), name


@pytest.mark.parametrize(
    "parse, text, column",
    [
        (parse_dataset, "BOTTOM@[2,3]", 1),
        (parse_dataset, "TOP(a)@[0,1]", 1),
        (parse_dataset, "P(a)@[0,1]\nSINCE(b)@[0,1]", 1),
        (parse_fact, "BOXPLUS(a)@[0,1]", 1),
        (parse_program, "P(X) :- Q(X), UNTIL(X) .", 15),
    ],
)
def test_keywords_are_not_predicates(parse, text, column):
    with pytest.raises(SyntaxFault) as exc:
        parse(text)
    line = text.count("\n") + 1
    assert (exc.value.line, exc.value.column) == (line, column)
    assert "expected predicate name" in str(exc.value)


def test_ground_counts():
    prog = parse_program("P(X) :- Q(X) .")
    assert len(ground(prog, {"a", "b"})) == 2
    prog2 = parse_program("P(X) :- Q(X), R(Y) .")
    assert len(ground(prog2, {"a", "b", "c"})) == 9
    prog3 = parse_program("P(a) :- Q(a) .")
    assert ground(prog3, {"a", "b"}) == set(prog3.rules)


def test_ground_yields_checked_rules():
    # `Rule` checks nothing itself: each ground copy of a checked rule must
    # keep what the parser checked
    rng = random.Random(27)
    for _ in range(200):
        prog = parse_program(print_program(rand_program(rng)))
        for rule in ground(prog, prog.constants() | {"a", "b"}):
            assert_checked(rule)


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
    with pytest.raises(SyntaxFault) as exc:
        parse_program("P :- .")
    assert str(exc.value) == "line 1, column 6: expected a metric atom, got '.'"


# -- Fact value semantics


@pytest.mark.parametrize(
    "text, shown",
    [
        (
            "P(a,b)@[0,1/2)",
            "Fact(atom=RelationalAtom(predicate='P', args=(Constant(name='a'), Constant(name='b'))), "
            "interval=[0,1/2))",
        ),
        ("Q@(-inf,3]", "Fact(atom=RelationalAtom(predicate='Q', args=()), interval=(-inf,3])"),
    ],
)
def test_fact_is_a_value(text, shown):
    fact = parse_fact(text)
    atom, iv = fact.atom, fact.interval
    copy = Fact(
        RelationalAtom(atom.predicate, atom.args),
        Interval(iv.left, iv.right, iv.left_open, iv.right_open),
    )
    assert copy == fact and not copy != fact and copy is not fact
    assert fact != Fact(fact.atom, make(100, 101))
    assert hash(fact) == hash((fact.atom, fact.interval))
    assert repr(fact) == shown
    assert str(fact) == text
    assert pickle.loads(pickle.dumps(fact)) == fact
    # a name that is no field is refused as a field is, not with the
    # TypeError that a frozen slotted dataclass raises on CPython 3.11
    for field in ("atom", "interval", "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(fact, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(fact, field)
    with pytest.raises(FrozenInstanceError):
        fact.extra = 1


def test_fact_is_not_a_tuple():
    # rule evaluation tells a fact from a ("bottom", interval) marker this way
    fact = parse_fact("P(a)@[0,1]")
    assert not isinstance(fact, tuple)
    assert fact != (fact.atom, fact.interval)
