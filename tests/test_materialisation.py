"""Forward-chaining rounds: apply_rules and the materialise loop."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from datalogmtl import materialisation
from datalogmtl.analysis import propagation
from datalogmtl.automata import SearchBudgetExceeded
from datalogmtl.bench import GeneratorSpec, generate_dataset
from datalogmtl.dense_grid import GridOracle
from datalogmtl.intervals import NEG_INF, POS_INF, coalesce, make
from datalogmtl.materialisation import _new_point_bound, apply_rules, materialise
from datalogmtl.pipeline import check_entailment
from datalogmtl.store import FactStore
from datalogmtl.syntax import (
    Bottom,
    Constant,
    Fact,
    Program,
    Rel,
    RelationalAtom,
    Rule,
    Top,
    UnaryOp,
    ground,
    parse_dataset,
    parse_fact,
    parse_program,
)

from helpers import (
    FIXTURES,
    clip,
    load_dataset,
    load_program,
    rand_bounded_instance,
    rand_bounded_literal,
    rand_op_interval,
    wrap_literals_in_rules,
)
from test_acceptance import SCALE_PROGRAM


def store_of(text):
    return FactStore.from_facts(parse_dataset(text))


def test_apply_rules_immune():
    out = apply_rules(load_program("immune"), FactStore.from_facts(load_dataset("immune")))
    assert out.intervals_for(("Immune", ("james",))) == [make(7, 14)]


def test_apply_rules_empty_program():
    s = store_of("P(a)@[0,1]")
    out = apply_rules(parse_program(""), s)
    assert out.equals(s)


def test_apply_rules_bottom_flags_store():
    prog = parse_program("BOTTOM :- P(a) .")
    out = apply_rules(prog, store_of("P(a)@[0,1]"))
    assert out.contains_bottom


def test_apply_rules_reads_round_input_only():
    # the second rule must not see the first rule's output within one round
    prog = parse_program("Q(X) :- P(X) .\nR(X) :- Q(X) .")
    out = apply_rules(prog, store_of("P(a)@[0,1]"))
    assert out.intervals_for(("Q", ("a",))) == [make(0, 1)]
    assert out.intervals_for(("R", ("a",))) == []


def test_materialise_target_entailed():
    prog = load_program("birthday")
    out = materialise(prog, store_of("Bday(t)@[0,0]"), target=parse_fact("Bday(t)@[2,2]"))
    assert out.status == "TargetEntailed" and out.rounds == 2


def test_materialise_fixpoint_immune():
    out = materialise(load_program("immune"), FactStore.from_facts(load_dataset("immune")))
    assert out.status == "Fixpoint" and out.rounds == 2
    # one further round is the identity
    again = apply_rules(load_program("immune"), out.store)
    assert again.equals(out.store)


def test_materialise_round_limit():
    out = materialise(load_program("birthday"), store_of("Bday(t)@[0,0]"), max_rounds=5)
    assert out.status == "RoundLimit" and out.rounds == 5


def test_materialise_inconsistent():
    prog = parse_program("BOTTOM :- DIAMONDMINUS[0,2] P(a) .")
    out = materialise(prog, store_of("P(a)@[0,1]"))
    assert out.status == "Inconsistent"


def test_materialise_target_already_in_store():
    prog = load_program("immune")
    store = store_of("NoSympt(james)@[0,14]")
    out = materialise(prog, store, target=parse_fact("NoSympt(james)@[1,2]"))
    assert out.status == "TargetEntailed" and out.rounds == 0


def test_monotone_growth_across_rounds():
    prog = load_program("professor")
    store = FactStore.from_facts(load_dataset("professor"))
    from datalogmtl.intervals import subset

    prev = store
    for _ in range(4):
        nxt = apply_rules(prog, prev)
        for key, lst in prev.atoms.items():
            for iv in lst:
                assert any(subset(iv, other) for other in nxt.intervals_for(key)), (key, iv)
        prev = nxt


def test_nonrecursive_fixpoint_matches_oracle():
    rng = random.Random(17)
    for trial in range(25):
        facts, atoms = rand_bounded_instance(rng)
        lits = [rand_bounded_literal(rng, atoms, depth=1) for _ in range(2)]
        prog = wrap_literals_in_rules(lits)
        out = materialise(prog, FactStore.from_facts(facts))
        assert out.status == "Fixpoint"
        oracle = GridOracle(prog, facts)
        oracle.materialise(sorted(ground(prog, set()), key=str))
        for i in range(len(lits)):
            key = (f"H{i}", ())
            got = clip(out.store.intervals_for(key), oracle.window)
            want = coalesce(
                oracle.cells_to_intervals(oracle.model.get(key, set()) & set(oracle.window_cells()))
            )
            assert got == want, (trial, lits[i])


def test_boxed_heads_match_oracle():
    # criterion 2's shape with one or two boxes on each head: the heads
    # cover the box regions of the cells where their bodies hold
    rng = random.Random(7)
    for trial in range(100):
        facts, atoms = rand_bounded_instance(rng)
        rules = []
        for i in range(2):
            head = Rel(RelationalAtom(f"H{i}", ()))
            for _ in range(rng.randint(1, 2)):
                head = UnaryOp(rng.choice(("BOXMINUS", "BOXPLUS")), rand_op_interval(rng, hi=4), head)
            rules.append(Rule(head, (rand_bounded_literal(rng, atoms),)))
        prog = Program(tuple(rules))
        out = materialise(prog, FactStore.from_facts(facts))
        assert out.status == "Fixpoint"
        oracle = GridOracle(prog, facts)
        oracle.materialise(sorted(ground(prog, set()), key=str))
        for i, rule in enumerate(rules):
            key = (f"H{i}", ())
            got = clip(out.store.intervals_for(key), oracle.window)
            want = coalesce(
                oracle.cells_to_intervals(oracle.model.get(key, set()) & set(oracle.window_cells()))
            )
            assert got == want, (trial, str(rule))


def test_bottom_heads_and_top_bodies_match_oracle():
    # one BOTTOM head and one TOP body literal: the first round derives every
    # BOTTOM interval, and H0 with it, since no body reads a head predicate
    rng = random.Random(11)
    for trial in range(100):
        facts, atoms = rand_bounded_instance(rng)
        prog = Program((
            Rule(Bottom(), (rand_bounded_literal(rng, atoms),)),
            Rule(Rel(RelationalAtom("H0", ())), (Top(), rand_bounded_literal(rng, atoms))),
        ))
        out = materialise(prog, FactStore.from_facts(facts))
        oracle = GridOracle(prog, facts)
        oracle.materialise(sorted(ground(prog, set()), key=str))
        window = set(oracle.window_cells())

        def oracle_cells(key):
            return oracle.cells_to_intervals(oracle.model.get(key, set()) & window)

        bottom = oracle_cells(("#bottom#", ()))
        assert clip(out.store.bottom_intervals, oracle.window) == bottom, (trial, prog)
        assert (out.status == "Inconsistent") == bool(bottom), (trial, prog)
        got = clip(out.store.intervals_for(("H0", ())), oracle.window)
        assert got == oracle_cells(("H0", ())), (trial, prog)


def clip_store(store, horizon):
    """The store with every atom's intervals clipped to `horizon`; BOTTOM
    intervals are kept whole."""
    out = FactStore.from_intervals({key: clip(lst, horizon) for key, lst in store.atoms.items()})
    out.bottom_intervals = list(store.bottom_intervals)
    return out


def naive_materialise(program, store, max_rounds=None, horizon=None):
    """Reference loop: every round applies every rule, and the fixpoint is
    a round whose output equals its input.  With a `horizon`, each round's
    output is clipped to it."""
    if store.contains_bottom:
        return store, "Inconsistent", 0
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        new = apply_rules(program, store)
        if horizon is not None:
            new = clip_store(new, horizon)
        rounds += 1
        if new.contains_bottom:
            return new, "Inconsistent", rounds
        if new.equals(store):
            return new, "Fixpoint", rounds
        store = new
    return store, "RoundLimit", rounds


def criterion_6_instances():
    """The 200 (program, facts) instances of acceptance criterion 6, drawn
    from the same random stream."""
    rng = random.Random(606)
    for _ in range(200):
        facts, atoms = rand_bounded_instance(rng)
        facts = [
            Fact(f.atom, make(f.interval.left % 8, f.interval.left % 8 + rng.randint(0, 3)))
            for f in facts
        ]
        prog = wrap_literals_in_rules([rand_bounded_literal(rng, atoms, depth=1) for _ in range(2)])
        yield prog, facts
        # criterion 6 draws its query from the fixpoint next; draw alike
        fixpoint, _, _ = naive_materialise(prog, FactStore.from_facts(facts))
        if rng.random() < 0.5:
            rng.choice(fixpoint.atoms[rng.choice(sorted(fixpoint.atoms))])
        else:
            rng.choice(atoms)
            rng.randint(0, 10)
            rng.randint(0, 2)


def fixture_and_criterion_6_instances():
    names = sorted(p.stem for p in FIXTURES.glob("*.dmtl"))
    for name in names:
        yield load_program(name), load_dataset(name)
    yield from criterion_6_instances()


@pytest.mark.parametrize("max_rounds", [1, 2, 3, 4, 5])
def test_delta_rounds_match_naive_rounds(max_rounds):
    for program, facts in fixture_and_criterion_6_instances():
        store = FactStore.from_facts(facts)
        out = materialise(program, store, max_rounds=max_rounds)
        want, status, rounds = naive_materialise(program, store, max_rounds)
        assert (out.status, out.rounds) == (status, rounds), program
        assert out.store.equals(want), program


def test_scale_program_round_2_evaluates_no_rule(monkeypatch):
    # SCALE_PROGRAM's heads feed no body, so round 2 proves the fixpoint
    # without evaluating a rule
    spec = GeneratorSpec(
        predicates=tuple((f"P{i}", 1) for i in range(5)),
        constant_pool=10,
        fact_count=500,
        endpoint_range=make(0, 200),
        max_interval_length=Fraction(10),
        granularity=Fraction(1),
        seed=88,
    )
    calls_per_round = []
    real_apply, real_evaluate = materialisation.apply_rules, materialisation.evaluate_rule

    def counting_apply(*args):
        calls_per_round.append(0)
        return real_apply(*args)

    def counting_evaluate(rule, store):
        calls_per_round[-1] += 1
        return real_evaluate(rule, store)

    monkeypatch.setattr(materialisation, "apply_rules", counting_apply)
    monkeypatch.setattr(materialisation, "evaluate_rule", counting_evaluate)
    out = materialise(parse_program(SCALE_PROGRAM), FactStore.from_facts(generate_dataset(spec)))
    assert out.status == "Fixpoint" and out.rounds == 2
    assert calls_per_round == [5, 0]


# ---------------------------------------------------------------- the stop


@pytest.mark.parametrize("old, new, first, last", [
    ("", "[2,3]", 2, 3),
    ("[0,1]", "[0,3]", 1, 3),
    ("[0,1]", "[0,1] [4,5]", 4, 5),
    ("[4,5]", "[0,1] [4,5]", 0, 1),
    ("[2,3]", "[1,4]", 1, 4),
    ("(2,3]", "[2,3]", 2, 2),
    ("[0,1] [3,4] [8,9]", "[0,4] [8,9]", 1, 3),
    ("[0,1] [8,9]", "[0,1] [5,6] [8,+inf)", 5, POS_INF),
    ("[5,5]", "(-inf,5]", NEG_INF, 5),
])
def test_new_point_bound(old, new, first, last):
    def parse(text):
        return FactStore.from_facts(
            parse_dataset("".join(f"P@{iv}\n" for iv in text.split()))
        ).intervals_for(("P", ()))

    assert _new_point_bound(parse(old), parse(new), 1) == first
    assert _new_point_bound(parse(old), parse(new), -1) == last


def test_stop_ends_forward_and_backward_rounds():
    professor = materialise(
        load_program("professor"), FactStore.from_facts(load_dataset("professor")),
        max_rounds=1000, target=parse_fact("FullProfessor(a)@[0,1]"),
    )
    assert (professor.status, professor.rounds) == ("OutOfReach", 3)
    backward = parse_program("BOXMINUS[1,1] Bday(X) :- Bday(X) .")
    # round k adds the point -k, which is past -7/2 from round 4 on
    for target, status, rounds in (("Bday(a)@[1/2,1/2]", "OutOfReach", 1),
                                   ("Bday(a)@[-7/2,-7/2]", "OutOfReach", 4),
                                   ("Bday(a)@[-5,-5]", "TargetEntailed", 5)):
        out = materialise(backward, store_of("Bday(a)@[0,0]"), max_rounds=1000,
                          target=parse_fact(target))
        assert (out.status, out.rounds) == (status, rounds)


FORWARD_TICKS = "BOXPLUS[1,1] Bday(X) :- Bday(X) ."
BACKWARD_TICKS = "BOXMINUS[1,1] Bday(X) :- Bday(X) ."


@pytest.mark.parametrize("program, data, target, direction, status, rounds", [
    # round k adds the point k (-k); the first target point the store does
    # not cover is 3 (-3), or just after 2 (-2) for [2,5] once 2 is derived
    (FORWARD_TICKS, "Bday(a)@[0,0]", "Bday(a)@[3,+inf)", 1, "OutOfReach", 4),
    (BACKWARD_TICKS, "Bday(a)@[0,0]", "Bday(a)@(-inf,-3]", -1, "OutOfReach", 4),
    (FORWARD_TICKS, "Bday(a)@[0,0]", "Bday(a)@[2,5]", 1, "OutOfReach", 3),
    (BACKWARD_TICKS, "Bday(a)@[0,0]", "Bday(a)@[-5,-2]", -1, "OutOfReach", 3),
    # new points past the target's start still reach its uncovered part
    ("BOXPLUS[1,1] P(X) :- P(X) .", "P(a)@[0,1]", "P(a)@[0,3]", 1, "TargetEntailed", 2),
    ("BOXMINUS[1,1] P(X) :- P(X) .", "P(a)@[-1,0]", "P(a)@[-3,0]", -1, "TargetEntailed", 2),
], ids=["forward-unbounded", "backward-unbounded", "forward-bounded", "backward-bounded",
        "forward-entailed", "backward-entailed"])
def test_stop_reads_the_first_uncovered_target_point(program, data, target, direction, status, rounds):
    assert propagation(parse_program(program)) == direction
    out = materialise(parse_program(program), store_of(data), max_rounds=1000,
                      target=parse_fact(target))
    assert (out.status, out.rounds) == (status, rounds)


def test_materialise_without_a_direction_never_checks_the_stop(monkeypatch):
    """A program that propagates both ways has no direction to stop in:
    birthday's forward head box plus a backward body diamond."""
    def fail(*args):
        raise AssertionError("stop checked")

    monkeypatch.setattr(materialisation, "_out_of_reach", fail)
    monkeypatch.setattr(materialisation, "_new_point_bound", fail)
    program = Program((*load_program("birthday").rules,
                       *parse_program("Party(X) :- DIAMONDPLUS[0,1] Bday(X) .").rules))
    assert propagation(program) == 0
    out = materialise(program, store_of("Bday(a)@[0,0]"), max_rounds=5,
                      target=parse_fact("Bday(a)@[1/2,1/2]"))
    assert (out.status, out.rounds) == ("RoundLimit", 5)


def assert_stop_is_sound(program, store, target, max_rounds=30):
    """Materialise with the stop; when it fires, 200 more rounds without a
    target, so without the stop, entail neither the target nor BOTTOM:
    rounds only add facts.  Returns whether it fired."""
    out = materialise(program, store, max_rounds=max_rounds, target=target)
    if out.status != "OutOfReach":
        return False
    more = materialise(program, out.store, max_rounds=200).store
    assert not more.entails_fact(target) and not more.contains_bottom, (program, target)
    return True


def test_stop_is_sound_on_the_fixtures_and_criterion_6():
    fired = 0
    for program, facts in fixture_and_criterion_6_instances():
        if not propagation(program):
            continue
        store = FactStore.from_facts(facts)
        # the data's keys and those the first rounds derive
        keys = materialise(program, store, max_rounds=3).store.atoms
        for pred, args in sorted(keys):
            atom = RelationalAtom(pred, tuple(Constant(c) for c in args))
            for t in (-1, 2, 5, 9):
                fired += assert_stop_is_sound(program, store, Fact(atom, make(t, t + 1)))
    assert fired > 100


_ONE_WAY_OPS = {1: ("DIAMONDMINUS", "BOXMINUS", "SINCE", "BOXPLUS"),
                -1: ("DIAMONDPLUS", "BOXPLUS", "UNTIL", "BOXMINUS")}


@st.composite
def one_way_instances(draw):
    """A random recursive program that propagates one way, a small dataset
    over P, Q, R and constants a, b, and a punctual or short target."""
    direction = draw(st.sampled_from((1, -1)))
    diamond, box, binary, head_box = _ONE_WAY_OPS[direction]

    def interval():
        a = draw(st.integers(0, 3))
        b = draw(st.integers(a, a + 2))
        return f"[{a},{b}]"

    def atom():
        return f"{draw(st.sampled_from('PQR'))}(X)"

    def literal(depth):
        kind = draw(st.integers(0, 3 if depth else 0))
        if kind == 0:
            return atom()
        if kind == 3:
            return f"({literal(depth - 1)}) {binary}{interval()} ({literal(depth - 1)})"
        return f"{(diamond, box)[kind - 1]}{interval()} ({literal(depth - 1)})"

    rules = []
    for _ in range(draw(st.integers(1, 3))):
        body = ", ".join(literal(1) for _ in range(draw(st.integers(1, 2))))
        head = atom()
        if draw(st.booleans()):
            head = f"{head_box}{interval()} {head}"
        rules.append(f"{head} :- {body} .")
    program = parse_program("\n".join(rules))
    assert propagation(program) in (direction, 1)  # no operator counts as forward
    facts = []
    ends = []
    for _ in range(draw(st.integers(1, 3))):
        left = draw(st.integers(0, 8))
        ends += [left, left + draw(st.integers(0, 2))]
        facts.append(f"{draw(st.sampled_from('PQR'))}({draw(st.sampled_from('ab'))})"
                     f"@[{left},{ends[-1]}]")
    # near the data, where a stop that fires one round early shows
    t = draw(st.sampled_from(ends)) + direction * draw(st.integers(-2, 4))
    target = parse_fact(f"{draw(st.sampled_from('PQR'))}({draw(st.sampled_from('ab'))})"
                        f"@[{t},{t + draw(st.integers(0, 1))}]")
    return program, store_of("\n".join(facts)), target


# a round's new point at the target's end, which the next round carries to
# the target's key: the stop must not fire one round early
@example((parse_program("R(X) :- Q(X) .\nP(X) :- R(X) ."), store_of("Q(a)@[2,4]"),
          parse_fact("P(a)@[2,2]")))
@example((parse_program("R(X) :- DIAMONDPLUS[0,0] Q(X) .\nP(X) :- R(X) ."),
          store_of("Q(a)@[2,4]"), parse_fact("P(a)@[4,4]")))
@given(one_way_instances())
@settings(max_examples=150, deadline=None)
def test_stop_is_sound_on_one_way_programs(instance):
    assert_stop_is_sound(*instance)


# rules beside a one-way program: ground heads, boxed ones, a BOTTOM head,
# a SINCE from 0 that fires on any P fact longer than a point, and an open
# head variable whose rule names no constant while another rule names m, so
# materialise widens the domain on a snapshot
_CALLER_RULES = (
    "P(a) :- Q(X) .",
    "BOXMINUS[0,1] R(b) :- P(X), DIAMONDMINUS[0,2] Q(X) .",
    "BOXPLUS[1,2] Q(a) :- R(X) SINCE[0,1] P(X) .",
    "U(X) :- P(X) SINCE[0,1] P(X) .",
    "S(X,Y) :- T(X,Y) SINCE[0,1] Q(X) .\nW(X) :- S(X,m) .",
    "BOTTOM :- DIAMONDMINUS[0,1] P(X) .",
)


@st.composite
def caller_instances(draw):
    """A one-way instance (`one_way_instances`) with up to three rules of
    `_CALLER_RULES` added, and a store that may hold BOTTOM intervals and a
    domain of its own."""
    program, store, target = draw(one_way_instances())
    extra = draw(st.lists(st.sampled_from(_CALLER_RULES), max_size=3, unique=True))
    program = parse_program("\n".join([str(program), *extra]))
    if draw(st.booleans()):
        left = draw(st.integers(0, 8))
        store.mark_bottom(make(left, left + draw(st.integers(0, 2))))
    store.domain = frozenset(draw(st.sets(st.sampled_from("ak"))))
    return program, store, target


# a query whose automata search runs out of states in both modes
@example((parse_program("\n".join(["R(X) :- DIAMONDPLUS[3,5] P(X) .", "P(a) :- Q(X) .",
                                    _CALLER_RULES[2], _CALLER_RULES[4]])),
          store_of("P(b)@[0,1]"), parse_fact("P(b)@[3,3]")), 1)
@given(caller_instances(), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_rounds_leave_the_callers_store_unchanged(instance, max_rounds):
    # snapshots and operator results share the stored lists, so a call that
    # wrote one in place would change the caller's store; an automata search
    # that runs out of states must leave it unchanged too
    program, store, target = instance
    before = copy.deepcopy(store)
    calls = (
        lambda: apply_rules(program, store),
        lambda: apply_rules(program, store, horizon=make(0, 6)),
        lambda: materialise(program, store, max_rounds=max_rounds, target=target),
        lambda: materialise(program, store, max_rounds=max_rounds, horizon=make(-2, 10)),
        lambda: check_entailment(program, store, target, sequential=True, round_budget=max_rounds),
        lambda: check_entailment(program, store, target, round_budget=max_rounds),
    )
    for call in calls:
        try:
            call()
        except SearchBudgetExceeded:
            pass
        assert store.dump() == before.dump()
        assert store.bottom_intervals == before.bottom_intervals
        assert store.domain == before.domain
        assert store.atoms == before.atoms
        assert (store.by_predicate, store.arg_index) == (before.by_predicate, before.arg_index)
