"""Forward-chaining rounds: apply_rules and the materialise loop."""

import random
from fractions import Fraction

import pytest

from datalogmtl import materialisation
from datalogmtl.bench import GeneratorSpec, generate_dataset
from datalogmtl.dense_grid import GridOracle
from datalogmtl.intervals import coalesce, make
from datalogmtl.materialisation import apply_rules, materialise
from datalogmtl.store import FactStore
from datalogmtl.syntax import Fact, ground, parse_dataset, parse_fact, parse_program

from helpers import (
    FIXTURES,
    clip,
    load_dataset,
    load_program,
    rand_bounded_instance,
    rand_bounded_literal,
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


def naive_materialise(program, store, max_rounds=None):
    """Reference loop: every round applies every rule, and the fixpoint is
    a round whose output equals its input."""
    if store.contains_bottom:
        return store, "Inconsistent", 0
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        new = apply_rules(program, store)
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
