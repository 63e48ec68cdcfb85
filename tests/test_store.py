"""Coalesced, indexed fact store: insertion, entailment lookup, pattern
matching, equality, and invariants."""

import itertools
import random
from fractions import Fraction

import pytest

from datalogmtl.bench import GeneratorSpec, generate_dataset
from datalogmtl.intervals import make, normalize, point
from datalogmtl.materialisation import materialise
from datalogmtl.store import FactStore
from datalogmtl.syntax import (
    Fact,
    parse_dataset,
    parse_fact,
    print_dataset,
)

from helpers import load_dataset, load_program, rand_fact


def fact(text):
    return parse_fact(text)


def insert_fact(s, f):
    return s.insert_intervals(f.atom.key(), [f.interval])


def test_insert_disjoint():
    s = FactStore.from_facts([fact("P(a)@[3,5]")])
    assert insert_fact(s, fact("P(a)@[0,2]"))
    assert s.intervals_for(("P", ("a",))) == [make(0, 2), make(3, 5)]


def test_insert_chain_coalesces():
    s = FactStore.from_facts([fact("P(a)@[0,2]"), fact("P(a)@[3,5]")])
    assert insert_fact(s, fact("P(a)@[2,3]"))
    assert s.intervals_for(("P", ("a",))) == [make(0, 5)]


def test_insert_covered_is_noop():
    s = FactStore.from_facts([fact("P(a)@[0,5]")])
    before = s.intervals_for(("P", ("a",)))
    assert not insert_fact(s, fact("P(a)@[1,2]"))
    assert s.intervals_for(("P", ("a",))) == before


def test_entails_fact():
    s = FactStore.from_facts([fact("P(a)@[0,5]")])
    assert s.entails_fact(fact("P(a)@[1,3]"))
    assert not s.entails_fact(fact("P(b)@[1,3]"))
    s2 = FactStore.from_facts([fact("P(a)@[0,1]"), fact("P(a)@[2,5]")])
    assert not s2.entails_fact(fact("P(a)@[1,2]"))
    assert not FactStore().entails_fact(fact("P(a)@[0,1]"))


# join patterns give a slot number or a constant name per argument; rows
# give a constant name per slot, None while it is open


def test_match_with_bound_argument():
    s = FactStore.from_facts([fact("edge(a,b)@[0,1]"), fact("edge(a,c)@[2,3]"),
                              fact("edge(b,c)@[4,5]")])
    results = sorted(
        (y, s.intervals_for(("edge", ("a", y)))[0]) for [y] in s.join("edge", ("a", 0), [None])
    )
    assert results == [("b", make(0, 1)), ("c", make(2, 3))]


def test_match_fully_bound():
    s = FactStore.from_facts([fact("edge(a,b)@[0,1]")])
    row = []
    out = list(s.join("edge", ("a", "b"), row))
    assert out == [[]] and out[0] is row
    assert list(s.join("edge", ("a", "c"), row)) == []


def test_match_absent_predicate():
    assert list(FactStore().join("q", (0,), [None])) == []


def test_match_respects_partial_substitution():
    s = FactStore.from_facts([fact("edge(a,b)@[0,1]"), fact("edge(a,c)@[2,3]")])
    # slot 0 is X, slot 1 is Y, bound to c
    out = list(s.join("edge", (0, 1), [None, "c"]))
    assert out == [["a", "c"]]


def test_match_rejects_a_repeated_variable_with_two_values():
    s = FactStore.from_facts(parse_dataset(
        "P(a,a)@[0,1]\nP(a,b)@[0,1]\nP(b,b)@[0,1]\nQ(a,b,a)@[0,1]\nQ(a,b,b)@[0,1]"
    ))
    # slot 0 is X, slot 1 is Y
    assert list(s.join("P", (0, 0), [None, None])) == [["a", None], ["b", None]]
    assert list(s.join("Q", (0, "b", 0), [None])) == [["a"]]
    assert list(s.join("P", (0, 1), ["a", None])) == [["a", "a"], ["a", "b"]]
    # the input row is left as it was
    row = [None, None]
    list(s.join("P", (0, 1), row))
    assert row == [None, None]


def test_equality_order_independent():
    facts = parse_dataset("P(a)@[0,2]\nP(a)@[2,4]\nQ(b)@[1,1]")
    s1 = FactStore.from_facts(facts)
    s2 = FactStore.from_facts(list(reversed(facts)))
    assert s1.equals(s2) and s2.equals(s1)


def test_equality_detects_punctual_difference():
    s1 = FactStore.from_facts([fact("P(a)@[0,2]")])
    s2 = FactStore.from_facts([fact("P(a)@[0,2]"), fact("P(a)@[3,3]")])
    assert not s1.equals(s2)
    assert FactStore().equals(FactStore())


def test_bottom_marking():
    s = FactStore()
    assert not s.contains_bottom
    s.mark_bottom(point(3))
    assert s.contains_bottom
    s.mark_bottom(make(3, 4, True, False))
    s.mark_bottom(point(3))
    assert s.bottom_intervals == [make(3, 4)]


def test_from_intervals_coalesces_and_skips_empty_keys():
    s = FactStore.from_intervals(
        {("P", ("a",)): [make(2, 3), make(0, 2)], ("Q", ("a",)): [make(1, 0)]}
    )
    assert s.intervals_for(("P", ("a",))) == [make(0, 3)]
    assert ("Q", ("a",)) not in s.atoms
    s.check_invariants()


def test_from_facts_merges_atom_objects_that_share_a_key():
    # two parse_fact calls give two atom objects with one key; their
    # intervals overlap and come out of order, in every order
    first, second = parse_fact("P(a)@[5,7]"), parse_fact("P(a)@[0,2]")
    assert first.atom is not second.atom and first.atom.key() == second.atom.key()
    facts = [
        first,
        second,
        Fact(first.atom, make(1, 3)),
        Fact(second.atom, make(6, 9, right_open=True)),
        Fact(first.atom, make(9, 9)),
        fact("Q(a)@[0,1]"),
    ]
    expected = {
        ("P", ("a",)): [make(0, 3), make(5, 9)],
        ("Q", ("a",)): [make(0, 1)],
    }
    for order in itertools.permutations(facts):
        s = FactStore.from_facts(order)
        s.check_invariants()
        assert s.atoms == expected
        by_key = {}
        for f in order:
            by_key.setdefault(f.atom.key(), []).append(f.interval)
        assert s.equals(FactStore.from_intervals(by_key))


def test_from_facts_reads_equal_left_ends_in_either_bracket_order():
    # each key's list is sorted by its left end only, so intervals that
    # start at one point keep the order they come in; every order of these,
    # open before closed as well as closed before open, gives one store
    first, second = parse_fact("P(a)@(0,2]"), parse_fact("P(a)@[0,0]")
    facts = [
        first,
        second,
        Fact(first.atom, make(Fraction(5, 2), 3, left_open=True)),
        Fact(second.atom, make(Fraction(5, 2), Fraction(5, 2))),
        Fact(first.atom, make(4, 6, left_open=True, right_open=True)),
        Fact(second.atom, make(4, 5)),
    ]
    expected = [make(0, 2), make(Fraction(5, 2), 3), make(4, 6, right_open=True)]
    for order in itertools.permutations(facts):
        s = FactStore.from_facts(order)
        s.check_invariants()
        assert s.atoms == {("P", ("a",)): expected}
        assert s.equals(FactStore.from_intervals({("P", ("a",)): [f.interval for f in order]}))


def test_invariants_reject_an_integral_fraction_bound():
    s = FactStore.from_intervals({("P", ("a",)): [make(0, 2)]})
    s.check_invariants()
    # the same point set with the bound 2 held as a Fraction
    s.atoms[("P", ("a",))] = [normalize(0, Fraction(2), False, False)]
    with pytest.raises(AssertionError, match="non-canonical bound"):
        s.check_invariants()


def test_snapshot_isolation():
    s = FactStore.from_facts([fact("P(a)@[0,1]")])
    snap = s.snapshot()
    insert_fact(s, fact("P(a)@[5,6]"))
    assert snap.intervals_for(("P", ("a",))) == [make(0, 1)]
    assert s.intervals_for(("P", ("a",))) == [make(0, 1), make(5, 6)]


def test_invariants_after_random_inserts():
    rng = random.Random(3)
    for trial in range(20):
        s = FactStore()
        inserted = []
        for _ in range(30):
            f = rand_fact(rng)
            insert_fact(s, f)
            inserted.append(f)
        s.check_invariants()
        # idempotence: re-inserting everything changes nothing
        dump = s.dump()
        for f in inserted:
            assert not insert_fact(s, f)
        assert s.dump() == dump


def test_dump_round_trips():
    facts = parse_dataset("P(a)@[0,2]\nP(a)@[2,4]\nQ(b)@(1,3]")
    s = FactStore.from_facts(facts)
    again = FactStore.from_facts(parse_dataset(s.dump()))
    assert s.equals(again)


@pytest.mark.parametrize("name", ["birthday", "excheat", "immune", "monitoring", "professor"])
def test_dump_prints_each_stored_fact_on_the_fixtures(name):
    out = materialise(load_program(name), FactStore.from_facts(load_dataset(name)), max_rounds=20)
    assert out.store.dump() == print_dataset(list(out.store.facts()))


def test_dump_prints_each_stored_fact_on_generated_sets():
    rng = random.Random(13)
    stores = [FactStore.from_facts([rand_fact(rng) for _ in range(40)]) for _ in range(20)]
    spec = GeneratorSpec(
        predicates=(("P", 1), ("Edge", 2), ("Flag", 0)),
        constant_pool=30,
        fact_count=2000,
        endpoint_range=make(-50, 50),
        max_interval_length=Fraction(5),
        granularity=Fraction(1, 2),
        seed=13,
    )
    stores.append(FactStore.from_facts(generate_dataset(spec)))
    for s in stores:
        assert s.dump() == print_dataset(list(s.facts()))
