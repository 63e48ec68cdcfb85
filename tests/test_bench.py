"""Synthetic dataset generation, census, and the timing report."""

from fractions import Fraction

import pytest

from datalogmtl.bench import (
    GeneratorSpec,
    bench_report,
    census,
    generate_dataset,
)
from datalogmtl.intervals import make
from datalogmtl.store import FactStore
from datalogmtl.syntax import parse_dataset, parse_fact, print_dataset

from helpers import load_dataset, load_program


def spec(**kw):
    base = dict(
        predicates=(("P", 1), ("Q", 2)),
        constant_pool=5,
        fact_count=50,
        endpoint_range=make(0, 100),
        max_interval_length=Fraction(5),
        granularity=Fraction(1),
        seed=42,
    )
    base.update(kw)
    return GeneratorSpec(**base)


def test_generator_determinism():
    a = print_dataset(generate_dataset(spec()))
    b = print_dataset(generate_dataset(spec()))
    assert a == b
    c = print_dataset(generate_dataset(spec(seed=43)))
    assert a != c


def test_generator_fact_count_and_bounds():
    facts = generate_dataset(spec(fact_count=1000))
    assert len(facts) == 1000
    for f in facts:
        assert Fraction(0) <= f.interval.left <= f.interval.right <= Fraction(100)
        assert f.interval.right - f.interval.left <= 5
        assert (f.interval.left % 1 == 0) and (f.interval.right % 1 == 0)


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        spec(fact_count=0)
    with pytest.raises(ValueError):
        spec(predicates=())


def test_generated_dataset_loads_into_store():
    facts = generate_dataset(spec())
    s = FactStore.from_facts(facts)
    s.check_invariants()
    assert FactStore.from_facts(parse_dataset(s.dump())).equals(s)


def test_census_all_t1():
    store = FactStore.from_facts(parse_dataset("P(a)@[0,10]"))
    queries = [parse_fact("P(a)@[1,2]"), parse_fact("P(a)@[3,4]")]
    counts = census(load_program("immune"), store, queries)
    assert counts == {"T1": 2, "T2": 0, "T3": 0, "T4": 0, "T5": 0}


def test_census_birthday_mix():
    store = FactStore.from_facts(load_dataset("birthday"))
    counts = census(
        load_program("birthday"),
        store,
        [parse_fact("Bday(a)@[2,2]"), parse_fact("Bday(a)@[1/2,1/2]")],
        round_budget=50,
    )
    assert counts["T4"] == 1 and counts["T5"] == 1


def test_bench_report_shape():
    store = FactStore.from_facts(load_dataset("immune"))
    report = bench_report(
        load_program("immune"), store, [parse_fact("Immune(james)@[7,10]")]
    )
    row = report["queries"][0]
    assert row["answer"] is True and row["fact_type"] == "T2"
    for col in ("total_s", "coalescing_s", "pre_materialisation_s", "rounds"):
        assert col in row
    assert report["census"]["T2"] == 1
