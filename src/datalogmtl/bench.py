"""Synthetic benchmark generation, query generation, T-type census and a
small timing harness."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intervals import Interval, is_finite, make
from .pipeline import check_entailment
from .store import FactStore
from .syntax import Constant, Fact, Program, RelationalAtom, is_predicate_name


@dataclass(frozen=True)
class GeneratorSpec:
    predicates: tuple[tuple[str, int], ...]  # (name, arity)
    constant_pool: int
    fact_count: int
    endpoint_range: Interval
    max_interval_length: Fraction
    granularity: Fraction
    seed: int

    def __post_init__(self):
        if self.fact_count < 1:
            raise ValueError("fact_count must be at least 1")
        if not self.predicates:
            raise ValueError("at least one predicate is required")
        for name, arity in self.predicates:
            if not is_predicate_name(name) or arity < 0:
                raise ValueError(
                    "generator spec field 'predicates' is malformed: "
                    f"{name!r} with arity {arity} is not a predicate the parser reads"
                )
        if self.constant_pool < 1:
            raise ValueError("constant_pool must be at least 1")
        if self.endpoint_range.is_empty:
            raise ValueError("endpoint_range must be a non-empty interval")
        if self.max_interval_length < 0:
            raise ValueError("max_interval_length must be non-negative")
        if self.granularity <= 0:
            raise ValueError("granularity must be positive")


def generate_dataset(spec: GeneratorSpec) -> list[Fact]:
    """Deterministic under seed: uniform predicates, constants, and
    granularity-aligned intervals of bounded length inside the range."""
    rng = random.Random(spec.seed)
    lo = Fraction(spec.endpoint_range.left)
    hi = Fraction(spec.endpoint_range.right)
    g = Fraction(spec.granularity)
    steps = int((hi - lo) / g)
    max_len_steps = min(steps, int(Fraction(spec.max_interval_length) / g))
    consts = [f"c{i}" for i in range(spec.constant_pool)]
    out = []
    for _ in range(spec.fact_count):
        pred, arity = rng.choice(spec.predicates)
        args = tuple(Constant(rng.choice(consts)) for _ in range(arity))
        start = lo + rng.randint(0, steps) * g
        length = rng.randint(0, max_len_steps) * g
        end = min(start + length, hi)
        out.append(Fact(RelationalAtom(pred, args), make(start, end, False, False)))
    return out


def generate_queries(
    program: Program, dataset: Sequence[Fact], count: int, seed: int
) -> list[Fact]:
    """Query facts over atoms sampled from the dataset's signature, with
    random intervals inside the dataset's endpoint range."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    rng = random.Random(seed)
    atoms = sorted({f.atom for f in dataset}, key=str)
    endpoints = [
        b
        for f in dataset
        for b in (f.interval.left, f.interval.right)
        if is_finite(b)
    ]
    lo, hi = min(endpoints), max(endpoints)
    from .dense_grid import instance_granularity

    g = instance_granularity(program, list(dataset))
    steps = max(1, int((hi - lo) / g))
    out = []
    for _ in range(count):
        atom = rng.choice(atoms)
        a = lo + rng.randint(0, steps) * g
        b = lo + rng.randint(0, steps) * g
        if b < a:
            a, b = b, a
        out.append(Fact(atom, make(a, b, False, False)))
    return out


def census(
    program: Program,
    store: FactStore,
    queries: Sequence[Fact],
    round_budget: int = 1000,
) -> dict:
    """T1..T5 histogram from sequential-mode entailment per query."""
    return bench_report(program, store, queries, round_budget)["census"]


def bench_report(
    program: Program,
    store: FactStore,
    queries: Sequence[Fact],
    round_budget: int = 1000,
) -> dict:
    """Timing table: per-query totals plus rounds, coalescing and
    pre-materialisation durations, and the census histogram."""
    rows = []
    hist = {t: 0 for t in ("T1", "T2", "T3", "T4", "T5")}
    for q in queries:
        t0 = time.perf_counter()
        r = check_entailment(program, store, q, sequential=True, round_budget=round_budget)
        total = time.perf_counter() - t0
        hist[r.fact_type] += 1
        rows.append(
            {
                "query": str(q),
                "answer": r.answer,
                "fact_type": r.fact_type,
                "rounds": r.rounds,
                "total_s": total,
                "coalescing_s": r.timings.get("materialisation", 0.0),
                "pre_materialisation_s": r.timings.get("pre_materialisation", 0.0),
                "inconsistent": r.inconsistent,
            }
        )
    return {"queries": rows, "census": hist}
