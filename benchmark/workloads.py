"""Seeded inputs for the reasoner benchmark and their independent references.

Every generator returns the exact `.dmtl`/`.dtf`/query text the reasoner
receives, plus the expected answers worked out here without the reasoner:
a closed form for the periodic rules, and the pointwise grid oracle for
sampled slices of the bulk dataset.  The same seed always gives the same
text.  The bulk dataset comes from the repository's own generator
(`datalogmtl.bench`), which makes inputs and is not measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from datalogmtl.bench import GeneratorSpec, generate_dataset
from datalogmtl.dense_grid import GridOracle
from datalogmtl.intervals import coalesce, intersect, make
from datalogmtl.syntax import Constant, Fact, Rel, RelationalAtom, ground, parse_program, print_dataset

# Criterion 8's program: five non-recursive rules over unary predicates.
SCALE_PROGRAM = """\
D1(X) :- DIAMONDMINUS[0,2] P0(X) .
D2(X) :- BOXMINUS[0,1] P1(X) .
D3(X) :- P2(X), DIAMONDPLUS[0,2] P3(X) .
D4(X) :- BOXPLUS[0,1] P4(X) .
D5(X) :- P0(X) SINCE[0,2] P1(X) .
"""
# Sum of the operator bounds above: a derived fact at t depends only on input
# facts within this distance of t.
SCALE_REACH = 8

# Criterion 8's 25k facts over 200 constants, split into datasets of 20
# constants each: every (predicate, constant) interval list keeps its length,
# and each materialisation is short, so a run has many samples to take the
# median of.
BULK_INSTANCES = 10
BULK_FACTS = 2_500
BULK_PREDICATES = 5
BULK_CONSTANTS = 20
BULK_HORIZON = 2000
BULK_MAX_LENGTH = 10
BULK_SLICES = 1
BULK_SLICE_WIDTH = 40

# (period, constants, periods before the query point, offset off the
# period): every t5-race run answers one seeded program of each.  A half
# offset halves the time granularity, which doubles the query's cost.
PERIODIC_CLASSES = [
    (p, k, m, offset)
    for p in (1, 2, 3)
    for k in (1, 2, 3)
    for m in (0, 1)
    for offset in (Fraction(1, 2), Fraction(1))
    if offset < p
]

PROFESSOR_PROGRAM = """\
AssistantProfessor(X) :- BOXMINUS[0,3] Lecturer(X) .
AssociateProfessor(X) :- BOXMINUS[0,4] AssistantProfessor(X) .
FullProfessor(X) :- BOXMINUS[0,5] AssociateProfessor(X) .
Chair(X) :- headOf(X,Y), Department(Y) .
FullProfessor(X) :- DIAMONDMINUS[0,2] Chair(X) .
Chair(X) :- DIAMONDMINUS[0,2] FullProfessor(X) .
"""
PROFESSOR_DATA = """\
Lecturer(a)@[0,10]
headOf(b,cs)@[0,6]
Department(cs)@[0,20]
"""
# a is a lecturer for 10 time units: AssociateProfessor(a) holds on [7,10],
# too short for BOXMINUS[0,5], and a is never a chair, so FullProfessor(a)
# never holds.  Chair(b) and FullProfessor(b) feed each other forever, which
# is why only the automata can decide the query.
PROFESSOR_QUERY = ("FullProfessor(a)@[0,1]", False)


@dataclass(frozen=True)
class Query:
    text: str
    expected: bool


@dataclass(frozen=True)
class Instance:
    """One program and dataset, loaded once, and the queries asked of it."""

    program: str
    data: str
    queries: tuple[Query, ...] = ()


def _rng(workload: str, seed: int, instance: int) -> random.Random:
    # string seeds are hashed with SHA-512, so they do not depend on
    # PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{instance}")


def _num(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------- bulk


def bulk_facts(seed: int, instance: int) -> list[Fact]:
    """The generated facts, from the repository's own generator shaped like
    criterion 8: uniform predicates and constants, integer intervals of
    length at most BULK_MAX_LENGTH inside [0, BULK_HORIZON]."""
    spec = GeneratorSpec(
        predicates=tuple((f"P{i}", 1) for i in range(BULK_PREDICATES)),
        constant_pool=BULK_CONSTANTS,
        fact_count=BULK_FACTS,
        endpoint_range=make(0, BULK_HORIZON),
        max_interval_length=Fraction(BULK_MAX_LENGTH),
        granularity=Fraction(1),
        seed=_rng("bulk-materialise", seed, instance).getrandbits(64),
    )
    return generate_dataset(spec)


def bulk_instance(seed: int, instance: int) -> Instance:
    return Instance(SCALE_PROGRAM, print_dataset(bulk_facts(seed, instance)))


def bulk_slices(seed: int, instance: int) -> list[tuple[int, int]]:
    """(constant index, window start) of the slices compared with the oracle."""
    rng = _rng("bulk-slices", seed, instance)
    return [
        (rng.randrange(BULK_CONSTANTS), rng.randint(0, BULK_HORIZON - BULK_SLICE_WIDTH))
        for _ in range(BULK_SLICES)
    ]


def check_bulk_slice(store, facts: list[Fact], constant: int, start: int) -> str | None:
    """Compare one (constant, window) slice of a materialised store with the
    grid oracle.  Input facts are clipped to the window, so the oracle is exact
    only inside the window shrunk by SCALE_REACH; only that part is compared.
    Returns None when they agree, else a description of the first mismatch."""
    program = parse_program(SCALE_PROGRAM)
    name = f"c{constant}"
    window = make(start, start + BULK_SLICE_WIDTH)
    clipped = []
    for f in facts:
        if f.atom.args[0].name == name:
            iv = intersect(f.interval, window)
            if not iv.is_empty:
                clipped.append(Fact(f.atom, iv))
    oracle = GridOracle(program, clipped)
    oracle.materialise(sorted(ground(program, {name}), key=str))
    inner = make(start + SCALE_REACH, start + BULK_SLICE_WIDTH - SCALE_REACH)
    preds = [f"P{i}" for i in range(BULK_PREDICATES)] + [f"D{i}" for i in range(1, 6)]
    for pred in preds:
        atom = RelationalAtom(pred, (Constant(name),))
        want = coalesce(intersect(iv, inner) for iv in oracle.holds_intervals(Rel(atom)))
        got = coalesce(intersect(iv, inner) for iv in store.intervals_for(atom.key()))
        want = [iv for iv in want if not iv.is_empty]
        got = [iv for iv in got if not iv.is_empty]
        if want != got:
            return f"{pred}({name}) on {inner}: reasoner {got}, oracle {want}"
    return None


# ---------------------------------------------------------------- t5


def periodic_instance(seed: int, instance: int) -> Instance:
    """BOXPLUS[p,p] over k constants, the i-th with its one seed point at i,
    and one query point m periods and an off-period offset past the last
    one's: never entailed, and never refuted by materialisation, which
    derives a new tick every round.

    (p, k, m, offset) is PERIODIC_CLASSES[instance] and fixes what the query
    costs, so every run meets the same mix of sizes; the seed picks the
    constants' names and the order of the facts."""
    p, k, m, offset = PERIODIC_CLASSES[instance % len(PERIODIC_CLASSES)]
    rng = _rng("t5-race", seed, instance)
    consts = [f"c{n}" for n in rng.sample(range(1000), k)]
    start = {c: i for i, c in enumerate(consts)}
    facts = [f"Bday({c})@[{s},{s}]\n" for c, s in start.items()]
    rng.shuffle(facts)
    c = consts[-1]
    t = start[c] + p * m + offset
    # Bday(c) holds exactly at start[c] + j*p for integers j >= 0
    j = (t - start[c]) / p
    expected = j >= 0 and j.denominator == 1
    query = Query(f"Bday({c})@[{_num(t)},{_num(t)}]", expected)
    return Instance(f"BOXPLUS[{p},{p}] Bday(X) :- Bday(X) .\n", "".join(facts), (query,))


def professor_instance() -> Instance:
    return Instance(PROFESSOR_PROGRAM, PROFESSOR_DATA, (Query(*PROFESSOR_QUERY),))
