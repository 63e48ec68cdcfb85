"""Shared test utilities: fixture loading, random AST generation, and random
bounded-instance generation for oracle comparisons."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

import datalogmtl
from datalogmtl.automata import _literal_reach, cells_in, cells_interval
from datalogmtl.evaluation import apply_operator, merge_intervals, reverse_head
from datalogmtl.intervals import (
    EMPTY,
    Interval,
    NEG_INF,
    POS_INF,
    coalesce,
    intersect,
    interval_op,
    make,
)
from datalogmtl.syntax import (
    BinaryOp,
    Bottom,
    Constant,
    Fact,
    Program,
    Rel,
    RelationalAtom,
    Rule,
    Top,
    UnaryOp,
    Variable,
    parse_dataset,
    parse_program,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_program(name: str) -> Program:
    return parse_program((FIXTURES / f"{name}.dmtl").read_text())


def load_dataset(name: str) -> list[Fact]:
    return parse_dataset((FIXTURES / f"{name}.dtf").read_text())


def clip(intervals, window: Interval) -> list[Interval]:
    """Coalesced restriction of an interval list to a window."""
    return coalesce(intersect(iv, window) for iv in intervals)


# ---------------------------------------------------------------------------
# Random ASTs for round-trip testing


def rand_rational(rng: random.Random, lo=-20, hi=20) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 4]))


def rand_fact_interval(rng: random.Random) -> Interval:
    roll = rng.random()
    if roll < 0.1:
        return make(rand_rational(rng), POS_INF, rng.random() < 0.5, True)
    if roll < 0.2:
        return make(NEG_INF, rand_rational(rng), True, rng.random() < 0.5)
    while True:
        a, b = sorted((rand_rational(rng), rand_rational(rng)))
        iv = make(a, b, rng.random() < 0.3, rng.random() < 0.3)
        if iv is not EMPTY:
            return iv


def rand_op_interval(rng: random.Random, hi=10, allow_unbounded=False) -> Interval:
    if allow_unbounded and rng.random() < 0.15:
        left = Fraction(rng.randint(0, hi))
        return make(left, POS_INF, rng.random() < 0.5, True)
    while True:
        a, b = sorted((Fraction(rng.randint(0, hi)), Fraction(rng.randint(0, hi))))
        iv = make(a, b, rng.random() < 0.3 and a != b, rng.random() < 0.3 and a != b)
        if iv is not EMPTY:
            return iv


# fixed arity per predicate so random programs pass the arity check
_PREDS = {"Flag": 0, "P": 1, "Q": 1, "R": 1, "Edge": 2, "headOf": 2}
_CONSTS = ["a", "b", "c1"]
_VARS = ["X", "Y", "Z"]


def rand_term(rng: random.Random):
    if rng.random() < 0.5:
        return Constant(rng.choice(_CONSTS))
    return Variable(rng.choice(_VARS))


def rand_rel(rng: random.Random, ground=False) -> Rel:
    pred, arity = rng.choice(sorted(_PREDS.items()))
    if ground:
        args = tuple(Constant(rng.choice(_CONSTS)) for _ in range(arity))
    else:
        args = tuple(rand_term(rng) for _ in range(arity))
    return Rel(RelationalAtom(pred, args))


def rand_metric(rng: random.Random, depth: int, ground=False):
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.05:
            return Top()
        return rand_rel(rng, ground)
    if rng.random() < 0.7:
        op = rng.choice(("DIAMONDMINUS", "DIAMONDPLUS", "BOXMINUS", "BOXPLUS"))
        return UnaryOp(
            op,
            rand_op_interval(rng, allow_unbounded=True),
            rand_metric(rng, depth - 1, ground),
        )
    return BinaryOp(
        rng.choice(("SINCE", "UNTIL")),
        rand_op_interval(rng, allow_unbounded=True),
        rand_metric(rng, depth - 1, ground),
        rand_metric(rng, depth - 1, ground),
    )


def rand_head(rng: random.Random, body_vars: set) -> object:
    """A valid rule head whose variables are drawn from the body's."""
    if rng.random() < 0.1:
        return Bottom()
    pred, arity = rng.choice(sorted(_PREDS.items()))
    pool = sorted(body_vars, key=str) or []
    args = []
    for _ in range(arity):
        if pool and rng.random() < 0.6:
            args.append(rng.choice(pool))
        else:
            args.append(Constant(rng.choice(_CONSTS)))
    head = Rel(RelationalAtom(pred, tuple(args)))
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(("BOXMINUS", "BOXPLUS"))
        head = UnaryOp(op, rand_op_interval(rng), head)
    return head


def rand_rule(rng: random.Random) -> Rule:
    from datalogmtl.syntax import atom_variables

    body = tuple(rand_metric(rng, rng.randint(0, 2)) for _ in range(rng.randint(1, 3)))
    body_vars = set()
    for b in body:
        body_vars |= atom_variables(b)
    return Rule(rand_head(rng, body_vars), body)


def rand_program(rng: random.Random, max_rules=3) -> Program:
    return Program(tuple(rand_rule(rng) for _ in range(rng.randint(1, max_rules))))


def rand_fact(rng: random.Random) -> Fact:
    rel = rand_rel(rng, ground=True)
    return Fact(rel.atom, rand_fact_interval(rng))


# ---------------------------------------------------------------------------
# Random bounded instances for grid-oracle comparison

# kept small: integer endpoints in [0, 20], bounded operator intervals,
# nesting depth at most 2, at most 3 predicates and 4 facts


def rand_bounded_instance(rng: random.Random):
    """(facts, ground_atoms): a tiny dataset plus its ground atom set."""
    preds = rng.sample(["A", "B", "C"], rng.randint(1, 3))
    consts = rng.sample(["a", "b"], rng.randint(1, 2))
    facts = []
    atoms = []
    for _ in range(rng.randint(1, 4)):
        atom = RelationalAtom(rng.choice(preds), (Constant(rng.choice(consts)),))
        a, b = sorted((rng.randint(0, 20), rng.randint(0, 20)))
        iv = make(a, b, rng.random() < 0.25 and a != b, rng.random() < 0.25 and a != b)
        facts.append(Fact(atom, iv))
        atoms.append(atom)
    return facts, atoms


def rand_bounded_literal(rng: random.Random, atoms, depth=2):
    """Ground literal over the given atoms, bounded intervals, depth <= 2."""
    if depth <= 0 or rng.random() < 0.35:
        return Rel(rng.choice(atoms))
    iv = rand_op_interval(rng, hi=4)
    if rng.random() < 0.7:
        op = rng.choice(("DIAMONDMINUS", "DIAMONDPLUS", "BOXMINUS", "BOXPLUS"))
        return UnaryOp(op, iv, rand_bounded_literal(rng, atoms, depth - 1))
    return BinaryOp(
        rng.choice(("SINCE", "UNTIL")),
        iv,
        rand_bounded_literal(rng, atoms, depth - 1),
        rand_bounded_literal(rng, atoms, depth - 1),
    )


def wrap_literals_in_rules(literals) -> Program:
    """One nullary-head rule per literal, so the oracle sees every bound."""
    rules = tuple(
        Rule(Rel(RelationalAtom(f"H{i}", ())), (lit,))
        for i, lit in enumerate(literals)
    )
    return Program(rules)


def block_buffered_env() -> dict:
    """Environment for a `python` subprocess that imports this checkout's
    `datalogmtl` and block-buffers a piped stdout (no PYTHONUNBUFFERED)."""
    src = str(Path(datalogmtl.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return env


# ---------------------------------------------------------------------------
# Interval references for the automata's window checks on cell bitmasks


def check_window_reference(span, ground_rules, lo, letters, store):
    """(ok, fixable) of the ground rules over the window (lo, letters), whose
    letter store is `store`, computed on intervals: for the first rule whose
    body holds at a window cell with the window part of its head region not
    entailed, fixable says whether that part meets `span`; a fired BOTTOM
    gives (False, False)."""
    wiv = cells_interval(lo, lo + len(letters) - 1)
    for rule in ground_rules:
        for iv in merge_intervals(apply_operator(lit, store) for lit in rule.body):
            for c in cells_in(intersect(iv, wiv)):
                req = reverse_head(rule.head, cells_interval(c, c))
                if isinstance(req, tuple):
                    return False, False
                part = intersect(req.interval, wiv)
                if not part.is_empty and not store.entails_fact(Fact(req.atom, part)):
                    return False, not intersect(part, span).is_empty
    return True, False


def justifiable_reference(ground_rules, key, new_cell, lo, letters, store):
    """Could a ground rule with head atom `key` still derive it over
    new_cell, given the window (lo, letters) and its store?  A firing cell
    counts unless a body literal whose whole reach lies on window cells is
    false there."""
    hi = lo + len(letters) - 1
    wiv = cells_interval(lo, hi)
    for rule in ground_rules:
        m, fire_iv = rule.head, cells_interval(new_cell, new_cell)
        while isinstance(m, UnaryOp):
            fire_iv = interval_op("plus" if m.op == "BOXMINUS" else "minus", fire_iv, m.interval)
            m = m.sub
        if not isinstance(m, Rel) or m.atom.key() != key:
            continue
        for t in cells_in(fire_iv):
            for lit in rule.body:
                rc = 2 * _literal_reach(lit)
                if t - rc < lo or t + rc > hi:
                    continue
                held = {c for iv in apply_operator(lit, store) for c in cells_in(intersect(iv, wiv))}
                if t not in held:
                    break
            else:
                return True
    return False
