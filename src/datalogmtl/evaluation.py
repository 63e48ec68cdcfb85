"""Semantics of ground metric atoms over a fact store.

apply_operator computes where a ground literal holds in the least model of
the store alone; merge_intervals is the n-way sorted intersection used for
temporal joins; evaluate_rule combines both with an index-nested-loop
substitution search and reverse head application.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .intervals import (
    FULL_LINE,
    Interval,
    NEG_INF,
    POS_INF,
    coalesce,
    intersect,
    interval_op,
    is_finite,
    normalize,
    reflect,
)
from .store import FactStore
from .syntax import (
    BinaryOp,
    Bottom,
    Constant,
    Fact,
    MetricAtom,
    Rel,
    RelationalAtom,
    Rule,
    Top,
    UnaryOp,
    Variable,
    atom_variables,
    relational_atoms,
    substitute,
)

IntervalList = list[Interval]

# ApplyOperator kind per unary operator (past diamond shifts forward, etc.)
_UNARY_KIND = {
    "DIAMONDMINUS": "plus",
    "BOXMINUS": "circleplus",
    "DIAMONDPLUS": "minus",
    "BOXPLUS": "circleminus",
}


def apply_operator(literal: MetricAtom, store: FactStore) -> IntervalList:
    """Coalesced intervals where the ground literal holds over the store."""
    if isinstance(literal, Top):
        return [FULL_LINE]
    if isinstance(literal, Bottom):
        return list(store.bottom_intervals)
    if isinstance(literal, Rel):
        return list(store.intervals_for(literal.atom.key()))
    if isinstance(literal, UnaryOp):
        sub = apply_operator(literal.sub, store)
        kind = _UNARY_KIND[literal.op]
        out = [interval_op(kind, t, literal.interval) for t in sub]
        return coalesce(out)
    if isinstance(literal, BinaryOp):
        left = apply_operator(literal.left, store)
        right = apply_operator(literal.right, store)
        if literal.op == "SINCE":
            return _since(literal.interval, left, right)
        return _until(literal.interval, left, right)
    raise TypeError(f"not a metric atom: {literal!r}")


def _positive_part(rho: Interval) -> Interval:
    """rho restricted to strictly positive values."""
    return intersect(rho, normalize(0, POS_INF, True, True))


def _since(rho: Interval, left: IntervalList, right: IntervalList) -> IntervalList:
    """t holds iff some t' with t - t' in rho satisfies the right side and
    the left side holds throughout (t', t)."""
    out: IntervalList = []
    if not rho.left_open and rho.left == 0:
        # witness t' = t: the open gap (t', t) is empty
        out.extend(right)
    rho_pos = _positive_part(rho)
    if not rho_pos.is_empty:
        for t1, near in _sweep(left, right):
            # witnesses may sit at the (possibly excluded) left endpoint of
            # t1 but strictly before its right endpoint; the result point may
            # coincide with t1's right endpoint even when t1 is right-open
            w_range = normalize(t1.left, t1.right, _inf_open(t1.left), True)
            upper = normalize(NEG_INF, t1.right, True, _inf_open(t1.right))
            for t2 in near:
                w = intersect(t2, w_range)
                if w.is_empty:
                    continue
                cand = interval_op("plus", w, rho_pos)
                cand = intersect(cand, upper)
                if not cand.is_empty:
                    out.append(cand)
    return coalesce(out)


def _until(rho: Interval, left: IntervalList, right: IntervalList) -> IntervalList:
    """t holds iff some t' with t' - t in rho satisfies the right side and
    the left side holds throughout (t, t'): SINCE mirrored in time, as -t'
    witnesses SINCE at -t over the reflected lists."""
    return reflect(_since(rho, reflect(left), reflect(right)))


def _sweep(left: IntervalList, right: IntervalList):
    """Each left interval with the run of right intervals that can meet its
    closure, in one pass: both lists are sorted and disjoint, so a right
    interval that ends before one left interval starts ends before every
    later one too."""
    start = 0
    for t1 in left:
        while start < len(right) and right[start].right < t1.left:
            start += 1
        stop = start
        while stop < len(right) and right[stop].left <= t1.right:
            stop += 1
        yield t1, right[start:stop]


def _inf_open(bound) -> bool:
    """Boundary endpoints of the witness/result ranges are inclusive when
    finite (the open gap tolerates touching them) and open at infinities."""
    return not is_finite(bound)


def merge_intervals(lists: Iterable[IntervalList]) -> IntervalList:
    """Set intersection of coalesced interval lists.  The lists are drawn one
    at a time, and none after the intersection is empty, so a generator of
    body-literal lists stops evaluating there.  The result is coalesced too:
    any two of its pieces lie in two intervals of one input, split by a gap."""
    result = None
    for other in lists:
        result = other if result is None else _intersect_lists(result, other)
        if not result:
            return []
    return [] if result is None else result


def _intersect_lists(a: IntervalList, b: IntervalList) -> IntervalList:
    """Linear two-cursor sweep over sorted disjoint lists."""
    out: IntervalList = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        both = intersect(x, y)
        if not both.is_empty:
            out.append(both)
        # advance the cursor whose interval ends first; on equal right
        # bounds either may go, as neither meets the other's successor
        if (x.right, x.right_open) <= (y.right, y.right_open):
            i += 1
        else:
            j += 1
    return out


def reverse_head(head: MetricAtom, interval: Interval):
    """Map a body-satisfaction interval through the head's box operators.

    Returns a Fact, or ("bottom", interval) for a BOTTOM derivation.
    Raises on heads outside the grammar's head restriction.
    """
    if interval.is_empty:
        raise ValueError("reverse_head requires a non-empty interval")
    m = head
    iv = interval
    while isinstance(m, UnaryOp):
        if m.op == "BOXMINUS":
            iv = interval_op("minus", iv, m.interval)
        elif m.op == "BOXPLUS":
            iv = interval_op("plus", iv, m.interval)
        else:
            raise ValueError(f"forbidden operator in head: {m.op}")
        m = m.sub
    if isinstance(m, Bottom):
        return ("bottom", iv)
    if isinstance(m, Rel):
        return Fact(m.atom, iv)
    raise ValueError(f"invalid head atom: {head}")


def _join_order(body: tuple[MetricAtom, ...]) -> list[MetricAtom]:
    """Written order, with constant-only literals first (cheap selectivity)."""
    fixed = [b for b in body if not any(a.variables() for a in relational_atoms(b))]
    open_ = [b for b in body if any(a.variables() for a in relational_atoms(b))]
    return fixed + open_


def _needed_atoms(m: MetricAtom) -> list[RelationalAtom]:
    """The relational atoms without whose facts m cannot hold: all of them,
    except under the left operand of a SINCE/UNTIL whose interval contains 0,
    which holds wherever its right operand holds."""
    if isinstance(m, BinaryOp):
        right = _needed_atoms(m.right)
        if m.interval.left == 0 and not m.interval.left_open:
            return right
        return _needed_atoms(m.left) + right
    if isinstance(m, UnaryOp):
        return _needed_atoms(m.sub)
    return relational_atoms(m)


def substitutions(rule: Rule, store: FactStore) -> Iterable[dict[Variable, Constant]]:
    """Backtracking index-nested-loop search over the body's needed atoms,
    then over the other relational atoms that have a variable still open.

    Those optional atoms may lack facts while their literal holds, so each
    may also leave its open variables unbound.  An atom with an unbound
    variable names no stored key (variables are capitalised, stored
    constants never are), so it holds nowhere.  A head variable left unbound
    ranges over every constant of the store and the rule.  A match and a skip
    can give the same substitution; the store merges what both derive.
    """
    needed: list[RelationalAtom] = []
    for literal in _join_order(rule.body):
        needed.extend(_needed_atoms(literal))
    bound = set().union(*(a.variables() for a in needed))
    optional = [
        a
        for literal in rule.body
        for a in relational_atoms(literal)
        if not a.variables() <= bound
    ]
    patterns = needed + optional
    open_head = sorted(atom_variables(rule.head) - bound, key=lambda v: v.name)
    domain: list[Constant] = []

    def search(idx: int, sigma: dict[Variable, Constant]):
        if idx == len(patterns):
            yield from complete(sigma)
            return
        pattern = patterns[idx]
        if idx < len(needed) or not pattern.variables() <= sigma.keys():
            for extended, _intervals in store.match(pattern, sigma):
                yield from search(idx + 1, extended)
        if idx >= len(needed):
            yield from search(idx + 1, sigma)

    def complete(sigma: dict[Variable, Constant]):
        missing = [v for v in open_head if v not in sigma]
        if missing and not domain:
            names = store.constants()
            for m in (rule.head, *rule.body):
                for a in relational_atoms(m):
                    names |= {t.name for t in a.args if isinstance(t, Constant)}
            domain.extend(Constant(c) for c in sorted(names))
        for combo in itertools.product(domain, repeat=len(missing)):
            yield {**sigma, **dict(zip(missing, combo))}

    yield from search(0, {})


def evaluate_rule(rule: Rule, store: FactStore) -> list:
    """One-step consequences of a rule over a store snapshot.

    Returns a list of Facts and ("bottom", interval) markers.
    """
    out = []
    for sigma in substitutions(rule, store):
        body = merge_intervals(apply_operator(substitute(lit, sigma), store) for lit in rule.body)
        if body:
            head = substitute(rule.head, sigma)
            out += [reverse_head(head, iv) for iv in body]
    return out
