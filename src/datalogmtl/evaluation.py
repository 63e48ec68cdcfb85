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
    POS_INF,
    bound_add,
    coalesce,
    intersect,
    is_finite,
    normalize,
    reflect,
    shift,
)
from .store import FactStore
from .syntax import (
    BinaryOp,
    Bottom,
    Constant,
    Fact,
    MetricAtom,
    Program,
    Rel,
    RelationalAtom,
    Rule,
    Top,
    UnaryOp,
    Variable,
    atom_variables,
    head_parts,
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
    """Coalesced intervals where the ground literal holds over the store.

    A unary operator shifts its operand's whole coalesced list in one pass
    (`intervals.shift`); SINCE and UNTIL sweep their two operand lists.
    Operands are evaluated through this module's `apply_operator`.
    """
    if isinstance(literal, Top):
        return [FULL_LINE]
    if isinstance(literal, Bottom):
        return list(store.bottom_intervals)
    if isinstance(literal, Rel):
        return list(store.intervals_for(literal.atom.key()))
    if isinstance(literal, UnaryOp):
        return shift(_UNARY_KIND[literal.op], apply_operator(literal.sub, store), literal.interval)
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
        d_left, d_right = rho_pos.left, rho_pos.right
        d_left_open, d_right_open = rho_pos.left_open, rho_pos.right_open
        for t1, near in _sweep(left, right):
            # witnesses may sit at the (possibly excluded) left endpoint of
            # t1 but strictly before its right endpoint; the result point may
            # coincide with t1's right endpoint even when t1 is right-open.
            # Each pair's candidate is built from its bounds directly: the
            # witnesses w = t2 & [t1.left, t1.right), shifted by rho_pos,
            # capped at (-inf, t1.right].
            start, start_open = t1.left, _inf_open(t1.left)
            cap, cap_open = t1.right, _inf_open(t1.right)
            for t2 in near:
                if t2.left > start:
                    wl, wl_open = t2.left, t2.left_open
                elif t2.left < start:
                    wl, wl_open = start, start_open
                else:
                    wl, wl_open = start, start_open or t2.left_open
                if t2.right < cap:
                    wr, wr_open = t2.right, t2.right_open
                else:
                    wr, wr_open = cap, True
                if wr < wl or (wr == wl and (wl_open or wr_open)):
                    continue
                # w is non-empty and rho_pos's left end is finite
                lo, lo_open = bound_add(wl, d_left), wl_open or d_left_open
                hi, hi_open = bound_add(wr, d_right), wr_open or d_right_open
                if cap < hi:
                    hi, hi_open = cap, cap_open
                elif hi == cap:
                    hi_open = hi_open or cap_open
                # an infinite end here is already open: it comes from an
                # open end of w, rho_pos or the cap
                if lo < hi or (lo == hi and not (lo_open or hi_open)):
                    out.append(Interval(lo, hi, lo_open, hi_open))
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
    """Linear two-cursor sweep over sorted disjoint lists, comparing bounds
    directly: each pair meets on the later start and the earlier end."""
    out: IntervalList = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x.left < y.left:
            left, left_open = y.left, y.left_open
        elif y.left < x.left:
            left, left_open = x.left, x.left_open
        else:
            left, left_open = x.left, x.left_open or y.left_open
        # advance the cursor whose interval ends first; on equal right
        # bounds either may go, as neither meets the other's successor
        if x.right < y.right:
            right, right_open = x.right, x.right_open
            i += 1
        elif y.right < x.right:
            right, right_open = y.right, y.right_open
            j += 1
        else:
            right, right_open = x.right, x.right_open or y.right_open
            if x.right_open <= y.right_open:
                i += 1
            else:
                j += 1
        if left < right or (left == right and not (left_open or right_open)):
            out.append(Interval(left, right, left_open, right_open))
    return out


def reverse_head(head: MetricAtom, intervals: IntervalList) -> list:
    """Map a coalesced body list through the head's box operators, one
    `shift` per box, and build the derivations on the head's one atom.

    Returns Facts, or ("bottom", interval) pairs for a BOTTOM head, over a
    coalesced list.  `head` is a `Rule`'s head, which `Rule` has checked:
    BOXMINUS and BOXPLUS boxes over BOTTOM or one relational atom.
    """
    boxes, base = head_parts(head)
    for box in boxes:
        intervals = shift("minus" if box.op == "BOXMINUS" else "plus", intervals, box.interval)
    if isinstance(base, Bottom):
        return [("bottom", iv) for iv in intervals]
    return [Fact(base.atom, iv) for iv in intervals]


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
            names = store.constants() | Program((rule,)).constants()
            domain.extend(Constant(c) for c in sorted(names))
        for combo in itertools.product(domain, repeat=len(missing)):
            yield {**sigma, **dict(zip(missing, combo))}

    yield from search(0, {})


def evaluate_rule(rule: Rule, store: FactStore) -> list:
    """One-step consequences of a rule over a store snapshot.

    Returns a list of Facts and ("bottom", interval) markers: per
    substitution, the coalesced body list mapped through the head by one
    `reverse_head` call.
    """
    out = []
    for sigma in substitutions(rule, store):
        body = merge_intervals(apply_operator(substitute(lit, sigma), store) for lit in rule.body)
        if body:
            out += reverse_head(substitute(rule.head, sigma), body)
    return out
