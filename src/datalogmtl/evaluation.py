"""Semantics of metric atoms over a fact store, and rule evaluation.

apply_operator computes where a literal holds in the least model of the
store alone, the literal ground or its variables bound by name;
merge_intervals is the n-way sorted intersection used for temporal joins;
evaluate_rule combines both with an index-nested-loop search and reverse
head application.

Each rule is compiled once into a `Plan`, kept on the rule object: variable
slots, numbered in sorted variable-name order; join steps over the needed
atoms, then the optional ones, each a predicate and an argument pattern of
slots and constant names; the head slots no needed atom binds; and the key
of the head atom.  The search (`substitutions`) yields rows, lists of
constant names indexed by slot, which `FactStore.join` extends without
building a term or a dict per candidate, and each body literal is evaluated
as written, its leaves bound through the row.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Optional

from .intervals import (
    FULL_LINE,
    Interval,
    POS_INF,
    _SORT_KEY,
    _build,
    bound_add,
    coalesce,
    intersect,
    is_finite,
    normalize,
    reflect,
    shift,
)
from .store import AtomKey, FactStore
from .syntax import (
    BinaryOp,
    Bottom,
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
)

IntervalList = list[Interval]

# ApplyOperator kind per unary operator (past diamond shifts forward, etc.)
_UNARY_KIND = {
    "DIAMONDMINUS": "plus",
    "BOXMINUS": "circleplus",
    "DIAMONDPLUS": "minus",
    "BOXPLUS": "circleminus",
}


def apply_operator(
    literal: MetricAtom, store: FactStore, binding: Optional[dict[str, Optional[str]]] = None
) -> IntervalList:
    """Coalesced intervals where the literal holds over the store.

    The literal is ground, or `binding` maps each of its variable names to
    a constant name (None for a variable left unbound, so its atom holds
    nowhere): a `Rel` leaf is read from the store under its key with the
    names replaced, and no grounded literal is built.  Leaves return the
    store's own lists, which nobody writes (`store`).

    A unary operator shifts its operand's whole coalesced list in one pass
    (`intervals.shift`); SINCE and UNTIL sweep their two operand lists.
    Operands are evaluated through this module's `apply_operator`.
    """
    if isinstance(literal, Rel):
        key = literal.atom.key()
        return store.intervals_for(_ground_key(key, binding) if binding else key)
    if isinstance(literal, Top):
        return [FULL_LINE]
    if isinstance(literal, Bottom):
        return store.bottom_intervals
    if isinstance(literal, UnaryOp):
        return shift(_UNARY_KIND[literal.op], apply_operator(literal.sub, store, binding), literal.interval)
    if isinstance(literal, BinaryOp):
        left = apply_operator(literal.left, store, binding)
        right = apply_operator(literal.right, store, binding)
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
    rho_pos = _positive_part(rho)
    if not rho_pos.is_empty:
        d_left, d_right, d_left_open, d_right_open = rho_pos
        for (start, cap, _, _), near in _sweep(left, right):
            # witnesses may sit at the (possibly excluded) left endpoint of
            # t1 but strictly before its right endpoint; the result point may
            # coincide with t1's right endpoint even when t1 is right-open.
            # Each pair's candidate is built from its bounds directly: the
            # witnesses w = t2 & [t1.left, t1.right), shifted by rho_pos,
            # capped at (-inf, t1.right].  t1's ends are start and cap, and
            # w starts as t2's ends.
            start_open, cap_open = _inf_open(start), _inf_open(cap)
            for wl, wr, wl_open, wr_open in near:
                if wl < start:
                    wl, wl_open = start, start_open
                elif wl == start:
                    wl_open = wl_open or start_open
                if cap <= wr:
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
                    out.append(_build((lo, hi, lo_open, hi_open)))
    if not rho.left_open and rho.left == 0:
        # witness t' = t, where the open gap (t', t) is empty: `right` holds
        # too.  Both runs are sorted, so the sort is one merge, and coalesce
        # takes its one-pass path.
        return coalesce(sorted([*right, *out], key=_SORT_KEY))
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
        xl, xr, xl_open, xr_open = a[i]
        yl, yr, yl_open, yr_open = b[j]
        if xl < yl:
            left, left_open = yl, yl_open
        elif yl < xl:
            left, left_open = xl, xl_open
        else:
            left, left_open = xl, xl_open or yl_open
        # advance the cursor whose interval ends first; on equal right
        # bounds either may go, as neither meets the other's successor
        if xr < yr:
            right, right_open = xr, xr_open
            i += 1
        elif yr < xr:
            right, right_open = yr, yr_open
            j += 1
        else:
            right, right_open = xr, xr_open or yr_open
            if xr_open <= yr_open:
                i += 1
            else:
                j += 1
        if left < right or (left == right and not (left_open or right_open)):
            out.append(_build((left, right, left_open, right_open)))
    return out


def reverse_head(head: MetricAtom, intervals: IntervalList, atom: Optional[RelationalAtom] = None) -> list:
    """Map a coalesced body list through the head's box operators, one
    `shift` per box, and build the derivations on the head's one atom, or
    on `atom`, the head's atom grounded, when it is given.

    Returns Facts, or ("bottom", interval) pairs for a BOTTOM head, over a
    coalesced list.  `head` is a `Rule`'s head, which the parser has
    checked: BOXMINUS and BOXPLUS boxes over BOTTOM or one relational atom.
    """
    boxes, base = head_parts(head)
    for box in boxes:
        intervals = shift("minus" if box.op == "BOXMINUS" else "plus", intervals, box.interval)
    if isinstance(base, Bottom):
        return [("bottom", iv) for iv in intervals]
    atom = atom or base.atom
    return [Fact(atom, iv) for iv in intervals]


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


class Plan(NamedTuple):
    """A rule compiled for evaluation (`plan`).  A row holds a constant
    name per variable slot, None while the slot is open; a pattern holds a
    slot number or a constant name per argument."""

    names: tuple[str, ...]  # the variable name of each slot, sorted
    steps: tuple[tuple[str, tuple], ...]  # (predicate, pattern): needed atoms, then optional ones
    needed: int  # how many of the steps are needed atoms
    open_head: tuple[int, ...]  # head slots that no needed atom binds
    head: Optional[AtomKey]  # the head atom's key, variable names and all; None for BOTTOM


def plan(rule: Rule) -> Plan:
    """The rule's plan, compiled on first use and kept on the rule object,
    outside its fields, as `Rule.body_predicates()` is."""
    compiled = rule.__dict__.get("_plan")
    if compiled is not None:
        return compiled
    names = tuple(sorted(v.name for v in rule.variables()))
    slot = {name: i for i, name in enumerate(names)}
    # written order, with constant-only literals first (cheap selectivity)
    ordered = sorted(rule.body, key=lambda literal: bool(atom_variables(literal)))
    needed = [a for literal in ordered for a in _needed_atoms(literal)]
    bound = set().union(*(a.variables() for a in needed))
    optional = [
        a for literal in rule.body for a in relational_atoms(literal) if not a.variables() <= bound
    ]
    steps = tuple(
        (a.predicate, tuple(slot[t.name] if isinstance(t, Variable) else t.name for t in a.args))
        for a in needed + optional
    )
    open_head = tuple(sorted(slot[v.name] for v in atom_variables(rule.head) - bound))
    base = head_parts(rule.head)[1]
    head = base.atom.key() if isinstance(base, Rel) else None
    compiled = rule.__dict__["_plan"] = Plan(names, steps, len(needed), open_head, head)
    return compiled


def _ground_key(key: AtomKey, binding: dict[str, Optional[str]]) -> AtomKey:
    """An atom key with each variable name replaced by its binding."""
    return key[0], tuple([binding.get(name, name) for name in key[1]])


def substitutions(rule: Rule, store: FactStore) -> Iterator[list]:
    """The rows of the rule's plan: a backtracking index-nested-loop search
    (`FactStore.join`) over the body's needed atoms, then over the other
    relational atoms that have a slot still open.

    Those optional atoms may lack facts while their literal holds, so each
    may also leave its open slots unbound.  An atom with an unbound slot
    names no stored key, so it holds nowhere.  A head slot left unbound
    ranges over the store's `domain`, its constants and the rule's.  A match
    and a skip can give the same row; the store merges what both derive.
    A row with every head slot bound is yielded as the search built it, so
    one list may be yielded more than once: rows are read, never written,
    once yielded.
    """
    compiled = plan(rule)
    steps, needed, open_head, domain = compiled.steps, compiled.needed, compiled.open_head, []

    def search(idx: int, row: list):
        if idx == len(steps):
            missing = [s for s in open_head if row[s] is None]
            if missing:
                yield from complete(row, missing)
            else:
                yield row
            return
        predicate, pattern = steps[idx]
        if idx < needed or any(type(p) is int and row[p] is None for p in pattern):
            for extended in store.join(predicate, pattern, row):
                yield from search(idx + 1, extended)
        if idx >= needed:
            yield from search(idx + 1, row)

    def complete(row: list, missing: list[int]):
        if not domain:
            domain.extend(sorted(store.domain | store.constants() | Program((rule,)).constants()))
        for combo in itertools.product(domain, repeat=len(missing)):
            full = row.copy()
            for s, name in zip(missing, combo):
                full[s] = name
            yield full

    yield from search(0, [None] * len(compiled.names))


def evaluate_rule(rule: Rule, store: FactStore) -> list:
    """One-step consequences of a rule over a store snapshot.

    Runs the rule's plan: per row of `substitutions`, the body literals are
    evaluated as written, their `Rel` leaves bound by the row's names, and
    the coalesced body list is mapped through the head by one
    `reverse_head` call, on the head atom grounded from the row.  Returns a
    list of Facts and ("bottom", interval) markers: per row, one coalesced
    run, on an atom object built for that row, ground heads included.  Open
    head slots range over the store's domain and constants and the rule's
    (`substitutions`), so not over the program's when called directly.
    """
    compiled = plan(rule)
    out = []
    for row in substitutions(rule, store):
        binding = dict(zip(compiled.names, row))
        body = merge_intervals(apply_operator(lit, store, binding) for lit in rule.body)
        if body:
            head = compiled.head
            atom = None if head is None else RelationalAtom.from_key(_ground_key(head, binding))
            out += reverse_head(rule.head, body, atom)
    return out
