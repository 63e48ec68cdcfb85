"""Exact rational intervals on the timeline.

Finite endpoints are exact rationals in one canonical form: an `int` when the
value is integral, a `fractions.Fraction` only when it is not (see
`rational`), so inputs whose endpoints are all integers never build a
Fraction.  The infinite ones are the two float constants NEG_INF and POS_INF,
so bounds compare with the built-in operators.

An `Interval` is an immutable named 4-tuple (left, right, left_open,
right_open): it equals and hashes as that tuple, and the kernels unpack it
in one step.  Intervals do not order (`<` raises TypeError); sorting goes
through `sort_key`.  The empty interval is the single module-level EMPTY
object.  The list kernels `shift` and `reflect` map a coalesced list to a
coalesced list in one pass, and `coalesce` builds one, in one pass when its
input comes in order; each builds every output interval once.

`Interval(left, right, left_open, right_open)` is the public constructor.
The kernels here and in `evaluation` build through `_build` instead,
`tuple.__new__` bound to Interval: one C call, with no Python-level
`__new__`, for endpoints they have already checked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial, reduce
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Union

POS_INF = math.inf
NEG_INF = -math.inf

# int, non-integral Fraction, or one of the two infinity constants
Bound = Union[int, Fraction, float]


def rational(v):
    """The canonical form of a finite rational: an integral Fraction becomes
    its int numerator; anything else is returned unchanged."""
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def is_finite(b: Bound) -> bool:
    return not isinstance(b, float)


def bound_add(a: Bound, b: Bound) -> Bound:
    """a + b; an infinite first operand wins over a conflicting second one.

    The dominance rule is what the interval-operation formulas need: the
    endpoint contributed by the first interval decides when both are
    unbounded (e.g. [3,+inf) shifted by an unbounded operator interval);
    float addition would give nan for inf + -inf.  Infinite results are
    POS_INF/NEG_INF themselves, never fresh floats.
    """
    if not is_finite(a):
        return a
    if not is_finite(b):
        return b
    return rational(a + b)


class Interval(NamedTuple):
    left: Bound
    right: Bound
    left_open: bool
    right_open: bool

    @property
    def is_empty(self) -> bool:
        return self is EMPTY

    @property
    def is_punctual(self) -> bool:
        return self is not EMPTY and self.left == self.right

    def sort_key(self):
        return _SORT_KEY(self)

    def __repr__(self):
        if self is EMPTY:
            return "EMPTY"
        lb = "(" if self.left_open else "["
        rb = ")" if self.right_open else "]"
        return f"{lb}{_fmt_bound(self.left)},{_fmt_bound(self.right)}{rb}"

    # tuple order would compare endpoints field by field, which is no order
    # on intervals; with no order defined, `<` raises TypeError
    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__


# (left, left_open, right, right_open): left bound, closed before open, right
# bound, closed before open; one C call, so coalesce sorts by it directly
_SORT_KEY = itemgetter(0, 2, 1, 3)

# The kernels' builder, `_build((left, right, left_open, right_open))` (see
# the module docstring): it checks nothing, so its callers pass the
# canonical endpoints of a non-empty interval.
_build = partial(tuple.__new__, Interval)


def _fmt_bound(b: Bound) -> str:
    if b.__class__ is float:
        return "+inf" if b > 0 else "-inf"
    return str(b)


# The unique empty interval: built directly so normalize() can return it.
EMPTY = Interval(POS_INF, NEG_INF, True, True)


def normalize(left: Bound, right: Bound, left_open: bool, right_open: bool) -> Interval:
    """Canonical interval for the given endpoints, or EMPTY if degenerate."""
    # is_finite inline: this runs for every interval built
    if isinstance(left, float):
        if left > 0:
            return EMPTY
        left_open = True
    if isinstance(right, float):
        if right < 0:
            return EMPTY
        right_open = True
    if right < left:
        return EMPTY
    if left == right and (left_open or right_open):
        return EMPTY
    return _build((left, right, left_open, right_open))


def make(left, right, left_open=False, right_open=False) -> Interval:
    """Convenience constructor accepting ints/strings for endpoints."""
    return normalize(_coerce(left), _coerce(right), left_open, right_open)


def point(value) -> Interval:
    v = _coerce(value)
    return normalize(v, v, False, False)


FULL_LINE = normalize(NEG_INF, POS_INF, True, True)


def _coerce(v) -> Bound:
    if isinstance(v, float) and math.isinf(v):
        return POS_INF if v > 0 else NEG_INF
    return rational(Fraction(v))


# The four shifts, as (sign, crossed, widening): the result's left end is
# i1's left end plus sign times i2's left end (its right end when crossed),
# and its right end likewise with i2's other end.  A widening shift opens an
# end when either input's end is open; a narrowing one keeps it open only
# when i1's end is open and i2's is closed.
_SHIFTS = {
    "plus": (1, False, True),
    "minus": (-1, True, True),
    "circleplus": (1, True, False),
    "circleminus": (-1, False, False),
}


def interval_op(kind: str, i1: Interval, i2: Optional[Interval] = None) -> Interval:
    """The five endpoint/openness operations on intervals.

    kind is one of closure, minus, circleminus, plus, circleplus.  Inputs
    must be non-empty (i2 is ignored for closure).  The four shifts are
    `shift` on the one-interval list [i1].
    """
    if i1.is_empty or (kind != "closure" and (i2 is None or i2.is_empty)):
        raise ValueError("interval_op requires non-empty inputs")
    if kind == "closure":
        return normalize(i1.left, i1.right, False, False)
    if kind not in _SHIFTS:
        raise ValueError(f"unknown interval operation {kind!r}")
    return (shift(kind, [i1], i2) or [EMPTY])[0]


def negate(b: Bound) -> Bound:
    """-b; an infinite bound becomes the opposite POS_INF/NEG_INF constant."""
    if b.__class__ is float:
        return NEG_INF if b > 0 else POS_INF
    return -b


def shift(kind: str, intervals: list[Interval], rho: Interval) -> list[Interval]:
    """interval_op(kind, t, rho) over a coalesced list, coalesced, in one pass.

    Every left end moves by the same amount, so the results come out in
    order; a widening shift merges each result into the one before it when
    they meet, and a narrowing one only drops the empty results (the others
    stay pairwise apart).  Bounds follow bound_add: an infinite end of t
    stays put, an infinite amount moves a finite end to infinity.
    """
    sign, crossed, widen = _SHIFTS[kind]
    if crossed:
        dl, dl_open, dr, dr_open = rho.right, rho.right_open, rho.left, rho.left_open
    else:
        dl, dl_open, dr, dr_open = rho.left, rho.left_open, rho.right, rho.right_open
    if sign < 0:
        dl, dr = negate(dl), negate(dr)
    dl_inf, dr_inf = isinstance(dl, float), isinstance(dr, float)
    # an open end of rho fixes the result's openness at that end, a closed
    # one leaves t's; an infinite end of t stays put, open
    lo_fixed = widen if dl_open else None
    ro_fixed = widen if dr_open else None
    out: list[Interval] = []
    # the last result is built only once no later one merges into it
    pending = False
    for left, right, lo, ro in intervals:
        if left.__class__ is not float:
            if dl_inf:
                left, lo = dl, True
            else:
                left += dl
                if left.__class__ is Fraction:  # an int sum is canonical already
                    left = rational(left)
                lo = lo if lo_fixed is None else lo_fixed
        if right.__class__ is not float:
            if dr_inf:
                right, ro = dr, True
            else:
                right += dr
                if right.__class__ is Fraction:
                    right = rational(right)
                ro = ro if ro_fixed is None else ro_fixed
        if right < left or (left == right and (lo or ro)):
            continue
        if pending:
            # rights grow along the list too (or both are +inf), so a merged
            # result keeps the earlier left and the later right
            if run_right > left or (run_right == left and not (run_ro and lo)):
                run_right, run_ro = right, ro
                continue
            out.append(_build((run_left, run_right, run_lo, run_ro)))
        run_left, run_right, run_lo, run_ro = left, right, lo, ro
        pending = True
    if pending:
        out.append(_build((run_left, run_right, run_lo, run_ro)))
    return out


def reflect(intervals: list[Interval]) -> list[Interval]:
    """A coalesced list mirrored in time, itself coalesced: each point t
    becomes -t, so each interval's ends are negated and swapped, and an
    infinite bound becomes the opposite POS_INF/NEG_INF constant."""
    return [_build((negate(r), negate(l), ro, lo)) for l, r, lo, ro in reversed(intervals)]


def intersect(i1: Interval, i2: Interval) -> Interval:
    if i1.is_empty or i2.is_empty:
        return EMPTY
    if i1.left < i2.left:
        left, left_open = i2.left, i2.left_open
    elif i2.left < i1.left:
        left, left_open = i1.left, i1.left_open
    else:
        left, left_open = i1.left, i1.left_open or i2.left_open
    if i1.right < i2.right:
        right, right_open = i1.right, i1.right_open
    elif i2.right < i1.right:
        right, right_open = i2.right, i2.right_open
    else:
        right, right_open = i1.right, i1.right_open or i2.right_open
    return normalize(left, right, left_open, right_open)


def union_if_coalescable(i1: Interval, i2: Interval) -> Optional[Interval]:
    """i1 ∪ i2 when it is itself an interval, otherwise None."""
    if i1.is_empty or i2.is_empty:
        raise ValueError("union_if_coalescable requires non-empty inputs")
    a, b = (i2, i1) if i2.sort_key() < i1.sort_key() else (i1, i2)
    # gap iff a ends strictly before b starts, or they touch at a point
    # covered by neither side
    if a.right < b.left:
        return None
    if a.right == b.left and a.right_open and b.left_open:
        return None
    if a.right < b.right:
        return _build((a.left, b.right, a.left_open, b.right_open))
    if b.right < a.right or a.right_open <= b.right_open:
        return a
    return _build((a.left, a.right, a.left_open, False))


def subset(i1: Interval, i2: Interval) -> bool:
    """True iff every point of i1 lies in i2.  EMPTY is a subset of anything."""
    if i1.is_empty:
        return True
    if i2.is_empty:
        return False
    if i1.left < i2.left:
        return False
    if i1.left == i2.left and i2.left_open and not i1.left_open:
        return False
    if i2.right < i1.right:
        return False
    if i1.right == i2.right and i2.right_open and not i1.right_open:
        return False
    return True


def contains_point(i: Interval, t) -> bool:
    return subset(point(t), i)


def gcd_rationals(values: Iterable[Bound]) -> Bound:
    """Largest rational d such that every input is an integer multiple of d.

    Zero values are allowed (everything divides 0) but at least one input
    must be nonzero.
    """
    vals = [Fraction(v) for v in values]
    if not vals:
        raise ValueError("gcd_rationals of an empty collection")
    if any(v < 0 for v in vals):
        raise ValueError("gcd_rationals requires non-negative values")
    nonzero = [v for v in vals if v != 0]
    if not nonzero:
        raise ValueError("gcd_rationals of all-zero values")
    num = reduce(math.gcd, (v.numerator for v in nonzero))
    den = reduce(math.lcm, (v.denominator for v in nonzero))
    return rational(Fraction(num, den))


def coalesce(intervals: Iterable[Interval]) -> list[Interval]:
    """Sorted, pairwise non-coalescable list covering the same point set.

    One pass while the items arrive in order of their left ends (closed
    before open), as the lists built from coalesced ones do: each item
    merges into the last output or follows it.  The first item out of that
    order sends it, the rest of the input and what is merged so far through
    one sort and a second pass.
    """
    out: list[Interval] = []
    items = iter(intervals)
    for iv in items:
        if iv is EMPTY:
            continue
        left, right, lo, ro = iv
        if out:
            if left < last_left or (left == last_left and last_lo and not lo):
                return coalesce(sorted([*out, iv, *items], key=_SORT_KEY))
            # union_if_coalescable on the last item, which starts no later:
            # they merge unless it ends before iv starts or they touch at a
            # point neither covers; the merged end is the later one, closed
            # when either is closed there
            if last_right > left or (last_right == left and not (last_ro and lo)):
                if last_right < right or (last_right == right and last_ro and not ro):
                    last_right, last_ro = right, ro
                    out[-1] = _build((last_left, right, last_lo, ro))
                continue
        out.append(iv)
        last_left, last_right, last_lo, last_ro = left, right, lo, ro
    return out
