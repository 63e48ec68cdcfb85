"""Exact rational intervals on the timeline.

Endpoints are `fractions.Fraction` values or the infinity sentinels NEG_INF /
POS_INF.  All interval values are immutable; the empty interval is the single
module-level EMPTY object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Union


class _Infinity:
    """Signed infinity usable as an interval bound.

    Addition/subtraction follows the convention that an infinite operand
    absorbs finite ones; mixing two infinities of conflicting sign is a bug
    in the caller and raises.
    """

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"

    def __neg__(self):
        return NEG_INF if self.sign > 0 else POS_INF

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __le__(self, other):
        return self is other or self < other

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign > other.sign
        return self.sign > 0

    def __ge__(self, other):
        return self is other or self > other

    def __add__(self, other):
        if isinstance(other, _Infinity) and other.sign != self.sign:
            raise ArithmeticError("inf + -inf is undefined")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Infinity) and other.sign == self.sign:
            raise ArithmeticError("inf - inf is undefined")
        return self

    def __rsub__(self, other):
        # other - self, with other finite (or opposite-sign infinity)
        return -self


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)

Bound = Union[Fraction, _Infinity]


def is_finite(b: Bound) -> bool:
    return not isinstance(b, _Infinity)


def bound_add(a: Bound, b: Bound) -> Bound:
    """a + b; an infinite first operand wins over a conflicting second one.

    The dominance rule is what the interval-operation formulas need: the
    endpoint contributed by the first interval decides when both are
    unbounded (e.g. [3,+inf) shifted by an unbounded operator interval).
    """
    if isinstance(a, _Infinity):
        return a
    return a + b


def bound_sub(a: Bound, b: Bound) -> Bound:
    if isinstance(a, _Infinity):
        return a
    if isinstance(b, _Infinity):
        return -b
    return a - b


def _bound_key(b: Bound):
    if isinstance(b, _Infinity):
        return (b.sign, Fraction(0))
    return (0, b)


def bound_lt(a: Bound, b: Bound) -> bool:
    return _bound_key(a) < _bound_key(b)


@dataclass(frozen=True)
class Interval:
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
        # left bound, closed-before-open, right bound, closed-before-open
        return (
            _bound_key(self.left),
            self.left_open,
            _bound_key(self.right),
            self.right_open,
        )

    def __repr__(self):
        if self is EMPTY:
            return "EMPTY"
        lb = "(" if self.left_open else "["
        rb = ")" if self.right_open else "]"
        return f"{lb}{_fmt_bound(self.left)},{_fmt_bound(self.right)}{rb}"

    def __str__(self):
        return self.__repr__()


def _fmt_bound(b: Bound) -> str:
    if isinstance(b, _Infinity):
        return "+inf" if b.sign > 0 else "-inf"
    if b.denominator == 1:
        return str(b.numerator)
    return f"{b.numerator}/{b.denominator}"


# The unique empty interval: built directly so normalize() can return it.
EMPTY = Interval(POS_INF, NEG_INF, True, True)


def normalize(left: Bound, right: Bound, left_open: bool, right_open: bool) -> Interval:
    """Canonical interval for the given endpoints, or EMPTY if degenerate."""
    if isinstance(left, _Infinity):
        if left.sign > 0:
            return EMPTY
        left_open = True
    if isinstance(right, _Infinity):
        if right.sign < 0:
            return EMPTY
        right_open = True
    if bound_lt(right, left):
        return EMPTY
    if left == right and (left_open or right_open):
        return EMPTY
    return Interval(left, right, left_open, right_open)


def make(left, right, left_open=False, right_open=False) -> Interval:
    """Convenience constructor accepting ints/strings for endpoints."""
    return normalize(_coerce(left), _coerce(right), left_open, right_open)


def point(value) -> Interval:
    v = _coerce(value)
    return normalize(v, v, False, False)


FULL_LINE = normalize(NEG_INF, POS_INF, True, True)


def _coerce(v) -> Bound:
    if isinstance(v, _Infinity):
        return v
    return Fraction(v)


def interval_op(kind: str, i1: Interval, i2: Optional[Interval] = None) -> Interval:
    """The five endpoint/openness operations on intervals.

    kind is one of closure, minus, circleminus, plus, circleplus.  Inputs
    must be non-empty (i2 is ignored for closure).
    """
    if i1.is_empty or (kind != "closure" and (i2 is None or i2.is_empty)):
        raise ValueError("interval_op requires non-empty inputs")
    if kind == "closure":
        return normalize(i1.left, i1.right, False, False)
    if kind == "minus":
        return normalize(
            bound_sub(i1.left, i2.right),
            bound_sub(i1.right, i2.left),
            i1.left_open or i2.right_open,
            i1.right_open or i2.left_open,
        )
    if kind == "circleminus":
        return normalize(
            bound_sub(i1.left, i2.left),
            bound_sub(i1.right, i2.right),
            i1.left_open and not i2.left_open,
            i1.right_open and not i2.right_open,
        )
    if kind == "plus":
        return normalize(
            bound_add(i1.left, i2.left),
            bound_add(i1.right, i2.right),
            i1.left_open or i2.left_open,
            i1.right_open or i2.right_open,
        )
    if kind == "circleplus":
        return normalize(
            bound_add(i1.left, i2.right),
            bound_add(i1.right, i2.left),
            i1.left_open and not i2.right_open,
            i1.right_open and not i2.left_open,
        )
    raise ValueError(f"unknown interval operation {kind!r}")


def intersect(i1: Interval, i2: Interval) -> Interval:
    if i1.is_empty or i2.is_empty:
        return EMPTY
    if bound_lt(i1.left, i2.left):
        left, left_open = i2.left, i2.left_open
    elif bound_lt(i2.left, i1.left):
        left, left_open = i1.left, i1.left_open
    else:
        left, left_open = i1.left, i1.left_open or i2.left_open
    if bound_lt(i1.right, i2.right):
        right, right_open = i1.right, i1.right_open
    elif bound_lt(i2.right, i1.right):
        right, right_open = i2.right, i2.right_open
    else:
        right, right_open = i1.right, i1.right_open or i2.right_open
    return normalize(left, right, left_open, right_open)


def union_if_coalescable(i1: Interval, i2: Interval) -> Optional[Interval]:
    """i1 ∪ i2 when it is itself an interval, otherwise None."""
    if i1.is_empty or i2.is_empty:
        raise ValueError("union_if_coalescable requires non-empty inputs")
    a, b = sorted((i1, i2), key=Interval.sort_key)
    # gap iff a ends strictly before b starts, or they touch at a point
    # covered by neither side
    if bound_lt(a.right, b.left):
        return None
    if a.right == b.left and a.right_open and b.left_open:
        return None
    left, left_open = a.left, a.left_open
    if bound_lt(a.right, b.right):
        right, right_open = b.right, b.right_open
    elif bound_lt(b.right, a.right):
        right, right_open = a.right, a.right_open
    else:
        right, right_open = a.right, a.right_open and b.right_open
    return normalize(left, right, left_open, right_open)


def subset(i1: Interval, i2: Interval) -> bool:
    """True iff every point of i1 lies in i2.  EMPTY is a subset of anything."""
    if i1.is_empty:
        return True
    if i2.is_empty:
        return False
    if bound_lt(i1.left, i2.left):
        return False
    if i1.left == i2.left and i2.left_open and not i1.left_open:
        return False
    if bound_lt(i2.right, i1.right):
        return False
    if i1.right == i2.right and i2.right_open and not i1.right_open:
        return False
    return True


def contains_point(i: Interval, t) -> bool:
    return subset(point(t), i)


def gcd_rationals(values: Iterable[Fraction]) -> Fraction:
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
    return Fraction(num, den)


def coalesce(intervals: Iterable[Interval]) -> list[Interval]:
    """Sorted, pairwise non-coalescable list covering the same point set."""
    items = sorted((i for i in intervals if not i.is_empty), key=Interval.sort_key)
    out: list[Interval] = []
    for iv in items:
        if out:
            merged = union_if_coalescable(out[-1], iv)
            if merged is not None:
                out[-1] = merged
                continue
        out.append(iv)
    return out
