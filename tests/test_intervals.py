"""Interval primitives: the five endpoint operations, intersection,
coalescing, subset, and rational gcd."""

import pickle
from fractions import Fraction

import pytest

from datalogmtl.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    Interval,
    coalesce,
    contains_point,
    gcd_rationals,
    intersect,
    interval_op,
    make,
    normalize,
    point,
    subset,
    union_if_coalescable,
)


def test_normalize_inverted_is_empty():
    assert make(3, 2) is EMPTY


def test_normalize_degenerate_open_end_is_empty():
    assert make(2, 2, False, True) is EMPTY
    assert make(2, 2, True, False) is EMPTY


def test_normalize_identity():
    assert make(0, 5) == Interval(Fraction(0), Fraction(5), False, False)


def test_normalize_forces_infinite_ends_open():
    iv = normalize(NEG_INF, Fraction(3), False, False)
    assert iv.left_open and not iv.right_open


def test_normalize_idempotent():
    for iv in (make(0, 5), make(0, 5, True, True), make(1, 1), EMPTY):
        if iv is EMPTY:
            continue
        again = normalize(iv.left, iv.right, iv.left_open, iv.right_open)
        assert again == iv


# -- the five operations: frozen cases


def test_op_plus_shifts_a_point():
    assert interval_op("plus", make(0, 0), make(1, 2)) == make(1, 2)


def test_op_circleplus_box_past():
    assert interval_op("circleplus", make(0, 14), make(0, 7)) == make(7, 14)


def test_op_circleminus_empty_when_too_wide():
    assert interval_op("circleminus", make(3, 5), make(0, 3)) is EMPTY


def test_op_minus_openness_propagates():
    assert interval_op("minus", make(1, 4, True, False), make(0, 1)) == make(
        0, 4, True, False
    )


def test_op_closure():
    assert interval_op("closure", make(0, 5, True, True)) == make(0, 5)
    assert interval_op("closure", make(2, 7)) == make(2, 7)


def test_op_rejects_empty_input():
    with pytest.raises(ValueError):
        interval_op("plus", EMPTY, make(0, 1))
    with pytest.raises(ValueError):
        interval_op("plus", make(0, 1), EMPTY)


def test_op_unknown_kind():
    with pytest.raises(ValueError):
        interval_op("bogus", make(0, 1), make(0, 1))


def _pointwise_member(kind, t, i1, i2):
    """Membership of t in the result, from the set definitions:
    plus: exists s in i2 with t - s in i1; minus: exists s with t + s in i1;
    circleplus: t - i2 inside i1; circleminus: t + i2 inside i1."""
    if kind == "plus":
        region = normalize(
            t - i2.right if i2.right is not POS_INF else NEG_INF,
            t - i2.left,
            i2.right_open,
            i2.left_open,
        )
        return not intersect(region, i1).is_empty
    if kind == "minus":
        region = normalize(
            t + i2.left,
            t + i2.right if i2.right is not POS_INF else POS_INF,
            i2.left_open,
            i2.right_open,
        )
        return not intersect(region, i1).is_empty
    if kind == "circleplus":
        region = normalize(
            t - i2.right if i2.right is not POS_INF else NEG_INF,
            t - i2.left,
            i2.right_open,
            i2.left_open,
        )
        return subset(region, i1)
    if kind == "circleminus":
        region = normalize(
            t + i2.left,
            t + i2.right if i2.right is not POS_INF else POS_INF,
            i2.left_open,
            i2.right_open,
        )
        return subset(region, i1)
    raise AssertionError(kind)


def _variants(lefts, rights):
    out = []
    for left in lefts:
        for right in rights:
            for lo in (False, True):
                for ro in (False, True):
                    iv = normalize(left, right, lo, ro)
                    if iv is not EMPTY and iv not in out:
                        out.append(iv)
    return out


def test_operation_table_exhaustive():
    # every operation x openness combination x finite/infinite bounds,
    # checked pointwise against the set definitions on a half-integer grid
    # plus far probes for the unbounded ends
    i1s = _variants([Fraction(0), NEG_INF], [Fraction(5), POS_INF])
    i2s = _variants([Fraction(0), Fraction(1)], [Fraction(3), POS_INF])
    samples = [Fraction(k, 2) for k in range(-20, 21)] + [
        Fraction(-(10**6)),
        Fraction(10**6),
    ]
    for kind in ("plus", "minus", "circleplus", "circleminus"):
        for i1 in i1s:
            for i2 in i2s:
                got = interval_op(kind, i1, i2)
                for t in samples:
                    want = _pointwise_member(kind, t, i1, i2)
                    assert contains_point(got, t) == want, (kind, i1, i2, t, got)
    for i1 in i1s:
        got = interval_op("closure", i1)
        for t in samples:
            want = (i1.left is NEG_INF or t >= i1.left) and (
                i1.right is POS_INF or t <= i1.right
            )
            assert contains_point(got, t) == want, ("closure", i1, t, got)


# -- intersect / union / subset


def test_intersect_basic():
    assert intersect(make(0, 5), make(4, 8)) == make(4, 5)


def test_intersect_open_closed_boundary():
    assert intersect(make(0, 1, False, True), make(1, 2)) is EMPTY


def test_intersect_with_unbounded():
    assert intersect(make(0, 3, True, False), make(2, POS_INF, True, True)) == make(
        2, 3, True, False
    )


def test_union_adjacent_closed_endpoint():
    assert union_if_coalescable(make(0, 2), make(2, 4, False, True)) == make(
        0, 4, False, True
    )


def test_union_uncovered_point_gap():
    assert union_if_coalescable(make(0, 1, False, True), make(1, 2, True, False)) is None


def test_union_containment():
    assert union_if_coalescable(make(0, 3), make(1, 2)) == make(0, 3)


def test_subset_cases():
    assert subset(make(1, 3), make(0, 5))
    assert not subset(make(0, 5), make(0, 5, True, False))
    assert subset(EMPTY, EMPTY)
    assert subset(EMPTY, make(0, 1))
    assert not subset(make(0, 1), EMPTY)


def test_gcd_rationals():
    assert gcd_rationals([Fraction(1, 2), Fraction(3, 4)]) == Fraction(1, 4)
    assert gcd_rationals([Fraction(2), Fraction(4)]) == Fraction(2)
    assert gcd_rationals([Fraction(7)]) == Fraction(7)


def test_gcd_rationals_errors():
    with pytest.raises(ValueError):
        gcd_rationals([])
    with pytest.raises(ValueError):
        gcd_rationals([Fraction(0)])
    with pytest.raises(ValueError):
        gcd_rationals([Fraction(-1), Fraction(2)])


def test_coalesce_chains():
    got = coalesce([make(3, 5), make(0, 2), make(2, 3)])
    assert got == [make(0, 5)]


def test_coalesce_keeps_gaps():
    got = coalesce([make(0, 1, False, True), make(1, 2, True, False)])
    assert got == [make(0, 1, False, True), make(1, 2, True, False)]


def test_sort_key_order():
    ivs = [make(0, 5, True, False), make(0, 3), make(0, 5), point(0)]
    ordered = sorted(ivs, key=Interval.sort_key)
    assert ordered == [point(0), make(0, 3), make(0, 5), make(0, 5, True, False)]


# -- value semantics: an Interval is an immutable value, whatever its class


VALUES = [
    (make(0, 5, True, False), "(0,5]"),
    (normalize(NEG_INF, Fraction(3, 2), True, False), "(-inf,3/2]"),
    (normalize(Fraction(-1, 3), POS_INF, False, True), "[-1/3,+inf)"),
    (point(7), "[7,7]"),
    (EMPTY, "EMPTY"),
]


@pytest.mark.parametrize("iv, text", VALUES, ids=[t for _, t in VALUES])
def test_interval_is_a_value(iv, text):
    copy = Interval(iv.left, iv.right, iv.left_open, iv.right_open)
    assert copy == iv and not copy != iv
    assert hash(iv) == hash((iv.left, iv.right, iv.left_open, iv.right_open))
    assert repr(iv) == str(iv) == text
    assert pickle.loads(pickle.dumps(iv)) == iv
    for field in ("left", "right", "left_open", "right_open"):
        with pytest.raises(AttributeError):
            setattr(iv, field, 0)


def test_normalize_returns_the_empty_object_itself():
    assert normalize(3, 2, False, False) is EMPTY
    assert normalize(POS_INF, POS_INF, True, True) is EMPTY
    assert make(2, 2, True, False) is EMPTY
    assert EMPTY.is_empty and not Interval(POS_INF, NEG_INF, True, True).is_empty


def test_intervals_do_not_order():
    # sorting goes through sort_key; the field tuple's order is no interval order
    with pytest.raises(TypeError):
        make(0, 1) < make(2, 3)
    with pytest.raises(TypeError):
        make(0, 1) >= make(2, 3)
    with pytest.raises(TypeError):
        sorted([make(2, 3), make(0, 1)])
