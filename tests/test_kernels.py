"""List-at-a-time interval kernels against their per-interval references:
`shift` against one endpoint operation per interval and a sorted coalesce,
`coalesce`'s in-order pass against sorting first, `reflect` against
negating each point, and `evaluate_rule` and `apply_rules` against one head
mapping per body interval; and the cached atom key, which must leave atoms
and facts as they were."""

import pickle
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from datalogmtl.evaluation import apply_operator, evaluate_rule, merge_intervals, substitutions
from datalogmtl.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    Interval,
    bound_add,
    coalesce,
    interval_op,
    make,
    normalize,
    point,
    rational,
    reflect,
    shift,
)
from datalogmtl.materialisation import apply_rules
from datalogmtl.store import FactStore
from datalogmtl.syntax import (
    Bottom,
    Constant,
    Fact,
    Program,
    Rel,
    RelationalAtom,
    Rule,
    UnaryOp,
    Variable,
    parse_dataset,
    parse_fact,
    parse_program,
    substitute,
)

SHIFTS = ("plus", "minus", "circleplus", "circleminus")

# -- per-interval references


def bound_sub(a, b):
    """a - b; an infinite a wins, and a finite a minus an infinite b is the
    opposite infinity constant."""
    if a in (NEG_INF, POS_INF):
        return a
    if b in (NEG_INF, POS_INF):
        return NEG_INF if b > 0 else POS_INF
    return rational(a - b)


def op_reference(kind, i1, i2):
    """One endpoint operation on two non-empty intervals, from its formulas."""
    if kind == "plus":
        return normalize(
            bound_add(i1.left, i2.left),
            bound_add(i1.right, i2.right),
            i1.left_open or i2.left_open,
            i1.right_open or i2.right_open,
        )
    if kind == "minus":
        return normalize(
            bound_sub(i1.left, i2.right),
            bound_sub(i1.right, i2.left),
            i1.left_open or i2.right_open,
            i1.right_open or i2.left_open,
        )
    if kind == "circleplus":
        return normalize(
            bound_add(i1.left, i2.right),
            bound_add(i1.right, i2.left),
            i1.left_open and not i2.right_open,
            i1.right_open and not i2.left_open,
        )
    return normalize(
        bound_sub(i1.left, i2.left),
        bound_sub(i1.right, i2.right),
        i1.left_open and not i2.left_open,
        i1.right_open and not i2.right_open,
    )


def coalesce_reference(intervals):
    """Sort by sort key, then merge each interval into the last output when
    no point lies between them."""
    out = []
    for b in sorted((i for i in intervals if i is not EMPTY), key=Interval.sort_key):
        if out:
            a = out[-1]
            if a.right > b.left or (a.right == b.left and not (a.right_open and b.left_open)):
                if b.right > a.right:
                    right, right_open = b.right, b.right_open
                elif b.right < a.right:
                    right, right_open = a.right, a.right_open
                else:
                    right, right_open = a.right, a.right_open and b.right_open
                out[-1] = normalize(a.left, right, a.left_open, right_open)
                continue
        out.append(b)
    return out


def reverse_head_reference(head, interval):
    """A head applied to one body interval: a Fact, or ("bottom", interval)."""
    m, iv = head, interval
    while isinstance(m, UnaryOp):
        iv = op_reference("minus" if m.op == "BOXMINUS" else "plus", iv, m.interval)
        m = m.sub
    return ("bottom", iv) if isinstance(m, Bottom) else Fact(m.atom, iv)


def evaluate_rule_reference(rule, store):
    """evaluate_rule with one head mapping per body interval."""
    out = []
    for sigma in substitutions(rule, store):
        body = merge_intervals(apply_operator(substitute(lit, sigma), store) for lit in rule.body)
        head = substitute(rule.head, sigma)
        out += [reverse_head_reference(head, iv) for iv in body]
    return out


def by_key(derived):
    """Derivations grouped as {atom key or "bottom": coalesced intervals}."""
    groups = {}
    for d in derived:
        if isinstance(d, tuple):
            groups.setdefault("bottom", []).append(d[1])
        else:
            groups.setdefault(d.atom.key(), []).append(d.interval)
    return {k: coalesce_reference(v) for k, v in groups.items()}


def canonical(intervals):
    for iv in intervals:
        for b in (iv.left, iv.right):
            ok = type(b) is int or (type(b) is Fraction and b.denominator != 1)
            assert ok or b is POS_INF or b is NEG_INF, (iv, b)
    return True


# -- strategies

finite = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=3),
).map(rational)


@st.composite
def intervals(draw):
    """Non-empty intervals with int or Fraction ends, ±inf on either side,
    open or closed."""
    a, b = sorted((draw(finite), draw(finite)))
    left = NEG_INF if draw(st.integers(0, 7)) == 0 else a
    right = POS_INF if draw(st.integers(0, 7)) == 0 else b
    iv = normalize(left, right, draw(st.booleans()), draw(st.booleans()))
    return normalize(a, a, False, False) if iv is EMPTY else iv


coalesced_lists = st.lists(intervals(), max_size=10).map(coalesce_reference)


@st.composite
def rhos(draw):
    """Operator intervals: [0,0], punctual, bounded or up to +inf, each end
    open or closed where the interval allows it."""
    shape = draw(st.sampled_from(("zero", "punctual", "range", "unbounded")))
    a = abs(draw(finite))
    if shape == "zero":
        return point(0)
    if shape == "punctual":
        return normalize(a, a, False, False)
    b = POS_INF if shape == "unbounded" else a + abs(draw(finite))
    iv = normalize(a, b, draw(st.booleans()), draw(st.booleans()))
    return normalize(a, a, False, False) if iv is EMPTY else iv


# -- shift


@example("circleplus", [make(0, 1, False, True), make(1, 2, True, False)], point(0))
@example("plus", [make(0, 1, False, True), make(1, 2, True, False)], make(0, 1))
@example("minus", [make(NEG_INF, 0, True, False), make(1, 2)], make(3, POS_INF, False, True))
@given(st.sampled_from(SHIFTS), coalesced_lists, rhos())
@settings(max_examples=400)
def test_shift_matches_one_operation_per_interval(kind, lst, rho):
    got = shift(kind, lst, rho)
    assert got == coalesce_reference(op_reference(kind, t, rho) for t in lst)
    assert canonical(got)


@given(st.sampled_from(SHIFTS), coalesced_lists, intervals())
def test_shift_takes_any_operand_interval(kind, lst, i2):
    # rho may be negative or unbounded on either side here, as interval_op's
    # operands may be
    assert shift(kind, lst, i2) == coalesce_reference(op_reference(kind, t, i2) for t in lst)


@given(st.sampled_from(SHIFTS), intervals(), intervals())
def test_interval_op_is_the_one_interval_shift(kind, i1, i2):
    got = interval_op(kind, i1, i2)
    assert got == op_reference(kind, i1, i2)
    assert got is EMPTY or canonical([got])


@given(coalesced_lists)
def test_reflect_matches_negated_points(lst):
    mirrored = [op_reference("minus", point(0), iv) for iv in reversed(lst)]
    assert reflect(lst) == mirrored
    assert canonical(reflect(lst))


# -- coalesce


@st.composite
def coalesce_inputs(draw):
    """Lists in order, shuffled, with runs sharing a left end, or with
    neighbours touching at a point both leave open."""
    items = draw(st.lists(intervals(), max_size=10))
    shape = draw(st.sampled_from(("in order", "shuffled", "equal left", "touching open")))
    if shape == "equal left":
        extra = []
        for iv in items:
            if iv.right is POS_INF or iv.right == iv.left:
                continue
            mid = (iv.left + iv.right) / 2 if iv.left is not NEG_INF else iv.right - 1
            extra.append(normalize(iv.left, rational(mid), not iv.left_open, draw(st.booleans())))
        items += [iv for iv in extra if iv is not EMPTY]
    elif shape == "touching open":
        extra = []
        for iv in items:
            if iv.right is not POS_INF:
                extra.append(make(iv.right, iv.right + 1, True, draw(st.booleans())))
        items += extra
    if shape == "shuffled":
        return draw(st.permutations(items))
    if shape == "in order" or draw(st.booleans()):
        return sorted(items, key=Interval.sort_key)
    return items


@example([make(0, 1, True, False), make(0, 2)])
@example([make(0, 1, False, True), make(1, 2, True, False), make(1, 1)])
@given(coalesce_inputs())
@settings(max_examples=200)
def test_coalesce_matches_sorting_first(items):
    want = coalesce_reference(items)
    assert coalesce(items) == want
    # a generator input is read once, the out-of-order rest included
    assert coalesce(iter(items + [EMPTY])) == want


# -- evaluate_rule and apply_rules

BODIES = (
    "P(X)",
    "DIAMONDMINUS[0,2] P(X)",
    "BOXMINUS[0,1] P(X)",
    "P(X), DIAMONDPLUS[1/2,2] Q(X)",
    "BOXPLUS[0,1] Q(X)",
    "P(X) SINCE[0,2] Q(X)",
    "P(X) UNTIL[1,3] Q(X)",
)


@st.composite
def rules(draw):
    """A rule over P and Q with an H(X) or BOTTOM head under up to two
    BOXMINUS/BOXPLUS operators."""
    body = parse_program(f"H(X) :- {draw(st.sampled_from(BODIES))} .").rules[0].body
    head = Bottom() if draw(st.booleans()) else Rel(RelationalAtom("H", (Variable("X"),)))
    for _ in range(draw(st.integers(0, 2))):
        head = UnaryOp(draw(st.sampled_from(("BOXMINUS", "BOXPLUS"))), draw(rhos()), head)
    return Rule(head, body)


@st.composite
def stores(draw):
    by_key = {}
    for pred in ("P", "Q"):
        for c in ("a", "b"):
            by_key[(pred, (c,))] = draw(st.lists(intervals(), max_size=6))
    return FactStore.from_intervals(by_key)


@given(rules(), stores())
@settings(max_examples=200, deadline=None)
def test_evaluate_rule_matches_one_head_mapping_per_interval(rule, store):
    got = evaluate_rule(rule, store)
    want = evaluate_rule_reference(rule, store)
    assert by_key(got) == by_key(want)
    # apply_rules stores the same: facts per key and the BOTTOM intervals
    out = apply_rules(Program((rule,)), store)
    groups = by_key(want)
    assert out.bottom_intervals == groups.pop("bottom", [])
    for key, ivs in groups.items():
        assert out.intervals_for(key) == coalesce_reference(store.intervals_for(key) + ivs)


def test_many_bottom_intervals_are_marked_at_once():
    # 200 disjoint P(a) intervals, each a BOTTOM derivation of the first
    # rule; the second rule widens each Q(a) interval of the second half by
    # 3 to the left, which bridges every gap there
    data = [f"P(a)@[{4 * i},{4 * i + 1}]" for i in range(200)]
    data += [f"Q(a)@[{4 * i},{4 * i + 1}]" for i in range(100, 200)]
    store = FactStore.from_facts(parse_dataset("\n".join(data)))
    program = parse_program("BOTTOM :- P(a) .\nBOXMINUS[0,3] BOTTOM :- DIAMONDMINUS[0,0] Q(a) .")
    want = coalesce_reference(
        d[1] for rule in program.rules for d in evaluate_rule_reference(rule, store)
    )
    out = apply_rules(program, store)
    assert out.bottom_intervals == want
    assert len(want) == 100 and want[-1] == make(396, 797)


# -- the cached atom key


def test_cached_key_leaves_atoms_and_facts_unchanged():
    fresh = parse_fact("Works(alice,acme)@[1,2]")
    keyed = parse_fact("Works(alice,acme)@[1,2]")
    before = repr(keyed), hash(keyed), hash(keyed.atom)
    assert keyed.atom.key() == ("Works", ("alice", "acme"))
    assert keyed.atom.key() is keyed.atom.key()
    after = repr(keyed), hash(keyed), hash(keyed.atom)
    assert after == before
    assert keyed == fresh and keyed.atom == fresh.atom
    assert {keyed: 1}[fresh] == 1
    copy = pickle.loads(pickle.dumps(keyed))
    assert copy == keyed and copy.atom.key() == keyed.atom.key()
    other = RelationalAtom("Works", (Constant("alice"), Constant("acme")))
    assert other == keyed.atom and hash(other) == hash(keyed.atom) and repr(other) == repr(keyed.atom)
